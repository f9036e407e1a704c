from fractions import Fraction
from functools import cache
from itertools import product as cartesian
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from crystal_forge.adhm import ADHMDatum, GradedFlag, check_preprojective, stratum_membership
from crystal_forge.crystal import tensor
from crystal_forge.dimensions import (
    StratumParams,
    basic_dims,
    bistable_split_fiber_dim,
    core_split_fiber_dim,
    dominance_vector,
    flag_split_fiber_dim,
    gprime_integrable,
    gprime_weight,
    graded_grassmannian_dim,
    hw_weight,
    strat_dims,
    v_from_weight,
)
from crystal_forge.dynkin import dynkin, pairing, vadd, vsub
from crystal_forge.linalg import full_space, mat, span
from crystal_forge.paths import build_crystal

from oracles import (
    a1_v1_label,
    a1_v1_label_counts,
    a2_v11_label,
    a2_v11_label_counts,
    a2_v11_stable,
)

A1 = dynkin("A", 1)
A2 = dynkin("A", 2)
A3 = dynkin("A", 3)
D4 = dynkin("D", 4)


def test_basic_examples():
    rec = basic_dims(A1, (3,), (1,))
    assert rec["dim_bistable_variety"] == 4  # 2*v*(d-v)
    rec = basic_dims(A2, (0, 0), (1, 1))
    assert rec["dim_preprojective"] == 1
    rec = basic_dims(A2, (1, 1), (1, 1))
    assert rec["bistable_nonempty"]
    assert rec["dominance_vector"] == (0, 0)


def test_graded_variety_dimension():
    rec = basic_dims(A1, (3,), (2,), v0=(1,))
    # half of dim M^s(d,v) plus half of dim M^{s,*s}(d,v0)
    ms = basic_dims(A1, (3,), (2,))["dim_quiver_variety"]
    mss = basic_dims(A1, (3,), (1,))["dim_bistable_variety"]
    assert rec["dim_graded_variety"] == ms // 2 + mss // 2


def test_tensor_variety_two_routes():
    params = StratumParams(
        A2, (2, 2), (1, 1), ((2, 0), (0, 2)), ((1, 0), (0, 1))
    )
    dims = strat_dims(params)
    ms = basic_dims(A2, (2, 2), (1, 1))["dim_quiver_variety"]
    mss = sum(
        basic_dims(A2, ds, vs)["dim_bistable_variety"]
        for ds, vs in zip(params.d_tuple, params.v_tuple)
    )
    assert dims["dim_tensor_variety"] * 2 == ms + mss


def test_single_factor_degeneration():
    d, v = (2, 1), (1, 1)
    params = StratumParams(A2, d, v, (d,), (v,))
    dims = strat_dims(params)
    assert dims["dim_mult_variety"] == basic_dims(A2, d, v)["dim_bistable_variety"]


def test_tensor_minus_mult_variety_difference():
    # the two stratum quotients differ by half the gap between the stable
    # and bistable variety dimensions (identically zero in closed form)
    params = StratumParams(A2, (2, 2), (2, 1), ((2, 0), (0, 2)), ((1, 0), (0, 1)))
    dims = strat_dims(params)
    rec = basic_dims(A2, (2, 2), (2, 1))
    gap = rec["dim_quiver_variety"] - rec["dim_bistable_variety"]
    assert dims["dim_tensor_variety"] - dims["dim_mult_variety"] == gap // 2


def test_core_split_fiber_example():
    assert core_split_fiber_dim(A1, (2,), (1,), (1,)) == 1


def test_grassmannian_dim():
    assert graded_grassmannian_dim((1, 0), (2, 1)) == 1
    assert graded_grassmannian_dim((0, 0), (2, 1)) == 0


def test_weight_dictionaries():
    assert hw_weight(A2, (2, 0), (1, 0)) == (0, 1)
    assert v_from_weight(A2, (2, 0), (0, 1)) == (1, 0)
    assert v_from_weight(A2, (1, 0), (0, 0)) is None  # non-integral solution
    gw = gprime_weight(A2, (2, 0), (1, 0))
    assert gw == ((1, 1), (1, 0))
    assert gprime_integrable(gw)
    assert not gprime_integrable(((0, 0), (1, 0)))


@given(st.data())
def test_hw_roundtrip_and_nonempty_dictionary(data):
    d = tuple(data.draw(st.integers(0, 5)) for _ in range(2))
    v0 = tuple(data.draw(st.integers(0, 5)) for _ in range(2))
    mu = hw_weight(A2, d, v0)
    assert basic_dims(A2, d, v0)["bistable_nonempty"] == A2.is_dominant(mu)
    if A2.is_dominant(mu):
        assert v_from_weight(A2, d, mu) == v0


@given(st.data())
def test_quiver_variety_dims_are_even(data):
    diagram = data.draw(st.sampled_from([A2, A3, D4]))
    d = tuple(data.draw(st.integers(0, 4)) for _ in range(diagram.rank))
    v = tuple(data.draw(st.integers(0, 4)) for _ in range(diagram.rank))
    rec = basic_dims(diagram, d, v)
    assert rec["dim_quiver_variety"] % 2 == 0
    assert pairing(diagram.apply_x(v), v) % 2 == 0


def _random_params(rng, diagram, n):
    rank = diagram.rank
    v_tuple = tuple(tuple(rng.randint(0, 3) for _ in range(rank)) for _ in range(n))
    vt_tuple = tuple(tuple(rng.randint(0, 3) for _ in range(rank)) for _ in range(n))
    d_tuple = tuple(tuple(rng.randint(0, 3) for _ in range(rank)) for _ in range(n))
    v = tuple(sum(w[j] for w in v_tuple + vt_tuple) for j in range(rank))
    d = tuple(sum(w[j] for w in d_tuple) for j in range(rank))
    return StratumParams(diagram, d, v, d_tuple, v_tuple, vt_tuple)


def test_flag_split_fiber_bookkeeping():
    rng = Random(12)
    for _ in range(60):
        diagram = rng.choice([A2, A3, D4])
        n = rng.randint(2, 4)
        params = _random_params(rng, diagram, n)
        k = rng.randint(1, n - 1)
        head = StratumParams(
            diagram,
            tuple(sum(w[j] for w in params.d_tuple[:k]) for j in range(diagram.rank)),
            tuple(
                sum(w[j] for w in params.v_tuple[:k] + params.vt_tuple[:k])
                for j in range(diagram.rank)
            ),
            params.d_tuple[:k],
            params.v_tuple[:k],
            params.vt_tuple[:k],
        )
        tail = StratumParams(
            diagram,
            tuple(sum(w[j] for w in params.d_tuple[k:]) for j in range(diagram.rank)),
            tuple(
                sum(w[j] for w in params.v_tuple[k:] + params.vt_tuple[k:])
                for j in range(diagram.rank)
            ),
            params.d_tuple[k:],
            params.v_tuple[k:],
            params.vt_tuple[k:],
        )
        total = strat_dims(params)["dim_stratum_flag"]
        split = (
            strat_dims(head)["dim_stratum_flag"]
            + strat_dims(tail)["dim_stratum_flag"]
            + flag_split_fiber_dim(params, k)
        )
        assert total == split


def test_bistable_split_fiber_bookkeeping():
    # two-step bistable stratum with the flag fixed: total = ends + middle + fiber
    rng = Random(13)
    for _ in range(60):
        diagram = rng.choice([A2, A3, D4])
        rank = diagram.rank
        v1, u, v2, d1, d2 = (
            tuple(rng.randint(0, 3) for _ in range(rank)) for _ in range(5)
        )
        v = tuple(a + b + c for a, b, c in zip(v1, u, v2))
        d = vadd(d1, d2)
        params = StratumParams(
            diagram, d, v, (d1, d2), (v1, v2), (tuple(0 for _ in range(rank)), u)
        )
        total = strat_dims(params)["dim_stratum_flag"]
        ends = (
            basic_dims(diagram, d1, v1)["dim_bistable_locus"]
            + basic_dims(diagram, d2, v2)["dim_bistable_locus"]
        )
        middle = basic_dims(diagram, (0,) * rank, u)["dim_preprojective"]
        fiber = bistable_split_fiber_dim(diagram, d1, v1, u, d2, v2)
        assert total == ends + middle + fiber


def test_core_split_bookkeeping_identity():
    rng = Random(14)
    for _ in range(60):
        diagram = rng.choice([A2, A3, D4])
        n = rng.randint(1, 3)
        params = _random_params(rng, diagram, n)
        u = tuple(rng.randint(0, c) for c in params.v)
        t = vsub(params.v, u)
        reduced = StratumParams(
            diagram, params.d, t, params.d_tuple, params.v_tuple
        )
        lhs = strat_dims(params)["dim_stratum"] - pairing(u, t)
        xuu = pairing(diagram.apply_x(u), u)
        rhs = (
            xuu // 2
            + strat_dims(reduced)["dim_stratum_bistable"]
            + core_split_fiber_dim(diagram, params.d, u, t)
        )
        assert lhs == rhs


def test_param_validation():
    with pytest.raises(ValueError):
        StratumParams(A2, (1, 0), (1, 1), ((1, 0), (1, 0)), ((1, 0),))
    with pytest.raises(ValueError):
        StratumParams(A2, (1, 0), (1, 1), ((2, 0),), ((1, 0),))
    with pytest.raises(ValueError):
        StratumParams(A2, (2, 0), (1, 1), ((2, 0),), ((1, 0),), ((1, 1),))
    with pytest.raises(ValueError):
        flag_split_fiber_dim(
            StratumParams(A2, (2, 0), (1, 0), ((2, 0),), ((1, 0),)), 1
        )


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: StratumParams(A2, (2, 0), (1, 1), ((1, 0), (1, 0)), ((1, 0), (0, 1)), ((0, 0),)),
            "vt_tuple must have length n",
        ),
        (
            lambda: flag_split_fiber_dim(
                StratumParams(
                    A2, (2, 0), (1, 1), ((1, 0), (1, 0)), ((1, 0), (0, 1)), ((0, 0), (0, 0))
                ),
                0,
            ),
            "cut position k must satisfy 0 < k < 2",
        ),
        (
            lambda: gprime_integrable(((1, 0), (1,))),
            "extended weight components must have equal length",
        ),
    ],
    ids=["short-vt-tuple", "cut-at-0", "unequal-lengths"],
)
def test_refusal_texts(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_dominance_vector():
    assert dominance_vector(A2, (2, 0), (1, 0)) == (0, 1)


# -- the weight formulas against index loops over the matrices ---------------

_ALL_ADE = tuple(
    dynkin(family, rank)
    for family, ranks in (("A", range(1, 9)), ("D", range(4, 9)), ("E", range(6, 9)))
    for rank in ranks
)


def _loop_matvec(rows, v):
    n = len(v)
    return tuple(sum(rows[i][j] * v[j] for j in range(n)) for i in range(n))


@given(st.data())
def test_weight_formulas_match_index_loops(data):
    diagram = data.draw(st.sampled_from(_ALL_ADE))
    n = diagram.rank
    vector = st.tuples(*(st.integers(-3, 5) for _ in range(n)))
    d, v = data.draw(vector), data.draw(vector)
    cartan, x = diagram.cartan, diagram.x_matrix
    xv = _loop_matvec(x, v)
    assert diagram.apply_x(v) == xv
    assert diagram.apply_cartan(v) == _loop_matvec(cartan, v)
    assert dominance_vector(diagram, d, v) == tuple(d[i] - 2 * v[i] + xv[i] for i in range(n))
    assert gprime_weight(diagram, d, v) == (tuple(d[i] - v[i] + xv[i] for i in range(n)), v)
    for i in range(n):
        assert diagram.simple_root(i) == tuple(cartan[j][i] for j in range(n))


@cache
def _small_dominant(diagram):
    """Dominant weights with entries at most 2 and dimension at most 300."""
    return [
        w for w in cartesian(range(3), repeat=diagram.rank) if diagram.weyl_dimension(w) <= 300
    ]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_extended_weight_is_the_weight_plus_v(data):
    # with d = lambda + Av0 and Av = d - mu, the extended weight
    # (d - v + Xv, v) has first entry d - Av + v = mu + v
    diagram = data.draw(st.sampled_from(_ALL_ADE))
    lam = data.draw(st.sampled_from(_small_dominant(diagram)))
    v0 = data.draw(st.tuples(*(st.integers(0, 2) for _ in range(diagram.rank))))
    d = vadd(lam, diagram.apply_cartan(v0))
    for mu in set(build_crystal(diagram, lam).weights):
        v = v_from_weight(diagram, d, mu)
        assert v is not None
        assert gprime_weight(diagram, d, v) == (vadd(mu, v), v)


def _interpolate(points) -> list[Fraction]:
    """Coefficients, constant first, of the polynomial of degree below
    len(points) through the points (Lagrange)."""
    coeffs = [Fraction(0)] * len(points)
    for j, (xj, yj) in enumerate(points):
        basis = [Fraction(yj)]
        for m, (xm, _) in enumerate(points):
            if m != j:  # times (x - xm) / (xj - xm)
                basis = [(a - xm * b) / (xj - xm) for a, b in zip([0, *basis], [*basis, 0])]
        coeffs = [c + b for c, b in zip(coeffs, basis)]
    return coeffs


@pytest.mark.parametrize(
    "d1, d2", [(1, 1), (2, 1), (1, 2), pytest.param(2, 2, marks=pytest.mark.slow)]
)
def test_a1_strata_have_monic_point_counts_of_their_dimension(d1, d2):
    # the paper's component theorem over F_ell, A1 with v = 1: each stratum
    # of stable data modulo GL_1 has ell^dim + lower terms points, and the
    # strata of v_tuple = 0 number the vertices of weight d - 2v; d = 4
    # reaches degree 4, so it takes a fifth prime (~12 s, the slow tier)
    d, v = (d1 + d2,), (1,)
    primes = (2, 3, 5, 7) if d1 + d2 < 4 else (2, 3, 5, 7, 11)
    counts = {ell: a1_v1_label_counts(d1, d2, ell) for ell in primes}
    labels = set().union(*counts.values())
    for v_tuple, vt_tuple in labels:
        params = StratumParams(A1, d, v, ((d1,), (d2,)), v_tuple, vt_tuple)
        degree = strat_dims(params)["dim_tensor_variety"]
        assert 0 <= degree < len(primes)  # so the fit has a coefficient at that degree
        fit = _interpolate([(ell, counts[ell][v_tuple, vt_tuple]) for ell in primes])
        assert fit[degree:] == [1] + [0] * (len(primes) - 1 - degree), (v_tuple, vt_tuple)
    product = tensor(build_crystal(A1, (d1,)), build_crystal(A1, (d2,)))
    tops = [label for label in labels if label[0] == ((0,), (0,))]
    assert len(tops) == product.weights.count(dominance_vector(A1, d, v)) == 2


@pytest.mark.parametrize("d1, d2", [(1, 1), (2, 1), (1, 2)])
def test_the_a1_point_count_label_is_stratum_membership(d1, d2):
    # the counter's label rule against the library on integer data, p q = 0
    d = d1 + d2
    first = span([[int(r == c) for r in range(d)] for c in range(d1)], d)  # F^(d1)
    flag = GradedFlag(A1, (d,), ((first,), (full_space(d),)))
    seen = set()
    for p in cartesian((-1, 0, 1), repeat=d):
        for q in cartesian((-1, 0, 2), repeat=d):
            if any(p) and pairing(p, q) == 0:
                datum = ADHMDatum(A1, (d,), (1,), {}, (mat([p]),), (mat([[c] for c in q]),))
                label = a1_v1_label(p, q, d1)
                assert stratum_membership(datum, flag) == label, (p, q)
                seen.add(label)
    assert seen == {None, *a1_v1_label_counts(d1, d2, 3)}


def _a2_flag(first):
    """0 < D_first < D on A2 with d = (1, 1)."""
    step = tuple(full_space(1) if i == first else span([], 1) for i in (0, 1))
    return GradedFlag(A2, (1, 1), (step, (full_space(1), full_space(1))))


@pytest.mark.parametrize("first", [0, 1])
def test_a2_strata_have_monic_point_counts_of_their_dimension(first):
    # A2 with v = d = (1, 1), where the <Xv, v> term of the dimension is not
    # zero: every stratum's count of stable data is (ell - 1)^2 times its
    # count modulo GL_v, which is ell^dim + lower terms, and its labels
    # number the vertices of weight d - Av in B(D_first) x B(D / D_first)
    d, v, primes = (1, 1), (1, 1), (2, 3, 5, 7)
    bottom = tuple(int(i == first) for i in (0, 1))
    pieces = (bottom, vsub(d, bottom))
    counts = {ell: a2_v11_label_counts(first, ell) for ell in primes}
    labels = set().union(*counts.values())
    for v_tuple, vt_tuple in labels:
        params = StratumParams(A2, d, v, pieces, v_tuple, vt_tuple)
        degree = strat_dims(params)["dim_tensor_variety"]
        assert 0 <= degree < len(primes)  # so four points over-determine the fit
        points = []
        for ell in primes:
            quotient, rest = divmod(counts[ell][v_tuple, vt_tuple], (ell - 1) ** 2)
            assert rest == 0, (ell, v_tuple, vt_tuple)
            points.append((ell, quotient))
        fit = _interpolate(points)
        assert fit[degree:] == [1] + [0] * (len(primes) - 1 - degree), (v_tuple, vt_tuple)
    product = tensor(build_crystal(A2, pieces[0]), build_crystal(A2, pieces[1]))
    assert all(v_tuple == ((0, 0), (0, 0)) for v_tuple, _ in labels)
    assert len(labels) == product.weights.count(dominance_vector(A2, d, v)) == 3


@pytest.mark.parametrize("first", [0, 1])
def test_the_a2_point_count_label_is_stratum_membership(first):
    # the counter's moment map and label rule against the library on
    # integer data
    flag, seen, stable = _a2_flag(first), set(), 0
    for x01, x10, p0, p1, q0, q1 in cartesian((-1, 0, 2), repeat=6):
        datum = ADHMDatum(
            A2, (1, 1), (1, 1), {(0, 1): mat([[x01]]), (1, 0): mat([[x10]])},
            (mat([[p0]]), mat([[p1]])), (mat([[q0]]), mat([[q1]])),
        )
        preprojective = x10 * x01 + p0 * q0 == 0 == x01 * x10 - p1 * q1
        assert check_preprojective(datum) == preprojective
        if preprojective and a2_v11_stable(x01, x10, (p0, p1)):
            label = a2_v11_label(x01, x10, (p0, p1), (q0, q1), first)
            assert stratum_membership(datum, flag) == label, (x01, x10, p0, p1, q0, q1)
            seen.add(label)
            stable += 1
    assert stable == 44
    assert seen == {None, *a2_v11_label_counts(first, 3)}
