from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import accumulate, product as cartesian
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from crystal_forge.adhm import (
    ADHMDatum,
    GradedFlag,
    check_preprojective,
    core,
    is_stable,
    kernel_of_q,
    stratum_membership,
)
from crystal_forge.crystal import tensor
from crystal_forge.decompose import multiplicity, tensor_summands
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
from crystal_forge.linalg import mat, span
from crystal_forge.paths import build_crystal

from oracles import thin_label, thin_label_counts, thin_moment

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


def _leading(counts, key, degree) -> int:
    """The coefficient at degree of the polynomial through the point counts
    {ell: Counter} at key, asserted to be integral with no higher term."""
    fit = _interpolate([(ell, points[key]) for ell, points in counts.items()])
    assert all(c.denominator == 1 for c in fit) and not any(fit[degree + 1 :]), (key, fit)
    return fit[degree]


def _by_label(counts) -> Counter:
    """`thin_label_counts` summed over the core of ker q: points per label."""
    out = Counter()
    for (label, _), points in counts.items():
        out[label] += points
    return out


def _coordinate_flag(diagram, d_tuple):
    """The flag whose step k is spanned at vertex i by the first
    d^1_i + ... + d^k_i coordinates of D_i."""
    sizes = list(accumulate(d_tuple, vadd))
    d = sizes[-1]
    unit = [[[int(r == c) for r in range(n)] for c in range(n)] for n in d]
    steps = [[span(unit[i][: s[i]], d[i]) for i in range(len(d))] for s in sizes]
    return GradedFlag(diagram, d, steps)


# the data below repeat a few tiny matrices, and a Mat is immutable
_mat = cache(mat)


def _compare_with_the_library(diagram, v, d_tuple, data):
    """The thin oracle's moment map, stability, label and core of ker q
    against the library's on integer data (x, p, q): edge scalars, rows p_i
    and columns q_i.  Returns the labels of the stable preprojective data
    and how many there were."""
    d, flag = tuple(map(sum, zip(*d_tuple))), _coordinate_flag(diagram, d_tuple)
    seen, stable = set(), 0
    for x, p, q in data:
        datum = ADHMDatum(
            diagram, d, v, {h: _mat(((m,),)) for h, m in x.items()},
            [_mat((row,) * v[i], v[i], d[i]) for i, row in enumerate(p)],
            [_mat(tuple((c,) for c in col), d[i], v[i]) for i, col in enumerate(q)],
        )
        moment = thin_moment(x)
        preprojective = all(moment[i] == pairing(p[i], q[i]) for i in range(diagram.rank))
        assert check_preprojective(datum) == preprojective, (x, p, q)
        if not preprojective:
            continue
        label, kernel_core = thin_label(v, d_tuple, x, p, q)
        assert is_stable(datum) == (kernel_core is not None), (x, p, q)
        if kernel_core is None:
            continue
        assert stratum_membership(datum, flag) == label, (x, p, q)
        assert tuple(s.cols for s in core(datum, kernel_of_q(datum))) == kernel_core, (x, p, q)
        seen.add(label)
        stable += 1
    return seen, stable


@pytest.mark.parametrize("d1, d2", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_a1_strata_have_monic_point_counts_of_their_dimension(d1, d2):
    # the paper's component theorem over F_ell, A1 with v = 1: each stratum
    # of stable data modulo GL_1 has ell^dim + lower terms points, and the
    # strata of v_tuple = 0 number the vertices of weight d - 2v; d = 4
    # reaches degree 4, so it takes a fifth prime
    d, v = (d1 + d2,), (1,)
    primes = (2, 3, 5, 7) if d1 + d2 < 4 else (2, 3, 5, 7, 11)
    counts = {ell: _by_label(thin_label_counts(A1, v, ((d1,), (d2,)), ell)) for ell in primes}
    labels = set().union(*counts.values())
    for v_tuple, vt_tuple in labels:
        params = StratumParams(A1, d, v, ((d1,), (d2,)), v_tuple, vt_tuple)
        degree = strat_dims(params)["dim_tensor_variety"]
        assert 0 <= degree < len(primes)  # so the fit has a coefficient at that degree
        assert _leading(counts, (v_tuple, vt_tuple), degree) == 1, (v_tuple, vt_tuple)
    product = tensor(build_crystal(A1, (d1,)), build_crystal(A1, (d2,)))
    tops = [label for label in labels if label[0] == ((0,), (0,))]
    assert len(tops) == product.weights.count(dominance_vector(A1, d, v)) == 2


@pytest.mark.parametrize("d1, d2", [(1, 1), (2, 1), (1, 2)])
def test_the_a1_point_count_label_is_stratum_membership(d1, d2):
    # the oracle's label rule against the library on integer data
    d_tuple = ((d1,), (d2,))
    cube = list(cartesian((-1, 0, 1), repeat=d1 + d2))
    data = [({}, (p,), (q,)) for p in cube for q in cartesian((-1, 0, 2), repeat=d1 + d2)]
    seen, _ = _compare_with_the_library(A1, (1,), d_tuple, data)
    assert seen == {None, *_by_label(thin_label_counts(A1, (1,), d_tuple, 3))}


def _a2_pieces(first):
    """d = (1, 1) on A2 cut as D_first < D."""
    bottom = tuple(int(i == first) for i in (0, 1))
    return bottom, vsub((1, 1), bottom)


@pytest.mark.parametrize("first", [0, 1])
def test_a2_strata_have_monic_point_counts_of_their_dimension(first):
    # A2 with v = d = (1, 1), where the <Xv, v> term of the dimension is not
    # zero: every stratum's count modulo GL_v is ell^dim + lower terms, and
    # its labels number the vertices of weight d - Av in B(D_first) x
    # B(D / D_first)
    d, v, primes = (1, 1), (1, 1), (2, 3, 5, 7)
    pieces = _a2_pieces(first)
    counts = {ell: _by_label(thin_label_counts(A2, v, pieces, ell)) for ell in primes}
    labels = set().union(*counts.values())
    for v_tuple, vt_tuple in labels:
        params = StratumParams(A2, d, v, pieces, v_tuple, vt_tuple)
        degree = strat_dims(params)["dim_tensor_variety"]
        assert 0 <= degree < len(primes)  # so four points over-determine the fit
        assert _leading(counts, (v_tuple, vt_tuple), degree) == 1, (v_tuple, vt_tuple)
    product = tensor(build_crystal(A2, pieces[0]), build_crystal(A2, pieces[1]))
    assert all(v_tuple == ((0, 0), (0, 0)) for v_tuple, _ in labels)
    assert len(labels) == product.weights.count(dominance_vector(A2, d, v)) == 3


@pytest.mark.parametrize("first", [0, 1])
def test_the_a2_point_count_label_is_stratum_membership(first):
    # the oracle's moment map and label rule against the library on
    # integer data
    data = [
        ({(0, 1): x01, (1, 0): x10}, ((p0,), (p1,)), ((q0,), (q1,)))
        for x01, x10, p0, p1, q0, q1 in cartesian((-1, 0, 2), repeat=6)
    ]
    seen, stable = _compare_with_the_library(A2, (1, 1), _a2_pieces(first), data)
    assert stable == 44
    assert seen == {None, *_by_label(thin_label_counts(A2, (1, 1), _a2_pieces(first), 3))}


def test_the_thin_oracle_sees_edges_and_signs_as_the_library_does():
    # A2 with d = (2, 2): 2-dimensional D_i let the edge scalars move the
    # core of ker q, and entries in {-1, 0, 1, 2} give preprojective data
    # with x01 x10 != 0, where the moment map's orientation sign shows
    rng = Random(20)
    data = [
        ({(0, 1): x01, (1, 0): x10}, ((p00, p01), (p10, p11)), ((q00, q01), (q10, q11)))
        for x01, x10, p00, p01, p10, p11, q00, q01, q10, q11 in (
            rng.choices((-1, 0, 1, 2), k=10) for _ in range(8_000)
        )
    ]
    seen, stable = _compare_with_the_library(A2, (1, 1), ((1, 1), (1, 1)), data)
    assert stable > 150 and None in seen


_D4_CASE = D4, (1, 1, 1, 0), ((1, 0, 0, 0), (0, 0, 1, 0))  # B(w0) x B(w2) at weight w3


def test_d4_strata_have_monic_point_counts_and_are_stratum_membership():
    # the first point counts beyond type A: four labels, each with ell
    # points, and four vertices of weight d - Cv = w3 in B(w0) x B(w2)
    diagram, v, d_tuple = _D4_CASE
    d, primes = (1, 0, 1, 0), (2, 3, 5, 7)
    counts = {ell: _by_label(thin_label_counts(diagram, v, d_tuple, ell)) for ell in primes}
    labels = set().union(*counts.values())
    for label in labels:
        degree = strat_dims(StratumParams(diagram, d, v, d_tuple, *label))["dim_tensor_variety"]
        assert 0 <= degree < len(primes) and _leading(counts, label, degree) == 1, label
    product = tensor(*(build_crystal(diagram, w) for w in d_tuple))
    assert len(labels) == product.weights.count(dominance_vector(diagram, d, v)) == 4
    # every datum with entries in {-1, 0, 2}: x01, x10, x12, x21, p0, p2, q0, q2
    data = [
        ({(0, 1): a, (1, 0): b, (1, 2): c, (2, 1): e}, ((f,), (), (g,), ()), ((h,), (), (k,), ()))
        for a, b, c, e, f, g, h, k in cartesian((-1, 0, 2), repeat=8)
    ]
    seen, stable = _compare_with_the_library(diagram, v, d_tuple, data)
    assert stable == 112 and seen - {None} == labels


@pytest.mark.parametrize(
    "diagram, v, d_tuple",
    [_D4_CASE, (A2, (1, 1), ((1, 1), (1, 1)))],
    ids=["D4-w0-w2", "A2-adjoint-squared"],
)
def test_point_counts_read_components_multiplicity_and_decomposition(diagram, v, d_tuple):
    # the paper's three claims over F_ell, each figure read from the
    # library.  On A2 adjoint x adjoint the four labels with v_tuple = 0
    # count 2l^3 + l^2, 2l^3 + l^2, l^3 and l^3: a label is not a component.
    primes = (2, 3, 5, 7)
    counts = {ell: thin_label_counts(diagram, v, d_tuple, ell) for ell in primes}
    d, zero = tuple(map(sum, zip(*d_tuple))), (0,) * diagram.rank
    weight, top = dominance_vector(diagram, d, v), (zero,) * len(d_tuple)
    # every v_tuple = 0 stratum has the dimension of the tensor product variety
    degree = strat_dims(StratumParams(diagram, d, v, d_tuple, top))["dim_tensor_variety"]
    assert 0 <= degree < len(primes)
    by_label, by_core = {ell: Counter() for ell in primes}, {ell: Counter() for ell in primes}
    for ell, points in counts.items():
        for (label, core_dims), n in points.items():
            if label[0] == top:
                by_label[ell][label] += n
                by_core[ell][core_dims] += n
    # components: the leading coefficients number the vertices of weight d - Cv
    leading = [_leading(by_label, label, degree) for label in set().union(*by_label.values())]
    assert all(leading)
    product = tensor(*(build_crystal(diagram, w) for w in d_tuple))
    assert sum(leading) == product.weights.count(weight)
    # decomposition: split by c = dim core(ker q), the top components with
    # a given c number the summands lambda = d - C(v - c) times the
    # multiplicity of weight d - Cv in B(lambda)
    cores = set().union(*by_core.values())
    observed = {c: lead for c in cores if (lead := _leading(by_core, c, degree))}
    predicted = {}
    for lam, m in tensor_summands(diagram, d_tuple).items():
        if n := build_crystal(diagram, lam).weights.count(weight):
            predicted[vsub(v, v_from_weight(diagram, d, lam))] = m * n
    assert observed == predicted
    # multiplicity: the bistable points, c = 0, carry the multiplicity of d - Cv
    assert observed.get(zero, 0) == multiplicity(diagram, weight, d_tuple)


def test_a2_adjoint_squared_strata_off_the_top_have_monic_counts_of_their_dimension():
    # the two labels with v_tuple != 0 count ell^4 - ell^2: degree 4, so a
    # fifth prime
    d, v, d_tuple, primes = (2, 2), (1, 1), ((1, 1), (1, 1)), (2, 3, 5, 7, 11)
    counts = {ell: _by_label(thin_label_counts(A2, v, d_tuple, ell)) for ell in primes}
    labels = [label for label in set().union(*counts.values()) if label[0] != ((0, 0), (0, 0))]
    assert len(labels) == 2
    for label in labels:
        degree = strat_dims(StratumParams(A2, d, v, d_tuple, *label))["dim_tensor_variety"]
        assert 0 <= degree < len(primes) and _leading(counts, label, degree) == 1, label
