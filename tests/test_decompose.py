import importlib
from collections import Counter
from itertools import permutations, product as cartesian
from math import prod
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from crystal_forge.crystal import CrystalGraph, tensor, tensor_many, trivial_crystal
from crystal_forge.decompose import (
    DecompositionError,
    branch,
    decompose,
    highest_vertices,
    levi_maps,
    multiplicity,
    tensor_summands,
)
from crystal_forge.dynkin import DynkinDiagram, dynkin, vadd, vsub
from crystal_forge.paths import VertexCapError, build_crystal

from oracles import brauer_klimyk, character_product, freudenthal_character, peel_character

A1 = dynkin("A", 1)
A2 = dynkin("A", 2)
A3 = dynkin("A", 3)
D4 = dynkin("D", 4)
E6 = dynkin("E", 6)


def test_highest_vertices():
    b = build_crystal(A2, (2, 1))
    assert highest_vertices(b) == [0]
    t = tensor(build_crystal(A1, (1,)), build_crystal(A1, (1,)))
    tops = highest_vertices(t)
    assert sorted(t.weights[v] for v in tops) == [(0,), (2,)]
    assert len(highest_vertices(trivial_crystal(A2, 5))) == 5


def test_two_doublets():
    t = tensor(build_crystal(A1, (1,)), build_crystal(A1, (1,)))
    dec = decompose(t)
    assert dict(dec.summands) == {(2,): 1, (0,): 1}
    assert dec.total_cardinality() == 4


def test_a1_clebsch_gordan_32():
    t = tensor(build_crystal(A1, (3,)), build_crystal(A1, (2,)))
    dec = decompose(t)
    assert dict(dec.summands) == {(5,): 1, (3,): 1, (1,): 1}


def test_a2_adjoint_square_with_character_oracle():
    t = tensor(build_crystal(A2, (1, 1)), build_crystal(A2, (1, 1)))
    dec = decompose(t)
    expected = {(2, 2): 1, (3, 0): 1, (0, 3): 1, (1, 1): 2, (0, 0): 1}
    assert dict(dec.summands) == expected
    # independent route: Freudenthal characters and peeling
    char = character_product(
        freudenthal_character(A2, (1, 1)), freudenthal_character(A2, (1, 1))
    )
    assert dict(peel_character(A2, char)) == expected
    assert char == t.character()


def test_decomposition_instances_and_assignment():
    t = tensor(build_crystal(A1, (1,)), build_crystal(A1, (1,)))
    dec = decompose(t)
    assert len(dec.instances) == 2
    assert set(dec.assignment) == set(range(4))
    for v, inst in dec.assignment.items():
        assert v in dec.instances[inst].iso
    for inst in dec.instances:
        assert t.is_source(inst.source)
        assert t.weights[inst.source] == inst.hw
    payload = dec.to_json_dict()
    assert payload["schema"] == "crystal-forge/1"
    assert payload["summands"][0] == {"weight": [2], "mult": 1}


def test_decomposition_isos_commute_with_operators():
    t = tensor(build_crystal(A2, (1, 1)), build_crystal(A2, (1, 0)))
    dec = decompose(t)
    from crystal_forge.decompose import _reference

    for inst in dec.instances:
        ref = _reference(A2, inst.hw).crystal
        for v, rv in inst.iso.items():
            assert t.weights[v] == ref.weights[rv]
            for i in range(2):
                fv = t.f(i, v)
                frv = ref.f(i, rv)
                if fv is None or fv not in inst.iso:
                    # either both undefined, or the edge leaves the summand,
                    # which cannot happen inside a component
                    assert fv is None and frv is None
                else:
                    assert inst.iso[fv] == frv


def test_multiplicity_examples():
    assert multiplicity(A2, (1, 1), [(1, 1), (1, 1)]) == 2
    assert multiplicity(A1, (5,), [(1,), (1,)]) == 0
    # the invariant pairing: B(1,0) x B(0,1) contains the trivial crystal once
    assert multiplicity(A2, (0, 0), [(1, 0), (0, 1)]) == 1
    rng = Random(1)
    for diagram in (A2, A3, D4):
        for _ in range(5):
            mus = []
            for _ in range(2):
                while True:
                    mu = tuple(rng.randint(0, 2) for _ in range(diagram.rank))
                    if diagram.weyl_dimension(mu) <= 60:
                        mus.append(mu)
                        break
            total = mus[0]
            for m in mus[1:]:
                total = vadd(total, m)
            assert multiplicity(diagram, total, mus) == 1


def test_multiplicity_counts_each_factor_signature_once(monkeypatch):
    module = importlib.import_module("crystal_forge.decompose")
    monkeypatch.setattr(module, "_reference_cache", {})
    reads = []
    real = CrystalGraph._string_data
    monkeypatch.setattr(CrystalGraph, "_string_data", lambda self: reads.append(1) or real(self))
    factors = [(1, 1), (1, 1), (1, 0), (0, 1)]
    chars = [freudenthal_character(A2, f) for f in factors]
    expected = peel_character(A2, character_product(*chars))[(1, 1)]
    for _ in range(2):
        assert multiplicity(A2, (1, 1), factors) == expected
    # one weight index per distinct later factor, filled on its cached
    # reference; each lists every vertex of B(hw) once
    assert len(reads) == 3
    filled = {hw: ref.index for (_, hw), ref in module._reference_cache.items() if ref.index}
    assert set(filled) == {(1, 1), (1, 0), (0, 1)}
    for hw, index in filled.items():
        assert sum(count for signatures in index.values() for _, count in signatures) == (
            A2.weyl_dimension(hw)
        )


def test_multiplicity_validation():
    with pytest.raises(ValueError):
        multiplicity(A2, (-1, 0), [(1, 0)])
    with pytest.raises(ValueError):
        multiplicity(A2, (1, 0), [(1, -1)])
    with pytest.raises(ValueError):
        multiplicity(A2, (1, 0), [])


@pytest.mark.parametrize(
    "factors, cap",
    [
        ([(1, 1)] * 3, 511),
        ([(300, 300)] * 2, 200_000),
        ([(1, 1), (1, -1)], 200_000),
        ([(1, -1), (1, 0, 0)], 200_000),
        ([(1, 0, 0), (1, -1)], 200_000),
        ([(1, 1)], 0),
        ([(1, -1)], 0),
        ([], 0),
    ],
)
def test_multiplicity_refuses_its_factors_as_tensor_summands_does(factors, cap):
    with pytest.raises((ValueError, VertexCapError)) as summands_error:
        tensor_summands(A2, factors, max_vertices=cap)
    with pytest.raises((ValueError, VertexCapError)) as mult_error:
        multiplicity(A2, (0, 0), factors, max_vertices=cap)
    assert mult_error.type is summands_error.type
    assert str(mult_error.value) == str(summands_error.value)


def test_rank_0_products_count_their_one_vertex():
    point = DynkinDiagram(0, ())
    assert multiplicity(point, (), [(), (), ()]) == 1
    assert tensor_summands(point, [(), ()]) == Counter({(): 1})


def test_sum_rule():
    factors = [(1, 0), (0, 1), (1, 1)]
    product = tensor_many(build_crystal(A2, f) for f in factors)
    dec = decompose(product)
    total = sum(m * A2.weyl_dimension(w) for w, m in dec.summands.items())
    assert total == len(product)


def test_branch_examples():
    b = build_crystal(A2, (1, 0))
    dec, sub = branch(b, [0])
    assert sub.label == "A1"
    assert dict(dec.summands) == {(1,): 1, (0,): 1}

    dec_full, sub_full = branch(b, [0, 1])
    assert dict(dec_full.summands) == dict(decompose(b).summands)

    dec_empty, sub_empty = branch(b, [])
    assert sub_empty.rank == 0
    assert dict(dec_empty.summands) == {(): 3}


def test_branch_d4_to_a3_conserves_cardinality():
    c = build_crystal(D4, (0, 1, 0, 0))
    dec, sub = branch(c, [1, 2, 3])
    assert sub.label == "A3"
    total = sum(m * sub.weyl_dimension(w) for w, m in dec.summands.items())
    assert total == len(c)


def test_levi_maps_examples():
    assert levi_maps(A2, (2, 0), (1, 1), [0]) == ((3,), (1,))
    assert levi_maps(A2, (2, 0), (1, 1), [0, 1]) == ((2, 0), (1, 1))
    assert levi_maps(A2, (0, 0), (1, 0), [1]) == ((1,), (0,))


def test_levi_weight_identity_random():
    rng = Random(9)
    for diagram in (A3, D4, dynkin("E", 6)):
        for _ in range(30):
            d = tuple(rng.randint(0, 4) for _ in range(diagram.rank))
            v = tuple(rng.randint(0, 4) for _ in range(diagram.rank))
            keep = [i for i in range(diagram.rank) if rng.random() < 0.5]
            framing, rho_v = levi_maps(diagram, d, v, keep)
            from crystal_forge.dynkin import induced_subdiagram

            sub, kept = induced_subdiagram(diagram, keep)
            wt = vadd(vsub(d, tuple(2 * c for c in v)), diagram.apply_x(v))
            lhs = tuple(wt[i] for i in kept)
            rhs = vadd(
                vsub(framing, tuple(2 * c for c in rho_v)), sub.apply_x(rho_v)
            )
            assert lhs == rhs


def test_decompose_rejects_corrupted_input():
    # two sources in one component: chain with an extra isolated source is fine,
    # but a weight-corrupted chain is not a crystal of its source weight
    bad = CrystalGraph(A1, [(2,), (0,), (-1,)], [{0: 1, 1: 2}])
    with pytest.raises(DecompositionError):
        decompose(bad)


def test_lone_vertex_is_refused_before_any_reference_build(monkeypatch):
    # B(500, 500) has 125,751,501 vertices, so a one-vertex closure is no
    # copy of it; the size alone decides, and nothing is built
    def no_build(*args, **kwargs):
        raise AssertionError("a reference crystal was built")

    # the package's `decompose` attribute is the function, so go by module
    module = importlib.import_module("crystal_forge.decompose")
    monkeypatch.setattr(module, "build_crystal", no_build)
    lone = CrystalGraph(A2, [(500, 500)], [{}, {}])
    with pytest.raises(DecompositionError, match="not isomorphic"):
        decompose(lone)


def test_package_decompose_is_the_function_and_the_module_is_reached_by_import():
    import crystal_forge

    module = importlib.import_module("crystal_forge.decompose")
    assert crystal_forge.decompose is decompose is module.decompose
    assert callable(crystal_forge.decompose) and not hasattr(crystal_forge.decompose, "build_crystal")
    assert module.build_crystal is build_crystal
    assert 'importlib.import_module("crystal_forge.decompose")' in crystal_forge.__doc__


def test_multiplicity_refuses_product_above_cap():
    # 64**3 = 262,144 vertices, above the default cap of 200,000
    with pytest.raises(VertexCapError, match="262144 vertices"):
        multiplicity(A2, (3, 3), [(3, 3)] * 3)


def test_associativity_and_commutativity_multisets():
    rng = Random(4)
    pool = [(1, 0), (0, 1), (1, 1), (2, 0)]
    for _ in range(5):
        a, b, c = (build_crystal(A2, rng.choice(pool)) for _ in range(3))
        left = decompose(tensor(tensor(a, b), c)).summands
        right = decompose(tensor(a, tensor(b, c))).summands
        assert left == right
        ab = decompose(tensor(a, b)).summands
        ba = decompose(tensor(b, a)).summands
        assert ab == ba


# dominant factor weights per diagram: coordinates below the bound, module
# dimension at most 300
_FACTOR_POOLS = {
    diagram: [
        w
        for w in cartesian(range(bound), repeat=diagram.rank)
        if diagram.weyl_dimension(w) <= 300
    ]
    for diagram, bound in ((A1, 16), (A2, 6), (A3, 4), (D4, 3))
}


@st.composite
def _small_products(draw):
    """(diagram, factors, target) with 2-3 factors, at most 3,000 product
    vertices, and a dominant target at or below the top weight."""
    diagram = draw(st.sampled_from(list(_FACTOR_POOLS)))
    pool = _FACTOR_POOLS[diagram]
    factors, budget = [], 3000
    for _ in range(draw(st.integers(2, 3))):
        mu = draw(st.sampled_from([w for w in pool if diagram.weyl_dimension(w) <= budget]))
        factors.append(mu)
        budget //= diagram.weyl_dimension(mu)
    top = tuple(map(sum, zip(*factors)))
    # top minus a few simple roots; raising negative coordinates to 0
    # usually leaves the root lattice of top, where the multiplicity is 0
    steps = draw(st.tuples(*(st.integers(0, 3) for _ in range(diagram.rank))))
    lowered = top
    for i, c in enumerate(steps):
        lowered = vsub(lowered, tuple(c * a for a in diagram.simple_root(i)))
    return diagram, factors, tuple(max(0, c) for c in lowered)


# the oracles dominate: ~0.1 s per case on average, up to 0.3 s on A3 and
# D4 products near 3,000 vertices
@settings(max_examples=30, deadline=None)
@given(_small_products())
# V(1) x V(3) = V(4) + V(2) on A1: the vertex u_1 x f^2 u_3 has weight 0
# but eps = 2 > 1, so it is no source
@example((A1, [(1,), (3,)], (0,)))
def test_multiplicity_matches_the_product_and_character_peeling(case):
    diagram, factors, target = case
    count = multiplicity(diagram, target, factors)
    product = tensor_many(build_crystal(diagram, f) for f in factors)
    sources = sum(1 for v in highest_vertices(product) if product.weights[v] == target)
    char = character_product(*(freudenthal_character(diagram, f) for f in factors))
    assert count == sources == peel_character(diagram, char)[target]


# dominant factor weights with entries at most 2 and module dimension at
# most 30, per diagram
_SUMMAND_POOLS = {
    diagram: [w for w in cartesian(range(3), repeat=diagram.rank) if diagram.weyl_dimension(w) <= 30]
    for diagram in (A1, A2, A3, dynkin("A", 4), D4, dynkin("D", 5), E6)
}


@st.composite
def _summand_products(draw):
    """(diagram, factors) with 1-3 factors and at most 2,000 product vertices."""
    diagram = draw(st.sampled_from(list(_SUMMAND_POOLS)))
    factors, budget = [], 2000
    for _ in range(draw(st.integers(1, 3))):
        fits = [w for w in _SUMMAND_POOLS[diagram] if diagram.weyl_dimension(w) <= budget]
        if not fits:
            break
        mu = draw(st.sampled_from(fits))
        factors.append(mu)
        budget //= diagram.weyl_dimension(mu)
    return diagram, factors


@settings(max_examples=60, deadline=None)
@given(_summand_products())
def test_tensor_summands_match_the_decomposed_product_in_every_order(case):
    diagram, factors = case
    for order in set(permutations(factors)):
        product = tensor_many(build_crystal(diagram, f) for f in order)
        assert tensor_summands(diagram, order) == decompose(product).summands


def test_tensor_summands_of_one_factor_and_of_a_product_above_the_cap():
    e6 = dynkin("E", 6)
    assert tensor_summands(e6, [(0, 1, 0, 0, 0, 0)]) == Counter({(0, 1, 0, 0, 0, 0): 1})
    assert tensor_summands(A2, [[1, 1]], max_vertices=8) == Counter({(1, 1): 1})
    # 8**3 = 512 vertices
    with pytest.raises(VertexCapError, match="tensor product of 512 vertices on A2"):
        tensor_summands(A2, [(1, 1)] * 3, max_vertices=511)
    summands = tensor_summands(A2, [(1, 1)] * 3, max_vertices=512)
    assert sum(m * A2.weyl_dimension(w) for w, m in summands.items()) == 512
    with pytest.raises(ValueError, match="at least one tensor factor"):
        tensor_summands(A2, [])


@st.composite
def _unbuilt_products(draw):
    """(diagram, factors) with 2-4 factors and at most 10**6 product
    vertices, which no test builds."""
    diagram = draw(st.sampled_from(list(_SUMMAND_POOLS)))
    factors, budget = [], 10**6
    for _ in range(draw(st.integers(2, 4))):
        fits = [w for w in _SUMMAND_POOLS[diagram] if diagram.weyl_dimension(w) <= budget]
        mu = draw(st.sampled_from(fits))
        factors.append(mu)
        budget //= diagram.weyl_dimension(mu)
    return diagram, factors


def _check_against_brauer_klimyk(diagram, factors):
    """tensor_summands, and multiplicity at each summand weight, at 0 and at
    the first factor, equal Brauer's formula with the cap at the product's
    size; one vertex less is refused."""
    size = prod(map(diagram.weyl_dimension, factors))
    expected = brauer_klimyk(diagram, factors)
    assert sum(m * diagram.weyl_dimension(w) for w, m in expected.items()) == size
    assert tensor_summands(diagram, factors, max_vertices=size) == expected
    for target in {*expected, (0,) * diagram.rank, factors[0]}:
        assert multiplicity(diagram, target, factors, max_vertices=size) == expected[target]
    if size > 1:
        with pytest.raises(VertexCapError):
            tensor_summands(diagram, factors, max_vertices=size - 1)
    return expected


# each example disagrees with a fold that drops the eps <= lam test and with
# one that compares with <
@settings(max_examples=40, deadline=None)
@given(_unbuilt_products())
@example((A2, [(1, 1), (1, 1), (1, 0)]))
@example((D4, [(0, 1, 0, 0), (1, 0, 0, 1), (0, 0, 1, 0)]))
@example((E6, [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0), (1, 0, 0, 0, 0, 0)]))
def test_tensor_counts_match_brauer_klimyk(case):
    _check_against_brauer_klimyk(*case)


@pytest.mark.parametrize(
    "diagram, factor, power, trivial",
    [
        # 27**6, about 3.9 * 10**8 vertices
        (E6, (1, 0, 0, 0, 0, 0), 6, 15),
        # 912**4, about 6.9 * 10**11 vertices; the README's E7 `mult` prints 10
        (dynkin("E", 7), (0, 0, 0, 0, 0, 0, 1), 4, 10),
        # the adjoint crystal: 248**4, about 3.8 * 10**9 vertices
        (dynkin("E", 8), (0, 0, 0, 0, 0, 0, 1, 0), 4, 5),
        # a half-spin crystal: 128**4, about 2.7 * 10**8 vertices
        (dynkin("D", 8), (0, 0, 0, 0, 0, 0, 0, 1), 4, 5),
        # 912**6, about 5.8 * 10**17 vertices: `multiplicity` at all 311
        # summands takes ~13 s, so it runs in the slow tier only
        pytest.param(dynkin("E", 7), (0, 0, 0, 0, 0, 0, 1), 6, 1056, marks=pytest.mark.slow),
    ],
    ids=["E6", "E7", "E8", "D8", "E7-sixth"],
)
def test_tensor_powers_at_scale_match_brauer_klimyk(diagram, factor, power, trivial):
    expected = _check_against_brauer_klimyk(diagram, [factor] * power)
    assert expected[(0,) * diagram.rank] == trivial


def test_e7_912_to_the_sixth_matches_brauer_klimyk():
    # 912**6, about 5.8 * 10**17 vertices.  `multiplicity` runs at 0 and at
    # the factor only; the slow tier's E7-sixth case runs it at all 311 summands.
    E7, factor = dynkin("E", 7), (0, 0, 0, 0, 0, 0, 1)
    factors, size, zero = [factor] * 6, 912**6, (0,) * 7
    expected = brauer_klimyk(E7, factors)
    assert len(expected) == 311
    assert sum(m * E7.weyl_dimension(w) for w, m in expected.items()) == size
    assert tensor_summands(E7, factors, max_vertices=size) == expected
    assert multiplicity(E7, zero, factors, max_vertices=size) == expected[zero] == 1056
    assert multiplicity(E7, factor, factors, max_vertices=size) == expected[factor]
    with pytest.raises(VertexCapError):
        tensor_summands(E7, factors, max_vertices=size - 1)
