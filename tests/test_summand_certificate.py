"""The BFS-order summand certificate.

`decompose` certifies a closure by its canonical BFS order: the k-th
vertex of a closure can only map to vertex k of its reference.  That
rests on `build_crystal` numbering its vertices in the order
`_rooted_components` lists a closure, which is checked here on the
crystal family, on E6 and on Levi restrictions.  `decompose` walks each
closure along the tree steps of its reference, and so does its refusal
path, on the closures `_rooted_components` lists; `is_isomorphic`
decomposes both crystals and pairs summands of equal highest weight.
All three are checked against the lockstep pairing in `oracles.py` on
built crystals, tensor products, direct sums, relabelled copies and
mutants, and on valid input `decompose` never reaches its refusal path.
"""

import importlib
from functools import cache
from itertools import product as cartesian

import pytest
from hypothesis import given, settings, strategies as st

from crystal_forge.crystal import CrystalGraph, direct_sum, tensor_many
from crystal_forge.decompose import (
    DecompositionError,
    _rooted_components,
    branch,
    decompose,
    is_isomorphic,
)
from crystal_forge.dynkin import dynkin, induced_subdiagram, vsub
from crystal_forge.paths import build_crystal
from crystal_forge.selftest import crystal_family

from oracles import decompose_lockstep, is_isomorphic_lockstep

A1 = dynkin("A", 1)
A2 = dynkin("A", 2)
A3 = dynkin("A", 3)
D4 = dynkin("D", 4)
E6 = dynkin("E", 6)

# E6 weights with entries 0/1, at most two of them 1, of dimension at most 700
_E6_WEIGHTS = [
    w
    for w in cartesian((0, 1), repeat=6)
    if sum(w) <= 2 and E6.weyl_dimension(w) <= 700
]


# the package's `decompose` attribute is the function, so go by module
_decompose_module = importlib.import_module("crystal_forge.decompose")


@pytest.fixture
def certified_only(monkeypatch):
    """Make any `decompose` that reaches its refusal path fail the test."""

    def refuse(crystal):
        raise AssertionError("a valid crystal reached the refusal path")

    monkeypatch.setattr(_decompose_module, "_refuse_decomposition", refuse)


def _restricted(crystal: CrystalGraph, keep) -> CrystalGraph:
    """The crystal on the Levi subdiagram of `keep`, built apart from `branch`."""
    sub, kept = induced_subdiagram(crystal.diagram, keep)
    return CrystalGraph(
        sub,
        [tuple(w[j] for j in kept) for w in crystal.weights],
        [crystal.f_maps[j] for j in kept],
    )


def _is_one_bfs_closure(crystal: CrystalGraph) -> bool:
    return _rooted_components(crystal) == [(0, list(range(len(crystal))))]


def test_built_crystals_are_numbered_in_closure_order(certified_only):
    family = [crystal for _, _, crystal in crystal_family()]
    family += [build_crystal(E6, w) for w in _E6_WEIGHTS]
    assert len(_E6_WEIGHTS) >= 5
    for crystal in family:
        assert _is_one_bfs_closure(crystal), (crystal.diagram.label, crystal.weights[0])
        (inst,) = decompose(crystal).instances
        assert (inst.hw, inst.source, inst.closure) == (crystal.weights[0], 0, list(range(len(crystal))))


@pytest.mark.parametrize(
    "diagram,factors",
    [
        (A1, [(1,), (2,), (1,)]),
        (A2, [(1, 1), (1, 0), (0, 1)]),
        (A3, [(1, 0, 1), (0, 1, 0)]),
        (D4, [(0, 1, 0, 0), (1, 0, 0, 0)]),
        (E6, [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)]),
    ],
)
def test_tensor_products_are_certified_without_refusal(certified_only, diagram, factors):
    crystal = tensor_many(_built(diagram, hw) for hw in factors)
    assert _items(_instances(crystal)) == _items(decompose_lockstep(crystal))


@pytest.mark.parametrize(
    "diagram,hw,keep",
    [
        (E6, (1, 0, 0, 0, 0, 0), (0, 1, 2, 3, 5)),  # D5
        (E6, (0, 0, 0, 0, 0, 1), (0, 1, 2, 3, 4)),  # A5
        (D4, (1, 1, 0, 0), (0, 1, 3)),  # A3
        (A3, (1, 1, 1), (0, 2)),  # A1 + A1
        (A3, (2, 0, 1), (1,)),
        (A2, (1, 1), ()),
    ],
)
def test_levi_closures_in_bfs_order_are_the_built_crystals(certified_only, diagram, hw, keep):
    crystal = build_crystal(diagram, hw)
    restricted = _restricted(crystal, keep)
    sub = restricted.diagram
    comps = _rooted_components(restricted)
    dec, _ = branch(crystal, keep)
    assert len(dec.instances) == len(comps)
    for inst, (src, comp) in zip(dec.instances, comps):
        # renumbered by BFS position, the closure is B(hw) vertex for vertex
        pos = {v: k for k, v in enumerate(comp)}
        ref = build_crystal(sub, restricted.weights[src])
        assert _is_one_bfs_closure(ref)
        assert [restricted.weights[v] for v in comp] == list(ref.weights)
        for fm, ref_fm in zip(restricted.f_maps, ref.f_maps):
            assert {pos[a]: pos[b] for a, b in fm.items() if a in pos} == ref_fm
        assert (inst.hw, inst.source) == (restricted.weights[src], src)
        assert list(inst.iso.items()) == list(zip(comp, range(len(comp))))


@pytest.mark.parametrize(
    "diagram,factors,keep",
    [
        (A3, [(1, 0, 1), (0, 1, 0)], (1,)),  # A1: many lone vertices of weight 0
        (D4, [(1, 0, 0, 0), (0, 0, 1, 0)], (0, 2)),  # A1 + A1
        (A2, [(1, 1)], ()),  # rank 0: every vertex is its own summand
    ],
)
def test_every_summand_of_a_levi_branch_is_walked(monkeypatch, diagram, factors, keep):
    crystal = tensor_many(_built(diagram, hw) for hw in factors)
    restricted = _restricted(crystal, keep)
    walked = []
    walk = _decompose_module._walk

    def recording_walk(crystal, src, ref):
        walked.append(ref.size)
        return walk(crystal, src, ref)

    monkeypatch.setattr(_decompose_module, "_walk", recording_walk)
    dec, _ = branch(crystal, keep)
    got = [(inst.hw, inst.source, inst.iso) for inst in dec.instances]
    assert _items(got) == _items(decompose_lockstep(restricted))
    lone = sum(len(inst.closure) == 1 for inst in dec.instances)
    assert lone > 0
    # one-vertex summands take the same walk as every other
    assert len(walked) == len(dec.instances)
    assert 1 in walked


# dominant weights per diagram with entries below 3 and dimension at most 20
_POOLS = {
    diagram: [
        w
        for w in cartesian(range(3), repeat=diagram.rank)
        if diagram.weyl_dimension(w) <= 20
    ]
    for diagram in (A1, A2, A3, D4)
}


@cache
def _built(diagram, hw):
    return build_crystal(diagram, hw)


def _mutate(crystal: CrystalGraph, kind: str, draw) -> CrystalGraph:
    """A copy with one f edge retargeted, dropped or added, one weight
    changed or two color maps swapped.

    A retargeted edge keeps the weight of its target where another vertex
    has it, and an added edge f_i(a) goes to a vertex of weight
    wt(a) - alpha_i where there is one, so only the graph structure tells
    the mutant apart.
    """
    n, rank = len(crystal), crystal.diagram.rank
    weights = list(crystal.weights)
    f_maps = [dict(m) for m in crystal.f_maps]
    if kind == "edge" and n > 1 and any(f_maps):
        i = draw(st.sampled_from([i for i, m in enumerate(f_maps) if m]))
        a = draw(st.sampled_from(sorted(f_maps[i])))
        old = f_maps[i][a]
        others = [t for t in range(n) if t != old]
        alike = [t for t in others if weights[t] == weights[old]]
        f_maps[i][a] = draw(st.sampled_from(alike or others))
    elif kind == "weight":
        v, j = draw(st.integers(0, n - 1)), draw(st.integers(0, rank - 1))
        shift = draw(st.sampled_from((-1, 1)))
        weights[v] = weights[v][:j] + (weights[v][j] + shift,) + weights[v][j + 1 :]
    elif kind == "drop" and any(f_maps):
        i = draw(st.sampled_from([i for i, m in enumerate(f_maps) if m]))
        del f_maps[i][draw(st.sampled_from(sorted(f_maps[i])))]
    elif kind == "add" and any(len(m) < n for m in f_maps):
        i = draw(st.sampled_from([i for i, m in enumerate(f_maps) if len(m) < n]))
        a = draw(st.sampled_from([v for v in range(n) if v not in f_maps[i]]))
        below = vsub(weights[a], crystal.diagram.simple_root(i))
        alike = [t for t in range(n) if weights[t] == below]
        f_maps[i][a] = draw(st.sampled_from(alike or range(n)))
    elif kind == "swap" and rank > 1:
        i, j = draw(st.lists(st.integers(0, rank - 1), min_size=2, max_size=2, unique=True))
        f_maps[i], f_maps[j] = f_maps[j], f_maps[i]
    return CrystalGraph(crystal.diagram, weights, f_maps)


def _relabel(crystal: CrystalGraph, perm) -> CrystalGraph:
    """The same graph with vertex v renamed perm[v]."""
    weights = [None] * len(crystal)
    for v, w in enumerate(crystal.weights):
        weights[perm[v]] = w
    f_maps = [{perm[a]: perm[b] for a, b in m.items()} for m in crystal.f_maps]
    return CrystalGraph(crystal.diagram, weights, f_maps)


_MUTATIONS = ("edge", "weight", "swap", "drop", "add")


@st.composite
def _cases(draw):
    """(crystal, relabelled copy, mutant) for a built crystal, a tensor
    product of 2-3 factors (at most 400 vertices) or a direct sum."""
    diagram = draw(st.sampled_from(list(_POOLS)))
    pool = _POOLS[diagram]
    kind = draw(st.sampled_from(("built", "tensor", "sum")))
    factors, budget = [], 400
    for _ in range(1 if kind == "built" else draw(st.integers(2, 3))):
        hw = draw(st.sampled_from([w for w in pool if diagram.weyl_dimension(w) <= budget]))
        factors.append(_built(diagram, hw))
        budget //= len(factors[-1])
    crystal = direct_sum(factors) if kind == "sum" else tensor_many(factors)
    perm = draw(st.permutations(range(len(crystal))))
    mutant = _mutate(crystal, draw(st.sampled_from(_MUTATIONS)), draw)
    return crystal, _relabel(crystal, perm), mutant


def _outcome(fn, *args):
    """fn's result, or the message of the DecompositionError it raised."""
    try:
        return fn(*args)
    except DecompositionError as err:
        return f"DecompositionError: {err}"


def _is_isomorphic_expected(a, b):
    """What `is_isomorphic` answers: None on a diagram or size mismatch,
    else the first refusal of a or b, else the lockstep pairing."""
    if a.diagram != b.diagram or len(a) != len(b):
        return None
    decompose_lockstep(a)
    decompose_lockstep(b)
    return is_isomorphic_lockstep(a, b)


def _instances(crystal):
    dec = decompose(crystal)
    return [(inst.hw, inst.source, inst.iso) for inst in dec.instances]


def _items(outcome):
    """Dicts as item lists, so the comparison also sees their order."""
    if isinstance(outcome, dict):
        return list(outcome.items())
    if isinstance(outcome, list):
        return [(hw, src, list(iso.items())) for hw, src, iso in outcome]
    return outcome


@settings(max_examples=200, deadline=None)
@given(_cases())
def test_bfs_certificate_agrees_with_lockstep_pairing(case):
    crystal, relabelled, mutant = case
    for x in case:
        assert _items(_outcome(_instances, x)) == _items(_outcome(decompose_lockstep, x))
    for a, b in [
        (crystal, relabelled),
        (relabelled, crystal),
        (crystal, mutant),
        (mutant, crystal),
        (mutant, mutant),
    ]:
        assert _items(_outcome(is_isomorphic, a, b)) == _items(
            _outcome(_is_isomorphic_expected, a, b)
        )
    assert is_isomorphic(crystal, relabelled) is not None


def _same_weight_retargets(crystal: CrystalGraph):
    """Mutants with one f edge moved to another vertex of its target's
    weight that still split into rooted components."""
    for i, fm in enumerate(crystal.f_maps):
        for a, old in sorted(fm.items()):
            for t in range(len(crystal)):
                if t == old or crystal.weights[t] != crystal.weights[old]:
                    continue
                f_maps = [dict(m) for m in crystal.f_maps]
                f_maps[i][a] = t
                mutant = CrystalGraph(crystal.diagram, crystal.weights, f_maps)
                if not isinstance(_outcome(_rooted_components, mutant), str):
                    yield mutant


@pytest.mark.parametrize("kind", _MUTATIONS)
def test_each_mutation_kind_is_refused_by_the_certificate(kind):
    # B(1,1) x B(1,0) on A2: components and closure sizes survive each
    # mutant, so only the certificate (and the lockstep pairing) can refuse
    # it; an added edge is seen only by the per-color edge count
    crystal = tensor_many([_built(A2, (1, 1)), _built(A2, (1, 0))])
    f_maps = [dict(m) for m in crystal.f_maps]
    if kind == "edge":
        mutant = next(_same_weight_retargets(crystal))
    elif kind == "weight":
        weights = list(crystal.weights)
        weights[-1] = (weights[-1][0] + 1, weights[-1][1])
        mutant = CrystalGraph(A2, weights, crystal.f_maps)
    elif kind == "swap":
        mutant = CrystalGraph(A2, crystal.weights, crystal.f_maps[::-1])
    elif kind == "drop":
        # an f_0 edge into a vertex that f_1 reaches too
        a = min(a for a, b in f_maps[0].items() if b in f_maps[1].values())
        del f_maps[0][a]
        mutant = CrystalGraph(A2, crystal.weights, f_maps)
    else:
        # f_0 from a vertex where it is undefined to the last of its closure
        (_, comp), *_ = _rooted_components(crystal)
        f_maps[0][next(v for v in comp if v not in f_maps[0])] = comp[-1]
        mutant = CrystalGraph(A2, crystal.weights, f_maps)
    assert [len(c) for _, c in _rooted_components(mutant)] == [
        len(c) for _, c in _rooted_components(crystal)
    ]
    refused = _outcome(_instances, mutant)
    assert "is not isomorphic to the highest-weight crystal" in refused
    assert refused == _outcome(decompose_lockstep, mutant)
    assert _outcome(is_isomorphic, crystal, mutant) == refused
    assert is_isomorphic_lockstep(crystal, mutant) is None


def test_closures_that_overlap_are_refused():
    # Two copies of B(2,0) on A2.  The second source's edges go into the
    # first copy, and the second copy's orphaned vertices are rewired into
    # a cycle with the same edge count per color.  Each walk passes its
    # certificate, the closure sizes sum to the vertex count and the edge
    # counts balance; only the disjoint cover of all vertices is missing.
    b = _built(A2, (2, 0))
    m = len(b)
    f_maps = [dict(fm) for fm in direct_sum([b, b]).f_maps]
    for i, fm in enumerate(b.f_maps):
        if 0 in fm:
            f_maps[i][m] = fm[0]
    orphans = range(m + 1, 2 * m)
    rewired = [(i, a) for i, fm in enumerate(f_maps) for a in sorted(fm) if a in orphans]
    assert len(rewired) >= len(orphans)  # so no orphan is left a source
    for k, (i, a) in enumerate(rewired):
        f_maps[i][a] = orphans[(k + 1) % len(orphans)]
    mutant = CrystalGraph(A2, b.weights * 2, f_maps)
    refused = _outcome(_instances, mutant)
    assert refused.startswith("DecompositionError: vertex ")
    assert refused == _outcome(decompose_lockstep, mutant)


def test_a_closure_larger_than_the_rest_is_refused_unbuilt(monkeypatch):
    monkeypatch.setattr(_decompose_module, "_reference_cache", {})
    built = []

    def recording_build(diagram, hw, max_vertices):
        built.append(hw)
        return build_crystal(diagram, hw, max_vertices=max_vertices)

    monkeypatch.setattr(_decompose_module, "build_crystal", recording_build)
    # after the valid B(1,0), the lone source of weight (1,1) would need a
    # reference of 8 vertices with 1 vertex left
    crystal = direct_sum([_built(A2, (1, 0)), CrystalGraph(A2, [(1, 1)], [{}, {}])])
    refused = _outcome(_instances, crystal)
    assert refused == (
        "DecompositionError: component containing vertex 3 is not isomorphic "
        "to the highest-weight crystal of (1, 1)"
    )
    assert refused == _outcome(decompose_lockstep, crystal)
    assert built == [(1, 0)]
    decompose(_built(A2, (1, 0)))
    assert built == [(1, 0)]
    _decompose_module._reference_cache.clear()  # cold again
    decompose(_built(A2, (1, 0)))
    assert built == [(1, 0), (1, 0)]


@pytest.mark.parametrize(
    "f_map,message",
    [
        ({0: 2}, "color 0: f(0) = 2 is not a vertex"),
        ({0: 5}, "color 0: f(0) = 5 is not a vertex"),
        ({0: -1}, "color 0: f(0) = -1 is not a vertex"),
        ({2: 1}, "color 0: f is defined on 2, which is not a vertex"),
        ({-1: 1}, "color 0: f is defined on -1, which is not a vertex"),
        ({0: 1.0}, "color 0: f(0) = 1.0 is not a vertex"),
        ({"0": 1}, "color 0: f is defined on '0', which is not a vertex"),
        ({0: True}, "color 0: f(0) = True is not a vertex"),
    ],
)
def test_an_edge_from_or_to_a_non_vertex_is_refused(f_map, message):
    # refused on construction, so `verify_axioms`, `decompose`, `branch`
    # and `is_isomorphic` never see such an edge
    with pytest.raises(ValueError) as err:
        CrystalGraph(A1, [(1,), (-1,)], [f_map])
    assert str(err.value) == message
