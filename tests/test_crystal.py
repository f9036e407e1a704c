import importlib
import sys
from collections import Counter

import pytest

from crystal_forge.crystal import (
    CrystalGraph,
    _graph,
    direct_sum,
    tensor,
    tensor_many,
    trivial_crystal,
    verify_axioms,
)
from crystal_forge.decompose import DecompositionError, branch, decompose, is_isomorphic
from crystal_forge.dynkin import dynkin, vadd
from crystal_forge.paths import build_crystal
from crystal_forge.selftest import crystal_family
from crystal_forge.sl2 import sl2_crystal

A1 = dynkin("A", 1)
A2 = dynkin("A", 2)
E6 = dynkin("E", 6)


def a1_chain(weights):
    f = {k: k + 1 for k in range(len(weights) - 1)}
    return CrystalGraph(A1, [(w,) for w in weights], [f])


def test_trivial_crystal_axioms():
    assert verify_axioms(trivial_crystal(A2, 3)) == []


def test_chain_axioms():
    assert verify_axioms(a1_chain([2, 0, -2])) == []


def test_corrupted_weight_is_reported():
    bad = a1_chain([2, 1, -2])
    report = verify_axioms(bad)
    assert report
    assert any("vertex 0" in line or "vertex 1" in line for line in report)


def _wt(i, a):
    return f"vertex {a}, color {i}: wt(f a) != wt(a) - simple_root({i})"


def _cycle(i, a):
    return f"color {i}: f-cycle through vertex {a}"


def _into_cycle(i, a):
    return f"color {i}: the f string from {a} runs into a cycle"


@pytest.mark.parametrize(
    "graph,expected",
    [
        # 1 <-> 2 is a cycle, 3 -> 0 -> 1 a tail into it; 0 and 2 both map to 1
        (
            CrystalGraph(A1, [(2,), (0,), (-2,), (4,)], [{0: 1, 1: 2, 2: 1, 3: 0}]),
            ["color 0: f is not injective at target vertex 1", _wt(0, 2)]
            + [_into_cycle(0, 0), _cycle(0, 1), _cycle(0, 2), _into_cycle(0, 3)],
        ),
        # a pure 3-cycle
        (
            CrystalGraph(A1, [(2,), (0,), (-2,)], [{0: 1, 1: 2, 2: 0}]),
            [_wt(0, 2), _cycle(0, 0), _cycle(0, 1), _cycle(0, 2)],
        ),
        # a 2-cycle in color 0 and a 3-cycle in color 1
        (
            CrystalGraph(A2, [(0, 0)] * 4, [{0: 1, 1: 0}, {1: 2, 2: 3, 3: 1}]),
            [_wt(0, 0), _wt(0, 1), _cycle(0, 0), _cycle(0, 1)]
            + [_wt(1, 1), _wt(1, 2), _wt(1, 3), _cycle(1, 1), _cycle(1, 2), _cycle(1, 3)],
        ),
        # the cycle is listed first, so the walk from 0 runs into labelled vertices
        (
            CrystalGraph(A1, [(2,), (0,), (-2,)], [{1: 2, 2: 1, 0: 1}]),
            ["color 0: f is not injective at target vertex 1", _wt(0, 2)]
            + [_cycle(0, 1), _cycle(0, 2), _into_cycle(0, 0)],
        ),
    ],
)
def test_f_cycles_are_reported_in_order(graph, expected):
    assert verify_axioms(graph) == expected


def test_epsilon_phi_on_b2():
    b2 = a1_chain([2, 0, -2])
    assert (b2.epsilon(0, 0), b2.phi(0, 0)) == (0, 2)
    assert (b2.epsilon(1, 0), b2.phi(1, 0)) == (1, 1)
    triv = trivial_crystal(A2, 2)
    assert triv.epsilon(0, 0) == triv.phi(0, 1) == 0


def test_tensor_rule_on_two_doublets():
    b1 = a1_chain([1, -1])  # vertices: 0 = highest, 1 = lowest
    t = tensor(b1, b1)
    # ids: (a,b) -> 2a + b
    assert t.e(0, 2) == 0       # (low, high) raises in the left factor
    assert t.e(0, 1) is None    # (high, low) is the source of the B(0) part
    assert t.f(0, 0) == 2       # (high, high) lowers in the left factor
    assert verify_axioms(t) == []


def test_tensor_with_trivial_is_direct_sum():
    b2 = a1_chain([2, 0, -2])
    t = tensor(trivial_crystal(A1, 2), b2)
    expected = direct_sum([b2, b2])
    assert is_isomorphic(t, expected) is not None
    t2 = tensor(b2, trivial_crystal(A1, 2))
    assert is_isomorphic(t2, expected) is not None
    # a single trivial factor is the identity up to isomorphism
    assert is_isomorphic(tensor(trivial_crystal(A1, 1), b2), b2) is not None
    assert is_isomorphic(tensor(b2, trivial_crystal(A1, 1)), b2) is not None


def test_tensor_counts_and_characters():
    x = build_crystal(A2, (1, 0))
    y = build_crystal(A2, (0, 1))
    t = tensor(x, y)
    assert len(t) == len(x) * len(y)
    minkowski = Counter()
    for wa, ca in x.character().items():
        for wb, cb in y.character().items():
            minkowski[vadd(wa, wb)] += ca * cb
    assert t.character() == minkowski


def test_tensor_raising_rule_matches_signature_convention():
    # e is stored as the inverse of f; check it against the raising rule
    # computed directly from the factor string lengths
    d4 = dynkin("D", 4)
    cases = [
        (build_crystal(A2, (1, 1)), build_crystal(A2, (1, 0))),
        (build_crystal(d4, (1, 0, 0, 0)), build_crystal(d4, (0, 0, 0, 1))),
    ]
    for x, y in cases:
        t = tensor(x, y)
        ny = len(y)
        for a in range(len(x)):
            for b in range(ny):
                v = a * ny + b
                for i in range(x.diagram.rank):
                    if x.phi(a, i) >= y.epsilon(b, i):
                        ea = x.e(i, a)
                        expected = None if ea is None else ea * ny + b
                    else:
                        eb = y.e(i, b)
                        expected = None if eb is None else a * ny + eb
                    assert t.e(i, v) == expected


def test_tensor_string_length_formulas():
    x = build_crystal(A2, (1, 1))
    y = build_crystal(A2, (1, 0))
    t = tensor(x, y)
    ny = len(y)
    for a in range(len(x)):
        for b in range(ny):
            v = a * ny + b
            for i in range(2):
                ea, fa = x.epsilon(a, i), x.phi(a, i)
                eb, fb = y.epsilon(b, i), y.phi(b, i)
                assert t.epsilon(v, i) == max(ea, ea + eb - fa)
                assert t.phi(v, i) == max(fb, fa + fb - eb)


def test_character_weyl_invariance():
    c = build_crystal(A2, (2, 1))
    char = c.character()
    for i in range(2):
        reflected = Counter({A2.weyl_reflect(i, w): m for w, m in char.items()})
        assert reflected == char


def test_direct_sum_examples():
    assert len(direct_sum([], diagram=A1)) == 0
    b2 = a1_chain([2, 0, -2])
    b0 = a1_chain([0])
    assert len(direct_sum([b2, b0])) == 4
    with pytest.raises(ValueError):
        direct_sum([b2, trivial_crystal(A2, 1)])


def test_is_isomorphic_examples():
    assert is_isomorphic(a1_chain([2, 0, -2]), build_crystal(A1, (2,))) is not None
    assert is_isomorphic(a1_chain([2, 0, -2]), a1_chain([1, -1])) is None
    # the explicit one-vertex model agrees with the generic realization
    assert is_isomorphic(sl2_crystal(3, 1), build_crystal(A1, (1,))) is not None


def test_is_isomorphic_raises_for_a_closure_that_is_no_highest_weight_crystal():
    # a chain of weights (2), (0) is generated by its source but is not B(2)
    with pytest.raises(DecompositionError) as err:
        is_isomorphic(a1_chain([2, 0]), a1_chain([2, 0]))
    assert str(err.value) == (
        "component containing vertex 0 is not isomorphic to the highest-weight crystal of (2,)"
    )


def test_is_isomorphic_answers_a_diagram_or_size_mismatch_without_decomposing(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a reference crystal was built")

    # the package's `decompose` attribute is the function, so go by module
    module = importlib.import_module("crystal_forge.decompose")
    monkeypatch.setattr(module, "_reference_cache", {})
    monkeypatch.setattr(module, "build_crystal", no_build)
    assert is_isomorphic(a1_chain([1, -1]), trivial_crystal(A2, 2)) is None
    assert is_isomorphic(a1_chain([2, 0, -2]), a1_chain([1, -1])) is None


def test_is_isomorphic_rejects_component_with_two_sources():
    # 0 -f_0-> 2 <-f_1- 1: one component, two vertices without raising edges
    two_tops = CrystalGraph(A2, [(1, 0), (0, 1), (-1, 1)], [{0: 2}, {1: 2}])
    with pytest.raises(DecompositionError, match="2 source vertices"):
        is_isomorphic(two_tops, two_tops)


def test_is_isomorphic_rejects_a_vertex_below_no_source():
    # an f-cycle has no source, so nothing generates its vertices
    cycle = CrystalGraph(A1, [(0,), (0,)], [{0: 1, 1: 0}])
    with pytest.raises(DecompositionError, match="vertex 0 lies below no source"):
        is_isomorphic(cycle, cycle)


def test_tensor_associative_up_to_isomorphism():
    b1 = build_crystal(A1, (1,))
    left = tensor(tensor(b1, b1), b1)
    right = tensor(b1, tensor(b1, b1))
    iso = is_isomorphic(left, right)
    assert iso is not None and len(iso) == 8
    assert is_isomorphic(left, tensor_many([b1, b1, b1])) is not None


def test_diagram_mismatch_rejected():
    with pytest.raises(ValueError):
        tensor(trivial_crystal(A1, 1), trivial_crystal(A2, 1))


def test_construction_refuses_a_malformed_weight_or_payload_count():
    # refused here, so `tensor` and `verify_axioms` never see such a graph
    for weights, payloads, message in [
        ([(1, 0)], None, "weight (1, 0) has length 2, diagram rank is 1"),
        ([(1.5,)], None, "weight (1.5,) has a non-integer entry"),
        ([(0,), (0,)], [("x",)], "1 payloads for 2 vertices"),
        ([(0,)], [("x",)] * 3, "3 payloads for 1 vertices"),
    ]:
        with pytest.raises(ValueError) as err:
            CrystalGraph(A1, weights, [{}], payloads)
        assert str(err.value) == message


def test_a_string_that_runs_into_a_cycle_is_refused():
    # f_0 is not injective: the string from 0 runs into the cycle 1 -> 2 -> 1
    x = CrystalGraph(A1, [(2,), (0,), (-2,)], [{0: 1, 1: 2, 2: 1}])
    message = "color 0: the f string from 0 runs into a cycle"
    for fn in (lambda: x.epsilon(0, 0), lambda: x.phi(2, 0), lambda: tensor(x, a1_chain([0]))):
        with pytest.raises(ValueError) as err:
            fn()
        assert str(err.value) == message
    assert verify_axioms(x) == [
        "color 0: f is not injective at target vertex 1",
        "vertex 2, color 0: wt(f a) != wt(a) - simple_root(0)",
        message,
        "color 0: f-cycle through vertex 1",
        "color 0: f-cycle through vertex 2",
    ]


def test_json_and_dot_export():
    c = build_crystal(A2, (1, 0))
    payload = c.to_json_dict()
    assert payload["schema"] == "crystal-forge/1"
    assert payload["diagram"] == "A2"
    assert len(payload["vertices"]) == 3
    assert all(edge["color"] in (0, 1) for edge in payload["edges"])
    # f-edge semantics: f_color(from) = to
    for edge in payload["edges"]:
        assert c.f(edge["color"], edge["from"]) == edge["to"]
    # path payloads serialize as [num, den] pairs
    seg = payload["vertices"][0]["payload"]["path"][0]
    assert seg == [[1, 1], [0, 1]]
    dot = c.to_dot()
    assert dot.startswith("digraph") and dot.count("->") == 2


@pytest.mark.parametrize("payload", [5, (), ("pair", 1), ("path",), "xyz", ("custom", 3)])
def test_json_export_labels_a_payload_of_no_known_shape(payload):
    # well-formed path, pair and sl2 payloads are pinned by the golden digests
    c = CrystalGraph(A1, [(0,)], [{}], payloads=[payload])
    assert c.to_json_dict()["vertices"] == [{"id": 0, "wt": [0], "payload": {"label": repr(payload)}}]


def test_every_graph_the_package_builds_passes_the_checked_constructor(monkeypatch):
    # `_graph` skips the constructor's checks; this pins its precondition
    built = []

    def checked(diagram, weights, f_maps, payloads=None):
        graph = CrystalGraph(diagram, weights, f_maps, payloads)
        trusted = _graph(diagram, weights, f_maps, payloads)
        assert vars(graph) == vars(trusted)
        built.append(trusted)
        return trusted

    producers = {
        name
        for name, module in sys.modules.items()
        if name.startswith("crystal_forge.") and getattr(module, "_graph", None) is _graph
    }
    assert {f"crystal_forge.{name}" for name in ("crystal", "decompose", "paths", "sl2")} <= producers
    for name in producers:
        monkeypatch.setattr(sys.modules[name], "_graph", checked)
    # the package's `decompose` attribute is the function, so go by module
    monkeypatch.setattr(importlib.import_module("crystal_forge.decompose"), "_reference_cache", {})

    family = [(diagram, lam) for diagram, lam, _ in crystal_family()[::11]]
    crystals = [build_crystal(diagram, lam) for diagram, lam in family]
    crystals.append(build_crystal(E6, (1, 0, 0, 0, 0, 1)))
    b10, b11 = build_crystal(A2, (1, 0)), build_crystal(A2, (1, 1))
    product = tensor_many([b11, b10, build_crystal(A2, (0, 1))])
    crystals += [
        product,
        direct_sum([b10, b11, trivial_crystal(A2, 2)]),
        direct_sum([], A2),
        sl2_crystal(5, 1),
        sl2_crystal(1, 1),
    ]
    count = len(built)
    for crystal in crystals:
        decompose(crystal)
    branch(product, (0,))
    branch(build_crystal(E6, (1, 0, 0, 0, 0, 1)), (0, 1, 2, 3, 4))
    assert len(built) > count
