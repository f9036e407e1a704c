import re
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from crystal_forge import paths
from crystal_forge.crystal import direct_sum
from crystal_forge.decompose import multiplicity, tensor_summands
from crystal_forge.dynkin import dynkin, parse_diagram
from crystal_forge.paths import (
    VertexCapError,
    build_crystal,
    highest_path,
    path_e,
    path_f,
)

from oracles import (
    _canonical,
    bfs_listing,
    exported_paths,
    freudenthal_character,
    minuscule_crystal,
    minuscule_nodes,
    quasi_minuscule_crystal,
    root_e,
    root_f,
    tensor_per_pair,
)

A1 = dynkin("A", 1)
A2 = dynkin("A", 2)
D4 = dynkin("D", 4)


# more digits than Python writes as text by default (4,300)
_BIG = 10**5000
# Python's limit on the digits of an int written as text, or 0 for none
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize(
    "hw, cap, error, message",
    [
        (
            (_BIG,),
            200_000,
            VertexCapError,
            "crystal for highest weight (a 5001-digit number,) on A1 exceeded the vertex cap of 200000",
        ),
        ((-_BIG,), 200_000, ValueError, "highest weight (a negative 5001-digit number,) is not dominant"),
        ((1,), -_BIG, ValueError, "max_vertices must be at least 1, got a negative 5001-digit number"),
    ],
    ids=["above-the-cap", "not-dominant", "cap-below-1"],
)
def test_refusals_of_an_integer_above_the_digit_limit_are_the_refusals(hw, cap, error, message):
    with pytest.raises((ValueError, VertexCapError)) as caught:
        build_crystal(A1, hw, max_vertices=cap)
    assert caught.type is error
    if _DIGIT_LIMIT:  # a Python without the limit writes the number out
        assert str(caught.value) == message


@pytest.mark.parametrize("cap", [True, 2.5, 3.5, None, "10"])
@pytest.mark.parametrize(
    "request_with_cap",
    [
        lambda cap: build_crystal(A1, (2,), max_vertices=cap),
        lambda cap: tensor_summands(A1, [(1,), (1,)], cap),
        lambda cap: multiplicity(A1, (0,), [(1,), (1,)], max_vertices=cap),
    ],
    ids=["build_crystal", "tensor_summands", "multiplicity"],
)
def test_a_cap_that_is_not_an_integer_is_refused_by_name(request_with_cap, cap):
    # a bool would count as 1, a float would compare, None and a str would
    # raise TypeError from the comparison
    with pytest.raises(ValueError) as caught:
        request_with_cap(cap)
    assert str(caught.value) == f"max_vertices must be an integer, got {cap!r}"


def _endpoint(path, rank):
    """Where a path of Fraction segments ends: the sum of its segments."""
    return tuple(sum((seg[k] for seg in path), Fraction(0)) for k in range(rank))


def test_highest_path_examples():
    assert highest_path(A1, (2,)) == ((Fraction(2),),)
    assert highest_path(A2, (1, 1)) == ((Fraction(1), Fraction(1)),)
    with pytest.raises(ValueError):
        highest_path(A2, (-1, 0))


def test_lowering_splits_the_straight_path():
    p = highest_path(A1, (2,))
    q = path_f(A1, 0, p)
    assert q == ((Fraction(-1),), (Fraction(1),))
    assert _endpoint(q, 1) == (0,)


def test_string_exhaustion():
    p = highest_path(A1, (2,))
    p1 = path_f(A1, 0, p)
    p2 = path_f(A1, 0, p1)
    assert _endpoint(p2, 1) == (-2,)
    assert path_f(A1, 0, p2) is None
    assert path_e(A1, 0, p) is None


def test_operators_are_mutually_inverse():
    rng = Random(3)
    for diagram, hw in [(A2, (2, 1)), (D4, (1, 0, 0, 1))]:
        crystal = build_crystal(diagram, hw)
        paths = exported_paths(crystal)
        for path in paths:
            for i in range(diagram.rank):
                down = path_f(diagram, i, path)
                if down is not None:
                    assert path_e(diagram, i, down) == path
                up = path_e(diagram, i, path)
                if up is not None:
                    assert path_f(diagram, i, up) == path
        # random alternating walks return home
        for _ in range(50):
            path = paths[rng.randrange(len(paths))]
            i = rng.randrange(diagram.rank)
            down = path_f(diagram, i, path)
            if down is not None:
                assert path_e(diagram, i, down) == path


def test_canonicalization_idempotent_and_respected():
    for path in exported_paths(build_crystal(A2, (1, 1))):
        assert _canonical(path) == path
        # split every segment in two; operators must not notice
        split = []
        for seg in path:
            split.append(tuple(c / 2 for c in seg))
            split.append(tuple(c / 2 for c in seg))
        assert _canonical(split) == path
        for i in range(2):
            a = path_f(A2, i, path)
            b = path_f(A2, i, tuple(split))
            assert a == b


def test_build_crystal_counts():
    assert len(build_crystal(A1, (3,))) == 4
    assert sorted(build_crystal(A1, (3,)).weights) == [(-3,), (-1,), (1,), (3,)]
    assert sorted(build_crystal(A2, (1, 0)).weights) == [(-1, 1), (0, -1), (1, 0)]
    assert len(build_crystal(D4, (1, 0, 0, 0))) == 8


def test_unique_source_with_highest_weight():
    c = build_crystal(A2, (2, 1))
    sources = [v for v in range(len(c)) if c.is_source(v)]
    assert sources == [0]
    assert c.weights[0] == (2, 1)


def test_cardinality_matches_weyl_dimension():
    for diagram, hw in [
        (A2, (2, 1)),
        (A2, (3, 0)),
        (dynkin("A", 3), (1, 1, 0)),
        (D4, (0, 1, 0, 0)),
    ]:
        assert len(build_crystal(diagram, hw)) == diagram.weyl_dimension(hw)


def test_character_matches_freudenthal():
    for diagram, hw in [(A2, (2, 1)), (dynkin("A", 3), (1, 0, 1)), (D4, (1, 0, 0, 0))]:
        crystal = build_crystal(diagram, hw)
        assert crystal.character() == freudenthal_character(diagram, hw)


def test_vertex_cap():
    with pytest.raises(VertexCapError):
        build_crystal(A2, (3, 3), max_vertices=10)


def test_nondominant_rejected():
    with pytest.raises(ValueError):
        build_crystal(A2, (0, -1))


def test_nonpositive_vertex_cap_rejected():
    for cap in (0, -3):
        with pytest.raises(ValueError, match="max_vertices"):
            build_crystal(A2, (1, 1), max_vertices=cap)


SMALL_WEIGHTS = st.one_of(
    st.tuples(st.just(A1), st.tuples(st.integers(0, 9))),
    st.tuples(st.just(A2), st.tuples(st.integers(0, 4), st.integers(0, 4))),
    st.tuples(st.just(dynkin("A", 3)), st.tuples(*(st.integers(0, 2) for _ in range(3)))),
    st.tuples(st.just(D4), st.tuples(*(st.integers(0, 1) for _ in range(4)))),
    st.tuples(st.just(dynkin("D", 5)), st.tuples(*(st.integers(0, 1) for _ in range(5)))),
    st.tuples(st.just(dynkin("E", 6)), st.tuples(*(st.integers(0, 1) for _ in range(6)))),
).filter(lambda case: case[0].weyl_dimension(case[1]) <= 400)


@settings(max_examples=25, deadline=None)
@given(SMALL_WEIGHTS)
def test_crystal_matches_oracles_and_operators_invert(case):
    diagram, hw = case
    crystal = build_crystal(diagram, hw)
    assert len(crystal) == diagram.weyl_dimension(hw)
    assert crystal.character() == freudenthal_character(diagram, hw)
    paths = exported_paths(crystal)
    for v, path in enumerate(paths):
        # the BFS weights, checked against each exported path's own endpoint
        assert _endpoint(path, diagram.rank) == crystal.weights[v]
        for i in range(diagram.rank):
            down = path_f(diagram, i, path)
            assert (down is None) == (crystal.f(i, v) is None)
            if down is not None:
                assert down == paths[crystal.f(i, v)]
                assert path_e(diagram, i, down) == path


def test_minuscule_crystals_are_their_weyl_orbits():
    labels = [f"A{n}" for n in range(1, 7)] + [f"D{n}" for n in range(4, 8)] + ["E6", "E7"]
    for diagram in map(parse_diagram, labels):
        for node in minuscule_nodes(diagram):
            built = build_crystal(diagram, [int(j == node) for j in range(diagram.rank)])
            listing = bfs_listing(built, 0)
            assert len(listing) == len(built)
            assert listing == bfs_listing(minuscule_crystal(diagram, node), 0), (diagram, node)


@pytest.mark.parametrize("label, node", [("D4", 1), ("D5", 1), ("E6", 5), ("E7", 0), ("E8", 6)])
def test_adjoint_crystals_are_their_quasi_minuscule_models(label, node):
    # theta = omega_node is the highest root; E8 has no minuscule node, so
    # this is its only edge-level check
    diagram = parse_diagram(label)
    theta = [int(j == node) for j in range(diagram.rank)]
    size = len(diagram.positive_roots()) * 2 + diagram.rank
    assert diagram.weyl_dimension(theta) == size
    listing = bfs_listing(build_crystal(diagram, theta), 0)
    assert len(listing) == size
    assert listing == bfs_listing(quasi_minuscule_crystal(diagram, node), 0)


@pytest.mark.parametrize("label, top", [("A3", 3), ("D4", 3), ("D5", 3), ("E6", 2)])
def test_components_of_minuscule_products_are_the_built_crystals(label, top):
    # every component of a product of 2..top minuscule crystals, powers
    # included, built from Weyl orbits by the per-pair signature rule, against
    # build_crystal of its source weight, edge for edge
    diagram = parse_diagram(label)
    orbits = {node: minuscule_crystal(diagram, node) for node in minuscule_nodes(diagram)}
    built = {}
    for m in range(2, top + 1):
        for word in combinations_with_replacement(orbits, m):
            product = orbits[word[0]]
            for node in word[1:]:
                product = tensor_per_pair(product, orbits[node])
            sources = [v for v in range(len(product)) if product.is_source(v)]
            listings = [bfs_listing(product, s) for s in sources]
            assert sum(map(len, listings)) == len(product)
            for s, listing in zip(sources, listings):
                hw = product.weights[s]
                if hw not in built:
                    built[hw] = bfs_listing(build_crystal(diagram, hw), 0)
                assert listing == built[hw], (word, hw)


def test_integrality_assertions_fire():
    # heights 0, 1/2, -1/2: the minimum is not an integer
    half_off = ((Fraction(1, 2),), (Fraction(-1),))
    with pytest.raises(AssertionError, match="integral class"):
        path_f(A1, 0, half_off)
    with pytest.raises(AssertionError, match="integral class"):
        path_e(A1, 0, half_off)


@st.composite
def rational_paths(draw):
    """(diagram, colour, path): coordinates with denominators up to 12 and
    integer heights in the acting colour at every breakpoint."""
    diagram = draw(st.sampled_from([A1, A2, dynkin("A", 3), D4]))
    i = draw(st.integers(0, diagram.rank - 1))
    rationals = st.integers(1, 12).flatmap(
        lambda q: st.integers(-3 * q, 3 * q).map(lambda k: Fraction(k, q))
    )
    rises = st.integers(-3, 3).map(Fraction)
    segment = st.tuples(*(rises if k == i else rationals for k in range(diagram.rank)))
    return diagram, i, tuple(draw(st.lists(segment, min_size=1, max_size=5)))


@settings(max_examples=300, deadline=None)
@given(rational_paths())
def test_root_operators_match_the_fraction_reference(case):
    # a split point inside a segment of slope c needs c times the input's
    # denominator, which no LS path in the other tests exercises
    diagram, i, path = case
    assert path_f(diagram, i, path) == root_f(diagram, i, path)
    assert path_e(diagram, i, path) == root_e(diagram, i, path)


def test_close_asserts_an_integral_split_point():
    # A2 (30,2) needs denominator lcm(30, 2, 32) = 480; with 1 a split fails
    start, denominator = paths._from_fractions(highest_path(A2, (30, 2)))
    assert denominator == 1
    with pytest.raises(AssertionError, match="split point .* over denominator 1$"):
        paths._close(A2, (30, 2), start, 1)


def test_build_takes_weights_from_the_parent_and_keeps_integer_paths():
    e6 = dynkin("E", 6)
    crystal = build_crystal(e6, (1, 0, 0, 0, 0, 1))
    assert len(crystal) == e6.weyl_dimension((1, 0, 0, 0, 0, 1))
    for kind, denominator, path in crystal.payloads:
        assert kind == "path" and type(denominator) is int and denominator > 0
        for direction, length in path:
            assert type(length) is int and length > 0
            assert len(direction) == e6.rank and all(type(x) is int for x in direction)


def test_path_payloads_are_made_once_on_first_read(monkeypatch):
    closures = []
    close = paths._close

    def recorded(diagram, hw, start, denominator):
        out = close(diagram, hw, start, denominator)
        closures.append((denominator, out[0]))
        return out

    monkeypatch.setattr(paths, "_close", recorded)
    crystal = build_crystal(A2, (2, 1))
    assert callable(crystal._payloads)  # nothing made yet
    [(denominator, order)] = closures
    first = crystal.payloads
    assert first == tuple(("path", denominator, p) for p in order)
    assert crystal.payloads is first


def test_direct_sum_exports_each_summand_over_its_own_denominator():
    # denominators 1 and 6: each payload carries its own
    small, large = build_crystal(A2, (1, 0)), build_crystal(A2, (2, 1))
    assert {p[1] for p in small.payloads} == {1} and {p[1] for p in large.payloads} == {6}
    assert exported_paths(direct_sum([small, large])) == (
        exported_paths(small) + exported_paths(large)
    )
    assert exported_paths(large)[0] == highest_path(A2, (2, 1))


@pytest.mark.parametrize(
    "call",
    [
        lambda d, i: d.simple_root(i),
        lambda d, i: d.weyl_reflect(i, (1, 0)),
        lambda d, i: path_f(d, i, highest_path(d, (1, 0))),
        lambda d, i: path_e(d, i, path_f(d, 0, highest_path(d, (1, 0)))),
    ],
    ids=["simple_root", "weyl_reflect", "path_f", "path_e"],
)
@pytest.mark.parametrize("color", [-1, 2])
def test_color_outside_the_diagram_is_refused(call, color):
    # color -1 used to alias color 1 of A2, and color 2 raised IndexError
    with pytest.raises(ValueError, match=re.escape(f"color {color} out of range for A2")):
        call(A2, color)


@pytest.mark.parametrize(
    "call",
    [lambda p: path_f(A2, 0, p), lambda p: path_e(A2, 0, p)],
    ids=["path_f", "path_e"],
)
def test_float_path_entries_are_refused(call):
    # path_f used to die on an AssertionError
    path = ((Fraction(1), 0), (1.5, 0))
    with pytest.raises(TypeError, match=re.escape("path segment 1 has the float entry 1.5")):
        call(path)
