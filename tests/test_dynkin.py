import hashlib
import re
import sys
from fractions import Fraction
from itertools import combinations, product as cartesian

import pytest
from hypothesis import example, given, strategies as st

from crystal_forge.dynkin import (
    MAX_RANK,
    DynkinDiagram,
    as_text,
    dynkin,
    induced_subdiagram,
    pairing,
    parse_diagram,
    vadd,
    vsub,
)
from crystal_forge.dimensions import graded_grassmannian_dim, v_from_weight
from crystal_forge.decompose import branch
from crystal_forge.paths import build_crystal
from oracles import (
    inverse_cartan_fractions,
    positive_roots_bfs,
    solve_cartan_fractions,
    weyl_dimension_per_root,
)


def test_a1_tables():
    a1 = dynkin("A", 1)
    assert a1.cartan == ((2,),)
    assert a1.x_matrix == ((0,),)
    assert a1.oriented_edges == ()
    assert a1.simple_root(0) == (2,)


def test_a2_tables():
    a2 = dynkin("A", 2)
    assert a2.cartan == ((2, -1), (-1, 2))
    assert a2.x_matrix == ((0, 1), (1, 0))
    assert len(a2.oriented_edges) == 2


def test_d4_shape():
    d4 = dynkin("D", 4)
    assert [sum(row) for row in d4.cartan] == [1, -1, 1, 1]
    assert sum(d4.x_matrix[1]) == 3  # vertex 1 has degree 3
    assert len(d4.oriented_edges) == 6


@pytest.mark.parametrize("family,rank", [("A", 0), ("D", 3), ("E", 5), ("E", 9), ("B", 2)])
def test_invalid_diagrams(family, rank):
    with pytest.raises(ValueError):
        dynkin(family, rank)


def test_rank_bound():
    assert dynkin("A", MAX_RANK).rank == MAX_RANK
    message = f"D{MAX_RANK + 1} has rank {MAX_RANK + 1}, above the maximum rank {MAX_RANK}"
    with pytest.raises(ValueError, match=message):
        dynkin("D", MAX_RANK + 1)


def test_parse_diagram():
    assert parse_diagram("A2").label == "A2"
    assert parse_diagram(" e6 ").label == "E6"
    with pytest.raises(ValueError):
        parse_diagram("F4")
    with pytest.raises(ValueError):
        parse_diagram("A")


def test_pairing_examples():
    assert pairing((1, 0), (0, 1)) == 0
    assert pairing((1, 1), (1, 1)) == 2
    a2 = dynkin("A", 2)
    assert pairing(a2.apply_x((1, 1)), (1, 1)) == 2
    with pytest.raises(ValueError):
        pairing((1,), (1, 0))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: dynkin("A", 2).apply_x((1, 2, 3)), "a rank-2 matrix applied to a vector of length 3"),
        (lambda: dynkin("A", 2).apply_x((1,)), "a rank-2 matrix applied to a vector of length 1"),
        (lambda: dynkin("A", 3).apply_cartan((1, 2)), "a rank-3 matrix applied to a vector of length 2"),
        (lambda: dynkin("A", 1).apply_cartan([]), "a rank-1 matrix applied to a vector of length 0"),
        (lambda: vadd((1, 2), (1,)), "sum of vectors of lengths 2 and 1"),
        (lambda: vadd((1,), (1, 2)), "sum of vectors of lengths 1 and 2"),
        (lambda: vsub((1, 2), (1,)), "difference of vectors of lengths 2 and 1"),
        (lambda: vsub((), (1,)), "difference of vectors of lengths 0 and 1"),
        (lambda: pairing((1,), (1, 0)), "pairing of vectors of lengths 1 and 2"),
        (lambda: graded_grassmannian_dim((1,), (1, 2)), "difference of vectors of lengths 2 and 1"),
    ],
    ids=[
        "apply_x-long", "apply_x-short", "apply_cartan-short", "apply_cartan-empty",
        "vadd-short", "vadd-long", "vsub-short", "vsub-empty", "pairing", "grassmannian",
    ],
)
def test_vectors_of_unequal_length_are_refused(call, message):
    # no vector is silently cut to the length of the shorter one
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_weyl_reflect_example():
    a2 = dynkin("A", 2)
    assert a2.weyl_reflect(0, (1, 0)) == (-1, 1)


@given(
    st.tuples(*(st.integers(-6, 6) for _ in range(3))),
    st.integers(0, 2),
)
def test_weyl_reflect_involution_and_sign(w, i):
    a3 = dynkin("A", 3)
    once = a3.weyl_reflect(i, w)
    assert once[i] == -w[i]
    assert a3.weyl_reflect(i, once) == w


@given(
    st.tuples(*(st.integers(-6, 6) for _ in range(4))),
    st.tuples(*(st.integers(-6, 6) for _ in range(4))),
)
def test_x_symmetric(v, u):
    d4 = dynkin("D", 4)
    assert pairing(d4.apply_x(v), u) == pairing(v, d4.apply_x(u))


def test_oriented_edge_reversal():
    d4 = dynkin("D", 4)
    H = d4.oriented_edges
    assert len(H) == 2 * len(d4.edges)
    for h in H:
        rev = (h[1], h[0])
        assert rev in H and rev != h
        assert d4.orientation_sign(h) + d4.orientation_sign(rev) == 0


@pytest.mark.parametrize(
    "label,count",
    [
        ("A2", 3),
        ("A3", 6),
        ("A4", 10),
        ("D4", 12),
        ("E6", 36),
        ("E7", 63),
        ("E8", 120),
        ("A100", 5050),
        ("D100", 9900),
    ],
)
def test_positive_root_counts(label, count):
    assert len(parse_diagram(label).positive_roots()) == count


@pytest.mark.parametrize(
    "label",
    [f"A{n}" for n in range(1, 13)] + [f"D{n}" for n in range(4, 13)] + ["E6", "E7", "E8"],
)
def test_positive_roots_match_the_reflection_orbit(label):
    diagram = parse_diagram(label)
    assert diagram.positive_roots() == positive_roots_bfs(diagram)


@pytest.mark.parametrize(
    "label,hw,dim",
    [
        ("A2", (1, 0), 3),
        ("A2", (1, 1), 8),
        ("A2", (2, 1), 15),
        ("D4", (1, 0, 0, 0), 8),
        ("D4", (0, 1, 0, 0), 28),
        ("E6", (1, 0, 0, 0, 0, 0), 27),
    ],
)
def test_weyl_dimension(label, hw, dim):
    assert parse_diagram(label).weyl_dimension(hw) == dim


@pytest.mark.parametrize(
    "label", [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"]
)
def test_weyl_dimension_matches_the_root_by_root_formula(label):
    diagram = parse_diagram(label)
    roots = positive_roots_bfs(diagram)
    for hw in cartesian(range(3), repeat=diagram.rank):
        assert diagram.weyl_dimension(hw) == weyl_dimension_per_root(roots, hw), hw


@pytest.mark.parametrize(
    "hw, message",
    [
        ((-1, 0), "weight (-1, 0) is not dominant"),
        ([2, -3], "weight (2, -3) is not dominant"),
        ((1,), "weight (1,) has length 1, diagram rank is 2"),
        ((1, 0, 0), "weight (1, 0, 0) has length 3, diagram rank is 2"),
    ],
)
def test_weyl_dimension_error_texts(hw, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dynkin("A", 2).weyl_dimension(hw)


def test_check_weight_passes_exact_int_tuples_as_they_are():
    a2 = dynkin("A", 2)
    w = (3, -1)
    assert a2.check_weight(w) is w
    # any other shape or entry type is converted as before: to a new tuple
    # of exact ints, or refused with the same message
    for given in ([3, -1], (True, 0), iter((3, -1))):
        checked = a2.check_weight(given)
        assert type(checked) is tuple and list(map(type, checked)) == [int, int]
    assert a2.check_weight((True, False)) == (1, 0)
    with pytest.raises(ValueError, match=re.escape("weight (1, 0.0) has a non-integer entry")):
        a2.check_weight((1, 0.0))
    with pytest.raises(ValueError, match=re.escape("weight (1,) has length 1, diagram rank is 2")):
        a2.check_weight((1,))


@pytest.mark.parametrize(
    "call, weight",
    [
        (lambda w: build_crystal(dynkin("A", 2), w), (1.5, 0)),
        (lambda w: dynkin("A", 2).weyl_dimension(w), (Fraction(3, 2), 0)),
        (lambda w: v_from_weight(dynkin("A", 2), (1, 0), w), ("1", "0")),
    ],
    ids=["build_crystal", "weyl_dimension", "v_from_weight"],
)
def test_non_integer_weights_are_refused(call, weight):
    # int() used to truncate these to B(1, 0), dimension 3 and the weight (1, 0)
    with pytest.raises(ValueError, match=re.escape(f"weight {weight} has a non-integer entry")):
        call(weight)


_SOLVE_LABELS = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"]
_SOLVE_DIAGRAMS = {label: parse_diagram(label) for label in _SOLVE_LABELS}


@pytest.mark.parametrize("label", _SOLVE_LABELS)
def test_inverse_cartan_roundtrip(label):
    diagram = parse_diagram(label)
    n = diagram.rank
    inv = diagram.inverse_cartan().data
    for i in range(n):
        for j in range(n):
            assert sum(diagram.cartan[i][k] * inv[k][j] for k in range(n)) == (1 if i == j else 0)


def _v_from_weight_fractions(diagram, d, mu):
    """The solution of A v = d - mu in Fractions, or None unless integral and >= 0."""
    sol = solve_cartan_fractions(inverse_cartan_fractions(diagram), vsub(d, mu))
    if any(c.denominator != 1 or c < 0 for c in sol):
        return None
    return tuple(int(c) for c in sol)


@st.composite
def _solve_cases(draw):
    """(diagram, d, mu) with mu = d - A v - shift: v has negative entries, and
    a nonzero shift mostly leaves A v = d - mu without an integral solution."""
    diagram = _SOLVE_DIAGRAMS[draw(st.sampled_from(_SOLVE_LABELS))]
    n = diagram.rank

    def vec(lo, hi):
        return draw(st.tuples(*(st.integers(lo, hi) for _ in range(n))))

    d, v = vec(0, 4), vec(-2, 3)
    shift = vec(-2, 2) if draw(st.booleans()) else (0,) * n
    return diagram, d, vsub(vsub(d, diagram.apply_cartan(v)), shift)


@given(_solve_cases())
@example((_SOLVE_DIAGRAMS["A2"], (1, 0), (0, 0)))  # v = (2/3, 1/3)
@example((_SOLVE_DIAGRAMS["A2"], (0, 0), (2, -1)))  # v = (-1, 0)
def test_integer_cartan_solve_matches_the_fraction_reference(case):
    diagram, d, mu = case
    n = diagram.rank
    inv = diagram.inverse_cartan()
    for i in range(n):
        for j in range(n):
            entry = sum(diagram.cartan[i][k] * inv.num[k][j] for k in range(n))
            assert entry == (inv.den if i == j else 0)
    assert inv.data == inverse_cartan_fractions(diagram)
    assert v_from_weight(diagram, d, mu) == _v_from_weight_fractions(diagram, d, mu)


def test_induced_subdiagram():
    a3 = dynkin("A", 3)
    sub, kept = induced_subdiagram(a3, [0, 2])
    assert sub.label == "A1+A1" and kept == (0, 2)
    d4 = dynkin("D", 4)
    sub, _ = induced_subdiagram(d4, [0, 2, 3])
    assert sub.label == "A1+A1+A1"
    sub, _ = induced_subdiagram(d4, [1, 2, 3])
    assert sub.label == "A3"
    sub, _ = induced_subdiagram(d4, [])
    assert sub.rank == 0
    with pytest.raises(ValueError):
        induced_subdiagram(a3, [7])
    # a diagram derives its label from its own neighbour lists: the standard
    # diagrams carry their family and rank, and the digest pins the labels
    # of all 576 induced subdiagrams of A6, D6, E6, E7 and E8, vertex sets
    # in combinations order
    families = {"A": range(1, MAX_RANK + 1), "D": range(4, MAX_RANK + 1), "E": (6, 7, 8)}
    for family, ranks in families.items():
        for n in ranks:
            assert dynkin(family, n).label == f"{family}{n}"
    labels = [
        induced_subdiagram(diagram, keep)[0].label
        for diagram in map(parse_diagram, ("A6", "D6", "E6", "E7", "E8"))
        for k in range(diagram.rank + 1)
        for keep in combinations(range(diagram.rank), k)
    ]
    assert len(labels) == 576
    digest = hashlib.sha256("\n".join(labels).encode()).hexdigest()
    assert digest == "9014901f294dacf549a16e765e2e45c5e8d8461e73ff7f6adb19e1960b4f5563"
    for rank, edges, message in [
        (3, [(0, 1), (1, 2), (0, 2)], "diagram component is not a tree"),
        (5, [(0, 1), (0, 2), (0, 3), (0, 4)], "diagram has a vertex of degree > 3"),
        (6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)], "diagram has more than one branch vertex"),
        (9, [(k, k + 1) for k in range(7)] + [(2, 8)], "legs [1, 2, 5]"),
        (8, [(k, k + 1) for k in range(6)] + [(3, 7)], "legs [1, 3, 3]"),
        (7, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)], "legs [2, 2, 2]"),
    ]:
        if message.startswith("legs"):
            message = f"diagram component with {message} is not of finite ADE type"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DynkinDiagram(rank, edges)


@pytest.mark.parametrize(
    "call",
    [induced_subdiagram, lambda diagram, keep: branch(build_crystal(diagram, (1, 0)), keep)],
    ids=["induced_subdiagram", "branch"],
)
@pytest.mark.parametrize("vertex", [0.5, 1.2, "1"])
def test_non_integer_vertices_are_refused(call, vertex):
    # int() used to keep vertex 0 for 0.5 and vertex 1 for 1.2 and "1"
    with pytest.raises(ValueError, match=re.escape(f"vertex {vertex!r} is not an integer")):
        call(dynkin("A", 2), [vertex])


@pytest.mark.parametrize(
    "rank, edges, message",
    [
        (2, [(0, 2)], "edge (0, 2) out of range for rank 2"),
        (2, [(1, 1)], "edge (1, 1) out of range for rank 2"),
        (3, [(0, 1), (1, 0)], "duplicate edges"),
    ],
)
def test_edges_out_of_range_or_repeated_are_refused(rank, edges, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DynkinDiagram(rank, edges)


@pytest.mark.parametrize("what", ["weight", "highest weight", "target weight"])
def test_check_dominant_names_the_weight_it_refuses(what):
    a2 = dynkin("A", 2)
    w = (3, 0)
    assert a2.check_dominant(w, what) is w
    assert a2.check_dominant([0, 2]) == (0, 2)
    with pytest.raises(ValueError) as err:
        a2.check_dominant((0, -1), what)
    assert str(err.value) == f"{what} (0, -1) is not dominant"
    # the length is checked before the sign
    with pytest.raises(ValueError, match=re.escape("weight (-1,) has length 1, diagram rank is 2")):
        a2.check_dominant((-1,), what)


@pytest.mark.parametrize("x", [0, 7, -12, True, (), (1,), (1, -1), (0, 2, 3), (1, 1.5)])
def test_as_text_writes_what_str_writes(x):
    assert as_text(x) == str(x)


# Python's limit on the digits of an int written as text, or 0 for none
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python writes every int as text")
def test_as_text_writes_an_int_above_the_digit_limit_by_its_digit_count():
    big = 10**DIGIT_LIMIT  # one digit more than the limit
    assert as_text(big - 1) == str(big - 1)
    digits = f"{DIGIT_LIMIT + 1}-digit number"
    assert as_text(big) == f"a {digits}"
    assert as_text(-big) == f"a negative {digits}"
    assert as_text(big**2) == f"a {2 * DIGIT_LIMIT + 1}-digit number"
    assert as_text((big,)) == f"(a {digits},)"
    assert as_text((-1, big, 1.5)) == f"(-1, a {digits}, 1.5)"


@pytest.mark.parametrize("rank", [-1, MAX_RANK + 1])
def test_diagram_rank_outside_the_bound_is_refused(rank):
    # DynkinDiagram(-1, ()) used to build a diagram labelled ''
    with pytest.raises(ValueError, match=re.escape(f"diagram rank {rank} is outside 0..{MAX_RANK}")):
        DynkinDiagram(rank, ())


@pytest.mark.parametrize(
    "label,keep,expected",
    [
        ("E6", [0, 1, 2, 3, 5], "D5"),
        ("E6", [0, 1, 2, 3, 4], "A5"),
        ("E6", [1, 2, 3, 5], "D4"),
        ("E6", [0, 1, 3, 4, 5], "A2+A2+A1"),
        ("E7", [1, 2, 3, 4, 5, 6], "D6"),
        ("E8", [0, 1, 2, 3, 4, 5, 7], "E7"),
        ("E8", [0, 1, 2, 3, 4, 5, 6], "A7"),
    ],
)
def test_e_type_subdiagrams(label, keep, expected):
    sub, _ = induced_subdiagram(parse_diagram(label), keep)
    assert sub.label == expected
    # the diagram names itself from its edges, with no name passed in
    diagram = parse_diagram(label)
    assert DynkinDiagram(diagram.rank, diagram.edges).label == diagram.label == label
