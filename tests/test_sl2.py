import pytest

from crystal_forge.crystal import tensor, verify_axioms
from crystal_forge.decompose import decompose, is_isomorphic
from crystal_forge.dynkin import dynkin
from crystal_forge.paths import DEFAULT_VERTEX_CAP, VertexCapError, build_crystal
from crystal_forge.sl2 import (
    sl2_crystal,
    sl2_mult_range,
    sl2_multiplicity_nonempty,
    sl2_tensor_component,
)

A1 = dynkin("A", 1)


def test_sl2_crystal_examples():
    c = sl2_crystal(3, 1)
    assert len(c) == 2
    assert list(c.weights) == [(1,), (-1,)]
    assert (c.epsilon(0, 0), c.phi(0, 0)) == (0, 1)
    assert (c.epsilon(1, 0), c.phi(1, 0)) == (1, 0)
    assert list(sl2_crystal(2, 0).weights) == [(2,), (0,), (-2,)]
    assert len(sl2_crystal(1, 1)) == 0
    assert verify_axioms(sl2_crystal(6, 2)) == []


def test_sl2_crystal_matches_generic_engine():
    for d in range(9):
        for v0 in range(d // 2 + 1):
            explicit = sl2_crystal(d, v0)
            generic = build_crystal(A1, (d - 2 * v0,))
            assert is_isomorphic(explicit, generic) is not None


def test_tensor_component_examples():
    assert sl2_tensor_component((2, 0, 1), (2, 0, 0)) == (0, 1)
    assert sl2_tensor_component((2, 0, 1), (2, 0, 1)) == (1, 2)
    assert sl2_tensor_component((2, 0, 2), (2, 0, 0)) == (0, 2)
    with pytest.raises(ValueError):
        sl2_tensor_component((2, 0, 3), (2, 0, 0))


def test_mult_range_examples():
    assert sl2_mult_range(2, 0, 2, 0) == [0, 1, 2]
    assert sl2_mult_range(1, 0, 1, 0) == [0, 1]
    assert sl2_mult_range(2, 1, 2, 1) == [2]
    with pytest.raises(ValueError):
        sl2_mult_range(1, 1, 2, 0)


def test_nonempty_examples():
    assert sl2_multiplicity_nonempty(2, 0, 2, 0, 1)
    assert not sl2_multiplicity_nonempty(2, 0, 2, 0, 3)
    for d1 in range(5):
        for v1 in range(d1 // 2 + 1):
            for d2 in range(5):
                for v2 in range(d2 // 2 + 1):
                    assert sl2_multiplicity_nonempty(d1, v1, d2, v2, v1 + v2)


def test_nonempty_iff_in_range():
    for d1 in range(6):
        for v1 in range(d1 // 2 + 1):
            for d2 in range(6):
                for v2 in range(d2 // 2 + 1):
                    rng = set(sl2_mult_range(d1, v1, d2, v2))
                    for v in range(10):
                        assert sl2_multiplicity_nonempty(d1, v1, d2, v2, v) == (v in rng)


def test_range_agrees_with_decomposition():
    for d1 in range(7):
        for v1 in range(d1 // 2 + 1):
            for d2 in range(7):
                for v2 in range(d2 // 2 + 1):
                    t = tensor(
                        build_crystal(A1, (d1 - 2 * v1,)),
                        build_crystal(A1, (d2 - 2 * v2,)),
                    )
                    got = sorted(w[0] for w, m in decompose(t).summands.items())
                    d = d1 + d2
                    expected = sorted(d - 2 * v0 for v0 in sl2_mult_range(d1, v1, d2, v2))
                    assert got == expected


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sl2_crystal(-1, 0), "invalid sl2 label (d, v0) = (-1, 0): negative entry"),
        (lambda: sl2_crystal(2, -1), "invalid sl2 label (d, v0) = (2, -1): negative entry"),
        (lambda: sl2_mult_range(2, 0, 2, -1), "invalid sl2 label (d, v0) = (2, -1): negative entry"),
        (
            lambda: sl2_tensor_component((2, -1, 0), (2, 0, 0)),
            "invalid sl2 label (d, v0) = (2, -1): negative entry",
        ),
        (lambda: sl2_multiplicity_nonempty(2, 0, 2, 0, -1), "sl2 labels must be non-negative"),
    ],
    ids=["crystal-d", "crystal-v0", "range", "component", "nonempty"],
)
def test_negative_labels_are_refused(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_mult_range_vertex_cap():
    # the range has min(d1 - 2*v1, d2 - 2*v2) + 1 labels: at the cap it is
    # built, one above it is refused before the list is built
    assert len(sl2_mult_range(DEFAULT_VERTEX_CAP - 1, 0, DEFAULT_VERTEX_CAP + 5, 0)) == (
        DEFAULT_VERTEX_CAP
    )
    with pytest.raises(VertexCapError) as err:
        sl2_mult_range(DEFAULT_VERTEX_CAP, 0, DEFAULT_VERTEX_CAP + 5, 0)
    assert str(err.value) == (
        f"sl2 v0 range of {DEFAULT_VERTEX_CAP + 1} labels "
        f"exceeded the vertex cap of {DEFAULT_VERTEX_CAP}"
    )
    # labels of 21 digits used to end in an OverflowError from `list`
    with pytest.raises(VertexCapError, match=f"^sl2 v0 range of {10**20 + 1} labels"):
        sl2_mult_range(10**20, 0, 10**20, 0)


def test_sl2_crystal_vertex_cap():
    # d - 2*v0 + 1 vertices: at the cap the chain is built, one above it is
    # refused before anything is built
    assert len(sl2_crystal(DEFAULT_VERTEX_CAP + 1, 1)) == DEFAULT_VERTEX_CAP
    with pytest.raises(VertexCapError, match=f"chain of {DEFAULT_VERTEX_CAP + 1} vertices"):
        sl2_crystal(DEFAULT_VERTEX_CAP + 2, 1)
