"""The explicit one-vertex (sl2) model.

For the quiver with a single vertex and no edges everything is elementary
linear algebra of pairs (p, q) with pq = 0, equivalently of square-zero
endomorphisms t = qp.  The component labels are triples (d, v0, v): the
framing dimension, the rank of t, and dim V.  The label is non-empty
exactly when v0 <= v <= d - v0; weights translate through wt = d - 2v and
the highest weight through mu = d - 2*v0.

These closed forms are the independent oracle for the generic crystal
engine restricted to A1.
"""

from __future__ import annotations

from .crystal import CrystalGraph, _graph
from .dynkin import dynkin
from .paths import DEFAULT_VERTEX_CAP, VertexCapError, counted

_A1 = dynkin("A", 1)


def _check_label(d: int, v0: int) -> None:
    if d < 0 or v0 < 0:
        raise ValueError(f"invalid sl2 label (d, v0) = {(d, v0)}: negative entry")


def sl2_crystal(d: int, v0: int) -> CrystalGraph:
    """The chain crystal with vertices v = v0 .. d-v0 and weights d-2v.

    Empty when 2*v0 > d.  Vertex k corresponds to v = v0 + k, with
    epsilon = v - v0 and phi = d - v - v0.  Raises VertexCapError, before
    building anything, for a chain above paths.DEFAULT_VERTEX_CAP.
    """
    _check_label(d, v0)
    size = d - 2 * v0 + 1
    if size > DEFAULT_VERTEX_CAP:
        raise VertexCapError(f"sl2 chain of {counted(size, 'vertices')}", DEFAULT_VERTEX_CAP)
    if 2 * v0 > d:
        return _graph(_A1, [], [{}])
    vs = list(range(v0, d - v0 + 1))
    weights = [(d - 2 * v,) for v in vs]
    f_map = {k: k + 1 for k in range(len(vs) - 1)}
    payloads = [("sl2", d, v0, v) for v in vs]
    return _graph(_A1, weights, [f_map], payloads)


def sl2_tensor_component(first, second) -> tuple[int, int]:
    """Where a pair of chain vertices lands under tensor decomposition.

    Inputs are labels (d, v0, v) of non-empty chain vertices; the output
    is the label (v0, v) of the image vertex inside the combined chain of
    framing dimension d1 + d2:

        v0 = min(v_second + v0_first, d_first - v_first + v0_second)
        v  = v_first + v_second
    """
    d1, v1, u1 = first
    d2, v2, u2 = second
    for (d, v0, u) in (first, second):
        _check_label(d, v0)
        if not (v0 <= u <= d - v0):
            raise ValueError(f"invalid sl2 vertex label (d, v0, v) = {(d, v0, u)}")
    v0 = min(u2 + v1, d1 - u1 + v2)
    return v0, u1 + u2


def sl2_mult_range(d1: int, v1: int, d2: int, v2: int) -> list[int]:
    """All v0 labels occurring in the decomposition of a tensor of chains.

    Runs from v1 + v2 up to min(d2 - v2 + v1, d1 - v1 + v2), inclusive;
    empty when that bound is below the start.  Raises VertexCapError,
    before building the list, for a range longer than
    paths.DEFAULT_VERTEX_CAP.
    """
    for d, v0 in ((d1, v1), (d2, v2)):
        _check_label(d, v0)
        if 2 * v0 > d:
            raise ValueError(f"empty sl2 label (d, v0) = {(d, v0)}")
    start, top = v1 + v2, min(d2 - v2 + v1, d1 - v1 + v2)
    size = top - start + 1
    if size > DEFAULT_VERTEX_CAP:
        raise VertexCapError(f"sl2 v0 range of {counted(size, 'labels')}", DEFAULT_VERTEX_CAP)
    return list(range(start, top + 1))


def sl2_multiplicity_nonempty(d1: int, v1: int, d2: int, v2: int, v: int) -> bool:
    """Whether the two-factor multiplicity label (d, (d1,d2), v, (v1,v2)) is non-empty.

    False exactly when v < v1 + v2, or v > d2 - v2 + v1, or
    v > d1 - v1 + v2.
    """
    if min(d1, v1, d2, v2, v) < 0:
        raise ValueError("sl2 labels must be non-negative")
    return not (v < v1 + v2 or v > d2 - v2 + v1 or v > d1 - v1 + v2)
