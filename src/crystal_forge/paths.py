"""Highest-weight crystals from root operators on piecewise-linear paths.

A path is a polygonal line in weight space starting at the origin; only
the traversed line matters, so paths are kept in a canonical form (no
zero segments, consecutive segments pointing the same way merged).  The
lowering operator for color i looks at the height function h(t) = i-th
coordinate along the path, locates the last time t1 the minimum m is
attained and the first time t2 after it with h = m+1, and reflects the
directions of the piece between t1 and t2; the raising operator is the
lowering operator conjugated by path reversal (run the path backwards
from its endpoint).  This is Littelmann's root-operator calculus;
starting from the straight dominant path it generates the highest-weight
crystal.

Internally a segment is a pair (direction, length): a primitive integer
direction (gcd of its entries 1) and a positive integer length, standing
for the displacement direction * length / D over one denominator D shared
by every path of a crystal.  The reflection s_i is an integral involution,
so it keeps directions primitive: two segments point the same way exactly
when their directions are equal, merging adds lengths, and heights are
integer prefix sums over D.  D is fixed from the highest weight lambda
as the lcm of the nonzero <lambda, gamma> over positive roots gamma: by
Littelmann's a-chain condition every breakpoint a of a path in B(lambda)
has a * <lambda, gamma> integral for some gamma, so split points are too.

A built crystal keeps its integer paths: vertex v carries ("path", D, p),
made on the first read of `payloads`, and its weight is its BFS parent's
minus alpha_i, as wt(f_i p) = wt(p) - alpha_i.  Public path operators
take and return tuples of Fraction tuples.  Floats never appear;
integral height minima and end heights are asserted.

`build_crystal` refuses lambda before it builds anything: through
`DynkinDiagram.check_dominant` when it is not dominant, and by its Weyl
dimension, which is |B(lambda)|, when that is above the vertex cap.  The
closure itself then counts nothing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import repeat
from math import gcd, lcm

from .crystal import CrystalGraph, _graph
from .dynkin import DynkinDiagram, Weight, as_text

Segment = tuple[Fraction, ...]
Path = tuple[Segment, ...]

# Internal form: ((direction, length), ...) over a separate denominator.
_IntPath = tuple[tuple[tuple[int, ...], int], ...]

DEFAULT_VERTEX_CAP = 200_000


class VertexCapError(RuntimeError):
    """A crystal build, or a tensor product, exceeded its vertex cap."""

    def __init__(self, what: str, cap: int):
        super().__init__(f"{what} exceeded the vertex cap of {as_text(cap)}")
        self.cap = cap


def counted(n: int, noun: str) -> str:
    """A count n > 0 of noun as text: "n noun", or "a k-digit number of
    noun" when `as_text` writes n by its digits."""
    text = as_text(n)
    return f"{text} {noun}" if text.isdigit() else f"{text} of {noun}"


def check_vertex_cap(max_vertices: int) -> None:
    """Raise ValueError for a vertex cap below 1."""
    if max_vertices < 1:
        raise ValueError(f"max_vertices must be at least 1, got {as_text(max_vertices)}")


class _Reflection(dict):
    """`DynkinDiagram.weyl_reflect` for color i on integer directions, memoised."""

    def __init__(self, diagram: DynkinDiagram, i: int):
        super().__init__()
        self.alpha = diagram.simple_root(i)
        self.reflect = partial(diagram.weyl_reflect, i)

    def __missing__(self, d):
        image = self[d] = self.reflect(d)
        return image


def _join(left: _IntPath, right: _IntPath) -> _IntPath:
    """Concatenate canonical paths, merging the seam if it points one way."""
    if left and right and left[-1][0] == right[0][0]:
        seam = ((right[0][0], left[-1][1] + right[0][1]),)
        return left[:-1] + seam + right[1:]
    return left + right


def _lower(path: _IntPath, i: int, denominator: int, reflect: _Reflection):
    """Lowering operator on a canonical integer path, or None."""
    heights = [0]
    h = 0
    for d, n in path:
        h += d[i] * n
        heights.append(h)
    m = min(heights)
    if m % denominator or h % denominator:
        raise AssertionError(
            f"height minimum {m}/{denominator} or end height {h}/{denominator} "
            "is not an integer; path left the integral class"
        )
    target = m + denominator
    if h < target:
        return None
    k1 = len(heights) - 1 - heights[::-1].index(m)
    j = k1
    while heights[j + 1] < target:
        j += 1
    if heights[j + 1] == target:
        piece, rest = path[k1 : j + 1], path[j + 1 :]
    else:
        d, n = path[j]
        rise, c = target - heights[j], d[i]
        if rise % c:
            raise AssertionError(
                f"split point {rise}/{c} into segment {j} is not an integer "
                f"over denominator {denominator}"
            )
        piece = path[k1:j] + ((d, rise // c),)
        rest = ((d, n - rise // c),) + path[j + 1 :]
    mid = tuple([(reflect[d], n) for d, n in piece])
    return _join(_join(path[:k1], mid), rest)


def _reverse(path: _IntPath) -> _IntPath:
    """The path run backwards from its endpoint, translated to the origin."""
    return tuple([(tuple([-x for x in d]), n) for d, n in reversed(path)])


def _rational(c, k: int) -> Fraction:
    # a float is refused: its exact binary value is rarely the number meant
    if isinstance(c, float):
        raise TypeError(f"path segment {k} has the float entry {c!r}; use an int or a Fraction")
    return Fraction(c)


def _from_fractions(segments) -> tuple[_IntPath, int]:
    """Canonical integer form and denominator of rational segments."""
    segments = [[_rational(c, k) for c in seg] for k, seg in enumerate(segments)]
    denominator = lcm(*(c.denominator for seg in segments for c in seg))
    path: _IntPath = ()
    for seg in segments:
        scaled = [c.numerator * (denominator // c.denominator) for c in seg]
        n = gcd(*scaled)
        if n:
            path = _join(path, ((tuple([x // n for x in scaled]), n),))
    return path, denominator


def _to_fractions(path: _IntPath, denominator: int) -> Path:
    return tuple([tuple([Fraction(x * n, denominator) for x in d]) for d, n in path])


def highest_path(diagram: DynkinDiagram, hw) -> Path:
    """The straight path to a dominant weight; the source of its crystal."""
    return _to_fractions(*_from_fractions([diagram.check_dominant(hw, "highest weight")]))


def _apply(diagram: DynkinDiagram, i: int, path: Path, raising: bool) -> Path | None:
    reflect = _Reflection(diagram, i)  # refuses a color outside range(rank)
    ints, denominator = _from_fractions(path)
    # every rise is then divisible by the slope of the segment it splits
    scale = lcm(*(abs(d[i]) for d, _ in ints if d[i]))
    ints = tuple([(d, n * scale) for d, n in ints])
    denominator *= scale
    new = _lower(_reverse(ints) if raising else ints, i, denominator, reflect)
    if new is None:
        return None
    return _to_fractions(_reverse(new) if raising else new, denominator)


def path_f(diagram: DynkinDiagram, i: int, path: Path) -> Path | None:
    """Lowering operator for color i, or None when the string is exhausted."""
    return _apply(diagram, i, path, raising=False)


def path_e(diagram: DynkinDiagram, i: int, path: Path) -> Path | None:
    """Raising operator for color i, or None when the string is exhausted."""
    return _apply(diagram, i, path, raising=True)


def _close(diagram: DynkinDiagram, hw: Weight, start: _IntPath, denominator: int):
    """Breadth-first closure of start, of weight hw: (paths, weights, f_maps)."""
    ids: dict[_IntPath, int] = {start: 0}
    order: list[_IntPath] = [start]
    weights: list[Weight] = [hw]
    reflections = [_Reflection(diagram, i) for i in range(diagram.rank)]
    f_maps: list[dict[int, int]] = [{} for _ in reflections]
    vid = 0
    while vid < len(order):
        path = order[vid]
        for i, reflect in enumerate(reflections):
            child = _lower(path, i, denominator, reflect)
            if child is None:
                continue
            cid = ids.get(child)
            if cid is None:
                cid = ids[child] = len(order)
                order.append(child)
                weights.append(tuple([w - a for w, a in zip(weights[vid], reflect.alpha)]))
            f_maps[i][vid] = cid
        vid += 1
    return order, weights, f_maps


def build_crystal(
    diagram: DynkinDiagram, hw, max_vertices: int = DEFAULT_VERTEX_CAP
) -> CrystalGraph:
    """Close the straight dominant path under all lowering operators.

    Breadth-first; canonical paths are the vertex keys, so the vertex ids
    and edge lists are deterministic.  Raises ValueError for a cap below
    1 and VertexCapError when the crystal would exceed max_vertices, by
    its Weyl dimension before anything is built.
    """
    check_vertex_cap(max_vertices)
    hw = diagram.check_dominant(hw, "highest weight")
    if diagram._weyl_dimension(hw) > max_vertices:
        raise VertexCapError(
            f"crystal for highest weight {as_text(hw)} on {diagram.label}", max_vertices
        )
    pairings = (sum(x * g for x, g in zip(hw, r)) for r in diagram.positive_roots())
    denominator = lcm(*filter(None, pairings))
    g = gcd(*hw)
    start = ((tuple([x // g for x in hw]), g * denominator),) if g else ()
    order, weights, f_maps = _close(diagram, hw, start, denominator)
    payloads = partial(zip, repeat("path"), repeat(denominator), order)
    return _graph(diagram, weights, f_maps, payloads)
