"""ADE Dynkin diagrams and elementary weight arithmetic.

Weights are plain integer tuples in fundamental-weight coordinates; root
coordinates are always derived through the Cartan matrix (or its inverse)
on demand.  `DynkinDiagram.check_weight` checks a weight's length and
entries; `DynkinDiagram.check_dominant` also checks its sign, and is the
one place a weight is refused as not dominant.  The vertex numbering is
fixed so weight vectors are reproducible:

* ``A_n`` is the path ``0 - 1 - ... - (n-1)``.
* ``D_n`` is the path ``0 - 1 - ... - (n-3)`` with the two fork vertices
  ``n-2`` and ``n-1`` attached to vertex ``n-3``.
* ``E_n`` is the chain ``0 - 1 - ... - (n-2)`` with the branch vertex
  ``n-1`` attached to chain vertex ``2``.

Oriented edges are ``(src, dst)`` pairs; every unordered edge occurs in
both orientations.  The orientation sign is ``+1`` on edges pointing from
the lower to the higher vertex index and ``-1`` on the reverse, so the
sign of an edge and of its reversal always cancel.
"""

from __future__ import annotations

import re
from math import log10, prod
from operator import add, index, mul, sub

from .linalg import Mat, hstack, identity, int_mat, mat, rref

Weight = tuple[int, ...]

_DIAGRAM_RE = re.compile(r"^([ADE])(\d+)$")

_INT = {int}  # the one entry type `check_weight` passes through as it is

# Diagrams carry rank x rank tables, so the rank is bounded before any is built.
MAX_RANK = 100


def as_text(x) -> str:
    """An int or a weight as `str` writes it, except that an int with more
    digits than the interpreter writes as text (4,300 by default) reads
    "a k-digit number" or "a negative k-digit number"; refusals write
    every weight and cap through this, so no refusal fails on its text."""
    try:
        return f"{x}"
    except ValueError:
        pass
    if isinstance(x, tuple):
        entries = [as_text(c) if isinstance(c, int) else repr(c) for c in x]
        return f"({', '.join(entries)}{',' if len(entries) == 1 else ''})"
    n = abs(x)
    k = int(log10(n))  # floor(log10 n) up to rounding, which the powers correct
    k += (10 ** (k + 1) <= n) - (10**k > n)
    return f"a {'negative ' if x < 0 else ''}{k + 1}-digit number"


def vadd(u: Weight, w: Weight) -> Weight:
    if len(u) != len(w):
        raise ValueError(f"sum of vectors of lengths {len(u)} and {len(w)}")
    return tuple(map(add, u, w))


def vsub(u: Weight, w: Weight) -> Weight:
    if len(u) != len(w):
        raise ValueError(f"difference of vectors of lengths {len(u)} and {len(w)}")
    return tuple(map(sub, u, w))


def pairing(v, u) -> int:
    """Coordinatewise pairing sum(v_i * u_i) of two weight vectors."""
    if len(v) != len(u):
        raise ValueError(f"pairing of vectors of lengths {len(v)} and {len(u)}")
    return sum(map(mul, v, u))


def _family_edges(family: str, rank: int) -> tuple[tuple[int, int], ...]:
    if family == "A":
        if rank < 1:
            raise ValueError(f"A{rank} is not a valid diagram (need rank >= 1)")
        return tuple((k, k + 1) for k in range(rank - 1))
    if family == "D":
        if rank < 4:
            raise ValueError(f"D{rank} is not a valid diagram (need rank >= 4)")
        chain = tuple((k, k + 1) for k in range(rank - 3))
        return chain + ((rank - 3, rank - 2), (rank - 3, rank - 1))
    if family == "E":
        if rank not in (6, 7, 8):
            raise ValueError(f"E{rank} is not a valid diagram (rank must be 6, 7 or 8)")
        chain = tuple((k, k + 1) for k in range(rank - 2))
        return chain + ((2, rank - 1),)
    raise ValueError(f"unknown diagram family {family!r} (expected A, D or E)")


def _classify_component(neighbors: tuple[tuple[int, ...], ...], comp: list[int]) -> str:
    """Classify a connected simply-laced diagram as A_n, D_n or E_n."""
    n = len(comp)
    degree = [len(neighbors[v]) for v in comp]
    if sum(degree) != 2 * (n - 1):
        raise ValueError("diagram component is not a tree")
    if max(degree) > 3:
        raise ValueError("diagram has a vertex of degree > 3")
    branch = [v for v, dg in zip(comp, degree) if dg == 3]
    if not branch:
        return f"A{n}"
    if len(branch) > 1:
        raise ValueError("diagram has more than one branch vertex")
    # leg lengths from the branch vertex; every other vertex has degree <= 2
    legs = []
    for start in neighbors[branch[0]]:
        length, prev, cur = 1, branch[0], start
        while len(neighbors[cur]) == 2:
            prev, cur = cur, sum(neighbors[cur]) - prev  # the neighbour that is not prev
            length += 1
        legs.append(length)
    legs.sort()
    if legs[0] == 1 and legs[1] == 1:
        return f"D{n}"
    if legs == [1, 2, 2]:
        return "E6"
    if legs == [1, 2, 3]:
        return "E7"
    if legs == [1, 2, 4]:
        return "E8"
    raise ValueError(f"diagram component with legs {legs} is not of finite ADE type")


def _classify(neighbors: tuple[tuple[int, ...], ...]) -> str:
    if not neighbors:
        return "0"
    seen: set[int] = set()
    labels = []
    for v in range(len(neighbors)):
        if v in seen:
            continue
        comp = [v]
        seen.add(v)
        for w in comp:  # grows while it is walked
            for nb in neighbors[w]:
                if nb not in seen:
                    seen.add(nb)
                    comp.append(nb)
        labels.append(_classify_component(neighbors, comp))
    return "+".join(labels)


class DynkinDiagram:
    """An ADE diagram (possibly a disjoint union of ADE components).

    Carries the Cartan matrix ``A``, the adjacency matrix ``X = 2*Id - A``
    and the doubled oriented edge set, and names itself (``A3``, ``D4+A1``)
    from its neighbour lists.  Instances are immutable and
    hashable; two diagrams compare equal iff they have the same vertex
    count and edge set.
    """

    def __init__(self, rank: int, edges: tuple[tuple[int, int], ...]):
        if not 0 <= rank <= MAX_RANK:
            raise ValueError(f"diagram rank {rank} is outside 0..{MAX_RANK}")
        edges = tuple(sorted(tuple(sorted(e)) for e in edges))
        for a, b in edges:
            if not (0 <= a < rank and 0 <= b < rank and a != b):
                raise ValueError(f"edge {(a, b)} out of range for rank {rank}")
        if len(set(edges)) != len(edges):
            raise ValueError("duplicate edges")
        self.rank = rank
        self.edges = edges
        adj = [[0] * rank for _ in range(rank)]
        for a, b in edges:
            adj[a][b] = adj[b][a] = 1
        self.cartan: tuple[Weight, ...] = tuple(
            tuple(2 if i == j else -adj[i][j] for j in range(rank)) for i in range(rank)
        )
        self.x_matrix: tuple[Weight, ...] = tuple(
            tuple(adj[i][j] for j in range(rank)) for i in range(rank)
        )
        self.oriented_edges: tuple[tuple[int, int], ...] = tuple(
            sorted([(a, b) for a, b in edges] + [(b, a) for a, b in edges])
        )
        self._neighbors: tuple[tuple[int, ...], ...] = tuple(
            tuple(j for j in range(rank) if adj[i][j]) for i in range(rank)
        )
        self.label = _classify(self._neighbors)
        self._inv_cartan: Mat | None = None
        self._positive_roots: tuple[Weight, ...] | None = None
        self._weyl_data: tuple[list[int], list[Weight], int] | None = None
        self._weyl_dims: dict[Weight, int] = {}  # per checked dominant weight asked for

    # -- identity ---------------------------------------------------------

    @property
    def key(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        return (self.rank, self.edges)

    def __eq__(self, other) -> bool:
        return isinstance(other, DynkinDiagram) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"DynkinDiagram({self.label})"

    # -- oriented edges ---------------------------------------------------

    @staticmethod
    def orientation_sign(h: tuple[int, int]) -> int:
        """+1 on the canonical (low -> high) orientation, -1 on the reverse."""
        return 1 if h[0] < h[1] else -1

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._neighbors[i]

    # -- weight arithmetic --------------------------------------------------

    def check_weight(self, w) -> Weight:
        # an exact tuple of exact ints of the right length is its own check
        if type(w) is tuple and len(w) == self.rank and _INT.issuperset(map(type, w)):
            return w
        w = tuple(w)
        try:
            w = tuple(map(index, w))
        except TypeError:
            raise ValueError(f"weight {as_text(w)} has a non-integer entry") from None
        if len(w) != self.rank:
            raise ValueError(f"weight {as_text(w)} has length {len(w)}, diagram rank is {self.rank}")
        return w

    def check_dominant(self, w, what: str = "weight") -> Weight:
        """`check_weight(w)`, refused as not dominant when an entry is negative;
        `what` names w in that refusal."""
        w = self.check_weight(w)
        if min(w, default=0) < 0:
            raise ValueError(f"{what} {as_text(w)} is not dominant")
        return w

    def _check_color(self, i: int) -> None:
        # a negative index would alias to color rank + i
        if i not in range(self.rank):
            raise ValueError(f"color {i} out of range for {self.label}")

    def simple_root(self, i: int) -> Weight:
        """Column i of the Cartan matrix, the simple root in weight coordinates;
        it is row i, as an ADE Cartan matrix is symmetric."""
        self._check_color(i)
        return self.cartan[i]

    def weyl_reflect(self, i: int, w) -> Weight:
        self._check_color(i)
        w = self.check_weight(w)
        c = w[i]
        return tuple(a - c * b for a, b in zip(w, self.cartan[i]))

    def is_dominant(self, w) -> bool:
        return all(c >= 0 for c in self.check_weight(w))

    def _apply(self, rows: tuple[Weight, ...], v) -> Weight:
        v = tuple(v)
        if len(v) != self.rank:
            raise ValueError(f"a rank-{self.rank} matrix applied to a vector of length {len(v)}")
        return tuple([sum(map(mul, row, v)) for row in rows])

    def apply_cartan(self, v) -> Weight:
        return self._apply(self.cartan, v)

    def apply_x(self, v) -> Weight:
        return self._apply(self.x_matrix, v)

    def inverse_cartan(self) -> Mat:
        """A^{-1} as integer rows `num` over one denominator `den`, which divides
        det A; read off the reduced rows of [A | I] once per diagram."""
        if self._inv_cartan is None:
            n = self.rank
            red, _ = rref(hstack(mat(self.cartan), identity(n)))
            self._inv_cartan = int_mat(n, n, [row[n:] for row in red.num], red.den)
        return self._inv_cartan

    # -- root system ---------------------------------------------------------

    def positive_roots(self) -> tuple[Weight, ...]:
        """All positive roots, in root coordinates (integer tuples), built by
        height: in a simply-laced system, for a positive root r, r + alpha_i is
        a root exactly when <r, alpha_i^v> = -1; `level` maps r to its pairings."""
        if self._positive_roots is None:
            n = self.rank
            alphas = [self.simple_root(i) for i in range(n)]
            level = {tuple(int(j == i) for j in range(n)): alphas[i] for i in range(n)}
            roots: list[Weight] = []
            while level:
                roots += level
                level = {
                    r[:i] + (r[i] + 1,) + r[i + 1 :]: vadd(fund, alphas[i])
                    for r, fund in level.items()
                    for i, c in enumerate(fund)
                    if c == -1
                }
            self._positive_roots = tuple(sorted(roots))
        return self._positive_roots

    def weyl_dimension(self, hw) -> int:
        """Dimension of the irreducible highest-weight module with highest weight hw."""
        return self._weyl_dimension(self.check_dominant(hw))

    def _weyl_dimension(self, hw: Weight) -> int:
        """Weyl's product over positive roots r of <hw + rho, r> / <rho, r> for
        a checked dominant hw.  <rho, r> is the height of r, and the
        numerators are the heights plus hw_j times column j of the roots'
        coordinates, summed over the nonzero hw_j.  Each dimension computed is
        kept on the diagram, so a weight asked for again costs one lookup."""
        q = self._weyl_dims.get(hw)
        if q is None:
            if self._weyl_data is None:
                roots = self.positive_roots()
                heights = list(map(sum, roots))
                self._weyl_data = (heights, list(zip(*roots)), prod(heights))
            nums, columns, den = self._weyl_data
            for c, column in zip(hw, columns):
                if c:
                    nums = list(map(add, nums, map(c.__mul__, column)))
            q, r = divmod(prod(nums), den)
            if r:
                raise AssertionError("Weyl dimension did not come out integral")
            self._weyl_dims[hw] = q
        return q


def dynkin(family: str, rank: int) -> DynkinDiagram:
    """Build the standard ADE diagram of the given family and rank."""
    family = family.upper()
    if rank > MAX_RANK:
        raise ValueError(f"{family}{rank} has rank {rank}, above the maximum rank {MAX_RANK}")
    return DynkinDiagram(rank, _family_edges(family, rank))


def parse_diagram(text: str) -> DynkinDiagram:
    """Parse a diagram name such as "A2", "D4" or "E6"."""
    m = _DIAGRAM_RE.match(text.strip().upper())
    if not m:
        raise ValueError(f"cannot parse diagram name {text!r} (expected e.g. A2, D4, E6)")
    return dynkin(m.group(1), int(m.group(2)))


def _vertex(v) -> int:
    try:
        return index(v)
    except TypeError:
        raise ValueError(f"vertex {v!r} is not an integer") from None


def induced_subdiagram(diagram: DynkinDiagram, keep) -> tuple[DynkinDiagram, tuple[int, ...]]:
    """Full subdiagram on the given vertices.

    Returns the subdiagram (vertices relabelled 0..k-1 in increasing order
    of the original indices) together with the tuple of original indices.
    """
    keep = tuple(sorted(set(map(_vertex, keep))))
    for v in keep:
        if not 0 <= v < diagram.rank:
            raise ValueError(f"vertex {v} out of range for {diagram.label}")
    pos = {v: k for k, v in enumerate(keep)}
    sub_edges = tuple(
        (pos[a], pos[b]) for a, b in diagram.edges if a in pos and b in pos
    )
    return DynkinDiagram(len(keep), sub_edges), keep
