"""Finite normal crystals as colored graphs.

A crystal is stored as a vertex list with integer weights plus, for every
color i, the partial lowering map f_i as a dict.  String lengths eps/phi
are not given: they are read off the f maps alone, by walking each f_i
string from its start (a vertex that no f_i edge reaches), which is what
normality means.  An f_i that is not injective is refused, and so is one
with a cycle, whose vertices lie on no such string.  The raising map e_i is the inverse dict, built on first
use and only for `e` and `is_source`.

The tensor product follows Kashiwara's signature rule: operators act on
the left factor when phi(left) beats eps(right), otherwise on the right,
with strict/non-strict comparison split between f and e exactly as in the
standard convention.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import product
from math import gcd
from operator import itemgetter, sub

from .dynkin import DynkinDiagram, Weight

SCHEMA = "crystal-forge/1"


# DOT edge palette, indexed by color (vertex index) modulo the list length.
DOT_COLORS = (
    "red",
    "blue",
    "forestgreen",
    "orange",
    "purple",
    "brown",
    "cyan4",
    "magenta3",
)


class CrystalGraph:
    """Immutable colored graph with weights and mutually inverse f_i / e_i.

    The constructor copies and checks its input, raising ValueError unless
    every weight passes `diagram.check_weight`, there is one f map per
    color, every f key and value is an int in range(len(weights)), and
    payloads, if given, number one per vertex.  The graphs the package
    builds (`build_crystal`, `tensor`, `direct_sum`, `trivial_crystal`,
    `sl2_crystal`, `decompose`'s references, `branch`) come from `_graph`.

    `payloads` is a tuple or None.  A crystal from `build_crystal` or
    `tensor` stores a recipe for its path or pair payloads instead, which
    runs once, on the first read.
    """

    def __init__(self, diagram: DynkinDiagram, weights, f_maps, payloads=None):
        weights = tuple(map(diagram.check_weight, weights))
        f_maps = [dict(m) for m in f_maps]
        if len(f_maps) != diagram.rank:
            raise ValueError(f"expected {diagram.rank} colored maps, got {len(f_maps)}")
        n = len(weights)
        for i, fm in enumerate(f_maps):
            for a, b in fm.items():  # a bool or a float equal to an id is no id
                if type(a) is not int or not 0 <= a < n:
                    raise ValueError(f"color {i}: f is defined on {a!r}, which is not a vertex")
                if type(b) is not int or not 0 <= b < n:
                    raise ValueError(f"color {i}: f({a!r}) = {b!r} is not a vertex")
        if payloads is not None:
            payloads = tuple(payloads)
            if len(payloads) != n:
                raise ValueError(f"{len(payloads)} payloads for {n} vertices")
        self._fill(diagram, weights, f_maps, payloads)

    def _fill(self, diagram: DynkinDiagram, weights, f_maps, payloads) -> None:
        self.diagram = diagram
        self.weights: tuple[Weight, ...] = tuple(weights)
        self.f_maps: tuple[dict[int, int], ...] = tuple(f_maps)
        self._payloads = payloads if payloads is None or callable(payloads) else tuple(payloads)
        # set with the others, not added on first use: an attribute added
        # later gives the instance a slower attribute layout (CPython 3.11)
        self._e_maps: tuple[dict[int, int], ...] | None = None
        self._eps: list[list[int]] | None = None
        self._phi: list[list[int]] | None = None

    @property
    def payloads(self) -> tuple | None:
        """One payload per vertex, or None; a recipe is run on the first read."""
        if callable(self._payloads):
            self._payloads = tuple(self._payloads())
        return self._payloads

    @property
    def e_maps(self) -> tuple[dict[int, int], ...]:
        """The raising maps, inverted from the f maps on first use."""
        if self._e_maps is None:
            self._e_maps = tuple({b: a for a, b in m.items()} for m in self.f_maps)
        return self._e_maps

    # -- basics -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.weights)

    def f(self, i: int, v: int) -> int | None:
        return self.f_maps[i].get(v)

    def e(self, i: int, v: int) -> int | None:
        return self.e_maps[i].get(v)

    def character(self) -> Counter:
        """Multiset of vertex weights."""
        return Counter(self.weights)

    def is_source(self, v: int) -> bool:
        """True when every raising operator is undefined on v."""
        return all(v not in em for em in self.e_maps)

    # -- string lengths -----------------------------------------------------

    def _string_data(self) -> tuple[list[list[int]], list[list[int]]]:
        if self._eps is None:
            walked = []  # (eps row, phi row) per color
            for i, fm in enumerate(self.f_maps):
                rows = _strings(fm, len(self.weights))
                if rows is None:
                    raise ValueError(_merges(i, fm)[0])
                if -1 in rows[0]:  # no string starts below a pure f_i cycle
                    raise ValueError(f"color {i}: f-cycle through vertex {rows[0].index(-1)}")
                walked.append(rows)
            self._eps, self._phi = [r[0] for r in walked], [r[1] for r in walked]
        return self._eps, self._phi

    def epsilon(self, v: int, i: int) -> int:
        """Number of times e_i applies to v."""
        return self._string_data()[0][i][v]

    def phi(self, v: int, i: int) -> int:
        """Number of times f_i applies to v."""
        return self._string_data()[1][i][v]

    # -- export -------------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The JSON export; vertices whose paths share a segment share its list."""
        segments: dict = {}  # (D, direction, length) -> the segment's export
        vertices = []
        payloads = self.payloads
        for v, w in enumerate(self.weights):
            entry: dict = {"id": v, "wt": list(w)}
            payload = payloads[v] if payloads is not None else None
            if payload is not None:
                entry["payload"] = _payload_json(payload, segments)
            vertices.append(entry)
        edges = [
            {"color": i, "from": a, "to": b}
            for i in range(self.diagram.rank)
            for a, b in sorted(self.f_maps[i].items())
        ]
        return {
            "schema": SCHEMA,
            "diagram": self.diagram.label,
            "vertices": vertices,
            "edges": edges,
        }

    def to_dot(self) -> str:
        lines = ["digraph crystal {", "  rankdir=TB;"]
        for v, w in enumerate(self.weights):
            label = ",".join(str(c) for c in w)
            lines.append(f'  "{v}" [label="({label})"];')
        for i in range(self.diagram.rank):
            color = DOT_COLORS[i % len(DOT_COLORS)]
            for a, b in sorted(self.f_maps[i].items()):
                lines.append(f'  "{a}" -> "{b}" [color={color}, label="{i}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _graph(diagram: DynkinDiagram, weights, f_maps, payloads=None) -> CrystalGraph:
    """A CrystalGraph whose weights, vertex ids and payloads this package
    guarantees, built without checks or copies."""
    graph = object.__new__(CrystalGraph)
    graph._fill(diagram, weights, f_maps, payloads)
    return graph


def _strings(fm: dict[int, int], n: int) -> tuple[list[int], list[int]] | None:
    """The eps and phi rows of an f map on n vertices, each string walked
    from its start (a vertex no edge reaches), or None when fm is not
    injective.  An injective map has no tail into a cycle, so every walk
    ends, and eps = -1 is left exactly on the vertices of its cycles."""
    targets = set(fm.values())
    if len(targets) < len(fm):
        return None
    eps, phi = [-1] * n, [0] * n
    for v in range(n):
        if v in targets:
            continue  # not a string start
        chain = [v]
        while chain[-1] in fm:
            chain.append(fm[chain[-1]])
        top = len(chain) - 1
        for k, w in enumerate(chain):
            eps[w] = k
            phi[w] = top - k
    return eps, phi


def _merges(i: int, fm: dict[int, int]) -> list[str]:
    """One line per vertex that two edges of fm reach, in first-reach order."""
    merged = [t for t, k in Counter(fm.values()).items() if k > 1]
    return [f"color {i}: f is not injective at target vertex {t}" for t in merged]


def _payload_json(payload, segments: dict):
    """The export of a payload; any payload of no known shape is a repr label.

    `segments` caches the export of each path segment by its value.
    """
    kind = payload[0] if isinstance(payload, tuple) and payload else None
    if kind == "path" and len(payload) == 3:  # ("path", D, p): segment (d, n) is d * n / D
        _, den, path = payload
        out = []
        for d, n in path:
            key = (den, tuple(d), n)
            seg = segments.get(key)
            if seg is None:
                seg = segments[key] = [_ratio(x * n, den) for x in d]
            out.append(seg)
        return {"path": out}
    if kind == "pair" and len(payload) == 3:
        return {"pair": [payload[1], payload[2]]}
    if kind == "sl2":
        return {"sl2": list(payload[1:])}
    return {"label": repr(payload)}


def _ratio(num: int, den: int) -> list[int]:
    g = gcd(num, den)
    return [num // g, den // g]


def trivial_crystal(diagram: DynkinDiagram, n: int) -> CrystalGraph:
    """n isolated vertices of weight zero with all operators undefined."""
    zero = (0,) * diagram.rank
    return _graph(diagram, [zero] * n, [{} for _ in range(diagram.rank)])


def direct_sum(crystals, diagram: DynkinDiagram | None = None) -> CrystalGraph:
    """Disjoint union; the empty sum needs an explicit diagram."""
    crystals = list(crystals)
    if not crystals:
        if diagram is None:
            raise ValueError("empty direct sum needs an explicit diagram")
        return _graph(diagram, [], [{} for _ in range(diagram.rank)])
    diagram = crystals[0].diagram
    for c in crystals[1:]:
        if c.diagram != diagram:
            raise ValueError("direct sum of crystals over different diagrams")
    weights: list[Weight] = []
    f_maps: list[dict[int, int]] = [{} for _ in range(diagram.rank)]
    payloads: list = []
    have_payloads = all(c.payloads is not None for c in crystals)
    offset = 0
    for c in crystals:
        weights.extend(c.weights)
        for i in range(diagram.rank):
            for a, b in c.f_maps[i].items():
                f_maps[i][a + offset] = b + offset
        if have_payloads:
            payloads.extend(c.payloads)
        offset += len(c)
    return _graph(diagram, weights, f_maps, payloads if have_payloads else None)


def tensor(left: CrystalGraph, right: CrystalGraph) -> CrystalGraph:
    """Tensor product on the product vertex set, signature rule per color.

    Vertex (a, b) gets the dense id a*|right| + b; its payload ("pair", a, b)
    is made only when `payloads` is first read.  The product is built row by
    row, a row being the |right| vertices (a, b) of one left vertex a.  A row
    of weights is zipped from the right factor's weight columns, each shifted
    by one entry of a's weight, and rows of equal left weight share one
    list.  Each f map lists its edges by increasing source id.
    """
    if left.diagram != right.diagram:
        raise ValueError("tensor product of crystals over different diagrams")
    diagram = left.diagram
    nl, nr = len(left), len(right)
    columns = list(zip(*right.weights))
    weights: list[Weight] = []
    rows: dict[Weight, list[Weight]] = {}  # left weight -> its row of weights
    for wa in left.weights:
        row = rows.get(wa)
        if row is None:
            shifted = [map(c.__add__, col) for c, col in zip(wa, columns)]
            row = rows[wa] = list(zip(*shifted)) if diagram.rank else [()] * nr
        weights.extend(row)
    f_maps: list[dict[int, int]] = [{} for _ in range(diagram.rank)]
    phi_left = left._string_data()[1]
    eps_right = right._string_data()[0]
    for i in range(diagram.rank):
        fm = f_maps[i]
        f_left = left.f_maps[i]
        # (b, eps_i(b), f_i(b)) for every right vertex b
        column = list(zip(range(nr), eps_right[i], map(right.f_maps[i].get, range(nr))))
        for a, phi_a in enumerate(phi_left[i]):
            base = a * nr
            fa_base = f_left[a] * nr if phi_a else 0  # f_i(a) exists iff phi_i(a) > 0
            for b, eps_b, fb in column:
                if phi_a > eps_b:
                    fm[base + b] = fa_base + b
                elif fb is not None:
                    fm[base + b] = base + fb
    pairs = partial(product, ("pair",), range(nl), range(nr))
    return _graph(diagram, weights, f_maps, pairs)


def tensor_many(crystals) -> CrystalGraph:
    """Left-nested tensor product of one or more crystals."""
    crystals = list(crystals)
    if not crystals:
        raise ValueError("tensor product of an empty list")
    out = crystals[0]
    for c in crystals[1:]:
        out = tensor(out, c)
    return out


def verify_axioms(crystal: CrystalGraph) -> list[str]:
    """Check every crystal axiom on every vertex and color.

    Returns a list of human-readable violations; an empty list means the
    graph is a normal crystal.  A color lists its merges (f not injective),
    its weight drops, and, when injective, its cycles; normality is checked
    only when nothing else is wrong.
    """
    diagram = crystal.diagram
    columns = [list(map(itemgetter(i), crystal.weights)) for i in range(diagram.rank)]
    violations: list[str] = []
    walked = []  # (eps row, phi row) of each injective color
    for i, fm in enumerate(crystal.f_maps):
        rows = _strings(fm, len(crystal))
        if rows is None:  # its merges name the color's fault: no cycle lines
            violations += _merges(i, fm)
        alpha = diagram.simple_root(i)
        # wt(a) - wt(f a) for every edge, one column at a time
        drops = zip(*(map(sub, map(col.__getitem__, fm), map(col.__getitem__, fm.values()))
                      for col in columns))
        for a, drop in zip(fm, drops):
            if drop != alpha:
                violations.append(
                    f"vertex {a}, color {i}: wt(f a) != wt(a) - simple_root({i})"
                )
        if rows is not None:
            violations += [f"color {i}: f-cycle through vertex {a}" for a in fm if rows[0][a] < 0]
            walked.append(rows)
    if violations or all(col == list(map(sub, p, e)) for col, (e, p) in zip(columns, walked)):
        return violations
    for v in range(len(crystal)):
        for i, (eps, phi) in enumerate(walked):
            if columns[i][v] != phi[v] - eps[v]:
                violations.append(
                    f"vertex {v}, color {i}: wt_i != phi - epsilon (normality)"
                )
    return violations
