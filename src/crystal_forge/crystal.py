"""Finite normal crystals as colored graphs.

A crystal is stored as a vertex list with integer weights plus, for every
color i, the partial lowering map f_i as a dict; the raising map e_i is
always the inverse dict, built on first use.  String lengths eps/phi are
never stored: they are recomputed from the maps, which is what normality
means.

The tensor product follows Kashiwara's signature rule: operators act on
the left factor when phi(left) beats eps(right), otherwise on the right,
with strict/non-strict comparison split between f and e exactly as in the
standard convention.
"""

from __future__ import annotations

from collections import Counter
from math import gcd
from operator import add

from .dynkin import DynkinDiagram, Weight, vsub

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
        self.payloads = tuple(payloads) if payloads is not None else None
        # set with the others, not added on first use: an attribute added
        # later gives the instance a slower attribute layout (CPython 3.11)
        self._e_maps: tuple[dict[int, int], ...] | None = None
        self._eps: list[list[int]] | None = None
        self._phi: list[list[int]] | None = None

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
            n = len(self.weights)
            eps = [[0] * n for _ in range(self.diagram.rank)]
            phi = [[0] * n for _ in range(self.diagram.rank)]
            for i in range(self.diagram.rank):
                fm, em = self.f_maps[i], self.e_maps[i]
                for v in range(n):
                    if v in em:
                        continue  # not a chain start
                    chain = [v]
                    while chain[-1] in fm:
                        if len(chain) == n:  # a repeat: f_i is not injective
                            raise ValueError(f"color {i}: the f string from {v} runs into a cycle")
                        chain.append(fm[chain[-1]])
                    top = len(chain) - 1
                    for k, w in enumerate(chain):
                        eps[i][w] = k
                        phi[i][w] = top - k
            self._eps, self._phi = eps, phi
        return self._eps, self._phi

    def epsilon(self, v: int, i: int) -> int:
        """Number of times e_i applies to v."""
        return self._string_data()[0][i][v]

    def phi(self, v: int, i: int) -> int:
        """Number of times f_i applies to v."""
        return self._string_data()[1][i][v]

    # -- export -------------------------------------------------------------

    def to_json_dict(self) -> dict:
        vertices = []
        for v, w in enumerate(self.weights):
            entry: dict = {"id": v, "wt": list(w)}
            payload = self.payloads[v] if self.payloads is not None else None
            if payload is not None:
                entry["payload"] = _payload_json(payload)
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


def _payload_json(payload):
    """The export of a payload; any payload of no known shape is a repr label."""
    kind = payload[0] if isinstance(payload, tuple) and payload else None
    if kind == "path" and len(payload) == 3:  # ("path", D, p): segment (d, n) is d * n / D
        _, den, path = payload
        return {"path": [[_ratio(x * n, den) for x in d] for d, n in path]}
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

    Vertex (a, b) gets the dense id a*|right| + b; the payload records the
    factor pair.
    """
    if left.diagram != right.diagram:
        raise ValueError("tensor product of crystals over different diagrams")
    diagram = left.diagram
    nr = len(right)
    weights = [tuple(map(add, wa, wb)) for wa in left.weights for wb in right.weights]
    f_maps: list[dict[int, int]] = [{} for _ in range(diagram.rank)]
    phi_left = left._string_data()[1]
    eps_right = right._string_data()[0]
    for i in range(diagram.rank):
        fm = f_maps[i]
        f_left = left.f_maps[i]
        f_right = [right.f_maps[i].get(b) for b in range(nr)]
        eps_i = eps_right[i]
        for a, phi_a in enumerate(phi_left[i]):
            base = a * nr
            # phi_a > eps >= 0 means f_i is defined on a
            fa_base = f_left[a] * nr if phi_a else 0
            for b, eps_b in enumerate(eps_i):
                if phi_a > eps_b:
                    fm[base + b] = fa_base + b
                else:
                    fb = f_right[b]
                    if fb is not None:
                        fm[base + b] = base + fb
    payloads = [("pair", a, b) for a in range(len(left)) for b in range(nr)]
    return _graph(diagram, weights, f_maps, payloads)


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
    graph is a normal crystal.
    """
    diagram = crystal.diagram
    n = len(crystal)
    violations: list[str] = []
    for i in range(diagram.rank):
        fm = crystal.f_maps[i]
        targets = Counter(fm.values())
        for tgt, cnt in targets.items():
            if cnt > 1:
                violations.append(f"color {i}: f is not injective at target vertex {tgt}")
        alpha = diagram.simple_root(i)
        for a, b in fm.items():
            if vsub(crystal.weights[a], crystal.weights[b]) != alpha:
                violations.append(
                    f"vertex {a}, color {i}: wt(f a) != wt(a) - simple_root({i})"
                )
        # finite chains: walking f from any vertex must terminate.  Each
        # vertex is walked once; cyclic[v] is None while v is on the walk,
        # so a walk that ends on None has come back to itself and closed
        # a cycle, whose vertices go into on_cycle
        cyclic: dict[int, bool | None] = {}
        on_cycle: set[int] = set()
        for a in fm:
            walk = []
            cur = a
            while cur in fm and cur not in cyclic:
                cyclic[cur] = None
                walk.append(cur)
                cur = fm[cur]
            end = cyclic.get(cur, False)
            if end is None:
                on_cycle.update(walk[walk.index(cur):])
            for v in walk:
                cyclic[v] = end is not False
            if a in on_cycle:
                violations.append(f"color {i}: f-cycle through vertex {a}")
            elif cyclic[a]:
                violations.append(f"color {i}: the f string from {a} runs into a cycle")
    if violations:
        return violations

    for v in range(n):
        for i in range(diagram.rank):
            if crystal.weights[v][i] != crystal.phi(v, i) - crystal.epsilon(v, i):
                violations.append(
                    f"vertex {v}, color {i}: wt_i != phi - epsilon (normality)"
                )
    return violations
