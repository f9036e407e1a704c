"""Direct-sum decomposition, tensor multiplicities and Levi branching.

A normal crystal decomposes into connected components, each generated by
a unique source vertex; the component is then certified isomorphic to the
generic highest-weight crystal of the source weight.  Multiplicities of
highest weights in tensor products are read off as counts of source
vertices, which is the combinatorial shadow of the tensor-decomposition
bijection between irreducible components of quiver strata; `multiplicity`
counts them from the factors alone, through the signature rule.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import prod

from .crystal import (
    SCHEMA,
    CrystalGraph,
    DecompositionError,
    _pair_from_sources,
    _rooted_components,
)
from .dynkin import DynkinDiagram, Weight, induced_subdiagram, vadd
from .paths import DEFAULT_VERTEX_CAP, VertexCapError, build_crystal


_reference_cache: dict[tuple, CrystalGraph] = {}


def _check_product_size(diagram: DynkinDiagram, factors, max_vertices: int) -> None:
    """Raise VertexCapError when the product of the factors' crystals,
    prod |B(factor)|, is above max_vertices."""
    size = prod(diagram.weyl_dimension(f) for f in factors)
    if size > max_vertices:
        raise VertexCapError(f"tensor product of {size} vertices on {diagram.label}", max_vertices)


def _reference_crystal(diagram: DynkinDiagram, hw: Weight, max_vertices: int) -> CrystalGraph:
    key = (diagram.key, hw)
    ref = _reference_cache.get(key)
    if ref is None:
        ref = build_crystal(diagram, hw, max_vertices=max_vertices)
        _reference_cache[key] = ref
    return ref


@dataclass
class SummandInstance:
    """One connected summand: its highest weight, source vertex, and the
    vertex map onto the reference crystal of that weight."""

    hw: Weight
    source: int
    iso: dict[int, int]


@dataclass
class Decomposition:
    diagram: DynkinDiagram
    summands: Counter = field(default_factory=Counter)
    instances: list[SummandInstance] = field(default_factory=list)
    assignment: dict[int, int] = field(default_factory=dict)

    def multiplicity_of(self, hw) -> int:
        return self.summands.get(tuple(hw), 0)

    def total_cardinality(self) -> int:
        return len(self.assignment)

    def to_json_dict(self) -> dict:
        summands = [
            {"weight": list(w), "mult": m}
            for w, m in sorted(self.summands.items(), reverse=True)
        ]
        return {
            "schema": SCHEMA,
            "diagram": self.diagram.label,
            "summands": summands,
            "assignment": {str(v): k for v, k in sorted(self.assignment.items())},
        }


def highest_vertices(crystal: CrystalGraph) -> list[int]:
    """Vertices on which every raising operator is undefined."""
    return [v for v in range(len(crystal)) if crystal.is_source(v)]


def decompose(crystal: CrystalGraph, max_vertices: int = DEFAULT_VERTEX_CAP) -> Decomposition:
    """Split a normal crystal into highest-weight summands.

    Components are rooted at their unique source; each is matched against
    the reference crystal of the source weight.  Instance ids follow the
    order in which components are discovered when scanning vertices
    upward from id 0.
    """
    diagram = crystal.diagram
    result = Decomposition(diagram)
    for comp, src in _rooted_components(crystal):
        hw = crystal.weights[src]
        if not diagram.is_dominant(hw):
            raise DecompositionError(
                f"component source {src} has non-dominant weight {hw}"
            )
        ref = _reference_crystal(diagram, hw, max_vertices)
        # vertex 0 of a built crystal is its highest path, the unique source
        iso = _pair_from_sources(crystal, ref, src, 0) if len(ref) == len(comp) else None
        if iso is None or len(iso) != len(comp):
            raise DecompositionError(
                f"component containing vertex {comp[0]} is not isomorphic to the "
                f"highest-weight crystal of {hw}"
            )
        inst_id = len(result.instances)
        result.instances.append(SummandInstance(hw, src, iso))
        result.summands[hw] += 1
        for v in comp:
            result.assignment[v] = inst_id
    total = sum(
        m * len(_reference_crystal(diagram, w, max_vertices))
        for w, m in result.summands.items()
    )
    if total != len(crystal):
        raise DecompositionError(
            f"summand cardinalities sum to {total}, crystal has {len(crystal)} vertices"
        )
    return result


def multiplicity(
    diagram: DynkinDiagram,
    target,
    factors,
    max_vertices: int = DEFAULT_VERTEX_CAP,
) -> int:
    """Multiplicity of the highest weight `target` in a tensor product.

    Counts source vertices of that weight in the left-nested tensor
    product of the highest-weight crystals of `factors` without building
    the product.  Under the signature rule a vertex of B(lam) x B(mu) is a
    source iff it is u_lam x b with eps_i(b) <= lam_i for every color i,
    so the highest weights of the partial products are carried as a
    multiset and each later factor is read once.  Raises VertexCapError
    when the product would have more than max_vertices vertices.
    """
    target = diagram.check_weight(target)
    if not diagram.is_dominant(target):
        raise ValueError(f"target weight {target} is not dominant")
    factors = [diagram.check_weight(f) for f in factors]
    if not factors:
        raise ValueError("multiplicity needs at least one tensor factor")
    for f in factors:
        if not diagram.is_dominant(f):
            raise ValueError(f"factor weight {f} is not dominant")
    _check_product_size(diagram, factors, max_vertices)
    tops = Counter({factors[0]: 1})
    for mu in factors[1:]:
        ref = _reference_crystal(diagram, mu, max_vertices)
        # (eps(b), wt(b)) with multiplicity: vertices sharing both add alike
        vertices = Counter(zip(zip(*ref._string_data()[0]), ref.weights))
        nxt: Counter = Counter()
        for lam, m in tops.items():
            for (eps, wt), k in vertices.items():
                if all(e <= c for e, c in zip(eps, lam)):
                    nxt[vadd(lam, wt)] += m * k
        tops = nxt
    return tops[target]


def levi_maps(diagram: DynkinDiagram, d, v, keep) -> tuple[Weight, Weight]:
    """Dimension dictionaries for restriction to a subdiagram.

    Returns (framing, restriction) over the subdiagram: the restriction
    just keeps the coordinates in `keep`, while the framing of a kept
    vertex grows by the v-dimensions of its dropped neighbors.
    """
    d = diagram.check_weight(d)
    v = diagram.check_weight(v)
    _, kept = induced_subdiagram(diagram, keep)
    kept_set = set(kept)
    framing = tuple(
        d[i] + sum(v[j] for j in diagram.neighbors(i) if j not in kept_set)
        for i in kept
    )
    restriction = tuple(v[i] for i in kept)
    return framing, restriction


def branch(
    crystal: CrystalGraph, keep, max_vertices: int = DEFAULT_VERTEX_CAP
) -> tuple[Decomposition, DynkinDiagram]:
    """Restrict a crystal to a subdiagram and decompose it there.

    Edges with colors outside `keep` are forgotten and weights are read
    through coordinate restriction.
    """
    sub, kept = induced_subdiagram(crystal.diagram, keep)
    weights = [tuple(w[j] for j in kept) for w in crystal.weights]
    f_maps = [crystal.f_maps[j] for j in kept]
    restricted = CrystalGraph(sub, weights, f_maps, crystal.payloads)
    return decompose(restricted, max_vertices=max_vertices), sub
