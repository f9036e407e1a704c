"""Direct-sum decomposition, tensor multiplicities and Levi branching.

A normal crystal is the direct sum of the f-closures of its source
vertices; each closure is certified isomorphic to the generic
highest-weight crystal of its source weight by its canonical BFS order.
Multiplicities of highest weights in tensor products are read off as
counts of source vertices, which is the combinatorial shadow of the
tensor-decomposition bijection between irreducible components of quiver
strata; `multiplicity` counts them from the factors alone, through the
signature rule.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import prod
from operator import itemgetter

from .crystal import (
    SCHEMA,
    CrystalGraph,
    DecompositionError,
    _closure_iso,
    _rooted_components,
    highest_vertices,  # re-exported
)
from .dynkin import DynkinDiagram, Weight, induced_subdiagram, vadd
from .paths import DEFAULT_VERTEX_CAP, VertexCapError, build_crystal, check_vertex_cap


_reference_cache: dict[tuple, CrystalGraph] = {}
# per reference key: the (eps, wt) pairs of B(hw) with their multiplicities
_signature_cache: dict[tuple, Counter] = {}


def _check_product_size(diagram: DynkinDiagram, factors, max_vertices: int) -> None:
    """Raise ValueError for a cap below 1 and VertexCapError when the
    product of the factors' crystals, prod |B(factor)|, is above it."""
    check_vertex_cap(max_vertices)
    size = prod(diagram.weyl_dimension(f) for f in factors)
    if size > max_vertices:
        raise VertexCapError(f"tensor product of {size} vertices on {diagram.label}", max_vertices)


def _reference_crystal(diagram: DynkinDiagram, hw: Weight) -> CrystalGraph:
    """B(hw), built once per process; its Weyl dimension is its exact size."""
    key = (diagram.key, hw)
    ref = _reference_cache.get(key)
    if ref is None:
        ref = build_crystal(diagram, hw, max_vertices=diagram.weyl_dimension(hw))
        _reference_cache[key] = ref
    return ref


def _signature_counts(diagram: DynkinDiagram, hw: Weight) -> Counter:
    """(eps(b), wt(b)) over b in B(hw) with multiplicity, counted once per process."""
    key = (diagram.key, hw)
    counts = _signature_cache.get(key)
    if counts is None:
        ref = _reference_crystal(diagram, hw)
        # vertices sharing both eps and weight add alike in `multiplicity`
        counts = _signature_cache[key] = Counter(zip(zip(*ref._string_data()[0]), ref.weights))
    return counts


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


def decompose(crystal: CrystalGraph) -> Decomposition:
    """Split a normal crystal into highest-weight summands.

    Each summand is the f-closure of a source vertex, listed by
    `_rooted_components` in canonical BFS order.  A closure whose size is
    not the Weyl dimension of its source weight is refused before
    anything is built.  Otherwise it is certified against the reference
    crystal B(hw): `build_crystal` numbers B(hw) in that same BFS order,
    so the k-th vertex of the closure can only map to reference vertex k,
    and `_closure_iso` checks that this map keeps weights and every f_i.
    Instance ids follow increasing source id; f raises vertex ids in every
    crystal the library builds, so this is also the order of the
    summands' smallest vertices.
    """
    diagram = crystal.diagram
    result = Decomposition(diagram)
    dims: dict[Weight, int] = {}  # Weyl dimension per dominant source weight seen
    for src, comp in _rooted_components(crystal):
        hw = crystal.weights[src]
        dim = dims.get(hw)
        if dim is None:
            if not diagram.is_dominant(hw):
                raise DecompositionError(
                    f"component source {src} has non-dominant weight {hw}"
                )
            dim = dims[hw] = diagram.weyl_dimension(hw)
        iso = None
        if len(comp) == dim:
            ref = _reference_crystal(diagram, hw)
            iso = _closure_iso(crystal, comp, ref, range(len(ref)))
        if iso is None:
            raise DecompositionError(
                f"component containing vertex {min(comp)} is not isomorphic to the "
                f"highest-weight crystal of {hw}"
            )
        inst_id = len(result.instances)
        result.instances.append(SummandInstance(hw, src, iso))
        result.summands[hw] += 1
        result.assignment.update(dict.fromkeys(comp, inst_id))
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
    multiset and each later factor is read once.  Raises ValueError for a
    cap below 1 and VertexCapError when the product would have more than
    max_vertices vertices.
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
        vertices = _signature_counts(diagram, mu)
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


def branch(crystal: CrystalGraph, keep) -> tuple[Decomposition, DynkinDiagram]:
    """Restrict a crystal to a subdiagram and decompose it there.

    Edges with colors outside `keep` are forgotten and weights are read
    through coordinate restriction.
    """
    sub, kept = induced_subdiagram(crystal.diagram, keep)
    if len(kept) > 1:  # itemgetter of two or more indices returns a tuple
        weights = list(map(itemgetter(*kept), crystal.weights))
    else:  # the one kept coordinate, or none, as a slice
        cut = slice(kept[0], kept[0] + 1) if kept else slice(0)
        weights = [w[cut] for w in crystal.weights]
    f_maps = [crystal.f_maps[j] for j in kept]
    restricted = CrystalGraph(sub, weights, f_maps, crystal.payloads)
    return decompose(restricted), sub
