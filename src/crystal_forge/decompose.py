"""Direct-sum decomposition, tensor multiplicities, Levi branching and
crystal isomorphism.

A normal crystal is the direct sum of the f-closures of its source
vertices; each closure is certified isomorphic to the generic
highest-weight crystal of its source weight in one walk along a spanning
tree of that reference crystal, cached with it.  `paths.build_crystal`
numbers B(lam) in canonical BFS order: the source first, then the
f_i-children of each listed vertex for i = 0, 1, ... as they are first
reached.  An isomorphism of closures fixes the source and commutes with
every f_i, so it maps BFS order to BFS order: the k-th vertex of a
closure can only go to vertex k of its reference.  The walk lists the
closure in that order, and the certificate only checks that this one
candidate map keeps every weight and every f_i edge.  Two direct sums of
highest-weight crystals are isomorphic exactly when their summands have
the same highest weights, so `is_isomorphic` decomposes both and pairs
summands of equal weight.
Multiplicities of highest weights in tensor products are read off as
counts of source vertices, which is the combinatorial shadow of the
tensor-decomposition bijection between irreducible components of quiver
strata; `multiplicity` counts them from the factors alone, through the
signature rule.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, repeat
from math import prod
from operator import add, itemgetter
from typing import NamedTuple, NoReturn

from .crystal import SCHEMA, CrystalGraph, _graph
from .dynkin import DynkinDiagram, Weight, induced_subdiagram, vadd
from .linalg import _Record
from .paths import DEFAULT_VERTEX_CAP, VertexCapError, build_crystal, check_vertex_cap


class DecompositionError(ValueError):
    """The input graph is not a direct sum of highest-weight crystals."""


class _Reference(NamedTuple):
    """B(hw) with the certificate `decompose` checks a closure against.

    The tree steps are, for vertex k = 1, 2, ..., its in-edge of lowest
    color: f_i(p) = k for p = `parents[k - 1]` and i = `colors[k - 1]`.
    f raises vertex ids in `build_crystal`'s BFS numbering, so p < k and
    the steps can be walked in order.  `edges` holds, per color with f_i
    edges that are no tree step, getters of their sources and of their
    targets; each repeats its first item at the end, so that it returns a
    tuple for a lone edge too.  `counts` is the number of f_i edges per
    color.  The crystal keeps no payloads: no caller reads them.
    """

    crystal: CrystalGraph
    parents: list[int]
    colors: list[int]
    edges: list[tuple[int, itemgetter, itemgetter]]
    counts: list[int]


# per reference key: B(hw) and its certificate, built by `_reference`
_reference_cache: dict[tuple, _Reference] = {}
# per reference key: the (eps, wt) pairs of B(hw) with their multiplicities
_signature_cache: dict[tuple, Counter] = {}


def _check_product_size(diagram: DynkinDiagram, factors, max_vertices: int) -> None:
    """Raise ValueError for a cap below 1 and VertexCapError when the
    product of the factors' crystals, prod |B(factor)|, is above it."""
    check_vertex_cap(max_vertices)
    size = prod(diagram.weyl_dimension(f) for f in factors)
    if size > max_vertices:
        raise VertexCapError(f"tensor product of {size} vertices on {diagram.label}", max_vertices)


def _reference(diagram: DynkinDiagram, hw: Weight) -> _Reference:
    """B(hw) and its certificate, built once per process.

    B(hw) is built with its Weyl dimension, its exact size, as the cap.
    """
    key = (diagram.key, hw)
    entry = _reference_cache.get(key)
    if entry is None:
        built = build_crystal(diagram, hw, max_vertices=diagram.weyl_dimension(hw))
        ref = _graph(diagram, built.weights, built.f_maps)
        parent: dict[int, int] = {}
        color: dict[int, int] = {}
        for i in reversed(range(diagram.rank)):  # lower colors overwrite
            fm = ref.f_maps[i]
            parent.update(zip(fm.values(), fm))
            color.update(zip(fm.values(), repeat(i)))
        edges = []
        for i, fm in enumerate(ref.f_maps):
            # f_i is injective, so an f_i edge into k is k's tree step
            # exactly when i is the color of that step
            off_tree = list(map(i.__ne__, map(color.__getitem__, fm.values())))
            sources = list(compress(fm, off_tree))
            if sources:
                targets = list(compress(fm.values(), off_tree))
                edges.append(
                    (i, itemgetter(*sources, sources[0]), itemgetter(*targets, targets[0]))
                )
        vertices = range(1, len(ref))
        entry = _reference_cache[key] = _Reference(
            ref,
            list(map(parent.__getitem__, vertices)),
            list(map(color.__getitem__, vertices)),
            edges,
            list(map(len, ref.f_maps)),
        )
    return entry


def _signature_counts(diagram: DynkinDiagram, hw: Weight) -> Counter:
    """(eps(b), wt(b)) over b in B(hw) with multiplicity, counted once per process."""
    key = (diagram.key, hw)
    counts = _signature_cache.get(key)
    if counts is None:
        ref = _reference(diagram, hw).crystal
        # vertices sharing both eps and weight add alike in `multiplicity`
        counts = _signature_cache[key] = Counter(zip(zip(*ref._string_data()[0]), ref.weights))
    return counts


class SummandInstance(_Record):
    """One connected summand: its highest weight, source vertex, and its
    vertices listed in the order of the reference crystal of that weight.

    Mutable: equal fields compare equal, and an instance is unhashable.
    """

    hw: Weight
    source: int
    closure: list[int]

    def __init__(self, hw, source, closure):
        self.hw = hw
        self.source = source
        self.closure = closure

    @property
    def iso(self) -> dict[int, int]:
        """The vertex map onto the reference crystal: closure[k] goes to k."""
        return dict(zip(self.closure, range(len(self.closure))))


class Decomposition(_Record):
    """Summand multiplicities, the summands and the summand of each vertex.

    Mutable: equal fields compare equal, and a decomposition is unhashable.
    Each one gets its own empty Counter, list and dict by default.
    """

    diagram: DynkinDiagram
    summands: Counter
    instances: list[SummandInstance]
    assignment: dict[int, int]

    def __init__(self, diagram, summands=None, instances=None, assignment=None):
        self.diagram = diagram
        self.summands = Counter() if summands is None else summands
        self.instances = [] if instances is None else instances
        self.assignment = {} if assignment is None else assignment

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
    """Vertices on which every raising operator is undefined: no f map reaches them."""
    lowered: set[int] = set()
    for fm in crystal.f_maps:
        lowered.update(fm.values())
    return [v for v in range(len(crystal)) if v not in lowered]


def decompose(crystal: CrystalGraph) -> Decomposition:
    """Split a normal crystal into highest-weight summands.

    Each summand is the f-closure of a source vertex, taken in increasing
    source id.  B(hw) has exactly `weyl_dimension(hw)` vertices, so no
    reference crystal larger than the vertices not yet assigned to a
    summand is ever built.  A closure is certified against B(hw) by
    `_walk`.  After the last source the closures must cover every vertex
    once, and no color may have an f edge beyond the certified ones.  On
    any failed check `_refuse_decomposition` raises the DecompositionError
    that names the first fault.  Instance ids follow increasing source id;
    f raises vertex ids in every crystal the library builds, so this is
    also the order of the summands' smallest vertices.
    """
    result = _certified(crystal)
    if result is None:
        _refuse_decomposition(crystal)
    return result


def _certified(crystal: CrystalGraph) -> Decomposition | None:
    """The decomposition when every closure passes its certificate, else None."""
    diagram = crystal.diagram
    weights, f_maps = crystal.weights, crystal.f_maps
    n = len(weights)
    result = Decomposition(diagram)
    instances, assignment = result.instances, result.assignment
    certified = [0] * diagram.rank  # f_i edges per color
    unassigned = n
    for src in highest_vertices(crystal):
        hw = weights[src]
        ref = _reference_cache.get((diagram.key, hw))  # a cached reference is dominant
        if ref is None:
            if not diagram.is_dominant(hw) or diagram.weyl_dimension(hw) > unassigned:
                return None
            ref = _reference(diagram, hw)
        unassigned -= len(ref.crystal)
        if unassigned < 0:
            return None
        comp = _walk(crystal, src, ref)
        if comp is None:
            return None
        certified = list(map(add, certified, ref.counts))
        assignment.update(dict.fromkeys(comp, len(instances)))
        instances.append(SummandInstance(hw, src, comp))
        result.summands[hw] += 1
    # The closures list at most n vertices, so n distinct ones are a
    # disjoint cover.  With no edge beyond the certified ones, distinct
    # entries counted in `certified`, no f or e edge leaves a closure.
    if len(assignment) != n or list(map(len, f_maps)) != certified:
        return None
    return result


def _walk(crystal: CrystalGraph, src: int, ref: _Reference) -> list[int] | None:
    """The closure of `src`, of weight ref's highest weight, walked along
    ref's tree steps, or None when it fails ref's certificate.

    Its k-th vertex is f_i of its p-th for step (p, i), which lists it in
    canonical BFS order when it is a copy of B(hw).  One comparison of the
    weight list and one per color of the edges off the tree then check
    that sending the k-th vertex to k keeps weights and every f_i edge of
    the reference.  Edges of the closure beyond those are not seen here.
    """
    weights, f_maps = crystal.weights, crystal.f_maps
    comp = [src]
    grow = comp.append
    try:
        for p, i in zip(ref.parents, ref.colors):  # each step also certifies its tree edge
            grow(f_maps[i][comp[p]])
        # a one-vertex closure is its source, of weight hw; a getter of
        # two or more items returns a tuple
        if len(comp) > 1 and itemgetter(*comp)(weights) != ref.crystal.weights:
            return None
    except KeyError:  # an f_i undefined along a tree step
        return None
    for i, sources, targets in ref.edges:
        if tuple(map(f_maps[i].get, sources(comp))) != targets(comp):
            return None
    return comp


def _refuse_decomposition(crystal: CrystalGraph) -> NoReturn:
    """Raise the DecompositionError for a crystal that `_certified` refused.

    Lists the closures by `_rooted_components` and checks each against
    its reference, in source order, so the first fault found is the one
    reported.  A closure is a copy of B(hw) when it has B(hw)'s size,
    `_walk` lists it in the same BFS order and no color has more edges in
    it than in B(hw).  A crystal passing every check here passes the
    certificate too, so reaching the end is a bug.
    """
    diagram = crystal.diagram
    for src, comp in _rooted_components(crystal):
        hw = crystal.weights[src]
        if not diagram.is_dominant(hw):
            raise DecompositionError(f"component source {src} has non-dominant weight {hw}")
        ref = _reference(diagram, hw) if len(comp) == diagram.weyl_dimension(hw) else None
        if ref is None or _walk(crystal, src, ref) != comp or any(
            sum(map(fm.__contains__, comp)) > count for fm, count in zip(crystal.f_maps, ref.counts)
        ):
            raise DecompositionError(
                f"component containing vertex {min(comp)} is not isomorphic to the "
                f"highest-weight crystal of {hw}"
            )
    raise AssertionError("the summand certificate refused a direct sum of highest-weight crystals")


def _rooted_components(crystal: CrystalGraph) -> list[tuple[int, list[int]]]:
    """Each source vertex with its f-closure, in increasing source id.

    A highest-weight crystal is generated by its source under the f maps,
    so the closures are the connected components.  Each closure is listed
    in canonical BFS order, the order in which `paths.build_crystal`
    numbers B(lam), so a built B(lam) is its own closure
    `list(range(len(B)))`.  Every f edge joins two vertices, as the
    CrystalGraph constructor checks.  Raises DecompositionError when a
    vertex lies below no source or below two.
    """
    owner: list[int | None] = [None] * len(crystal)
    out = []
    for src in highest_vertices(crystal):
        owner[src] = src
        closure = [src]
        for v in closure:  # grows while it is walked: breadth-first
            for fm in crystal.f_maps:
                w = fm.get(v)
                if w is None:
                    continue
                seen = owner[w]
                if seen is None:
                    owner[w] = src
                    closure.append(w)
                elif seen != src:
                    raise DecompositionError(
                        f"vertex {w} lies below 2 source vertices, {seen} and {src}; "
                        "not a highest-weight crystal"
                    )
        out.append((src, closure))
    if None in owner:
        raise DecompositionError(
            f"vertex {owner.index(None)} lies below no source vertex; "
            "not a highest-weight crystal"
        )
    return out


def is_isomorphic(a: CrystalGraph, b: CrystalGraph) -> dict[int, int] | None:
    """Crystal isomorphism as a vertex map, or None.

    None when the diagrams, the sizes or the multisets of summand highest
    weights differ.  Otherwise a and then b are decomposed, and a crystal
    that `decompose` refuses raises its DecompositionError.  Each summand
    of a, in source order, goes to the first unused summand of b of the
    same highest weight, the k-th vertex of one closure to the k-th of
    the other.
    """
    if a.diagram != b.diagram or len(a) != len(b):
        return None
    dec_a, dec_b = decompose(a), decompose(b)
    if dec_a.summands != dec_b.summands:
        return None
    unused: dict[Weight, list[list[int]]] = {}
    for inst in reversed(dec_b.instances):  # popped first to last
        unused.setdefault(inst.hw, []).append(inst.closure)
    iso: dict[int, int] = {}
    for inst in dec_a.instances:
        iso.update(zip(inst.closure, unused[inst.hw].pop()))
    return iso


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
    restricted = _graph(sub, weights, f_maps, crystal.payloads)
    return decompose(restricted), sub
