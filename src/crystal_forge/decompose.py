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
candidate map keeps every weight and every f_i edge.  Every summand,
a one-vertex B(0) too, goes through that one walk.  Per call the
certificate looks each highest weight's reference up once, and checks
the edge count of each color once, against the sum over highest weights
of multiplicity times the reference's edge counts.  Two direct sums of
highest-weight crystals are isomorphic exactly when their summands have
the same highest weights, so `is_isomorphic` decomposes both and pairs
summands of equal weight.
Multiplicities of highest weights in tensor products are read off as
counts of source vertices, which is the combinatorial shadow of the
tensor-decomposition bijection between irreducible components of quiver
strata.  `multiplicity` and `tensor_summands` count them from the factors
alone, through the signature rule: the source vertices of B(lam) x B(mu)
are the u_lam x b with eps_i(b) <= lam_i for every color i.  Each factor
B(mu) is read through its weight index, which lists for each weight of
B(mu) the distinct eps of its vertices with their counts; it is kept on
the cached reference of B(mu), so each B(mu) is cached once.
`tensor_summands` carries the highest weights of the partial products,
with their multiplicities, in a plain dict through every later factor,
and makes a Counter of them only where it returns; `multiplicity` does
so through all but the last, and reads the last factor only at the
weights target - lam.  Both check their factors in one order, the cap
first, then each factor's length and sign in turn, then the product
size, read from Weyl dimensions that the diagram keeps once computed;
`multiplicity` checks its target before them.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, repeat
from math import prod
from operator import add, itemgetter, le, sub
from typing import NamedTuple, NoReturn

from .crystal import SCHEMA, CrystalGraph, _graph
from .dynkin import DynkinDiagram, Weight, induced_subdiagram
from .linalg import _Record
from .paths import DEFAULT_VERTEX_CAP, VertexCapError, build_crystal, check_vertex_cap, counted


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
    tuple for a lone edge too.  `size` is the number of vertices.  The
    crystal keeps no payloads: no caller reads them.  `index`, the weight
    index of B(hw), starts empty; `_signature_index` fills it on first use.
    """

    crystal: CrystalGraph
    size: int
    parents: list[int]
    colors: list[int]
    edges: list[tuple[int, itemgetter, itemgetter]]
    index: dict[Weight, tuple[tuple[Weight, int], ...]]


# per reference key: B(hw) and its certificate, built by `_reference`
_reference_cache: dict[tuple, _Reference] = {}


def _check_product(diagram: DynkinDiagram, factors, max_vertices: int) -> list[Weight]:
    """The factors as dominant weights of the diagram, checked in the order
    a product of their crystals is: ValueError for a cap that is not an int
    or is below 1, then for each factor in turn for a wrong length or a
    negative entry, and VertexCapError when the product's size is above
    the cap."""
    check_vertex_cap(max_vertices)
    checked = [diagram.check_dominant(f) for f in factors]
    size = prod(map(diagram._weyl_dimension, checked))
    if size > max_vertices:
        raise VertexCapError(
            f"tensor product of {counted(size, 'vertices')} on {diagram.label}", max_vertices
        )
    return checked


def _reference(diagram: DynkinDiagram, hw: Weight) -> _Reference:
    """B(hw) and its certificate for a checked dominant hw, cached per process.

    B(hw) is built with its Weyl dimension, its exact size, as the cap.
    """
    key = (diagram.key, hw)
    entry = _reference_cache.get(key)
    if entry is None:
        built = build_crystal(diagram, hw, max_vertices=diagram._weyl_dimension(hw))
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
            len(ref),
            list(map(parent.__getitem__, vertices)),
            list(map(color.__getitem__, vertices)),
            edges,
            {},
        )
    return entry


def _signature_index(diagram: DynkinDiagram, hw: Weight) -> dict[Weight, tuple[tuple[Weight, int], ...]]:
    """The weight index of B(hw): wt -> ((eps, count), ...) over its vertices
    b of weight wt, with the count of each distinct eps(b); filled into the
    cached reference of B(hw) on first use.  B(hw) has a vertex, so a filled
    index is never empty."""
    entry = _reference(diagram, hw)
    index = entry.index
    if not index:
        ref = entry.crystal
        eps = zip(*ref._string_data()[0]) if diagram.rank else repeat(())
        by_weight: dict[Weight, Counter] = {}
        for e, wt in zip(eps, ref.weights):
            by_weight.setdefault(wt, Counter())[e] += 1
        index.update((wt, tuple(c.items())) for wt, c in by_weight.items())
    return index


def _fold(diagram: DynkinDiagram, tops: dict[Weight, int], factors: list[Weight]) -> dict[Weight, int]:
    """The highest weights of a product, with their multiplicities, carried
    through `factors` tensored on its right, in a plain dict.

    Under the signature rule a vertex of B(lam) x B(mu) is a source iff
    it is u_lam x b with eps_i(b) <= lam_i for every color i, so each
    source weight lam of the product gives lam + wt once per weight wt of
    B(mu), with the number of vertices of that weight whose eps is below
    lam.  That number is summed in a loop over the weight's signatures and
    added to its key in place: no list per weight, no Counter per factor.
    """
    for mu in factors:
        index = _signature_index(diagram, mu)
        nxt: dict[Weight, int] = {}
        get = nxt.get
        for lam, m in tops.items():
            for wt, signatures in index.items():
                k = 0
                for eps, count in signatures:
                    if all(map(le, eps, lam)):
                        k += count
                if k:
                    key = tuple(map(add, lam, wt))
                    nxt[key] = get(key, 0) + m * k
        tops = nxt
    return tops


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
    refs: dict[Weight, _Reference] = {}  # per highest weight met in this call
    counts: dict[Weight, int] = {}  # summand multiplicities, in first-appearance order
    unassigned = n
    for src in highest_vertices(crystal):
        hw = weights[src]
        ref = refs.get(hw)
        if ref is None:
            ref = _reference_cache.get((diagram.key, hw))  # a cached reference is dominant
            if ref is None:
                if min(hw, default=0) < 0 or diagram._weyl_dimension(hw) > unassigned:
                    return None
                ref = _reference(diagram, hw)
            refs[hw] = ref
        unassigned -= ref.size
        if unassigned < 0:
            return None
        comp = _walk(crystal, src, ref)
        if comp is None:
            return None
        assignment.update(zip(comp, repeat(len(instances))))
        instances.append(SummandInstance(hw, src, comp))
        counts[hw] = counts.get(hw, 0) + 1
    result.summands.update(counts)
    certified = [0] * diagram.rank  # f_i edges per color
    for hw, m in counts.items():
        certified = [c + m * k for c, k in zip(certified, map(len, refs[hw].crystal.f_maps))]
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
            sum(map(fm.__contains__, comp)) > count
            for fm, count in zip(crystal.f_maps, map(len, ref.crystal.f_maps))
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
    the product.  The highest weights of the product of all but the last
    factor are folded by `_fold`.  The last factor B(mu) is read only at
    the weights target - lam, through its weight index: each source
    weight lam adds its multiplicity times the number of vertices of B(mu)
    of that weight with eps_i <= lam_i for every color i.  Raises
    ValueError for a target of the wrong length or not dominant, and then
    refuses the factors exactly as `tensor_summands` does.
    """
    target = diagram.check_dominant(target, "target weight")
    factors = _check_product(diagram, factors, max_vertices)
    if not factors:
        raise ValueError("multiplicity needs at least one tensor factor")
    if len(factors) == 1:
        return int(factors[0] == target)
    tops = _fold(diagram, {factors[0]: 1}, factors[1:-1])
    index = _signature_index(diagram, factors[-1])
    total = 0
    for lam, m in tops.items():
        signatures = index.get(tuple(map(sub, target, lam)))
        if signatures:
            k = 0
            for eps, count in signatures:
                if all(map(le, eps, lam)):
                    k += count
            total += m * k
    return total


def tensor_summands(
    diagram: DynkinDiagram,
    factors,
    max_vertices: int = DEFAULT_VERTEX_CAP,
) -> Counter:
    """The summands of the left-nested tensor product of the highest-weight
    crystals of `factors`: each highest weight with its multiplicity, as
    `decompose` of the built product counts them, read off the factors by
    `_fold` without building the product, and made a Counter here.

    The factors are checked as a product of their crystals is: ValueError
    for a cap that is not an int or is below 1, then for each factor in
    turn for a wrong length or a non-dominant weight, VertexCapError when
    the product would have more than max_vertices vertices, and ValueError
    for no factor.
    """
    factors = _check_product(diagram, factors, max_vertices)
    if not factors:
        raise ValueError("tensor_summands needs at least one tensor factor")
    return Counter(_fold(diagram, {factors[0]: 1}, factors[1:]))


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
    through coordinate restriction.  The restricted graph is decomposed
    and dropped, so it carries no payloads.
    """
    sub, kept = induced_subdiagram(crystal.diagram, keep)
    if len(kept) > 1:  # itemgetter of two or more indices returns a tuple
        weights = list(map(itemgetter(*kept), crystal.weights))
    else:  # the one kept coordinate, or none, as a slice
        cut = slice(kept[0], kept[0] + 1) if kept else slice(0)
        weights = [w[cut] for w in crystal.weights]
    f_maps = [crystal.f_maps[j] for j in kept]
    restricted = _graph(sub, weights, f_maps)
    return decompose(restricted), sub
