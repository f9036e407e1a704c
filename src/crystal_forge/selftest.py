"""Machine-checkable acceptance criteria, runnable at desk scale.

Each criterion is a function of a shared context; it returns (passed,
details).  The runner times each criterion, enforces the stated runtime
budgets, and emits a machine-readable report.  Criteria draw randomness
from a single seeded generator, so a report is reproducible for a given
seed (wall-clock fields aside).

The registry is the single source of truth: the pytest acceptance module
runs exactly these functions.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from functools import cache
from math import prod
from random import Random

from .adhm import (
    ADHMDatum,
    GradedFlag,
    check_preprojective,
    closure,
    core,
    is_ast_stable,
    is_nilpotent,
    is_stable,
    random_preprojective,
    stratum_membership,
)
from .crystal import CrystalGraph, tensor, tensor_many, verify_axioms
from .decompose import branch, decompose, highest_vertices, levi_maps, multiplicity
from .dimensions import (
    StratumParams,
    basic_dims,
    core_split_fiber_dim,
    dominance_vector,
    gprime_integrable,
    gprime_weight,
    hw_weight,
    strat_dims,
    v_from_weight,
)
from .dynkin import DynkinDiagram, dynkin, induced_subdiagram, pairing, vadd, vsub
from .linalg import _Record, full_space, mat, span
from .paths import build_crystal
from .sl2 import sl2_crystal, sl2_mult_range, sl2_tensor_component

SEED_DEFAULT = 74025381

_A1 = dynkin("A", 1)

# larger crystals beyond the exhaustive small enumeration, of dimension
# 729 to 5000
_FAMILY_EXTRAS = {
    "A1": [(999,), (4999,)],
    "A2": [(15, 15), (30, 2)],
    "A3": [(2, 2, 2), (3, 1, 3)],
    "A4": [(1, 1, 1, 1)],
    "D4": [(1, 1, 1, 1), (2, 0, 0, 2)],
}
_FAMILY_EXHAUSTIVE_BOUND = 300


class CriterionResult(_Record):
    """One criterion's verdict.

    Mutable: equal fields compare equal, and a result is unhashable.
    """

    cid: str
    name: str
    passed: bool
    seconds: float
    details: str

    def __init__(self, cid, name, passed, seconds, details):
        self.cid = cid
        self.name = name
        self.passed = passed
        self.seconds = seconds
        self.details = details

    def to_json_dict(self) -> dict:
        return {
            "id": self.cid,
            "name": self.name,
            "passed": self.passed,
            "seconds": round(self.seconds, 3),
            "details": self.details,
        }


def _sl2_labels(max_d: int = 8):
    return [(d, v) for d in range(max_d + 1) for v in range(d // 2 + 1)]


def _dominant_weights_upto(diagram: DynkinDiagram, bound: int):
    """All dominant weights whose module dimension is at most the bound."""
    start = (0,) * diagram.rank
    seen = {start}
    queue = deque([start])
    out = []
    while queue:
        lam = queue.popleft()
        if diagram.weyl_dimension(lam) > bound:
            continue
        out.append(lam)
        for i in range(diagram.rank):
            nxt = tuple(c + (1 if j == i else 0) for j, c in enumerate(lam))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return sorted(out)


@cache
def crystal_family() -> tuple[tuple[DynkinDiagram, tuple, CrystalGraph], ...]:
    """The shared crystal test family over A1..A4 and D4.

    All dominant weights of module dimension <= 300 per diagram, plus a
    fixed list of larger weights of dimension 729 to 5000.  It does
    not depend on the seed, so it is built once per process.
    """
    fam = []
    for label in ("A1", "A2", "A3", "A4", "D4"):
        diagram = dynkin(label[0], int(label[1:]))
        lams = _dominant_weights_upto(diagram, _FAMILY_EXHAUSTIVE_BOUND)
        for lam in lams + _FAMILY_EXTRAS[label]:
            fam.append((diagram, lam, build_crystal(diagram, lam)))
    return tuple(fam)


def _record_tensor(ctx: dict, crystal: CrystalGraph) -> CrystalGraph:
    ctx.setdefault("tensors", []).append(crystal)
    return crystal


def _sample_dominant(rng: Random, diagram: DynkinDiagram, max_dim: int):
    while True:
        lam = tuple(rng.randint(0, 3) for _ in range(diagram.rank))
        if diagram.weyl_dimension(lam) <= max_dim:
            return lam


# -- criteria -----------------------------------------------------------------


def criterion_sl2_clebsch_gordan(ctx: dict):
    """Two-chain decompositions match the closed-form component range."""
    labels = _sl2_labels()
    checked = 0
    for d1, v1 in labels:
        for d2, v2 in labels:
            left = build_crystal(_A1, (d1 - 2 * v1,))
            right = build_crystal(_A1, (d2 - 2 * v2,))
            dec = decompose(_record_tensor(ctx, tensor(left, right)))
            expected = Counter(
                {(d1 + d2 - 2 * v0,): 1 for v0 in sl2_mult_range(d1, v1, d2, v2)}
            )
            if dec.summands != expected:
                return False, (
                    f"labels {(d1, v1, d2, v2)}: got {dict(dec.summands)}, "
                    f"expected {dict(expected)}"
                )
            checked += 1
    return True, f"{checked} label pairs checked"


def criterion_sl2_component_map(ctx: dict):
    """Vertex-level summand assignment matches the closed sl2 formula."""
    labels = _sl2_labels()
    checked = 0
    for d1, v1 in labels:
        for d2, v2 in labels:
            left = sl2_crystal(d1, v1)
            right = sl2_crystal(d2, v2)
            product = _record_tensor(ctx, tensor(left, right))
            dec = decompose(product)
            d = d1 + d2
            for a in range(len(left)):
                for b in range(len(right)):
                    vid = a * len(right) + b
                    w0, usum = sl2_tensor_component(
                        (d1, v1, v1 + a), (d2, v2, v2 + b)
                    )
                    inst = dec.instances[dec.assignment[vid]]
                    if inst.hw != (d - 2 * w0,):
                        return False, (
                            f"labels {(d1, v1, d2, v2)} vertex {(a, b)}: assigned to "
                            f"{inst.hw}, formula says {(d - 2 * w0,)}"
                        )
                    if product.weights[vid] != (d - 2 * usum,):
                        return False, f"vertex weight mismatch at {(a, b)}"
                    checked += 1
    return True, f"{checked} tensor vertices checked"


_A2_TABLE = {(2, 2): 1, (3, 0): 1, (0, 3): 1, (1, 1): 2, (0, 0): 1}


def criterion_a2_table(ctx: dict):
    """The 64-vertex A2 tensor square decomposes by the frozen table."""
    a2 = dynkin("A", 2)
    if multiplicity(a2, (1, 1), [(1, 1), (1, 1)]) != 2:
        return False, "multiplicity((1,1); (1,1),(1,1)) != 2"
    product = _record_tensor(ctx, tensor(build_crystal(a2, (1, 1)), build_crystal(a2, (1, 1))))
    if len(product) != 64:
        return False, f"tensor has {len(product)} vertices, expected 64"
    dec = decompose(product)
    if dict(dec.summands) != _A2_TABLE:
        return False, f"got {dict(dec.summands)}"
    return True, "full table reproduced"


def criterion_cartan_component(ctx: dict):
    """The weight-sum component occurs exactly once in sampled products."""
    rng: Random = ctx["rng"]
    diagrams = [dynkin("A", 2), dynkin("A", 3), dynkin("D", 4)]
    checked = 0
    for k in range(50):
        diagram = diagrams[k % 3]
        n = 2 if k % 5 else 3
        while True:
            factors = [_sample_dominant(rng, diagram, 100) for _ in range(n)]
            if prod(map(diagram.weyl_dimension, factors)) <= 20000:
                break
        target = tuple(map(sum, zip(*factors)))
        product = _record_tensor(
            ctx, tensor_many(build_crystal(diagram, f) for f in factors)
        )
        count = sum(
            1 for v in highest_vertices(product) if product.weights[v] == target
        )
        if count != 1:
            return False, f"{diagram.label} factors {factors}: multiplicity {count}"
        checked += 1
    return True, f"{checked} sampled tuples checked"


def criterion_crystal_axioms(ctx: dict):
    """Axioms hold on the whole crystal family and all recorded tensors."""
    family = crystal_family()
    for diagram, lam, crystal in family:
        report = verify_axioms(crystal)
        if report:
            return False, f"{diagram.label} {lam}: {report[0]}"
    tensors = ctx.get("tensors", [])
    for k, crystal in enumerate(tensors):
        report = verify_axioms(crystal)
        if report:
            return False, f"tensor #{k}: {report[0]}"
    return True, f"{len(family)} family crystals and {len(tensors)} tensors verified"


def criterion_multiset_symmetry(ctx: dict):
    """Summand multisets ignore both bracketing and factor order."""
    rng: Random = ctx["rng"]
    pools = {
        "A2": [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1)],
        "D4": [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0)],
    }
    checked = 0
    for k in range(20):
        label = "A2" if k % 2 else "D4"
        diagram = dynkin(label[0], int(label[1]))
        pool = pools[label]
        if k < 10:
            a, b, c = (build_crystal(diagram, rng.choice(pool)) for _ in range(3))
            left = decompose(tensor(tensor(a, b), c)).summands
            right = decompose(tensor(a, tensor(b, c))).summands
            if left != right:
                return False, f"{label} triple #{k}: bracketing changed the multiset"
        else:
            a, b = (build_crystal(diagram, rng.choice(pool)) for _ in range(2))
            left = decompose(tensor(a, b)).summands
            right = decompose(tensor(b, a)).summands
            if left != right:
                return False, f"{label} pair #{k}: order changed the multiset"
        checked += 1
    return True, f"{checked} sampled products checked"


def criterion_levi_identities(ctx: dict):
    """The framing/restriction maps match the weight function, and
    branching conserves cardinality on the whole family."""
    rng: Random = ctx["rng"]
    diagrams = [dynkin("A", 3), dynkin("D", 4), dynkin("E", 6)]
    for k in range(200):
        diagram = diagrams[k % 3]
        d = tuple(rng.randint(0, 5) for _ in range(diagram.rank))
        v = tuple(rng.randint(0, 5) for _ in range(diagram.rank))
        keep = [i for i in range(diagram.rank) if rng.random() < 0.6]
        sub, kept = induced_subdiagram(diagram, keep)
        framing, rho_v = levi_maps(diagram, d, v, keep)
        wt = dominance_vector(diagram, d, v)
        lhs = tuple(wt[i] for i in kept)
        rhs = dominance_vector(sub, framing, rho_v)
        if lhs != rhs:
            return False, f"{diagram.label} keep={kept}: {lhs} != {rhs}"

    family = crystal_family()
    checked = 0
    for diagram, lam, crystal in family:
        subsets = [[]]
        if diagram.rank >= 1:
            subsets.append([0])
        if diagram.rank >= 2:
            subsets.append(list(range(1, diagram.rank)))
        for keep in subsets:
            dec, sub = branch(crystal, keep)
            total = sum(
                m * sub.weyl_dimension(w) for w, m in dec.summands.items()
            )
            if total != len(crystal):
                return False, (
                    f"{diagram.label} {lam} keep={keep}: branched cardinality "
                    f"{total} != {len(crystal)}"
                )
            checked += 1
    return True, f"200 weight identities and {checked} branchings checked"


def criterion_dimension_consistency(ctx: dict):
    """Stratum dimension formulas agree along every derivation route."""
    rng: Random = ctx["rng"]
    diagrams = [dynkin("A", 2), dynkin("A", 3), dynkin("D", 4)]
    for k in range(500):
        diagram = diagrams[k % 3]
        rank = diagram.rank
        n = 1 + k % 3
        v_tuple = tuple(
            tuple(rng.randint(0, 3) for _ in range(rank)) for _ in range(n)
        )
        vt_tuple = tuple(
            tuple(rng.randint(0, 3) for _ in range(rank)) for _ in range(n)
        )
        d_tuple = tuple(
            tuple(rng.randint(0, 3) for _ in range(rank)) for _ in range(n)
        )
        v = tuple(sum(w[j] for w in v_tuple + vt_tuple) for j in range(rank))
        d = tuple(sum(w[j] for w in d_tuple) for j in range(rank))
        params = StratumParams(diagram, d, v, d_tuple, v_tuple, vt_tuple)
        dims = strat_dims(params)

        base = basic_dims(diagram, d, v)
        doubled = base["dim_quiver_variety"] + sum(
            basic_dims(diagram, ds, vs)["dim_bistable_variety"]
            for ds, vs in zip(d_tuple, v_tuple)
        )
        if doubled % 2 or dims["dim_tensor_variety"] != doubled // 2:
            return False, f"sample {k}: tensor-variety routes disagree"
        doubled_s = base["dim_bistable_variety"] + sum(
            basic_dims(diagram, ds, vs)["dim_bistable_variety"]
            for ds, vs in zip(d_tuple, v_tuple)
        )
        if doubled_s % 2 or dims["dim_mult_variety"] != doubled_s // 2:
            return False, f"sample {k}: multiplicity-variety routes disagree"

        # redistribute the complementary tuple, keeping the total
        total_vt = [sum(w[j] for w in vt_tuple) for j in range(rank)]
        vt_alt = [[0] * rank for _ in range(n)]
        for j in range(rank):
            remaining = total_vt[j]
            for s in range(n - 1):
                take = rng.randint(0, remaining)
                vt_alt[s][j] = take
                remaining -= take
            vt_alt[n - 1][j] = remaining
        params_alt = StratumParams(
            diagram, d, v, d_tuple, v_tuple, tuple(tuple(r) for r in vt_alt)
        )
        if strat_dims(params_alt)["dim_stratum_vvt"] != dims["dim_stratum_vvt"]:
            return False, f"sample {k}: stratum dimension depends on the split"

        u = tuple(rng.randint(0, c) for c in v)
        t = vsub(v, u)
        reduced = StratumParams(diagram, d, t, d_tuple, v_tuple)
        lhs = dims["dim_stratum"] - pairing(u, t)
        xuu = pairing(diagram.apply_x(u), u)
        if xuu % 2:
            return False, f"sample {k}: odd <Xu,u>"
        rhs = (
            xuu // 2
            + strat_dims(reduced)["dim_stratum_bistable"]
            + core_split_fiber_dim(diagram, d, u, t)
        )
        if lhs != rhs:
            return False, f"sample {k}: core-split bookkeeping fails ({lhs} != {rhs})"
    return True, "500 random parameter sets checked"


def criterion_gprime_positivity(ctx: dict):
    """Extended weights of every family crystal stay coordinatewise >= 0."""
    rng: Random = ctx["rng"]
    family = crystal_family()
    checked = 0
    for diagram, lam, crystal in family:
        choices = [((0,) * diagram.rank)]
        v0 = tuple(rng.randint(0, 2) for _ in range(diagram.rank))
        d_try = vadd(lam, diagram.apply_cartan(v0))
        if all(c >= 0 for c in d_try):
            choices.append(v0)
        for v0 in choices:
            d = diagram.check_weight(vadd(lam, diagram.apply_cartan(v0)))
            if hw_weight(diagram, d, v0) != lam:
                return False, f"{diagram.label} {lam}: framing dictionary broken"
            top = gprime_weight(diagram, d, v0)
            if not gprime_integrable((top[0], top[1])):
                return False, f"{diagram.label} {lam}: highest extended weight not integrable"
            # each distinct weight once, in the order of its first vertex
            for w, count in crystal.character().items():
                vv = v_from_weight(diagram, d, w)
                if vv is None:
                    return False, f"{diagram.label} {lam}: no v for weight {w}"
                first, second = gprime_weight(diagram, d, vv)
                if any(c < 0 for c in first) or any(c < 0 for c in second):
                    return False, (
                        f"{diagram.label} {lam} vertex weight {w}: extended weight "
                        f"({first}, {second}) has a negative coordinate"
                    )
                checked += count
    return True, f"{checked} vertex weights checked"


def criterion_adhm_suite(ctx: dict):
    """Exact-arithmetic examples reproduce, and zero-framing random
    solutions of the moment-map equation are nilpotent."""
    rng: Random = ctx["rng"]
    a1 = _A1
    # moment-map equation on one vertex: residual is -p q
    good = ADHMDatum(a1, (2,), (1,), {}, (mat([[1, 0]]),), (mat([[0], [1]]),))
    bad = ADHMDatum(a1, (2,), (1,), {}, (mat([[1, 0]]),), (mat([[1], [0]]),))
    zero = ADHMDatum(
        a1, (2,), (1,), {}, (mat([[0, 0]]),), (mat([[0], [0]]),)
    )
    if not check_preprojective(good) or check_preprojective(bad):
        return False, "one-vertex moment-map checks wrong"
    if not check_preprojective(zero):
        return False, "all-zero datum should satisfy the equation"
    if not (is_stable(good) and is_ast_stable(good)):
        return False, "p surjective-closure / q injective-core example failed"
    if is_stable(zero) or is_ast_stable(zero):
        return False, "zero maps cannot be stable on a nonzero space"

    # closure / core on A2 with a single nonzero edge map
    a2 = dynkin("A", 2)
    datum2 = ADHMDatum(
        a2,
        (0, 0),
        (1, 1),
        {(0, 1): mat([[1]])},
        (mat([[]], rows=1, cols=0), mat([[]], rows=1, cols=0)),
        (mat([], rows=0, cols=1), mat([], rows=0, cols=1)),
    )
    source_line = (span([(1,)], 1), span([], 1))
    closed = closure(datum2, source_line)
    if tuple(s.cols for s in closed) != (1, 1):
        return False, "closure of the source line should be everything"
    cored = core(datum2, (full_space(1), full_space(1)))
    if tuple(s.cols for s in cored) != (1, 1):
        return False, "core of the full space should be everything"

    # stratum membership on the one-vertex example
    stratum_datum = ADHMDatum(
        a1, (2,), (1,), {}, (mat([[0, 1]]),), (mat([[1], [0]]),)
    )
    flag_member = GradedFlag(a1, (2,), ((span([(1, 0)], 2),), (full_space(2),)))
    flag_reject = GradedFlag(a1, (2,), ((span([(0, 1)], 2),), (full_space(2),)))
    got = stratum_membership(stratum_datum, flag_member)
    if got != (((0,), (0,)), ((0,), (1,))):
        return False, f"stratum label {got} != (((0,),(0,)), ((0,),(1,)))"
    if stratum_membership(stratum_datum, flag_reject) is not None:
        return False, "rejecting flag was accepted"
    trivial_flag = GradedFlag(a1, (2,), ((full_space(2),),))
    got1 = stratum_membership(stratum_datum, trivial_flag)
    if got1 != (((1,),), ((0,),)):
        return False, f"one-step flag label {got1} != (((1,),), ((0,),))"

    # nilpotency of zero-framing solutions
    a3 = dynkin("A", 3)
    for k in range(100):
        diagram = a2 if k % 2 else a3
        v = tuple(rng.randint(1, 3) for _ in range(diagram.rank))
        datum = random_preprojective(diagram, v, (0,) * diagram.rank, rng)
        if not check_preprojective(datum):
            return False, f"random sample {k} broke the moment-map equation"
        if not is_nilpotent(datum):
            return False, f"random zero-framing sample {k} is not nilpotent"
    return True, "examples reproduced; 100 random zero-framing data nilpotent"


CRITERIA = (
    ("c1", "sl2 Clebsch-Gordan", 5.0, criterion_sl2_clebsch_gordan),
    ("c2", "sl2 component map", 10.0, criterion_sl2_component_map),
    ("c3", "A2 multiplicity table", 1.0, criterion_a2_table),
    ("c4", "Cartan component uniqueness", 30.0, criterion_cartan_component),
    ("c5", "crystal and tensor axioms", None, criterion_crystal_axioms),
    ("c6", "multiset associativity/commutativity", None, criterion_multiset_symmetry),
    ("c7", "Levi identities and branching", None, criterion_levi_identities),
    ("c8", "dimension formula consistency", 5.0, criterion_dimension_consistency),
    ("c9", "extended weight positivity", None, criterion_gprime_positivity),
    ("c10", "ADHM suite", 10.0, criterion_adhm_suite),
)


def run_criteria(seed: int = SEED_DEFAULT, only=None) -> list[CriterionResult]:
    """Run the acceptance criteria in order and collect a report.

    `seed` drives every random draw; `only` restricts the run to a set of
    criterion ids (unknown ids raise ValueError).  Later criteria read what
    earlier ones left in the shared context: c5 verifies the axioms on
    every tensor product that c1-c4 recorded.
    """
    if only is not None:
        known = {cid for cid, _, _, _ in CRITERIA}
        unknown = set(only) - known
        if unknown:
            raise ValueError(f"unknown criterion ids: {sorted(unknown)}")
    ctx: dict = {"rng": Random(seed)}
    results = []
    for cid, name, budget, func in CRITERIA:
        if only is not None and cid not in only:
            continue
        t0 = time.perf_counter()
        try:
            passed, details = func(ctx)
        except Exception as exc:  # a criterion crash is a failure, not an abort
            passed, details = False, f"exception: {exc!r}"
        seconds = time.perf_counter() - t0
        if passed and budget is not None and seconds > budget:
            passed = False
            details = f"exceeded budget of {budget}s ({seconds:.2f}s); {details}"
        results.append(CriterionResult(cid, name, passed, seconds, details))
    return results


def report_to_json(results) -> dict:
    from .crystal import SCHEMA

    return {
        "schema": SCHEMA,
        "criteria": [r.to_json_dict() for r in results],
        "passed": all(r.passed for r in results),
    }
