"""The in-process workloads: crystal builds, warm tensor/decompose, ADHM strata.

Each workload builds its op list in `setup` (fixed inputs that set the
cost; the seed picks order and cost-neutral details), runs one operation
per `run` call (only calls into crystal-forge happen there, so only they
are timed), and checks every result in `check` against `reference`, which
asks the `oracle` module and never runs the code under test.  Op lists
are cycled, so a faster program simply completes more operations.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from itertools import permutations, product
from math import lcm, prod
from pathlib import Path
from random import Random

from . import oracle
from .spans import instrument

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_program():
    """Import crystal_forge from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import crystal_forge

    where = Path(crystal_forge.__file__).resolve().parent
    if where != SRC / "crystal_forge":
        raise RuntimeError(f"imported crystal_forge from {where}, expected {SRC}")
    return crystal_forge


def module(name: str):
    """A crystal_forge submodule (the package attribute may be a function)."""
    return sys.modules[f"crystal_forge.{name}"]


class Workload:
    """One benchmark workload; subclasses fill in the hooks below."""

    name = ""
    probe_during_ops = False  # take speed probes inside operations (see probe.py)

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = Random(f"{self.name}:{seed}")
        self.ops: list = []  # the timed loop cycles through these
        self.warm_ops: list = []  # run once, untimed, at the end of set-up
        self.stats: Counter = Counter()  # workload-side counts for layer ratios
        self.collect_layer_stats = False
        self._expected: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def reference(self, op):
        raise NotImplementedError

    def check(self, op, result) -> str | None:
        """None when the result is right, else a one-line reason."""
        raise NotImplementedError

    def expected(self, op):
        if op not in self._expected:
            self._expected[op] = self.reference(op)
        return self._expected[op]

    def kind(self, op) -> str:
        return op[0]

    def traced(self, recorder):
        """Context in which the timed loop records spans into `recorder`."""
        return instrument(recorder)

    def layer_metrics(self, untraced) -> dict:
        """Layer figures the workload measures itself; `untraced` is the plain loop."""
        return {}

    def close(self) -> None:
        pass


def _dominant_weights(diagram, lo: int, hi: int) -> list[tuple[int, ...]]:
    """Dominant weights whose Weyl dimension lies in [lo, hi]."""
    zero = (0,) * diagram.rank
    dims = {zero: 1}
    todo = [zero]
    while todo:
        w = todo.pop()
        for i in range(diagram.rank):
            nxt = w[:i] + (w[i] + 1,) + w[i + 1 :]
            if nxt in dims:
                continue
            dim = diagram.weyl_dimension(nxt)
            if dim <= hi:  # the dimension grows with every coordinate
                dims[nxt] = dim
                todo.append(nxt)
    return sorted(w for w, dim in dims.items() if dim >= lo)


class CrystalBuild(Workload):
    """build_crystal(λ), verify_axioms, and the JSON the `crystal` command prints."""

    name = "crystal-build"
    probe_during_ops = True  # the ladder builds last seconds
    DIAGRAMS = ("A2", "A3", "A4", "D4", "E6")
    LADDER = (
        ("A2", (15, 15)),
        ("A2", (30, 2)),
        ("A4", (2, 1, 1, 2)),
        ("D4", (2, 0, 0, 2)),
        ("E6", (0, 0, 0, 0, 0, 2)),
    )
    # Weights per diagram from each dimension bucket, spaced evenly by dimension.
    # The ladder and the 200-399 bucket make up the slowest tenth of the
    # operations, so p90 falls inside a group of similar times, not in a gap.
    BUCKETS = ((50, 99), (100, 199), (200, 399))
    PICKS = {
        "A2": (12, 12, 4),
        "A3": (10, 12, 4),
        "A4": (7, 8, 4),
        "D4": (3, 6, 4),
        "E6": (1, 0, 2),
    }

    def setup(self):
        self.cf = import_program()
        self.diagrams = {lab: self.cf.parse_diagram(lab) for lab in self.DIAGRAMS}
        self.systems = {}
        small = []
        for lab, diagram in self.diagrams.items():
            weights = _dominant_weights(diagram, self.BUCKETS[0][0], self.BUCKETS[-1][1])
            dims = {w: diagram.weyl_dimension(w) for w in weights}
            for (lo, hi), picks in zip(self.BUCKETS, self.PICKS[lab]):
                pool = sorted((dims[w], w) for w in weights if lo <= dims[w] <= hi)
                spaced = {pool[(2 * k + 1) * len(pool) // (2 * picks)][1] for k in range(picks)}
                small.extend((lab, w) for w in sorted(spaced))
        self.rng.shuffle(small)
        # spread the ladder builds evenly through the cycle
        step = len(small) // len(self.LADDER)
        for k, op in enumerate(self.LADDER):
            self.ops.append(op)
            self.ops.extend(small[k * step : (k + 1) * step])
        self.ops.extend(small[len(self.LADDER) * step :])
        self.warm_ops = [
            min((op for op in small if op[0] == lab), key=lambda op: (sum(op[1]), op))
            for lab in self.DIAGRAMS
        ]

    def run(self, op):
        lab, hw = op
        crystal = self.cf.build_crystal(self.diagrams[lab], hw)
        violations = self.cf.verify_axioms(crystal)
        text = json.dumps(crystal.to_json_dict(), indent=2, sort_keys=True)
        return len(crystal), violations, text

    def kind(self, op):
        return "build"

    def reference(self, op):
        lab, hw = op
        diagram = self.diagrams[lab]
        if lab not in self.systems:
            self.systems[lab] = oracle.RootSystem(diagram.cartan)
        return diagram.weyl_dimension(hw), self.systems[lab].character(hw)

    def check(self, op, result):
        size, violations, text = result
        dim, char = self.expected(op)
        if violations:
            return f"{op}: {len(violations)} axiom violations, first: {violations[0]}"
        if size != dim:
            return f"{op}: |B| = {size}, Weyl dimension {dim}"
        vertices = json.loads(text)["vertices"]
        if Counter(tuple(v["wt"]) for v in vertices) != char:
            return f"{op}: exported character differs from Freudenthal's"
        if self.collect_layer_stats:
            dens = {c[1] for v in vertices for seg in v["payload"]["path"] for c in seg}
            self.stats["denominator_lcm_max"] = max(self.stats["denominator_lcm_max"], lcm(*dens))
            segments = max(len(v["payload"]["path"]) for v in vertices)
            self.stats["segments_max"] = max(self.stats["segments_max"], segments)
        return None

    def layer_metrics(self, untraced):
        return {
            "paths.payload.denominator_lcm_max": self.stats["denominator_lcm_max"],
            "paths.payload.segments_max": self.stats["segments_max"],
        }


class TensorDecompose(Workload):
    """decompose(tensor_many(...)), multiplicity and Levi branch on a warm cache."""

    name = "tensor-decompose"
    FACTOR_DIM_CAP = {"A1": 7, "A2": 64, "A3": 64, "D4": 56}
    FACTOR_COUNTS = {"A1": (3, 4), "A2": (2, 3), "A3": (2, 3), "D4": (2, 3)}
    BANDS = ((500, 1200), (1500, 4000))  # product sizes, one product per band
    TOP_DIM_CAP = 400  # bounds the cold reference builds the warm-up pays for
    ORDERS = 4  # factor orders decomposed per product
    TARGETS = 11  # multiplicity targets per product
    # Levi subdiagrams of one type per diagram, so the choice does not change the work.
    KEEPS = {"A2": ((0,), (1,)), "A3": ((0, 1), (1, 2)), "D4": ((0, 1, 2), (0, 1, 3), (1, 2, 3))}

    def setup(self):
        cf = self.cf = import_program()
        rng = self.rng
        self.diagrams = {lab: cf.parse_diagram(lab) for lab in self.FACTOR_DIM_CAP}
        self.systems = {lab: oracle.RootSystem(d.cartan) for lab, d in self.diagrams.items()}
        self.factors = {}  # (diagram, hw) -> factor crystal, built here
        self.products = []  # (diagram label, factor weights), the same for every seed
        self.branch_inputs = {}  # product id -> prebuilt product crystal
        for lab, cap in self.FACTOR_DIM_CAP.items():
            diagram = self.diagrams[lab]
            pool = _dominant_weights(diagram, 2, cap)
            dims = {w: diagram.weyl_dimension(w) for w in pool}
            for lo, hi in self.BANDS:
                candidates = sorted(
                    combo
                    for n in self.FACTOR_COUNTS[lab]
                    for combo in _multisets(pool, n)
                    if lo <= prod(dims[w] for w in combo) <= hi
                    and diagram.weyl_dimension(tuple(map(sum, zip(*combo)))) <= self.TOP_DIM_CAP
                )
                self.products.append((lab, candidates[len(candidates) // 2]))
        first = []
        for pid, (lab, combo) in enumerate(self.products):
            for hw in combo:
                if (lab, hw) not in self.factors:
                    self.factors[(lab, hw)] = cf.build_crystal(self.diagrams[lab], hw)
            orders = sorted(set(permutations(combo)))
            orders = rng.sample(orders, min(self.ORDERS, len(orders)))
            ops = [("decompose", pid, order) for order in orders]
            targets = self._targets(lab, combo)
            ops += [("multiplicity", pid, combo, t) for t in rng.sample(targets, min(self.TARGETS, len(targets)))]
            first += ops[:1] + ops[len(orders) : len(orders) + 1]
            if lab in self.KEEPS:
                self.branch_inputs[pid] = cf.tensor_many(self.factors[(lab, hw)] for hw in combo)
                branches = [("branch", pid, keep) for keep in self.KEEPS[lab]]
                ops += branches
                first += branches
            self.ops.extend(ops)
        rng.shuffle(self.ops)
        # one decompose and one multiplicity per product, and every branch, fill the cache
        self.warm_ops = first

    def _targets(self, lab, combo):
        """Dominant weights at most the top weight of the product."""
        system = self.systems[lab]
        top = tuple(map(sum, zip(*combo)))
        out = set()
        for steps in product(range(5), repeat=len(top)):
            w = top
            for c, a in zip(steps, system.alpha):
                w = tuple(x - c * y for x, y in zip(w, a))
            if all(x >= 0 for x in w):
                out.add(w)
        return sorted(out)

    def run(self, op):
        cf = self.cf
        lab = self.products[op[1]][0]
        if op[0] == "decompose":
            crystal = cf.tensor_many(self.factors[(lab, hw)] for hw in op[2])
            dec = cf.decompose(crystal)
            return dict(dec.summands), dec.total_cardinality(), len(crystal)
        if op[0] == "multiplicity":
            return cf.multiplicity(self.diagrams[lab], op[3], op[2])
        dec, _ = cf.branch(self.branch_inputs[op[1]], op[2])
        return dict(dec.summands), dec.total_cardinality()

    def reference(self, op):
        lab, combo = self.products[op[1]]
        system = self.systems[lab]
        char = oracle.character_product(system.character(hw) for hw in combo)
        size = sum(char.values())
        if op[0] == "decompose":
            return system.peel(char), size
        if op[0] == "multiplicity":
            return system.peel(char)[op[3]]
        sub = oracle.RootSystem(oracle.sub_cartan(system.cartan, op[2]))
        summands = sub.peel(oracle.restrict(char, op[2]))
        return summands, size, sum(m * sub.dimension(w) for w, m in summands.items())

    def check(self, op, result):
        want = self.expected(op)
        if op[0] == "multiplicity":
            return None if result == want else f"{op}: multiplicity {result}, peeling gives {want}"
        summands, total = result[:2]
        if op[0] == "decompose":
            peeled, n = want
            if result[2] != n or total != n:
                return f"{op}: product has {result[2]} vertices, {total} assigned, character has {n}"
        else:
            peeled, n, branched = want
            if total != n or branched != n:
                return f"{op}: Levi cardinality {total} (oracle {branched}) != {n}"
        if Counter(summands) != peeled:
            return f"{op}: summands differ from character peeling"
        return None

    def layer_metrics(self, untraced):
        return {"decompose.reference_cache.size": len(module("decompose")._reference_cache)}


def _multisets(pool, n):
    if n == 0:
        yield ()
        return
    for k, w in enumerate(pool):
        for rest in _multisets(pool[k:], n - 1):
            yield (w,) + rest


class ADHMStrata(Workload):
    """random_preprojective, the stability/nilpotency checks, stratum and dimensions."""

    name = "adhm-strata"
    DIAGRAMS = ("A2", "A3", "D4")
    MAX_V = 4  # every dimension vector with entries 0..2 and total 1..MAX_V is used

    def setup(self):
        cf = self.cf = import_program()
        self.adhm = module("adhm")
        self.linalg = module("linalg")
        self.diagrams = {lab: cf.parse_diagram(lab) for lab in self.DIAGRAMS}
        rng = self.rng
        for lab in self.DIAGRAMS:
            rank = self.diagrams[lab].rank
            d = (2,) + (1,) * (rank - 1)
            shapes = [v for v in product(range(3), repeat=rank) if 1 <= sum(v) <= self.MAX_V]
            for k, v in enumerate(shapes):
                # each shape once without framing and once framed; framed data
                # alternate between the flag (0, D) and a random line in D_0
                self.ops.append((lab, v, (0,) * rank, rng.randrange(2**32), None))
                line = ()
                if k % 2:
                    line = (0, (0, 0))
                    while not any(line[1]):
                        line = (0, (rng.randint(-2, 2), rng.randint(-2, 2)))
                self.ops.append((lab, v, d, rng.randrange(2**32), line))
        rng.shuffle(self.ops)
        self.warm_ops = self.ops[:6]

    def kind(self, op):
        return "zero-framing" if op[4] is None else "framed"

    def _flag(self, diagram, d, flag):
        adhm, linalg = self.adhm, self.linalg
        first = adhm.zero_graded(d)
        if flag:
            i, vec = flag
            first = first[:i] + (linalg.span([vec], d[i]),) + first[i + 1 :]
        return adhm.GradedFlag(diagram, d, (first, adhm.full_graded(d)))

    def run(self, op):
        cf = self.cf
        lab, v, d, seed, flag = op
        diagram = self.diagrams[lab]
        datum = cf.random_preprojective(diagram, v, d, seed)
        moment = cf.check_preprojective(datum)
        stable = cf.is_stable(datum)
        ast = cf.is_ast_stable(datum)
        nilpotent = cf.is_nilpotent(datum)
        label = strata = basic = None
        if stable:
            graded_flag = self._flag(diagram, d, flag)
            label = cf.stratum_membership(datum, graded_flag)
            if label is not None:
                params = cf.StratumParams(diagram, d, v, graded_flag.step_dims(), *label)
                strata = cf.strat_dims(params)
                basic = cf.basic_dims(diagram, d, v)
        return datum, moment, stable, ast, nilpotent, label, strata, basic

    def reference(self, op):
        lab, v, d = op[:3]
        return oracle.quiver_variety_dim(self.diagrams[lab].cartan, d, v)

    def check(self, op, result):
        lab, v, d, _, flag = op
        datum, moment, stable, ast, nilpotent, label, strata, basic = result
        diagram = self.diagrams[lab]
        x = {h: m.data for h, m in datum.x.items()}
        residual = oracle.moment_map_residual(
            diagram.rank, diagram.edges, v, d, x,
            [m.data for m in datum.p], [m.data for m in datum.q],
        )
        if not moment or any(c != 0 for block in residual for row in block for c in row):
            return f"{op}: moment map residual is not zero (reported {moment})"
        if not any(d):
            if not nilpotent or not oracle.block_matrix_nilpotent(v, x):
                return f"{op}: zero-framing datum is not nilpotent (reported {nilpotent})"
            return None
        self.stats["framed"] += 1
        if not stable:
            return None
        self.stats["stable"] += 1
        self.stats["stratum_calls"] += 1
        if label is None:
            return None if flag else f"{op}: stable datum rejected by the flag (0, D)"
        self.stats["accepted"] += 1
        v_tuple, vt_tuple = label
        if tuple(map(sum, zip(*v_tuple, *vt_tuple))) != tuple(v):
            return f"{op}: stratum label {label} does not sum to v"
        if not flag and (any(v_tuple[0]) or any(vt_tuple[0]) or (ast and any(vt_tuple[1]))):
            return f"{op}: label {label} of the flag (0, D) is not ((0, v - c), (0, c))"
        if basic["dim_quiver_variety"] != self.expected(op):
            return f"{op}: dim M(v, d) = {basic['dim_quiver_variety']}, expected {self.expected(op)}"
        if strata["dim_stratum_flag"] is None:
            return f"{op}: strat_dims ignored the complementary tuple"
        return None

    def layer_metrics(self, untraced):
        s = self.stats
        return {
            "adhm.stable_ratio": s["stable"] / max(1, s["framed"]),
            "adhm.stratum_membership.accept_ratio": s["accepted"] / max(1, s["stratum_calls"]),
        }
