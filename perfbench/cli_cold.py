"""The cli-cold workload: one `python -m crystal_forge.cli` process per request.

Every request pays interpreter start, package import and a cold reference
cache, as a command-line user does.  Requests run one at a time.  Each
answer is compared with the same question asked of the library in this
process, with the independent oracle where one applies, and with the
first answer to the same request (identical requests must print identical
bytes).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from statistics import median
from time import perf_counter

from . import oracle
from .spans import SPAN_MARK, Recorder
from .workloads import ROOT, SRC, Workload, import_program, module

CHILD = ROOT / "perfbench" / "cli_child.py"
COMMANDS = ("mult", "decompose", "crystal", "branch", "dims", "adhm_check", "adhm_stratum")
IMPORT_MODULES = (
    "crystal_forge", "dynkin", "crystal", "paths", "decompose", "sl2",
    "dimensions", "linalg", "adhm", "selftest", "cli",
)
TIMEOUT_S = 60


def _fractions_json(rows):
    return [[[c.numerator, c.denominator] for c in row] for row in rows]


def datum_json(datum, flag=None) -> dict:
    """The interchange format `crystal-forge adhm` reads."""
    payload = {
        "diagram": datum.diagram.label,
        "v": list(datum.v),
        "d": list(datum.d),
        "x": {f"{s}->{t}": _fractions_json(m.data) for (s, t), m in sorted(datum.x.items())},
        "p": [_fractions_json(m.data) for m in datum.p],
        "q": [_fractions_json(m.data) for m in datum.q],
    }
    if flag is not None:
        payload["flag"] = [
            [
                [[[c.numerator, c.denominator] for c in space.column(k)] for k in range(space.cols)]
                for space in step
            ]
            for step in flag.steps
        ]
    return payload


class CliCold(Workload):
    name = "cli-cold"
    # The requests are the same for every seed, which draws the ADHM data and the order.
    REQUESTS = (
        ("mult", "A2", ((2, 1), (1, 2)), (1, 1)),
        ("mult", "A3", ((1, 1, 0), (0, 1, 1)), (1, 0, 1)),
        ("decompose", "A2", ((2, 1), (1, 1))),
        ("decompose", "A3", ((1, 0, 1), (0, 1, 0))),
        ("crystal", "A2", (3, 2)),
        ("crystal", "D4", (1, 0, 1, 0)),
        ("branch", "A3", (1, 1, 1), (0, 1)),
        ("branch", "D4", (0, 1, 0, 0), (0, 1, 2)),
        ("dims", "A2", (2, 1), (1, 1)),
        ("dims", "D4", (1, 1, 0, 1), (1, 2, 1, 1)),
    )

    def setup(self):
        cf = self.cf = import_program()
        rng = self.rng
        self.tmp = ROOT / ".perfbench_tmp" / f"{self.name}-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.recorder: Recorder | None = None
        self.import_ms: list[float] = []
        self.first_stdout: dict = {}
        self.diagrams = {lab: cf.parse_diagram(lab) for lab in ("A2", "A3", "D4")}
        self.ops = list(self.REQUESTS)
        for r in range(2):
            self.ops.append(("adhm_check", self._write_datum(f"check{r}", stable=False)))
            self.ops.append(("adhm_stratum", self._write_datum(f"stratum{r}", stable=True)))
        rng.shuffle(self.ops)
        # warm the bytecode cache once, as an installed package would have it
        self._spawn([sys.executable, "-c", "import crystal_forge.cli"])

    def _write_datum(self, stem: str, stable: bool) -> str:
        """Write a random preprojective datum (stable, with a flag, if asked)."""
        cf, adhm, linalg, rng = self.cf, module("adhm"), module("linalg"), self.rng
        diagram = self.diagrams["A3"]
        v, d = (1, 2, 1), (2, 1, 2)
        for _ in range(100):
            datum = cf.random_preprojective(diagram, v, d, rng.randrange(2**32))
            if not stable or cf.is_stable(datum):
                break
        else:
            raise RuntimeError(f"no stable datum for v={v}, d={d} in 100 draws")
        flag = None
        if stable:
            vec = (rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2)))
            first = adhm.zero_graded(d)
            first = (linalg.span([vec], d[0]),) + first[1:]
            flag = adhm.GradedFlag(diagram, d, (first, adhm.full_graded(d)))
        path = self.tmp / f"{stem}.json"
        path.write_text(json.dumps(datum_json(datum, flag)), encoding="utf-8")
        return str(path)

    @staticmethod
    def argv(op) -> list[str]:
        def w(t):
            return ",".join(map(str, t))

        kind = op[0]
        if kind == "mult":
            return ["mult", "--diagram", op[1], "--target", w(op[3]), "--factors", *map(w, op[2])]
        if kind == "decompose":
            return ["decompose", "--diagram", op[1], "--factors", *map(w, op[2])]
        if kind == "crystal":
            return ["crystal", "--diagram", op[1], "--hw", w(op[2]), "--format", "json"]
        if kind == "branch":
            return ["branch", "--diagram", op[1], "--hw", w(op[2]), "--keep", w(op[3])]
        if kind == "dims":
            return ["dims", "--diagram", op[1], "--d", w(op[2]), "--v", w(op[3])]
        return ["adhm", kind.split("_")[1], op[1]]

    @contextmanager
    def traced(self, recorder):
        """Run requests through cli_child.py, merging its spans into `recorder`."""
        self.recorder = recorder
        try:
            yield
        finally:
            self.recorder = None

    def _spawn(self, cmd):
        return subprocess.run(cmd, env=self.env, capture_output=True, timeout=TIMEOUT_S, cwd=ROOT)

    def run(self, op):
        args = self.argv(op)
        if self.recorder is None:
            return self._spawn([sys.executable, "-m", "crystal_forge.cli", *args])
        proc = self._spawn([sys.executable, str(CHILD), *args])
        lines = proc.stderr.decode().splitlines()
        if lines and lines[-1].startswith(SPAN_MARK):
            trace = json.loads(lines[-1][len(SPAN_MARK):])
            self.recorder.merge(trace)
            self.import_ms.append(trace["import_ms"])
            proc.stderr = "\n".join(lines[:-1]).encode()
        return proc

    def reference(self, op):
        """The library's answer in this process, and the oracle's where one applies."""
        cf = self.cf
        kind = op[0]
        if kind in ("mult", "decompose"):
            lab, factors = op[1], op[2]
            diagram = self.diagrams[lab]
            system = oracle.RootSystem(diagram.cartan)
            peeled = system.peel(oracle.character_product(system.character(f) for f in factors))
            if kind == "mult":
                return cf.multiplicity(diagram, op[3], factors), peeled[op[3]]
            product = cf.tensor_many(cf.build_crystal(diagram, f) for f in factors)
            return Counter(cf.decompose(product).summands), peeled, len(product)
        if kind == "crystal":
            diagram = self.diagrams[op[1]]
            payload = cf.build_crystal(diagram, op[2]).to_json_dict()
            return payload, oracle.RootSystem(diagram.cartan).character(op[2])
        if kind == "branch":
            diagram = self.diagrams[op[1]]
            dec, sub = cf.branch(cf.build_crystal(diagram, op[2]), op[3])
            full = oracle.RootSystem(diagram.cartan).character(op[2])
            subsystem = oracle.RootSystem(oracle.sub_cartan(diagram.cartan, op[3]))
            return Counter(dec.summands), sub.label, subsystem.peel(oracle.restrict(full, op[3]))
        if kind == "dims":
            diagram = self.diagrams[op[1]]
            basic = cf.basic_dims(diagram, op[2], op[3])
            basic = {k: list(val) if isinstance(val, tuple) else val for k, val in basic.items()}
            return basic, oracle.quiver_variety_dim(diagram.cartan, op[2], op[3])
        datum, flag = module("adhm").datum_from_json_file(op[1])
        if kind == "adhm_check":
            diagram = datum.diagram
            residual = oracle.moment_map_residual(
                diagram.rank, diagram.edges, datum.v, datum.d,
                {h: m.data for h, m in datum.x.items()},
                [m.data for m in datum.p], [m.data for m in datum.q],
            )
            return {
                "preprojective": cf.check_preprojective(datum),
                "stable": cf.is_stable(datum),
                "ast_stable": cf.is_ast_stable(datum),
                "nilpotent": cf.is_nilpotent(datum),
            }, all(c == 0 for block in residual for row in block for c in row)
        return cf.stratum_membership(datum, flag), datum.v

    def check(self, op, proc):
        if proc.returncode != 0:
            return f"{op[0]}: exit {proc.returncode}: {proc.stderr.decode().strip()[-200:]}"
        key = tuple(self.argv(op))
        first = self.first_stdout.setdefault(key, proc.stdout)
        if proc.stdout != first:
            return f"{op[0]}: output differs from the first answer to the same request"
        kind = op[0]
        want = self.expected(op)
        if kind == "mult":
            got = int(proc.stdout)
            return None if got == want[0] == want[1] else f"mult: {got}, library {want[0]}, peeling {want[1]}"
        out = json.loads(proc.stdout)
        if kind == "decompose":
            got = Counter({tuple(s["weight"]): s["mult"] for s in out["summands"]})
            if not got == want[0] == want[1] or len(out["assignment"]) != want[2]:
                return "decompose: summands differ from the library or from peeling"
        elif kind == "crystal":
            if out != want[0] or Counter(tuple(v["wt"]) for v in out["vertices"]) != want[1]:
                return "crystal: JSON differs from the library or from Freudenthal"
        elif kind == "branch":
            got = Counter({tuple(s["weight"]): s["mult"] for s in out["summands"]})
            if not got == want[0] == want[2] or out["subdiagram"] != want[1]:
                return "branch: summands differ from the library or from peeling"
        elif kind == "dims":
            if out["basic"] != want[0] or out["basic"]["dim_quiver_variety"] != want[1]:
                return "dims: basic dimensions differ from the library or from 2<d,v> - <v,Cv>"
        elif kind == "adhm_check":
            got = {k: out[k] for k in want[0]}
            if got != want[0] or not (got["preprojective"] and want[1]):
                return "adhm check: verdicts differ from the library or the residual is not zero"
        else:
            label, v = want
            got = (tuple(map(tuple, out["v_tuple"])), tuple(map(tuple, out["vt_tuple"]))) if out["member"] else None
            if got != label:
                return "adhm stratum: label differs from the library"
            if got is not None and tuple(map(sum, zip(*got[0], *got[1]))) != tuple(v):
                return "adhm stratum: label does not sum to v"
        return None

    def layer_metrics(self, untraced):
        """Interpreter, import and per-command figures; the first two from extra runs."""
        out = {}
        for command in COMMANDS:
            times = [t for t, k in zip(untraced.latencies, untraced.kinds) if k == command]
            out[f"cli.request_ms.{command}"] = median(times) * 1000 if times else 0.0
        runs = [self._timed([sys.executable, "-c", "pass"]) for _ in range(5)]
        out["cli.interpreter_ms"] = median(runs)
        out["cli.import_ms"] = median(self.import_ms) if self.import_ms else 0.0
        self_us = {name: [] for name in IMPORT_MODULES}
        for _ in range(3):
            proc = self._spawn([sys.executable, "-X", "importtime", "-c", "import crystal_forge.cli"])
            seen = dict.fromkeys(IMPORT_MODULES, 0)
            for line in proc.stderr.decode().splitlines():
                m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)$", line)
                name = m.group(2).rsplit(".", 1)[-1] if m else ""
                if m and name in seen and m.group(2).split(".")[0] == "crystal_forge":
                    seen[name] = int(m.group(1))
            for name, us in seen.items():
                self_us[name].append(us)
        for name, values in self_us.items():
            out[f"cli.import.{name}.self_us"] = median(values)
        return out

    def _timed(self, cmd) -> float:
        t0 = perf_counter()
        self._spawn(cmd)
        return (perf_counter() - t0) * 1000

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass
