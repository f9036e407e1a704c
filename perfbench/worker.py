"""Run one workload in a process of its own and print its figures as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

`run.py` starts this; a process per workload keeps one workload's
reference cache and peak RSS out of another's figures.  Set-up time runs
from the start of this script: importing crystal-forge, building the
inputs and the untimed warm-up pass.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median, quantiles  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.cli_cold import COMMANDS, IMPORT_MODULES, CliCold  # noqa: E402
from perfbench.probe import PROBE_EVERY_S, SpeedTrace  # noqa: E402
from perfbench.spans import Recorder  # noqa: E402
from perfbench.workloads import ADHMStrata, CrystalBuild, TensorDecompose  # noqa: E402

WORKLOADS = {w.name: w for w in (CrystalBuild, TensorDecompose, ADHMStrata, CliCold)}

# name, unit, better
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Per traced operation unless the unit says otherwise.
_SPAN_LAYERS = (
    ("paths.build_crystal", ("calls", "self_s")),
    ("crystal.tensor", ("calls", "self_s")),
    ("crystal.verify_axioms", ("self_s",)),
    ("crystal.to_json_dict", ("self_s",)),
    ("decompose.decompose", ("calls", "self_s")),
    ("decompose.multiplicity", ("calls", "self_s")),
    ("decompose.branch", ("self_s",)),
    ("linalg.rref", ("calls", "self_s")),
    ("linalg.matmul", ("calls", "self_s")),
    ("adhm.random_preprojective", ("self_s",)),
    ("adhm.check_preprojective", ("self_s",)),
    ("adhm.closure", ("self_s",)),
    ("adhm.core", ("self_s",)),
    ("adhm.is_nilpotent", ("self_s",)),
    ("adhm.stratum_membership", ("calls", "self_s")),
    ("dimensions.strat_dims", ("calls", "self_s")),
    ("dimensions.basic_dims", ("self_s",)),
)
_COUNTS = (
    "paths.build_crystal.vertices",
    "crystal.tensor.pairs",
    "decompose.multiplicity.tensor_pairs",
    "decompose.reference_builds",
    "linalg.rref.cells",
)
PER_LAYER = (
    tuple(
        (f"{span}.{what}", "count/op" if what == "calls" else "s/op", "lower")
        for span, whats in _SPAN_LAYERS
        for what in whats
    )
    + tuple((name, "count/op", "lower") for name in _COUNTS)
    + (
        ("paths.build_crystal.vertices_per_s", "1/s", "higher"),
        ("paths.payload.denominator_lcm_max", "count", "lower"),
        ("paths.payload.segments_max", "count", "lower"),
        ("decompose.reference_cache.size", "count", "lower"),
        ("linalg.self_s", "s/op", "lower"),
        ("adhm.stratum_membership.accept_ratio", "ratio", "higher"),
        ("adhm.stable_ratio", "ratio", "higher"),
        ("cli.interpreter_ms", "ms", "lower"),
        ("cli.import_ms", "ms", "lower"),
    )
    + tuple((f"cli.request_ms.{c}", "ms", "lower") for c in COMMANDS)
    + tuple((f"cli.import.{m}.self_us", "us", "lower") for m in IMPORT_MODULES)
    + (
        ("trace.ops", "count", "higher"),
        ("trace.ops_per_s_untraced", "1/s", "higher"),
        ("trace.ops_per_s_traced", "1/s", "higher"),
        ("trace.overhead_pct", "%", "lower"),
    )
)


@dataclass
class Loop:
    starts: list = field(default_factory=list)  # perf_counter() at each op's start
    latencies: list = field(default_factory=list)  # raw seconds per operation
    kinds: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    speed: SpeedTrace = field(default_factory=SpeedTrace)

    def calibrated(self) -> list[float]:
        """Each operation's time divided by the machine's speed factor around it."""
        return [
            lat / self.speed.factor(start, start + lat)
            for start, lat in zip(self.starts, self.latencies)
        ]

    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.calibrated()) if self.latencies else 0.0


def timed_loop(workload, seconds: float, timer: bool = False, speed: SpeedTrace | None = None) -> Loop:
    """Run whole cycles of the op list until `seconds` of operation time are spent.

    Only `run` is timed, less any probe a timer signal ran inside it
    (`timer`; see probe.py), else the probe runs between operations.  Each
    result is checked right after its call, untimed.  Whole cycles give
    every op the same number of samples; the wall-clock cap bounds the run
    if checking is slow.
    """
    loop = Loop(speed=speed or SpeedTrace())
    busy = 0.0
    last_probe = perf_counter()
    deadline = last_probe + 3 * seconds + 10
    loop.speed.sample()
    with loop.speed.sampling() if timer else nullcontext():
        while busy < seconds and perf_counter() < deadline:
            for op in workload.ops:
                now = perf_counter()
                if now > deadline:
                    break
                if not timer and now - last_probe >= PROBE_EVERY_S:
                    loop.speed.sample()
                    last_probe = perf_counter()
                t0 = perf_counter()
                try:
                    result = workload.run(op)
                    error = None
                except Exception as exc:  # a failing operation is a counted error
                    error = f"{op!r}: {type(exc).__name__}: {exc}"
                t1 = perf_counter()
                dt = t1 - t0 - (loop.speed.inside(t0, t1) if timer else 0.0)
                busy += dt
                loop.starts.append(t0)
                loop.latencies.append(dt)
                loop.kinds.append(workload.kind(op))
                if error is None:
                    try:
                        error = workload.check(op, result)
                    except Exception as exc:  # an answer the check cannot read is wrong
                        error = f"{op!r}: check raised {type(exc).__name__}: {exc}"
                if error:
                    loop.errors.append(error)
    loop.speed.sample()
    return loop


def _latency_figures(seconds: list[float]) -> dict:
    ms = sorted(x * 1000 for x in seconds)
    p90 = quantiles(ms, n=10, method="inclusive")[-1] if len(ms) > 1 else ms[0]
    return {
        "ops_per_s": len(ms) * 1000 / sum(ms),
        "op_p50_ms": median(ms),
        "op_p90_ms": p90,
        "samples": len(ms),
        "p90_tail_samples": sum(1 for x in ms if x > p90),
    }


def end_to_end(loop: Loop, ops_per_cycle: int) -> dict:
    """Figures from calibrated times; the raw ones ride along."""
    out = _latency_figures(loop.calibrated())
    out["cycles"] = len(loop.latencies) / ops_per_cycle
    out["speed_factor"] = loop.speed.overall()
    out["raw"] = _latency_figures(loop.latencies)
    return out


def per_layer(recorder: Recorder, traced: Loop, untraced: Loop, workload) -> dict:
    n = max(1, len(traced.latencies))
    out = {}
    for span, whats in _SPAN_LAYERS:
        out[f"{span}.calls"] = recorder.calls(span) / n
        out[f"{span}.self_s"] = recorder.self_s(span) / n
    for name in _COUNTS:
        out[name] = recorder.counts[name] / n
    build_s = recorder.self_s("paths.build_crystal")
    out["paths.build_crystal.vertices_per_s"] = (
        recorder.counts["paths.build_crystal.vertices"] / build_s if build_s else 0.0
    )
    out["linalg.self_s"] = sum(s[2] for k, s in recorder.spans.items() if k.startswith("linalg.")) / n
    out["decompose.reference_cache.size"] = recorder.counts["decompose.reference_cache.size"] / n
    out.update(workload.layer_metrics(untraced))
    untraced_rate, traced_rate = untraced.ops_per_s(), traced.ops_per_s()
    out["trace.ops"] = len(traced.latencies)
    out["trace.ops_per_s_untraced"] = untraced_rate
    out["trace.ops_per_s_traced"] = traced_rate
    out["trace.overhead_pct"] = (1 - traced_rate / untraced_rate) * 100 if untraced_rate else 0.0
    return {name: out.get(name, 0.0) for name, _, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    warm_errors = []
    try:
        workload.setup()
        for op in workload.warm_ops:
            try:
                workload.run(op)
            except Exception as exc:  # counted below as a failed operation
                warm_errors.append(f"warm-up {op!r}: {type(exc).__name__}: {exc}")
        setup_raw_s = perf_counter() - T_START
        speed = SpeedTrace()
        speed.sample(5)
        result = {"setup_s": setup_raw_s / speed.overall(), "setup_raw_s": setup_raw_s}
        if args.setup_only:
            print(json.dumps(result))
            return 0
        timer = workload.probe_during_ops
        if args.trace:
            untraced = timed_loop(workload, args.seconds / 2, timer)
            speed = SpeedTrace()
            recorder = Recorder(speed if timer else None)
            with workload.traced(recorder):
                workload.collect_layer_stats = True
                traced = timed_loop(workload, args.seconds / 2, timer, speed)
            result["per_layer"] = per_layer(recorder, traced, untraced, workload)
            loops = [untraced, traced]
        else:
            loops = [timed_loop(workload, args.seconds, timer)]
            result.update(end_to_end(loops[0], len(workload.ops)))
    finally:
        workload.close()
    who = resource.RUSAGE_CHILDREN if isinstance(workload, CliCold) else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    result["attempted"] = sum(len(lp.latencies) for lp in loops) + len(warm_errors)
    errors = warm_errors + [e for lp in loops for e in lp.errors]
    result["failed"] = len(errors)
    result["errors"] = errors[:5]
    result["mix"] = dict(Counter(k for lp in loops for k in lp.kinds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
