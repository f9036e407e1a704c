"""Benchmark entry point: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of crystal-forge; it times the
code in that checkout's src/.  With --trace 0 the last line of stdout
carries every end-to-end metric; with --trace 1 it carries the per-layer
metrics of a traced run and the tracing overhead.  The line before it is
a fuller report: provenance, error rate, sample counts and the op mix.
Exits 2, printing no result, when the checkout has no src/crystal_forge.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from hashlib import sha256
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.worker import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3  # set-up runs per result, each in a fresh process; setup_s is their median
DEADLINE_S = 170  # the whole run must end within this


def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(ROOT / ".git" / ref)
    if direct:
        return direct
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def src_digest() -> str:
    """Hash of the program's sources, which names the code even outside git."""
    h = sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def cpu_max() -> str | None:
    """The cgroup CPU quota, read (never written) from cgroup v2 or v1."""
    candidates = []
    for line in (_read("/proc/self/cgroup") or "").splitlines():
        if line.startswith("0::"):
            candidates.append(f"/sys/fs/cgroup{line[3:].rstrip('/')}/cpu.max")
    candidates.append("/sys/fs/cgroup/cpu.max")
    for path in candidates:
        value = _read(path)
        if value:
            return value
    quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    return f"{quota} {period}" if quota and period else None


def provenance(seed: int) -> dict:
    loadavg = _read("/proc/loadavg")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
        "loadavg": loadavg.split()[:3] if loadavg else None,
        "cpu_max": cpu_max(),
    }


def worker(args, deadline: float, *extra) -> dict:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), *extra,
    ]
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - perf_counter())
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "crystal_forge" / "__init__.py").is_file():
        print(f"error: no crystal-forge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    report["provenance"] = provenance(args.seed)
    deadline = start + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            setups = [worker(args, deadline, "--setup-only") for _ in range(SETUP_SAMPLES - 1)]
        result = worker(args, deadline, "--seconds", str(args.seconds), "--trace", str(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result)

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        values = dict(result, setup_s=median(r["setup_s"] for r in setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
        for key in ("samples", "p90_tail_samples", "cycles", "speed_factor", "raw"):
            report[key] = result[key]
        report["setup_samples_s"] = [r["setup_s"] for r in setups]
        report["raw"]["setup_s"] = median(r["setup_raw_s"] for r in setups)
    report["error_rate"] = failed / attempted
    report["mix"] = result["mix"]
    report["errors"] = result["errors"]
    report["wall_s"] = perf_counter() - start
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
