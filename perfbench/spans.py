"""Span recorder for the traced run.

`instrument(recorder)` wraps the public functions of crystal-forge's
layers under every name a caller looks them up by: a function is replaced
in each loaded `crystal_forge` module whose namespace binds it (the
defining module, modules that imported it by name such as `decompose`,
`adhm` and `cli`, and the package itself).  Every wrapped name is restored
when the block exits.

Spans are aggregated as they close, so memory stays flat however many
calls a run makes: per span name the recorder keeps the call count, the
total time and the self time (total minus the time of direct child spans),
plus the layer counts below.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# Prefix of the stderr line on which a traced CLI child reports its spans.
SPAN_MARK = "perfbench-spans "

# (module, attribute) of each function that gets a span; the span name is
# "<module>.<attribute>".
FUNCTIONS = (
    ("paths", "build_crystal"),
    ("crystal", "tensor"),
    ("crystal", "tensor_many"),
    ("crystal", "verify_axioms"),
    ("decompose", "decompose"),
    ("decompose", "multiplicity"),
    ("decompose", "branch"),
    ("linalg", "rref"),
    ("linalg", "matmul"),
    ("linalg", "kernel"),
    ("linalg", "column_space"),
    ("linalg", "image_of"),
    ("linalg", "intersect"),
    ("linalg", "preimage"),
    ("linalg", "subspace_sum"),
    ("linalg", "contains"),
    ("adhm", "random_preprojective"),
    ("adhm", "check_preprojective"),
    ("adhm", "is_stable"),
    ("adhm", "is_ast_stable"),
    ("adhm", "is_nilpotent"),
    ("adhm", "closure"),
    ("adhm", "core"),
    ("adhm", "stratum_membership"),
    ("dimensions", "strat_dims"),
    ("dimensions", "basic_dims"),
)
# (module, class, method) wrapped on the class itself.
METHODS = (("crystal", "CrystalGraph", "to_json_dict"),)

_DECOMPOSERS = {"decompose.decompose", "decompose.multiplicity", "decompose.branch"}


class Recorder:
    """Aggregated spans and layer counts of one traced run."""

    def __init__(self, speed=None):
        self.speed = speed  # a probe.SpeedTrace whose timer probes are taken out of spans
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # open spans: [name, child_s]

    def span(self, name: str, fn):
        stack = self._stack
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        measure = _MEASURES.get(name)
        speed = self.speed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0 - (speed.inside(t0, t1) if speed is not None else 0.0)
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if measure is not None:
                measure(self.counts, stack, args, result)
            return result

        wrapper.perfbench_span = name
        return wrapper

    def merge(self, other: dict) -> None:
        """Add the `to_json()` form of another recorder (a child process's)."""
        for name, (calls, total, self_s) in other["spans"].items():
            stats = self.spans.setdefault(name, [0, 0.0, 0.0])
            stats[0] += calls
            stats[1] += total
            stats[2] += self_s
        self.counts.update(other["counts"])

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[2]


def _under(stack, names) -> bool:
    return any(frame[0] in names for frame in stack)


def _measure_build(counts, stack, args, result):
    counts["paths.build_crystal.vertices"] += len(result)
    if _under(stack, _DECOMPOSERS):
        counts["decompose.reference_builds"] += 1


def _measure_tensor(counts, stack, args, result):
    pairs = len(args[0]) * len(args[1])
    counts["crystal.tensor.pairs"] += pairs
    if _under(stack, ("decompose.multiplicity",)):
        counts["decompose.multiplicity.tensor_pairs"] += pairs


def _measure_rref(counts, stack, args, result):
    counts["linalg.rref.cells"] += args[0].rows * args[0].cols


_MEASURES = {
    "paths.build_crystal": _measure_build,
    "crystal.tensor": _measure_tensor,
    "linalg.rref": _measure_rref,
}


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "crystal_forge" or name.startswith("crystal_forge."))
    ]


@contextmanager
def instrument(recorder: Recorder):
    """Route every lookup of the traced functions through `recorder`."""
    modules = _package_modules()
    restore: list[tuple[object, str, object]] = []
    try:
        for mod_name, attr in FUNCTIONS:
            original = getattr(sys.modules[f"crystal_forge.{mod_name}"], attr)
            wrapped = recorder.span(f"{mod_name}.{attr}", original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        restore.append((mod, name, original))
                        setattr(mod, name, wrapped)
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"crystal_forge.{mod_name}"], cls_name)
            original = cls.__dict__[attr]
            restore.append((cls, attr, original))
            setattr(cls, attr, recorder.span(f"{mod_name}.{attr}", original))
        yield recorder
    finally:
        for owner, name, original in reversed(restore):
            setattr(owner, name, original)


def wrapped_names() -> list[str]:
    """Names in crystal_forge modules that still point at a span wrapper."""
    out = []
    for mod in _package_modules():
        for name, value in vars(mod).items():
            if hasattr(value, "perfbench_span"):
                out.append(f"{mod.__name__}.{name}")
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    if hasattr(member, "perfbench_span"):
                        out.append(f"{mod.__name__}.{name}.{attr}")
    return sorted(out)
