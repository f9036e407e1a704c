"""Run one crystal-forge CLI request under the span recorder.

    python3 perfbench/cli_child.py <arguments of crystal_forge.cli>

Prints exactly what `python -m crystal_forge.cli <arguments>` prints and
exits with its code, then appends one line to stderr: the span marker and
the recorder's JSON, including how long importing the CLI took.  The
cli-cold workload runs its traced requests through this script so the
same spans apply across the process boundary.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.spans import SPAN_MARK, Recorder, instrument  # noqa: E402


def main(argv) -> int:
    t0 = perf_counter()
    import crystal_forge.cli as cli

    import_ms = (perf_counter() - t0) * 1000
    recorder = Recorder()
    with instrument(recorder):
        code = cli.main(argv)
    cache = sys.modules["crystal_forge.decompose"]._reference_cache
    recorder.counts["decompose.reference_cache.size"] += len(cache)
    sys.stdout.flush()
    trace = recorder.to_json()
    trace["import_ms"] = import_ms
    sys.stderr.write(SPAN_MARK + json.dumps(trace) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
