"""The README's examples run and say what they print.

The Python quick start runs as written and its commented results hold.
Every `crystal-forge` line of the Command line block runs through
`cli.main` in this process and exits 0, except the two `adhm` lines,
which need a `datum.json` of the reader's own, and `selftest`, which the
acceptance tests run.
"""

import ast
import shlex
from collections import Counter
from pathlib import Path

from crystal_forge.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first fenced `lang` block after the `## heading` line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_quick_start_runs_and_its_comments_hold():
    code = _block("Library quick start", "python")
    ns: dict = {}
    exec(code, ns)
    notes = [line.split("#", 1) for line in code.splitlines() if "#" in line]
    (_, adj_note), (_, dec_note), (mult_code, mult_note) = notes
    assert adj_note.strip() == "8 vertices" and len(ns["adj"]) == 8
    summands = ast.literal_eval(dec_note.strip())
    assert len(summands) == 5
    assert ns["dec"].summands == Counter(summands)
    assert int(mult_note) == 2 == eval(mult_code, ns)


def test_command_line_examples_exit_0(capsys):
    lines = _block("Command line", "sh").replace("\\\n", " ").splitlines()
    ran = []
    for line in lines:
        args = shlex.split(line)[1:]
        if "datum.json" in args or args[0] == "selftest":
            continue
        assert main(args) == 0, line
        out, err = capsys.readouterr()
        assert out and not err, line
        ran.append(args[0])
    assert set(ran) == {"roots", "crystal", "tensor", "decompose", "mult", "branch", "dims", "sl2"}
