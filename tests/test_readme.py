"""The README's examples run and say what they print.

The Python quick start runs as written and its commented results hold.
Every `crystal-forge` line of the Command line block runs through
`cli.main` in this process and exits 0, except `selftest`, which the
acceptance tests run; the two `adhm` lines read the README's ADHM input
example as their `datum.json`.
"""

import ast
import json
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


def _command_lines() -> list[list[str]]:
    """The Command line block's argument lists, continuation lines joined."""
    lines = _block("Command line", "sh").replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines]


def test_command_line_examples_exit_0(capsys):
    ran = []
    for args in _command_lines():
        if "datum.json" in args or args[0] == "selftest":
            continue
        assert main(args) == 0, args
        out, err = capsys.readouterr()
        assert out and not err, args
        ran.append(args[0])
    assert set(ran) == {"roots", "crystal", "tensor", "decompose", "mult", "branch", "dims", "sl2"}


def test_adhm_lines_run_on_the_readme_datum(tmp_path, capsys):
    datum = tmp_path / "datum.json"
    datum.write_text(_block("Command line", "json"))
    lines = [args for args in _command_lines() if "datum.json" in args]
    assert [args[:2] for args in lines] == [["adhm", "check"], ["adhm", "stratum"]]
    printed = []
    for args in lines:
        assert main([str(datum) if a == "datum.json" else a for a in args]) == 0, args
        out, err = capsys.readouterr()
        assert not err, args
        printed.append(json.loads(out))
    check, stratum = printed
    assert [check[k] for k in ("preprojective", "stable", "ast_stable", "nilpotent")] == [True] * 4
    assert stratum["member"] is True
    assert (stratum["v_tuple"], stratum["vt_tuple"]) == ([[0], [0]], [[0], [1]])
