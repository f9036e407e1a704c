import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import crystal_forge
from crystal_forge import paths
from crystal_forge.adhm import random_preprojective
from crystal_forge.cli import build_parser, main
from crystal_forge.dynkin import parse_diagram


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_json(capsys):
    code, out, err = run_cli(capsys, "roots", "--diagram", "A2")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["schema"] == "crystal-forge/1"
    assert payload["cartan"] == [[2, -1], [-1, 2]]
    assert payload["x_matrix"] == [[0, 1], [1, 0]]


def test_crystal_dot_has_three_nodes(capsys):
    code, out, err = run_cli(
        capsys, "crystal", "--diagram", "A2", "--hw", "1,0", "--format", "dot"
    )
    assert code == 0
    assert out.count("[label=") == 3  # one node statement per vertex
    assert out.count("->") == 2


def test_crystal_rejects_nondominant(capsys):
    code, out, err = run_cli(capsys, "crystal", "--diagram", "A2", "--hw", "-1,0")
    assert code == 1
    assert out == ""
    assert "dominant" in err


def test_crystal_vertex_cap_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "crystal", "--diagram", "A2", "--hw", "3,3", "--max-vertices", "10"
    )
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("command", ["tensor", "decompose"])
def test_product_vertex_cap_exit_code(capsys, command):
    code, out, err = run_cli(
        capsys, command, "--max-vertices", "10", "--diagram", "A2", "--factors", "1,1", "1,1"
    )
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "64 vertices" in err and "cap of 10" in err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_nonpositive_vertex_cap_is_domain_error(capsys, cap):
    code, out, err = run_cli(
        capsys, "crystal", "--diagram", "A2", "--hw", "1,1", "--max-vertices", cap
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "max_vertices must be at least 1" in err


_CAPPED_REQUESTS = {
    "crystal": ("--hw", "1,1"),
    "tensor": ("--factors", "1,1", "1,0"),
    "decompose": ("--factors", "1,1", "1,0"),
    "mult": ("--target", "1,1", "--factors", "1,1", "1,0"),
    "branch": ("--hw", "1,1", "--keep", "0"),
}


@pytest.mark.parametrize("cap", ["0", "-3"])
@pytest.mark.parametrize("command", sorted(_CAPPED_REQUESTS))
def test_nonpositive_vertex_cap_exits_1_on_every_command(capsys, command, cap):
    code, out, err = run_cli(
        capsys, command, "--diagram", "A2", *_CAPPED_REQUESTS[command], "--max-vertices", cap
    )
    assert (code, out) == (1, "")
    assert err == f"error: max_vertices must be at least 1, got {cap}\n"


def test_rank_above_the_bound_exits_1_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "roots", "--diagram", "A100000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "rank 100000" in err and "maximum rank 100" in err


# sha256 of `crystal --format json` stdout: any change to vertex order, edges
# or path payloads shows here.  A2 (30,2) and A3 (3,1,3) have large common
# path denominators (480 and 84, the lcm of the nonzero <hw, root>).
GOLDEN_CRYSTAL_JSON = {
    ("A2", "15,15"): "7deeee475f2c7317e3611019441aa8bd2f9cd5db2bcdedfa2fa42e9d5a91ec48",
    ("A2", "30,2"): "c92bc02cf280ef245c8bb3ac55eacd2bff254cef709cfa7742fea6396ffb2fe0",
    ("A3", "3,1,3"): "e1902fed415d6c9cf0bd67ac0580c98a63399254372179fa265b300bdc7dafe0",
    ("A4", "2,1,1,2"): "2d01c23fe18a5b364ea26761a32709d02d825f1676e6ba257af7361adde878bf",
    ("D4", "2,0,0,2"): "a9b8f7f137f207a2ae50622382ac73fc7e350bbdba8ca8565033f27c3c9c5f3c",
    ("E6", "0,0,0,0,0,2"): "2197e061f64e8877fca7bddfd9fd9b16abfdd6df2598ee174a2949eab0416930",
}


@pytest.mark.parametrize("diagram,hw", sorted(GOLDEN_CRYSTAL_JSON))
def test_crystal_json_is_byte_identical_to_golden(capsys, diagram, hw):
    code, out, err = run_cli(
        capsys, "crystal", "--diagram", diagram, "--hw", hw, "--format", "json"
    )
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_CRYSTAL_JSON[diagram, hw]


# sha256 of `decompose` and `branch` stdout (json): summands, assignment and
# instance ids, which follow increasing source id.
GOLDEN_DECOMPOSE_JSON = {
    ("A2", "1,1 1,1"): "e33149f5525f8e0fdd54afe77ff91e4b21b3142401010dc44fb6e463cb158468",
    ("A2", "3,3 4,2"): "4a67b84a1baedefa1c31c0c169dc5beac6dc37b008f77544f416fc82754d2d7d",
    ("A3", "1,0,1 0,1,0 1,0,0"): "0d22cecbe21730f2e6eabe60228739f20edda534dbd04d964343d62fe68cf6ae",
    ("D4", "1,0,0,0 0,0,1,0 0,0,0,1"): "5b0b49dceb56ad75fafe2f2087f7bfe4aa4c91bccc4cafdb29402bf1984f3c54",
}
GOLDEN_BRANCH_JSON = {
    ("D4", "0,1,0,0", "1,2,3"): "8249692ea0d5b3233536a6af2443e659905bbf0a343aa6f47851a78426641498",
    ("E6", "1,0,0,0,0,1", "0,1,2,3,4"): "77509b0a7210175c82e37aaa0952a145fcf1b8968d5f6bcd730ef5acbaf49155",
}


@pytest.mark.parametrize("diagram,factors", sorted(GOLDEN_DECOMPOSE_JSON))
def test_decompose_json_is_byte_identical_to_golden(capsys, diagram, factors):
    code, out, err = run_cli(
        capsys, "decompose", "--diagram", diagram, "--factors", *factors.split()
    )
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DECOMPOSE_JSON[diagram, factors]


@pytest.mark.parametrize("diagram,hw,keep", sorted(GOLDEN_BRANCH_JSON))
def test_branch_json_is_byte_identical_to_golden(capsys, diagram, hw, keep):
    code, out, err = run_cli(
        capsys, "branch", "--diagram", diagram, "--hw", hw, "--keep", keep
    )
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_BRANCH_JSON[diagram, hw, keep]


# sha256 of the other payload kinds and output formats: `tensor` json
# carries ("pair", a, b) payloads, `sl2 crystal` json carries ("sl2", ...)
# payloads, and `crystal` dot and table carry weights and edges only.
GOLDEN_OTHER_OUTPUTS = {
    ("tensor", "--diagram", "A2", "--factors", "1,0", "0,1", "--format", "json"):
        "1bf7773b7402037ae6715e278f9708d4cb39d66ed3851686d8e5213f796c659e",
    ("tensor", "--diagram", "D4", "--factors", "1,0,0,0", "0,0,1,0", "--format", "json"):
        "732f5b96deb48c796922f482fcb8acf5a3db319263e7f31735fbb271a9e4ba46",
    ("sl2", "crystal", "--d", "5", "--v0", "2", "--format", "json"):
        "04d2247150270465adec9b225fb70a8be8b7ecbcca5e3ed4e59e5bcc691ed2fa",
    ("crystal", "--diagram", "A2", "--hw", "3,2", "--format", "dot"):
        "ddbf0fe39ed3a26b7c69878c95e9924b4ae9a159fe32f682ca51b71fa5204620",
    ("crystal", "--diagram", "A2", "--hw", "3,2", "--format", "table"):
        "a9ec41a6b71e5b4ecf17e9ec44c1bd1c14a4348c42bc35e4625e37f5d12bdf4e",
}


@pytest.mark.parametrize(
    "argv", sorted(GOLDEN_OTHER_OUTPUTS), ids=lambda argv: "_".join(a.lstrip("-") for a in argv)
)
def test_other_outputs_are_byte_identical_to_golden(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_OTHER_OUTPUTS[argv]


def test_mult_prints_bare_count_by_default(capsys):
    code, out, err = run_cli(
        capsys,
        "mult", "--diagram", "A2", "--target", "1,1", "--factors", "1,1", "1,1",
    )
    assert code == 0
    assert out.strip() == "2"


def test_mult_json_payload(capsys):
    code, out, err = run_cli(
        capsys,
        "mult", "--diagram", "A2", "--target", "1,1",
        "--factors", "1,1", "1,1", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["multiplicity"] == 2


def test_decompose_deterministic(capsys):
    args = ("decompose", "--diagram", "A2", "--factors", "1,1", "1,1")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert {"weight": [1, 1], "mult": 2} in payload["summands"]


def test_branch_json(capsys):
    code, out, _ = run_cli(
        capsys, "branch", "--diagram", "A2", "--hw", "1,0", "--keep", "0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["subdiagram"] == "A1"
    assert payload["summands"] == [
        {"weight": [1], "mult": 1},
        {"weight": [0], "mult": 1},
    ]


def test_dims_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "dims", "--diagram", "A2", "--d", "2,0", "--v", "1,0", "--v0", "1,0",
        "--d-tuple", "2,0", "--v-tuple", "1,0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["hw_weight"] == [0, 1]
    assert payload["gprime_weight"] == [[1, 1], [1, 0]]
    assert payload["gprime_integrable"] is True
    assert "dim_tensor_variety" in payload["strata"]


def test_dims_prints_json_only(capsys):
    code, out, err = run_cli(
        capsys, "dims", "--diagram", "A2", "--d", "2,0", "--v", "1,0", "--format", "table"
    )
    assert (code, out) == (1, "")
    # newer Pythons drop the quotes in "(choose from 'json')"
    assert err.startswith("error: argument --format: invalid choice: 'table'")
    assert err.count("\n") == 1 and "json" in err


@pytest.mark.parametrize(
    "option,value", [("--d", "-1,0"), ("--v", "0,-2"), ("--v0", "-1,0")]
)
def test_dims_rejects_negative_dimension_vectors(capsys, option, value):
    argv = {"--d": "2,0", "--v": "1,0", "--v0": "1,0"}
    argv[option] = value
    code, out, err = run_cli(
        capsys, "dims", "--diagram", "A2", *(t for kv in argv.items() for t in kv)
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and option in err and "negative" in err


@pytest.mark.parametrize("command", ["tensor", "decompose", "mult"])
@pytest.mark.parametrize("factors", [("1,1", "-1,1"), ("-1,1", "1,1")])
def test_negative_value_among_several_factors(capsys, command, factors):
    target = ("--target", "0,0") if command == "mult" else ()
    code, out, err = run_cli(
        capsys, command, "--diagram", "A2", *target, "--factors", *factors
    )
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.endswith("weight (-1, 1) is not dominant\n")


def test_dims_negative_value_after_another_tuple_entry(capsys):
    code, out, err = run_cli(
        capsys,
        "dims", "--diagram", "A2", "--d", "2,0", "--v", "1,0",
        "--d-tuple", "1,0", "-1,0", "--v-tuple", "1,0", "0,0",
    )
    assert code == 1 and out == ""
    assert err == (
        "error: argument --d-tuple: dimension vector '-1,0' has a negative "
        "entry; entries must be >= 0\n"
    )


@pytest.mark.parametrize(
    "argv,message",
    [
        (("crystal", "--diagram", "A2", "--hw", "1,1.5"),
         "argument --hw: cannot parse weight '1,1.5'; expected e.g. 1,0,2"),
        (("sl2", "component", "--first", "1,2", "--second", "1,0,0"),
         "argument --first: expected a d,v0,v triple, got '1,2'"),
        (("dims", "--diagram", "A2", "--d", "1,x", "--v", "0,0"),
         "argument --d: cannot parse weight '1,x'; expected e.g. 1,0,2"),
        (("sl2", "range", "--first", "1,2,3", "--second", "1,0"),
         "argument --first: expected a d,v0 pair, got '1,2,3'"),
        (("mult", "--diagram", "A2", "--target", "1,1", "--factors", "1,1", "a,b"),
         "argument --factors: cannot parse weight 'a,b'; expected e.g. 1,0,2"),
    ],
    ids=["crystal-hw", "sl2-component", "dims-d", "sl2-range", "mult-factors"],
)
def test_type_errors_name_the_expected_format(capsys, argv, message):
    # argparse reports a plain ValueError from a type function as
    # "invalid <function name> value", naming a private function
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "options,missing",
    [
        (("--d-tuple", "1,0"), "--d-tuple needs --v-tuple"),
        (("--v-tuple", "0,0"), "--v-tuple needs --d-tuple"),
        (("--vt-tuple", "0,0"), "--vt-tuple needs --d-tuple and --v-tuple"),
        (("--d-tuple", "1,0", "--vt-tuple", "0,0"), "--d-tuple needs --v-tuple"),
        (("--v-tuple", "0,0", "--vt-tuple", "0,0"), "--v-tuple needs --d-tuple"),
    ],
)
def test_dims_tuple_options_come_together(capsys, options, missing):
    # a partial set of tuples used to drop the "strata" block and exit 0
    code, out, err = run_cli(
        capsys, "dims", "--diagram", "A2", "--d", "1,0", "--v", "0,0", *options
    )
    assert (code, out, err) == (1, "", f"error: {missing}\n")


def test_sl2_subcommands(capsys):
    code, out, _ = run_cli(capsys, "sl2", "crystal", "--d", "3", "--v0", "1")
    assert code == 0
    assert len(json.loads(out)["vertices"]) == 2

    code, out, _ = run_cli(
        capsys, "sl2", "component", "--first", "2,0,1", "--second", "2,0,0"
    )
    assert json.loads(out) == {"schema": "crystal-forge/1", "v0": 0, "v": 1}

    code, out, _ = run_cli(capsys, "sl2", "range", "--first", "2,0", "--second", "2,0")
    assert json.loads(out)["v0_range"] == [0, 1, 2]

    code, out, _ = run_cli(
        capsys, "sl2", "nonempty", "--first", "2,0", "--second", "2,0", "--v", "3"
    )
    assert json.loads(out)["nonempty"] is False


@pytest.mark.parametrize("d", ["200000", "3000000"])
def test_sl2_crystal_above_the_vertex_cap_exits_2(capsys, d):
    code, out, err = run_cli(capsys, "sl2", "crystal", "--d", d, "--v0", "0", "--format", "table")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert f"chain of {int(d) + 1} vertices" in err and "vertex cap of 200000" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("sl2", "crystal", "--d", "200000", "--v0", "0"),
            "sl2 chain of 200001 vertices exceeded the vertex cap of 200000",
        ),
        (
            ("crystal", "--diagram", "A2", "--hw", "3,3", "--max-vertices", "10"),
            "crystal for highest weight (3, 3) on A2 exceeded the vertex cap of 10"
            "; pass a larger --max-vertices to override",
        ),
    ],
    ids=["sl2-crystal", "crystal"],
)
def test_vertex_cap_hint_only_where_the_command_has_a_cap_option(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, hw",
    [
        (("crystal", "--diagram", "A2", "--hw", "1000,1000"), "(1000, 1000) on A2"),
        (("branch", "--diagram", "E8", "--hw", "5,5,5,5,5,5,5,5", "--keep", "0"),
         "(5, 5, 5, 5, 5, 5, 5, 5) on E8"),
        (("crystal", "--diagram", "A2", "--hw", "2,2", "--max-vertices", "26"), "(2, 2) on A2"),
    ],
    ids=["crystal", "branch", "one-above"],
)
def test_crystal_above_the_cap_is_refused_before_it_is_built(capsys, monkeypatch, argv, hw):
    def build(*args):
        raise AssertionError("the crystal was built")

    monkeypatch.setattr(paths, "_close", build)
    cap = argv[-1] if "--max-vertices" in argv else "200000"
    assert run_cli(capsys, *argv) == (
        2,
        "",
        f"error: crystal for highest weight {hw} exceeded the vertex cap of {cap}"
        "; pass a larger --max-vertices to override\n",
    )


def test_adhm_check_and_stratum(tmp_path, capsys):
    datum = {
        "diagram": "A1",
        "d": [2],
        "v": [1],
        "x": {},
        "p": [[[[0, 1], [1, 1]]]],
        "q": [[[[1, 1]], [[0, 1]]]],
        "flag": [
            [[[[1, 1], [0, 1]]]],
            [[[[1, 1], [0, 1]], [[0, 1], [1, 1]]]],
        ],
    }
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    code, out, _ = run_cli(capsys, "adhm", "check", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["preprojective"] and payload["stable"] and payload["ast_stable"]

    code, out, _ = run_cli(capsys, "adhm", "stratum", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is True
    assert payload["v_tuple"] == [[0], [0]]
    assert payload["vt_tuple"] == [[0], [1]]


def test_adhm_residual_reported(tmp_path, capsys):
    datum = {
        "diagram": "A1",
        "d": [2],
        "v": [1],
        "x": {},
        "p": [[[[1, 1], [0, 1]]]],
        "q": [[[[1, 1]], [[0, 1]]]],
    }
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    code, out, _ = run_cli(capsys, "adhm", "check", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["preprojective"] is False
    assert payload["residual"] == [[[-1, 1]]]


def _pairs(rows):
    return [[[e.numerator, e.denominator] for e in row] for row in rows]


def _adhm_corpus():
    """Sixty ADHM payloads: 20 sampled data on A1-A3 and D4, the first four
    without framing, each under the flag (0, D), under (a random line, D),
    and as a copy with one entry shifted by 1/k under the flag (0, D)."""
    rng = Random(11)
    corpus = []
    for n in range(20):
        diagram = parse_diagram(("A1", "A2", "A3", "D4")[n % 4])
        v = [rng.randint(0, 2) for _ in range(diagram.rank)]
        d = [0 if n < 4 else rng.randint(0, 2) for _ in range(diagram.rank)]
        datum = random_preprojective(diagram, v, d, rng)
        blocks = {
            **{("x", f"{s}->{t}"): m.data for (s, t), m in sorted(datum.x.items())},
            **{("p", i): m.data for i, m in enumerate(datum.p)},
            **{("q", i): m.data for i, m in enumerate(datum.q)},
        }
        full = [[[[int(r == c), 1] for r in range(n_i)] for c in range(n_i)] for n_i in d]
        zero = [[] for _ in d]
        line = [[] for _ in d]
        framed = [i for i, n_i in enumerate(d) if n_i]
        if framed:
            i = rng.choice(framed)
            vec = [0] * d[i]
            while not any(vec):
                vec = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d[i])]
            line[i] = _pairs([vec])

        def payload(blocks, flag):
            return {
                "diagram": diagram.label,
                "d": d,
                "v": v,
                "x": {h: _pairs(m) for (kind, h), m in blocks.items() if kind == "x"},
                "p": [_pairs(blocks["p", i]) for i in range(diagram.rank)],
                "q": [_pairs(blocks["q", i]) for i in range(diagram.rank)],
                "flag": flag,
            }

        shifted = dict(blocks)
        nonempty = [key for key, m in blocks.items() if m and m[0]]
        if nonempty:
            key = rng.choice(nonempty)
            rows = [list(row) for row in blocks[key]]
            r, c = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
            rows[r][c] += Fraction(1, rng.randint(2, 7))
            shifted[key] = rows
        corpus += [
            payload(blocks, [zero, full]),
            payload(blocks, [line, full]),
            payload(shifted, [zero, full]),
        ]
    return corpus


# sha256 of `adhm check` and `adhm stratum` exit codes and stdout on
# _adhm_corpus(): pins every verdict, residual entry and stratum label
ADHM_CLI_SHA256 = "f352d0543df649de9e83da824d2f7cb4ec3bacf7c2b970a040a61672d60a1bef"


def test_adhm_cli_output_is_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    seen = set()
    for k, payload in enumerate(_adhm_corpus()):
        path = tmp_path / f"datum{k}.json"
        path.write_text(json.dumps(payload))
        for command in ("check", "stratum"):
            code, out, _ = run_cli(capsys, "adhm", command, str(path))
            digest.update(f"{command} {k} {code}\n{out}".encode())
            result = json.loads(out) if code == 0 else {}
            seen.add((command, code, "residual" in result, result.get("member")))
    # the corpus reaches residuals, members, non-members and unstable data
    assert {
        ("check", 0, True, None),
        ("check", 0, False, None),
        ("stratum", 0, False, True),
        ("stratum", 0, False, False),
        ("stratum", 1, False, None),
    } <= seen
    assert digest.hexdigest() == ADHM_CLI_SHA256


def test_adhm_missing_file(capsys):
    code, out, err = run_cli(capsys, "adhm", "check", "/nonexistent/file.json")
    assert code == 1 and out == ""


def test_unknown_flag_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "roots", "--diagram", "A2", "--bogus")
    assert code == 1


def test_selftest_single_criterion(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--only", "c3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["criteria"][0]["id"] == "c3"


def test_selftest_rejects_unknown_criterion(capsys):
    code, out, err = run_cli(capsys, "selftest", "--only", "c99")
    assert code == 1 and out == ""
    assert "unknown criterion" in err


def test_importing_the_cli_does_not_import_selftest():
    src = Path(crystal_forge.__file__).resolve().parent.parent
    code = "import sys, crystal_forge.cli; print('crystal_forge.selftest' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_importing_the_cli_adds_neither_dataclasses_nor_inspect():
    # the difference from the bare interpreter's modules, so that a site
    # hook which preloads some does not count
    src = Path(crystal_forge.__file__).resolve().parent.parent
    code = (
        "import sys; bare = set(sys.modules); import crystal_forge.cli; "
        "print(*sorted(set(sys.modules) - bare))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    added = set(proc.stdout.split())
    assert "crystal_forge.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect"})


def test_selftest_seed_default_is_the_selftest_default():
    from crystal_forge.selftest import SEED_DEFAULT

    assert build_parser().parse_args(["selftest"]).seed == SEED_DEFAULT


def _leaves(parser, name=()):
    """(command words, parser) for every leaf command under parser."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield name, parser
    for group in groups:
        for word, child in group.choices.items():
            yield from _leaves(child, name + (word,))


def test_every_leaf_command_binds_its_handler():
    leaves = dict(_leaves(build_parser()))
    assert len(leaves) == 14
    for name, parser in leaves.items():
        assert callable(parser.get_default("run")), name


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_stdout_is_written_once_and_only_on_success(tmp_path, monkeypatch):
    datum = tmp_path / "datum.json"
    datum.write_text(json.dumps({
        "diagram": "A1", "d": [2], "v": [1], "x": {},
        "p": [[[[0, 1], [1, 1]]]], "q": [[[[1, 1]], [[0, 1]]]],
        "flag": [[[[[1, 1], [0, 1]]]], [[[[1, 1], [0, 1]], [[0, 1], [1, 1]]]]],
    }))
    ok = [
        ("roots", "--diagram", "D4", "--format", "table"),
        ("crystal", "--diagram", "A2", "--hw", "1,1", "--format", "dot"),
        ("tensor", "--diagram", "A2", "--factors", "1,0", "0,1", "--format", "table"),
        ("decompose", "--diagram", "A2", "--factors", "1,1", "1,1"),
        ("mult", "--diagram", "A2", "--target", "1,1", "--factors", "1,1", "1,1"),
        ("branch", "--diagram", "D4", "--hw", "0,1,0,0", "--keep", "1,2,3"),
        ("dims", "--diagram", "A2", "--d", "2,0", "--v", "1,0"),
        ("sl2", "crystal", "--d", "3", "--v0", "1", "--format", "table"),
        ("sl2", "component", "--first", "2,0,1", "--second", "2,0,0"),
        ("sl2", "range", "--first", "2,0", "--second", "2,0"),
        ("sl2", "nonempty", "--first", "2,0", "--second", "2,0", "--v", "3"),
        ("adhm", "check", str(datum)),
        ("adhm", "stratum", str(datum)),
        ("selftest", "--only", "c3"),
    ]
    failing = [
        ("roots", "--diagram", "F4"),
        ("crystal", "--diagram", "A2", "--hw", "-1,0"),
        ("crystal", "--diagram", "A2", "--hw", "9,9", "--max-vertices", "10"),
        ("decompose", "--diagram", "A2", "--factors", "1,1", "1,1", "--max-vertices", "10"),
        ("branch", "--diagram", "A2", "--hw", "1,0", "--keep", "5"),
        ("sl2", "crystal", "--d", "200000", "--v0", "0"),
        ("adhm", "check", "/nonexistent/file.json"),
        ("selftest", "--only", "c99"),
        ("sl2",),
    ]
    covered = {argv[:2] if argv[0] in ("sl2", "adhm") else argv[:1] for argv in ok}
    assert covered == set(dict(_leaves(build_parser())))
    for argv in ok + failing:
        stdout = _CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(list(argv))
        if argv in ok:
            assert (code, stdout.writes) == (0, 1), argv
            assert stdout.getvalue().endswith("\n"), argv
        else:
            assert code in (1, 2) and stdout.writes == 0, argv


@pytest.mark.parametrize(
    "argv, message",
    [
        ((), "the following arguments are required: command"),
        (("frobnicate",), "argument command: invalid choice: 'frobnicate'"),
        (("sl2",), "the following arguments are required: sl2_command"),
        (("adhm", "frob"), "argument adhm_command: invalid choice: 'frob'"),
    ],
    ids=["missing", "unknown", "sl2-missing", "adhm-unknown"],
)
def test_a_missing_or_unknown_command_is_named_by_its_argument(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv", [("-h",), ("--help",), ("crystal", "--help"), ("sl2", "crystal", "-h"), ("adhm", "-h")]
)
def test_help_returns_0_and_is_written_once(monkeypatch, argv):
    stdout = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(list(argv)) == 0
    assert stdout.writes == 1
    assert stdout.getvalue().startswith("usage: crystal-forge")


def test_console_script_help_exits_0():
    src = Path(crystal_forge.__file__).resolve().parent.parent
    code = "from crystal_forge.cli import console_main; console_main()"
    proc = subprocess.run(
        [sys.executable, "-c", code, "-h"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: crystal-forge")
