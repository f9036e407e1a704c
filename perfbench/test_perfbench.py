"""Tests of the benchmark itself: its oracles, its checks and its tracing."""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from collections import Counter

import pytest

from perfbench import oracle
from perfbench.spans import Recorder, instrument, wrapped_names
from perfbench.worker import END_TO_END, PER_LAYER, WORKLOADS, timed_loop
from perfbench.workloads import ROOT, import_program, module

cf = import_program()


def _repo_oracles():
    spec = importlib.util.spec_from_file_location("repo_oracles", ROOT / "tests" / "oracles.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize(
    "label, hw",
    [("A1", (4,)), ("A2", (2, 1)), ("A3", (1, 0, 2)), ("D4", (0, 1, 0, 1)), ("E6", (1, 0, 0, 0, 0, 1))],
)
def test_characters_match_the_test_suite_oracle(label, hw):
    diagram = cf.parse_diagram(label)
    system = oracle.RootSystem(diagram.cartan)
    assert system.character(hw) == +_repo_oracles().freudenthal_character(diagram, hw)
    assert system.dimension(hw) == diagram.weyl_dimension(hw)


def test_peeling_matches_the_test_suite_oracle():
    diagram = cf.parse_diagram("A2")
    system = oracle.RootSystem(diagram.cartan)
    char = oracle.character_product([system.character((1, 1)), system.character((2, 0))])
    assert system.peel(char) == _repo_oracles().peel_character(diagram, char)


def _first_checked(workload, pick, accept):
    """Set up the workload; return the first picked op whose result is accepted and right."""
    workload.setup()
    for op in filter(pick, workload.ops):
        result = workload.run(op)
        if accept(result):
            assert workload.check(op, result) is None
            return op, result
    raise AssertionError("no suitable op")


def _corrupt(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, Counter):
        return value + Counter({next(iter(value)): 1})
    if isinstance(value, dict):
        return dict(value, injected=True)
    if value is None:
        return ((0,), (0,))
    return (_corrupt(value[0]),) + tuple(value[1:])


def _small(op):
    return cf.parse_diagram(op[0]).weyl_dimension(op[1]) < 100


def _anything(_):
    return True


@pytest.mark.parametrize(
    "name, pick, accept",
    [
        ("crystal-build", _small, _anything),
        ("tensor-decompose", lambda op: op[0] == "multiplicity", _anything),
        ("tensor-decompose", lambda op: op[0] == "branch", _anything),
        ("adhm-strata", _anything, lambda result: result[5] is not None),
        ("cli-cold", lambda op: op[0] == "crystal", _anything),
        ("cli-cold", lambda op: op[0] == "adhm_stratum", _anything),
    ],
)
def test_a_wrong_expected_value_is_detected(name, pick, accept):
    workload = WORKLOADS[name](seed=3)
    try:
        op, result = _first_checked(workload, pick, accept)
        workload._expected[op] = _corrupt(workload.expected(op))
        assert workload.check(op, result) is not None
        workload.ops = [op]
        loop = timed_loop(workload, 1e-6)
        assert len(loop.errors) == len(loop.latencies) == 1
    finally:
        workload.close()


def _namespaces():
    return {
        (mod.__name__, name): value
        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "crystal_forge"]
        for name, value in vars(mod).items()
    } | {("CrystalGraph", "to_json_dict"): cf.CrystalGraph.__dict__["to_json_dict"]}


def test_an_untraced_run_after_a_traced_one_is_unwrapped():
    workload = WORKLOADS["tensor-decompose"](seed=5)
    workload.setup()
    workload.ops = [next(op for op in workload.ops if op[0] == kind) for kind in ("decompose", "multiplicity")]
    module("decompose")._reference_cache.clear()
    before = _namespaces()
    recorder = Recorder()
    with workload.traced(recorder):
        assert "crystal_forge.decompose.build_crystal" in wrapped_names()
        traced = timed_loop(workload, 1e-6)
    assert not traced.errors
    # cold references are built under decompose, found through decompose's namespace
    assert recorder.counts["decompose.reference_builds"] > 0
    assert recorder.calls("decompose.decompose") == 1
    assert recorder.self_s("decompose.decompose") <= recorder.spans["decompose.decompose"][1]
    assert wrapped_names() == []
    assert _namespaces() == before
    calls = recorder.calls("crystal.tensor")
    untraced = timed_loop(workload, 1e-6)
    assert not untraced.errors
    assert recorder.calls("crystal.tensor") == calls


def test_spans_nest_across_linalg_and_adhm():
    workload = WORKLOADS["adhm-strata"](seed=1)
    workload.setup()
    recorder = Recorder()
    with instrument(recorder):
        for op in workload.ops[:6]:
            assert workload.check(op, workload.run(op)) is None
    assert recorder.calls("adhm.random_preprojective") == 6
    assert recorder.calls("linalg.rref") > 6
    assert recorder.counts["linalg.rref.cells"] > 0
    total_self = sum(s[2] for s in recorder.spans.values())
    top = recorder.spans["adhm.random_preprojective"][1] + recorder.spans["adhm.is_stable"][1]
    assert total_self >= top * 0.99
    assert wrapped_names() == []


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adhm-strata", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
