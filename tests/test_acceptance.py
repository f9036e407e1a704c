"""Acceptance gate: run every criterion at its stated tolerance.

The criteria live in crystal_forge.selftest (the CLI selftest runs the
same registry); here each one becomes a test that prints its pass/fail
line.  The report is computed once per session.
"""

import hashlib
import json

import pytest

from crystal_forge import selftest
from crystal_forge.crystal import CrystalGraph
from crystal_forge.dynkin import vadd
from crystal_forge.selftest import CRITERIA, report_to_json, run_criteria


@pytest.fixture(scope="module")
def report():
    results = run_criteria()
    return {r.cid: r for r in results}


@pytest.mark.parametrize("cid,name", [(cid, name) for cid, name, _, _ in CRITERIA])
def test_criterion(report, cid, name):
    result = report[cid]
    status = "PASS" if result.passed else "FAIL"
    print(f"{cid} {name}: {status} ({result.seconds:.2f}s) {result.details}")
    assert result.passed, f"{cid} {name}: {result.details}"


# sha256 of json.dumps(report, sort_keys=True) for the default seed, with
# each criterion's wall-clock "seconds" dropped: every verdict and detail
# line of `selftest --format json`
REPORT_SHA256 = "352840c351886b7bcd94ca0c753c2427ffd2187d2ae4b9f791722a9a5c84b60b"


def test_report_is_pinned(report):
    data = report_to_json([report[cid] for cid, _, _, _ in CRITERIA])
    for criterion in data["criteria"]:
        del criterion["seconds"]
    text = json.dumps(data, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256


def _tensor_with_flipped_rule(left, right):
    """Tensor with the signature comparison inverted: a planted fault that
    the axiom check must catch."""
    diagram = left.diagram
    nr = len(right)
    weights = [vadd(wa, wb) for wa in left.weights for wb in right.weights]
    f_maps = [{} for _ in range(diagram.rank)]
    for i in range(diagram.rank):
        for a in range(len(left)):
            for b in range(nr):
                if left.phi(a, i) < right.epsilon(b, i):  # inverted on purpose
                    fa = left.f(i, a)
                    if fa is not None:
                        f_maps[i][a * nr + b] = fa * nr + b
                else:
                    fb = right.f(i, b)
                    if fb is not None:
                        f_maps[i][a * nr + b] = a * nr + fb
    return CrystalGraph(diagram, weights, f_maps)


def test_injected_tensor_fault_is_detected(monkeypatch):
    # c3 records its tensor square before decomposing it; c5 must reject it
    monkeypatch.setattr(selftest, "tensor", _tensor_with_flipped_rule)
    results = {r.cid: r for r in run_criteria(only={"c3", "c5"})}
    c5 = results["c5"]
    assert not c5.passed
    assert c5.details.startswith("tensor #0:")


def test_a_passing_criterion_over_its_budget_fails(monkeypatch):
    # any measured time is above a budget of 0 s, so no sleep is needed
    monkeypatch.setattr(selftest, "CRITERIA", (("c0", "instant", 0, lambda ctx: (True, "done")),))
    [result] = run_criteria()
    assert (result.cid, result.passed) == ("c0", False)
    assert result.seconds > 0
    assert result.details == f"exceeded budget of 0s ({result.seconds:.2f}s); done"
