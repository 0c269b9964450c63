"""Smoke test of the benchmark's output checks (perfbench/checks.py) on real
CLI output: they must pass correct output and fail a corrupted copy."""
import json
from pathlib import Path

import pytest

from wignerkit.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def checks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    return checks


def test_check_verify_passes_real_output_and_fails_one_failed_check(checks):
    code, out = checks.call_cli(main, ["verify", "--suite", "schur", "--max-l-x2", "2"])
    ok, reason, deviation = checks.check_verify(code, out)
    assert ok, reason
    assert 0 <= deviation <= 1e-10
    assert out.count('"passed": true') > 1
    ok, reason, _ = checks.check_verify(code, out.replace('"passed": true', '"passed": false', 1))
    assert not ok
    assert "checks failed" in reason


def test_check_dmat_passes_real_output_and_fails_its_negation(checks):
    argv = ["dmat", "--l-x2", "8", "--theta", "0.7", "--phi", "1.2", "--psi", "0.3", "--route", "auto"]
    code, out = checks.call_cli(main, argv)
    record = checks.check_dmat(argv, code, out)
    assert record["ok"] and record["expected"], record["reason"]
    negated = json.loads(out)
    negated["result"]["matrix"] = [[[-re, -im] for re, im in row] for row in negated["result"]["matrix"]]
    record = checks.check_dmat(argv, code, json.dumps(negated))
    assert not record["ok"]
    assert not record["expected"]


def test_auto_passes_the_check_on_both_sides_of_the_trusted_spin(checks):
    # The benchmark trusts the oracle up to its own TRUSTED_MAX_L_X2; auto
    # takes the recurrence for every Euler source, so it passes on both sides
    # of that spin, within 1e-13 of unitary (the oracle's residual at 40 is 1.1e-11).
    for l_x2 in (checks.TRUSTED_MAX_L_X2, checks.TRUSTED_MAX_L_X2 + 1):
        argv = ["dmat", "--l-x2", str(l_x2), "--theta", "0.7", "--phi", "1.2", "--psi", "0.3", "--route", "auto"]
        record = checks.check_dmat(argv, *checks.call_cli(main, argv))
        assert record["ok"] and record["expected"], record["reason"]
        assert record["deviation"] < 1e-13
