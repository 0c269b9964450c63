"""Suite composition in run_suite."""
import copy

from wignerkit import verify
from wignerkit.exactcomb import HalfInt

GRID_FREE_SUITES = (
    "suite_routes",
    "suite_unitarity",
    "suite_homomorphism",
    "suite_jacobi_orth",
    "suite_legendre",
    "suite_krawtchouk_sym",
    "identity_checks",
)


def test_all_builds_one_grid_for_schur_and_character(monkeypatch):
    max_l = HalfInt(3)
    alone = {name: verify.run_suite(name, max_l, 0)["checks"] for name in ("schur", "character")}
    for name in GRID_FREE_SUITES:
        monkeypatch.setattr(verify, name, lambda *args, name=name: {"suite": name, "checks": []})
    build_grid = verify.build_grid
    grids = []

    def counting_build_grid(*args, **kwargs):
        grids.append(build_grid(*args, **kwargs))
        return grids[-1]

    monkeypatch.setattr(verify, "build_grid", counting_build_grid)
    report = verify.run_suite("all", max_l, 0)
    assert len(grids) == 1
    assert sorted(grids[0]._matrices) == list(range(max_l.twice + 1))
    expected = [
        {**chk, "check": f"{name}: {chk['check']}"} for name in ("schur", "character") for chk in alone[name]
    ]
    assert report["checks"] == expected
    assert report["passed"]


def test_all_runs_krawtchouk_sym_once(monkeypatch):
    suite = verify.suite_krawtchouk_sym
    calls = []

    def counting():
        calls.append(1)
        return suite()

    monkeypatch.setattr(verify, "suite_krawtchouk_sym", counting)
    checks = {chk["check"]: chk for chk in verify.run_suite("all", HalfInt(0), 0)["checks"]}
    assert len(calls) == 1
    own = checks["krawtchouk-sym: index-reflection identity"]
    again = checks["identities: krawtchouk index reflection"]
    assert {**own, "check": None} == {**again, "check": None}


def test_identity_checks_leave_the_krawtchouk_report_as_it_was():
    report = verify.suite_krawtchouk_sym()
    before = copy.deepcopy(report)
    checks = verify.identity_checks(0, report)["checks"]
    assert report == before
    assert [chk["check"] for chk in checks].count("krawtchouk index reflection") == 1
