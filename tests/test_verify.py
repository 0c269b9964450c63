"""Suite composition in run_suite, and the one reducer every check goes
through."""
import copy
import json
import math
import random
import time
from collections import Counter

import numpy as np
import pytest

from wignerkit import haar, specfun, verify, wigner
from wignerkit.cli import main
from wignerkit.exactcomb import HalfInt, spins_up_to
from wignerkit.group import Mat2C, from_euler, sample_haar
from wignerkit.wigner import ROTATION_ROUTES

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


def test_character_suite_builds_the_largest_stack_first(monkeypatch):
    # As schur_checks does, so that a stack's build meets the fewest other
    # stacks: at --max-l-x2 12 the suite peaked at 158 MB, smallest first.
    max_l = HalfInt(4)
    want = verify.suite_character(max_l, haar.build_grid(max_l))
    expand, built = haar._oracle_expand, []

    def recording(l, powers):
        built.append(l.twice)
        return expand(l, powers)

    monkeypatch.setattr(haar, "_oracle_expand", recording)
    assert verify.suite_character(max_l, haar.build_grid(max_l)) == want
    assert built == list(range(max_l.twice, -1, -1))


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


def test_krawtchouk_sym_computes_each_value_once(monkeypatch):
    # (N - n, N - x) runs over the grid of (n, x): 852 values, which the
    # suite used to compute twice each.
    report = verify.suite_krawtchouk_sym()
    calls = Counter()

    def counting(*case):
        calls[case] += 1
        return specfun.krawtchouk(*case)

    monkeypatch.setattr(verify, "krawtchouk", counting)
    assert verify.suite_krawtchouk_sym() == report
    assert (sum(calls.values()), max(calls.values())) == (852, 1)


def test_identity_checks_leave_the_krawtchouk_report_as_it_was():
    report = verify.suite_krawtchouk_sym()
    before = copy.deepcopy(report)
    checks = verify.identity_checks(0, report)["checks"]
    assert report == before
    assert [chk["check"] for chk in checks].count("krawtchouk index reflection") == 1


def test_check_counts_its_deviations_and_keeps_the_worst():
    assert verify._check("c", iter([0.1, 0.3, 0.2]), 0.5) == {
        "check": "c",
        "max_deviation": 0.3,
        "tolerance": 0.5,
        "count": 3,
        "passed": True,
    }
    assert verify._check("c", [], 0.5) == {**verify._check("c", [0.0], 0.5), "count": 0}
    assert verify._check("c", [0.7], 0.5, count=12)["count"] == 12
    assert not verify._check("c", [0.1, 0.7], 0.5)["passed"]


def test_a_nan_deviation_fails_its_check():
    report = verify._check("c", [0.1, math.nan, 0.2], 1.0)
    assert report["max_deviation"] is None and report["count"] == 3
    assert report["passed"] is False
    for bad in (math.inf, -math.inf):
        assert verify._check("c", [0.1, bad], 1.0) == {**report, "count": 2}


def test_check_reduces_an_array():
    assert verify._check("c", np.array([]), 0.5) == {
        "check": "c",
        "max_deviation": 0.0,
        "tolerance": 0.5,
        "count": 0,
        "passed": True,
    }
    report = verify._check("c", np.array([0.1, 0.3, 0.2]), 0.5)
    assert report["max_deviation"] == 0.3 and type(report["max_deviation"]) is float
    assert report["count"] == 3 and type(report["count"]) is int and report["passed"]
    for bad in (math.nan, math.inf, -math.inf):
        report = verify._check("c", np.array([0.1, bad, 0.2]), 1.0)
        assert report["max_deviation"] is None and report["count"] == 3
        assert report["passed"] is False
    # a given count still wins, as the Schur checks pass one deviation for many integrals
    assert verify._check("c", np.array([0.7]), 0.5, count=12)["count"] == 12


def test_magnitudes_are_abs_of_a_complex_bit_for_bit():
    # libm's hypot, as abs(complex) takes it, over normal, subnormal and huge parts.
    rng = np.random.default_rng(21)
    scales = rng.choice([1.0, 1e-3, 1e-300, 1e-310, 5e-324, 1e300, 0.0], size=(2, 10**5))
    parts = rng.normal(size=(2, 10**5)) * scales
    z = np.empty(10**5, dtype=complex)
    z.real, z.imag = parts
    assert (np.abs(parts) < 1e-308).any(axis=1).all() and (np.abs(parts) > 1e300).any(axis=1).all()
    got = haar.magnitudes(z)
    want = np.array([abs(v) for v in z.tolist()])
    assert got.dtype == float and got.tobytes() == want.tobytes()


def filled(value):
    # A stand-in by-spin element stack builder whose every entry is value (a real stack holds only finite ones).
    return lambda spins, elements: [np.full((len(elements), l.twice + 1, l.twice + 1), value) for l in spins]


def test_nan_2f1_entries_fail_the_routes_suite(monkeypatch, capsys):
    monkeypatch.setattr(verify, "hyp_matrices_by_spin", filled(complex(math.nan, math.nan)))
    report = verify.run_suite("routes", HalfInt(2), 0)
    checks = {chk["check"]: chk for chk in report["checks"]}
    assert checks["terminating-2f1-vs-oracle"]["max_deviation"] is None
    assert not checks["terminating-2f1-vs-oracle"]["passed"]
    assert checks["finite-sum-vs-oracle"]["passed"] and not report["passed"]
    # The CLI prints null and exits 1.
    assert main(["verify", "--suite", "routes", "--max-l-x2", "2"]) == 1
    printed = json.loads(capsys.readouterr().out)["result"]["checks"]
    assert next(c for c in printed if c["check"] == "terminating-2f1-vs-oracle")["max_deviation"] is None


def test_a_failing_run_prints_strict_json(monkeypatch, capsys):
    # NaN, Infinity and -Infinity are not JSON; a strict parser refuses them.
    monkeypatch.setattr(verify, "hyp_matrices_by_spin", filled(complex(math.inf, 0.0)))
    assert main(["verify", "--suite", "routes", "--max-l-x2", "1"]) == 1

    def refuse(constant):
        raise ValueError(f"non-JSON constant {constant}")

    printed = json.loads(capsys.readouterr().out, parse_constant=refuse)["result"]["checks"]
    assert next(c for c in printed if c["check"] == "terminating-2f1-vs-oracle")["max_deviation"] is None


def test_a_nan_oracle_fails_unitarity(monkeypatch):
    def nan_stacks(spins, a, b, c, d):
        return [np.full((len(a), l.twice + 1, l.twice + 1), math.nan + 0j) for l in spins]

    monkeypatch.setattr(verify, "oracle_stack_by_spin", nan_stacks)
    (check,) = verify.suite_unitarity(HalfInt(1), 0)["checks"]
    assert check["max_deviation"] is None and not check["passed"]
    assert check["count"] == 2 * 50


def test_routes_suite_builds_each_oracle_reference_once(monkeypatch):
    # Each (spin, element) once, in two oracle_stack_by_spin calls over every
    # spin: the samples and the Euler triples of the chart forms.
    seed, max_l = 0, HalfInt(2)
    oracle_stack_by_spin = verify.oracle_stack_by_spin
    calls, stacks = Counter(), Counter()

    def counting(spins, a, b, c, d):
        calls.update((l.twice, Mat2C(*entries)) for l in spins for entries in zip(a, b, c, d))
        stacks[tuple(l.twice for l in spins)] += 1
        return oracle_stack_by_spin(spins, a, b, c, d)

    monkeypatch.setattr(verify, "oracle_stack_by_spin", counting)
    verify.suite_routes(max_l, seed)
    elements = [
        *sample_haar(seed, 20),
        *verify.sample_gl2(seed + 1, 10),
        *(from_euler(angles) for angles in verify.routes_triples(seed)),
    ]
    assert calls == Counter((l.twice, A) for l in spins_up_to(max_l) for A in elements)
    assert stacks == Counter({tuple(l.twice for l in spins_up_to(max_l)): 2})


def test_routes_suite_checks_the_symmetric_2f1_form_on_the_2f1_domain(monkeypatch):
    # One set of 2F1 tables per element for each 2F1 form, at the largest spin,
    # not one per spin or per entry.
    calls = Counter()

    def counting(A, l2):
        calls[l2] += 1
        return wigner._hyp_tables(A, l2)

    for form in ("_HYP", "_HYP_SYMMETRIC"):
        monkeypatch.setattr(wigner, form, (counting, *getattr(wigner, form)[1:]))
    checks = {chk["check"]: chk for chk in verify.suite_routes(HalfInt(4), 2)["checks"]}
    symmetric = checks["terminating-2f1-symmetric-vs-oracle"]
    assert symmetric["count"] == checks["terminating-2f1-vs-oracle"]["count"] > 0
    assert symmetric["tolerance"] == 1e-9 and symmetric["passed"]
    assert calls == Counter({4: 2 * 30})


def test_routes_suite_checks_every_entry_of_each_element_matrix():
    # 30 samples, (2l+1)^2 entries each at every spin: 4,200 up to l_x2 6.
    checks = {chk["check"]: chk for chk in verify.suite_routes(HalfInt(6), 3)["checks"]}
    names = ["finite-sum-vs-oracle", "terminating-2f1-vs-oracle", "terminating-2f1-symmetric-vs-oracle",
             "jacobi-vs-oracle"]
    assert [checks[name]["count"] for name in names] == [4200] * 4
    assert all(checks[name]["passed"] for name in names)


def test_routes_suite_checks_each_chart_form_at_20_triples():
    max_l = HalfInt(3)
    checks = {chk["check"]: chk for chk in verify.suite_routes(max_l, 1)["checks"]}
    charts = [name for name in checks if name.endswith("-chart-vs-oracle")]
    assert charts == [f"{route}-chart-vs-oracle" for route in ROTATION_ROUTES]
    for name in charts:
        assert checks[name]["count"] == 20 * sum((l2 + 1) ** 2 for l2 in range(max_l.twice + 1))
        assert checks[name]["tolerance"] == 1e-9 and checks[name]["passed"]


def reflection_check(seed=0):
    checks = verify.identity_checks(seed, verify.suite_krawtchouk_sym())["checks"]
    return next(chk for chk in checks if chk["check"] == "jacobi reflection")


def test_the_reflection_check_reads_both_sides_of_one_array():
    # P_n^(al,be)(-x) and (-1)^n P_n^(be,al)(x) are one exact rational, rounded once.
    assert reflection_check() == {
        "check": "jacobi reflection", "max_deviation": 0.0, "tolerance": 1e-10, "count": 11319, "passed": True
    }


def test_the_reflection_check_fails_on_one_perturbed_row(monkeypatch):
    # Row (2, 3, 4) gains 1 at every node and row (3, 2, 4) does not, so the
    # two sides, read from one array, no longer agree.
    rows = specfun._jacobi_coeffs_cached

    def perturbed(alpha, beta, n):
        nums, den = rows(alpha, beta, n)
        return ((nums[0] + den, *nums[1:]), den) if (alpha, beta, n) == (2, 3, 4) else (nums, den)

    monkeypatch.setattr(specfun, "_jacobi_coeffs_cached", perturbed)
    check = reflection_check()
    assert check["count"] == 11319 and not check["passed"] and check["max_deviation"] > 0.1


def test_sample_gl2_refuses_a_determinant_bound_no_draw_meets():
    # |ad - bc| <= 2 for entries in the unit disc, so a draw loop would never end.
    for min_det in (2, 2.5, math.inf):
        with pytest.raises(ValueError, match="never met"):
            verify.sample_gl2(0, 1, min_det=min_det)
    assert len(verify.sample_gl2(0, 3, min_det=1.0)) == 3


def test_sample_gl2_gives_up_on_a_determinant_bound_too_rare_to_meet():
    # Near 2 a met draw takes seconds to minutes to find; the call gives up
    # after verify._MAX_REJECTED rejected draws in a row instead.
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"min_det=1\.95 is too rare to sample"):
        verify.sample_gl2(0, 1, min_det=1.95)
    assert time.perf_counter() - start < 1.0


def test_sample_gl2_draws_the_same_samples_under_the_rejection_cap():
    # The cap leaves the bounds that the suites ask for (1e-2, and 0.3 for
    # sample_unimodular) far from it: these samples are the ones that the same
    # draws, re then im for each candidate entry, give without it.
    def uncapped(seed, count, min_det):
        rng = random.Random(seed)
        out = []
        while len(out) < count:
            entries = []
            while len(entries) < 4:
                re, im = rng.uniform(-1, 1), rng.uniform(-1, 1)
                if re * re + im * im <= 1:
                    entries.append(complex(re, im))
            A = Mat2C(*entries)
            if abs(A.det()) >= min_det and abs(A.b) >= 1e-2 and abs(A.c) >= 1e-2:
                out.append(A)
        return out

    for min_det in (1e-2, 0.3):
        for seed in range(10):
            assert verify.sample_gl2(seed, 50, min_det) == uncapped(seed, 50, min_det)
