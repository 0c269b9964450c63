"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Every tolerance below is pinned; runtime budgets are asserted with a wall
clock around the criterion body.
"""
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from wignerkit.exactcomb import HalfInt
from wignerkit.group import sample_haar
from wignerkit.haar import build_grid, character_norm
from wignerkit.verify import (
    identity_checks,
    suite_homomorphism,
    suite_jacobi_orth,
    suite_krawtchouk_sym,
    suite_legendre,
    suite_routes,
    suite_schur,
    suite_unitarity,
)
from wignerkit.wigner import tmn_sum

SRC = str(Path(__file__).resolve().parents[1] / "src")
SEED = 20070124


def report(number, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {label} {detail}".rstrip())
    assert passed, f"criterion {number} failed: {label} {detail}"


def test_criterion_1_route_cross_equality():
    t0 = time.monotonic()
    result = suite_routes(HalfInt(6), SEED)
    elapsed = time.monotonic() - t0
    tolerances = {
        "finite-sum-vs-oracle": 1e-10,
        "terminating-2f1-vs-oracle": 1e-9,
        "terminating-2f1-symmetric-vs-oracle": 1e-9,
        "jacobi-vs-oracle": 1e-9,
        "jacobi-chart-vs-oracle": 1e-9,
        "rodrigues-chart-vs-oracle": 1e-9,
        "krawtchouk-chart-vs-oracle": 1e-9,
        "recurrence-chart-vs-oracle": 1e-9,
    }
    ok = True
    worst = 0.0
    for check in result["checks"]:
        assert check["tolerance"] == tolerances[check["check"]]
        assert check["count"] > 0
        ok = ok and check["passed"]
        worst = max(worst, check["max_deviation"])
    ok = ok and elapsed <= 30.0
    report(1, "route cross-equality for l <= 3 over 20 SU(2) + 10 GL(2,C) samples", ok,
           f"(worst dev {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_representation_axioms():
    t0 = time.monotonic()
    hom = suite_homomorphism(HalfInt(6), SEED)["checks"][0]
    uni = suite_unitarity(HalfInt(6), SEED)["checks"][0]
    elapsed = time.monotonic() - t0
    assert hom["tolerance"] == 1e-9 and hom["count"] == 350  # 50 pairs x 7 spins
    assert uni["tolerance"] == 1e-10 and uni["count"] == 350
    ok = hom["passed"] and uni["passed"] and elapsed <= 10.0
    report(2, "homomorphism and unitarity for l <= 3 over 50 seeded samples", ok,
           f"(hom {hom['max_deviation']:.2e}, uni {uni['max_deviation']:.2e}, {elapsed:.1f}s)")


def test_criterion_3_schur_orthogonality():
    t0 = time.monotonic()
    result = suite_schur(HalfInt(3))
    elapsed = time.monotonic() - t0
    norm_check = result["checks"][0]
    pair_checks = result["checks"][1:]
    assert norm_check["tolerance"] == 1e-13
    assert len(pair_checks) == 10  # unordered pairs of l in {0, 1/2, 1, 3/2}
    ok = all(c["passed"] for c in result["checks"]) and elapsed <= 60.0
    worst = max(c["max_deviation"] for c in pair_checks)
    report(3, "Schur orthogonality for all pairs l, l' <= 3/2 plus normalization", ok,
           f"(worst dev {worst:.2e}, norm dev {norm_check['max_deviation']:.2e}, {elapsed:.1f}s)")


def test_criterion_4_character_norm():
    grid = build_grid(HalfInt(6))
    devs = [abs(character_norm(grid, HalfInt(t)) - 1.0) for t in range(0, 7)]
    ok = max(devs) <= 1e-10
    report(4, "character norm equals 1 for every l <= 3", ok, f"(worst dev {max(devs):.2e})")


def test_criterion_5_jacobi_orthogonality():
    result = suite_jacobi_orth(HalfInt(6))
    sub, direct = result["checks"]
    assert sub["tolerance"] == 1e-10 and direct["tolerance"] == 1e-10
    ok = sub["passed"] and direct["passed"]
    report(5, "weighted Jacobi orthogonality, substituted and direct forms", ok,
           f"(dev {sub['max_deviation']:.2e} / {direct['max_deviation']:.2e})")


def test_criterion_6_identity_suite():
    t0 = time.monotonic()
    result = identity_checks(SEED, suite_krawtchouk_sym())
    elapsed = time.monotonic() - t0
    ok = all(c["passed"] for c in result["checks"]) and elapsed <= 10.0
    worst = max(c["max_deviation"] for c in result["checks"])
    report(6, "index symmetries, reflections, argument flips, row orthogonality", ok,
           f"(worst dev {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_7_legendre_exercises():
    t0 = time.monotonic()
    result = suite_legendre(SEED)
    elapsed = time.monotonic() - t0
    central, addition, product = result["checks"]
    ok = (
        central["max_deviation"] <= 1e-9
        and addition["max_deviation"] <= 1e-9
        and product["max_deviation"] <= 1e-9
        and elapsed <= 10.0
    )
    report(7, "central element as Legendre value; addition and product formulas", ok,
           f"(devs {central['max_deviation']:.2e}/{addition['max_deviation']:.2e}/"
           f"{product['max_deviation']:.2e}, {elapsed:.1f}s)")


def test_criterion_8_monte_carlo_consistency():
    samples = sample_haar(2024, 100_000)
    l, m, n = HalfInt(2), HalfInt(2), HalfInt(0)
    values = np.array([abs(tmn_sum(l, m, n, g)) ** 2 for g in samples])
    mean = float(values.mean())
    sigma = float(values.std(ddof=1)) / math.sqrt(len(values))
    ok = abs(mean - 1 / 3) <= 4 * sigma
    report(8, "Monte-Carlo estimate of the squared (1,0) element of spin 1", ok,
           f"(mean {mean:.6f} vs 1/3, 4 sigma = {4 * sigma:.2e})")


def test_criterion_9_determinism():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    args = [sys.executable, "-m", "wignerkit", "verify",
            "--suite", "routes", "--max-l-x2", "2", "--seed", "123"]
    first = subprocess.run(args, capture_output=True, env=env)
    second = subprocess.run(args, capture_output=True, env=env)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
    )
    report(9, "verify command output is byte-identical across two runs", ok,
           f"({len(first.stdout)} bytes)")
