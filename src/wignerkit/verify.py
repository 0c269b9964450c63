"""Named verification suites behind the `verify` command.

Each suite runs a family of seeded numerical checks and reports the worst
deviation per check against a pinned tolerance.  Reports are plain dicts so
the CLI can serialize them as-is; nothing time- or environment-dependent goes
into a report, which keeps the output byte-reproducible for a fixed seed.
"""
from __future__ import annotations

import cmath
import math
from itertools import chain

import numpy as np

from .exactcomb import HalfInt, pochhammer, spin_range, spins_up_to
from .group import EulerAngles, Mat2C, from_euler, sample_haar
from .haar import (
    HaarGrid,
    addition_formula_check,
    build_grid,
    character_norm,
    gauss_legendre,
    jacobi_orthogonality_check,
    legendre_product_check,
    pairwise_sum,
    schur_check,
)
from .specfun import JacobiParams, hyp2f1, jacobi_complex, jacobi_eval, jacobi_norm, krawtchouk
from .wigner import (
    ROTATION_ROUTES,
    SYMMETRIES,
    RouteUnavailableError,
    dmatrix_euler,
    hyp_entries,
    jacobi_entries,
    oracle_matrix,
    sum_matrix,
)

__all__ = ["SUITE_NAMES", "run_suite", "sample_gl2", "sample_unimodular", "max_norm"]


def max_norm(entries) -> float:
    return float(np.max(np.abs(entries)))


def sample_gl2(seed: int, count: int, min_det: float = 1e-2) -> list[Mat2C]:
    """Random invertible GL(2, C) elements with entries in the unit disc.

    Near-singular draws and draws with a near-zero off-diagonal entry are
    rejected so every closed-form route is comfortably inside its domain.
    """
    rng = np.random.default_rng(seed)
    out: list[Mat2C] = []
    while len(out) < count:
        entries = []
        while len(entries) < 4:
            re, im = rng.uniform(-1, 1, 2)
            if re * re + im * im <= 1:
                entries.append(complex(re, im))
        A = Mat2C(*entries)
        if abs(A.det()) < min_det or abs(A.b) < 1e-2 or abs(A.c) < 1e-2:
            continue
        out.append(A)
    return out


def sample_unimodular(seed: int, count: int) -> list[Mat2C]:
    """Random determinant-one GL(2, C) elements."""
    out = []
    for A in sample_gl2(seed, count, min_det=0.3):
        root = cmath.sqrt(A.det())
        out.append(Mat2C(A.a / root, A.b / root, A.c / root, A.d / root))
    return out


def _check(name: str, max_deviation: float, tolerance: float, count: int) -> dict:
    return {
        "check": name,
        "max_deviation": float(max_deviation),
        "tolerance": tolerance,
        "count": count,
        "passed": bool(max_deviation <= tolerance),
    }


def _theta_of(A: Mat2C) -> float:
    # Recover the chart colatitude of an SU(2) element: |a| = sin(theta).
    return math.asin(min(1.0, abs(A.a)))


def _worst(dev: float, pairs, scale: float) -> float:
    # max(dev, |value - target| / scale) over (value, target) pairs of
    # Python scalars.
    for value, target in pairs:
        dev = max(dev, abs(value - target) / scale)
    return dev


def suite_routes(max_l: HalfInt, seed: int) -> dict:
    """Closed-form routes against the polynomial-expansion oracle, each at
    the samples inside its domain."""
    su2 = sample_haar(seed, 20)
    gl2 = sample_gl2(seed + 1, 10)
    samples = su2 + gl2
    rng = np.random.default_rng(seed + 2)
    triples = [
        EulerAngles(t, p, q)
        for t, p, q in zip(
            rng.uniform(0, math.pi / 2, 10),
            rng.uniform(0, 2 * math.pi, 10),
            rng.uniform(0, 2 * math.pi, 10),
        )
    ]
    thetas = [theta for theta in map(_theta_of, su2) if 0 < theta < math.pi / 2]
    # worst deviation and count per check, in report order
    dev = dict.fromkeys(("finite-sum", "terminating-2f1", "jacobi", "angle-chart", *ROTATION_ROUTES), 0.0)
    count = dict.fromkeys(dev, 0)
    for l in spins_up_to(max_l):
        dim = l.twice + 1
        for A in samples:
            reference = oracle_matrix(l, A)
            scale = max_norm(reference.entries)
            target = reference.entries.tolist()
            values = sum_matrix(l, A).entries.tolist()
            dev["finite-sum"] = _worst(dev["finite-sum"], zip(chain(*values), chain(*target)), scale)
            count["finite-sum"] += dim * dim
            for name, route in (("terminating-2f1", hyp_entries), ("jacobi", jacobi_entries)):
                try:
                    entries = route(l, A)
                except RouteUnavailableError:
                    continue
                dev[name] = _worst(dev[name], ((v, target[i][j]) for (i, j), v in entries.items()), scale)
                count[name] += len(entries)
        for angles in triples:
            reference = oracle_matrix(l, from_euler(angles))
            scale = max_norm(reference.entries)
            deviation = max_norm(dmatrix_euler(l, angles).entries - reference.entries) / scale
            dev["angle-chart"] = max(dev["angle-chart"], deviation)
            count["angle-chart"] += 1
        zero_phase = [oracle_matrix(l, from_euler(EulerAngles(theta, 0.0, 0.0))) for theta in thetas]
        stacks = [(name, route(l, thetas)) for name, route in ROTATION_ROUTES.items()]
        for k, reference in enumerate(zero_phase):
            scale = max_norm(reference.entries)
            target = reference.entries.real.ravel().tolist()
            for name, stack in stacks:
                dev[name] = _worst(dev[name], zip(stack[k].ravel().tolist(), target), scale)
                count[name] += dim * dim
    checks = [
        _check(f"{name}-vs-oracle", dev[name], 1e-10 if name == "finite-sum" else 1e-9, count[name])
        for name in dev
    ]
    return {"suite": "routes", "checks": checks}


def suite_unitarity(max_l: HalfInt, seed: int) -> dict:
    samples = sample_haar(seed, 50)
    dev = 0.0
    count = 0
    for l in spins_up_to(max_l):
        eye = np.eye(l.twice + 1)
        for g in samples:
            T = oracle_matrix(l, g).entries
            dev = max(dev, max_norm(T @ T.conj().T - eye))
            count += 1
    return {"suite": "unitarity", "checks": [_check("t(g) t(g)* = I on SU(2)", dev, 1e-10, count)]}


def suite_homomorphism(max_l: HalfInt, seed: int) -> dict:
    samples = sample_haar(seed, 100)
    pairs = list(zip(samples[:50], samples[50:]))
    dev = 0.0
    count = 0
    for l in spins_up_to(max_l):
        for A, B in pairs:
            AB = Mat2C.from_array(A.as_array() @ B.as_array())
            product = oracle_matrix(l, A).entries @ oracle_matrix(l, B).entries
            dev = max(dev, max_norm(oracle_matrix(l, AB).entries - product) / max_norm(product))
            count += 1
    return {"suite": "homomorphism", "checks": [_check("t(AB) = t(A) t(B)", dev, 1e-9, count)]}


def suite_schur(max_l: HalfInt, grid: HaarGrid | None = None) -> dict:
    grid = build_grid(max_l) if grid is None else grid
    checks = [
        _check(
            "normalization integral of 1",
            abs(pairwise_sum(grid.weights) - 1.0),
            1e-13,
            1,
        )
    ]
    spins = spins_up_to(max_l)
    for i, l in enumerate(spins):
        for l_prime in spins[i:]:
            report = schur_check(grid, l, l_prime)
            checks.append(
                _check(
                    f"orthogonality l={l} vs l'={l_prime}",
                    report.max_deviation,
                    1e-10,
                    report.checked,
                )
            )
    return {"suite": "schur", "checks": checks}


def suite_character(max_l: HalfInt, grid: HaarGrid | None = None) -> dict:
    grid = build_grid(max_l) if grid is None else grid
    checks = [
        _check(f"character norm l={l}", abs(character_norm(grid, l) - 1.0), 1e-10, 1)
        for l in spins_up_to(max_l)
    ]
    return {"suite": "character", "checks": checks}


def suite_jacobi_orth(max_l: HalfInt) -> dict:
    spins = spins_up_to(max_l)
    dev_sub = 0.0
    n_sub = 0
    for l in spins:
        for l_prime in spins:
            if (l - l_prime).twice % 2:
                continue  # no common weight pairs between integer and half-integer spins
            smaller = min(l, l_prime)
            for m in spin_range(smaller):
                for n in spin_range(smaller):
                    if (m + n).twice < 0 or (m - n).twice < 0:
                        continue
                    dev_sub = max(dev_sub, abs(jacobi_orthogonality_check(l, l_prime, m, n)))
                    n_sub += 1
    dev_direct = 0.0
    n_direct = 0
    for al in range(5):
        for be in range(5):
            x, w = gauss_legendre((2 * 8 + al + be) // 2 + 1)
            weight = (1 - x) ** al * (1 + x) ** be
            values = [jacobi_eval(JacobiParams(al, be, n), x) for n in range(9)]
            for n1 in range(9):
                for n2 in range(n1, 9):
                    integral = float(pairwise_sum(w * values[n1] * values[n2] * weight))
                    expected = jacobi_norm(JacobiParams(al, be, n1)) if n1 == n2 else 0.0
                    dev_direct = max(dev_direct, abs(integral - expected))
                    n_direct += 1
    return {
        "suite": "jacobi-orth",
        "checks": [
            _check("same-column integrals vs 1/(2l+1)", dev_sub, 1e-10, n_sub),
            _check("weighted jacobi integrals vs closed-form norm", dev_direct, 1e-10, n_direct),
        ],
    }


def suite_legendre(seed: int) -> dict:
    matrices = sample_unimodular(seed, 20)
    dev_central = 0.0
    n_central = 0
    for l in range(7):
        for A in matrices:
            expected = jacobi_complex(JacobiParams(0, 0, l), 2 * A.a * A.d - 1)
            got = oracle_matrix(HalfInt(2 * l), A).entry(HalfInt(0), HalfInt(0))
            dev_central = max(dev_central, abs(got - expected) / max(1.0, abs(expected)))
            n_central += 1
    rng = np.random.default_rng(seed + 1)
    dev_add = dev_prod = 0.0
    n_add = n_prod = 0
    for _ in range(10):
        t1, t2 = rng.uniform(0.05, math.pi - 0.05, 2)
        phi = rng.uniform(0, 2 * math.pi)
        for l in range(7):
            dev_add = max(dev_add, addition_formula_check(l, t1, t2, phi))
            n_add += 1
            dev_prod = max(dev_prod, abs(legendre_product_check(l, t1, t2, 2 * l + 1)))
            n_prod += 1
    return {
        "suite": "legendre",
        "checks": [
            _check("central element vs legendre of 2ad-1", dev_central, 1e-9, n_central),
            _check("addition formula", dev_add, 1e-9, n_add),
            _check("product formula", dev_prod, 1e-10, n_prod),
        ],
    }


def suite_krawtchouk_sym() -> dict:
    dev = 0.0
    count = 0
    for N in range(1, 9):
        for n in range(N + 1):
            for x in range(N + 1):
                for p in (0.3, 0.5, 0.9):
                    lhs = krawtchouk(n, x, p, N)
                    rhs = (1 - 1 / p) ** (x + n - N) * krawtchouk(N - n, N - x, p, N)
                    dev = max(dev, abs(lhs - rhs) / max(1.0, abs(lhs)))
                    count += 1
    return {
        "suite": "krawtchouk-sym",
        "checks": [_check("index-reflection identity", dev, 1e-9, count)],
    }


def identity_checks(seed: int, krawtchouk_sym: dict) -> dict:
    """Transformation identities: index symmetries, polynomial reflections,
    the 2F1 argument flips and real-rotation row orthogonality; the
    Krawtchouk index reflection is the check of the krawtchouk_sym report."""
    checks = []
    samples = sample_haar(seed, 5) + sample_gl2(seed + 1, 5)
    dev = 0.0
    count = 0
    for l in (HalfInt(1), HalfInt(2), HalfInt(3), HalfInt(4)):
        l2 = l.twice
        for A in samples:
            scale = max_norm(oracle_matrix(l, A).entries)
            values = sum_matrix(l, A).entries.tolist()
            for index_map, element_map in SYMMETRIES.values():
                images = sum_matrix(l, element_map(A)).entries.tolist()
                for i in range(l2 + 1):
                    for j in range(l2 + 1):
                        i2, j2 = index_map(l2, i, j)
                        dev = max(dev, abs(values[i][j] - images[i2][j2]) / scale)
                count += (l2 + 1) ** 2
    checks.append(_check("index symmetries", dev, 1e-10, count))

    dev = 0.0
    count = 0
    xs = np.linspace(-1, 1, 21)
    for al in range(7):
        for be in range(7):
            for n in range(11):
                lhs = jacobi_eval(JacobiParams(al, be, n), -xs).tolist()
                rhs = ((-1) ** n * jacobi_eval(JacobiParams(be, al, n), xs)).tolist()
                for a, b in zip(lhs, rhs):
                    dev = max(dev, abs(a - b) / max(1.0, abs(a)))
                count += len(lhs)
    checks.append(_check("jacobi reflection", dev, 1e-10, count))

    dev = 0.0
    count = 0
    for n in range(9):
        for b in (0.5, 2.0):
            for c in (1.5, 3.0):
                for z in (-0.7, -0.2, 0.3):
                    lhs = hyp2f1(-n, b, c, z)
                    rhs = (1 - z) ** n * hyp2f1(-n, c - b, c, z / (z - 1))
                    dev = max(dev, abs(lhs - rhs) / max(1.0, abs(lhs)))
                    count += 1
    checks.append(_check("pfaff transformation", dev, 1e-10, count))

    dev = 0.0
    count = 0
    for n in range(7):
        for b in (0.5, 2.0):
            for c in (1.5, 4.0):
                for x in (0.2, 0.8):
                    lhs = hyp2f1(-n, b, c, x)
                    ratio = float(pochhammer(c - b, n) / pochhammer(c, n))
                    rhs = ratio * hyp2f1(-n, b, b - c - n + 1, 1 - x)
                    dev = max(dev, abs(lhs - rhs) / max(1.0, abs(lhs)))
                    count += 1
    checks.append(_check("terminating argument flip (one integer parameter)", dev, 1e-10, count))

    dev = 0.0
    count = 0
    for n in range(7):
        for m in range(7):
            for c in (1.5, 4.0):
                for x in (0.2, 0.8):
                    lhs = hyp2f1(-n, -m, c, x)
                    ratio = float(pochhammer(c, m + n) / (pochhammer(c, n) * pochhammer(c, m)))
                    rhs = ratio * hyp2f1(-n, -m, -c - n - m + 1, 1 - x)
                    dev = max(dev, abs(lhs - rhs) / max(1.0, abs(lhs)))
                    count += 1
    checks.append(_check("terminating argument flip (two integer parameters)", dev, 1e-10, count))

    checks.append({**krawtchouk_sym["checks"][0], "check": "krawtchouk index reflection"})

    dev = 0.0
    count = 0
    for l in spins_up_to(HalfInt(6)):
        for theta in (math.pi / 6, math.pi / 3):
            T = oracle_matrix(l, from_euler(EulerAngles(theta, 0.0, 0.0))).entries
            dev = max(dev, max_norm(T @ T.T - np.eye(l.twice + 1)))
            count += 1
    checks.append(_check("real-rotation row orthogonality", dev, 1e-10, count))
    return {"suite": "identities", "checks": checks}


# Every suite in the order "all" runs them, called as run(max_l, seed, grid).
# The lambdas look the suite functions up by name at call time, so a
# replaced suite_* attribute (a test double, a timing wrapper) is what runs.
SUITES = {
    "routes": lambda max_l, seed, grid: suite_routes(max_l, seed),
    "unitarity": lambda max_l, seed, grid: suite_unitarity(max_l, seed),
    "homomorphism": lambda max_l, seed, grid: suite_homomorphism(max_l, seed),
    "schur": lambda max_l, seed, grid: suite_schur(max_l, grid),
    "character": lambda max_l, seed, grid: suite_character(max_l, grid),
    "jacobi-orth": lambda max_l, seed, grid: suite_jacobi_orth(max_l),
    "legendre": lambda max_l, seed, grid: suite_legendre(seed),
    "krawtchouk-sym": lambda max_l, seed, grid: suite_krawtchouk_sym(),
}
SUITE_NAMES = (*SUITES, "all")
# The runs that need a Haar grid; under "all", schur and character share one.
_GRID_SUITES = ("schur", "character", "all")


def run_suite(name: str, max_l: HalfInt, seed: int, grid_overrides: dict | None = None) -> dict:
    """Run one named suite (or all of them) and report pinned-tolerance checks.

    The schur and character suites share one grid, so under "all" each
    matrix stack is built once.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    grid = build_grid(max_l, **(grid_overrides or {})) if name in _GRID_SUITES else None
    if name != "all":
        report = SUITES[name](max_l, seed, grid)
    else:
        parts = {suite: run(max_l, seed, grid) for suite, run in SUITES.items()}
        parts["identities"] = identity_checks(seed, parts["krawtchouk-sym"])
        checks = [
            {**chk, "check": f"{part['suite']}: {chk['check']}"} for part in parts.values() for chk in part["checks"]
        ]
        report = {"suite": "all", "checks": checks}
    report["passed"] = all(chk["passed"] for chk in report["checks"])
    return report
