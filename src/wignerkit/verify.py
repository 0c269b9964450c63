"""Named verification suites behind the `verify` command.

Each suite runs a family of seeded numerical checks and reports the worst
deviation per check against a pinned tolerance.  Reports are plain dicts so
the CLI can serialize them as-is; nothing time- or environment-dependent goes
into a report, which keeps the output byte-reproducible for a fixed seed.
Each set of oracle references is one oracle_stack call per spin.
"""
from __future__ import annotations

import cmath
import math
from itertools import product

import numpy as np

from .exactcomb import HalfInt, pochhammer, spin_range, spins_up_to
from .group import EulerAngles, Mat2C, from_euler, multiply, sample_haar
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
from .specfun import JacobiParams, hyp2f1, jacobi_complex, jacobi_eval, jacobi_norm, jacobi_values, krawtchouk
from .wigner import (
    ROTATION_ROUTES,
    SYMMETRIES,
    hyp_matrix,
    hyp_symmetric_matrix,
    jacobi_matrix,
    oracle_stack,
    sum_matrix,
)

__all__ = ["SUITE_NAMES", "run_suite", "sample_gl2", "sample_unimodular", "max_norm"]


def max_norm(entries) -> float:
    return float(np.max(np.abs(entries)))


def _norms(S) -> np.ndarray:
    # max_norm of each matrix of a stack
    return np.max(np.abs(S), axis=(1, 2))


def _products(X, Y) -> np.ndarray:
    # The product X[s] Y[s] of each pair, no BLAS call, each entry summed in one fixed order on contiguous copies.
    return (np.ascontiguousarray(X)[:, :, :, None] * np.ascontiguousarray(Y)[:, None, :, :]).sum(axis=2)


def _stack(l: HalfInt, elements) -> np.ndarray:
    # The oracle matrices of t^l at the elements, shape (len(elements), 2l+1, 2l+1).
    return oracle_stack(l, *([getattr(A, x) for A in elements] for x in "abcd"))


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


def _check(name: str, deviations, tolerance: float, count: int | None = None) -> dict:
    """The report of one check: its worst deviation against the tolerance.

    The worst of no deviations is 0.0.  A NaN or infinite deviation makes
    the worst None (null in JSON), which fails.  The count is the number of
    deviations unless one is given.
    """
    deviations = list(deviations)
    worst = float(max(deviations, default=0.0)) if np.isfinite(deviations).all() else None
    return {
        "check": name,
        "max_deviation": worst,
        "tolerance": tolerance,
        "count": len(deviations) if count is None else count,
        "passed": worst is not None and worst <= tolerance,
    }


def _relative(lhs, rhs) -> float:
    # |lhs - rhs| relative to |lhs|, and absolute where |lhs| < 1.
    return abs(lhs - rhs) / max(1.0, abs(lhs))


def suite_routes(max_l: HalfInt, seed: int) -> dict:
    """Closed-form routes against the polynomial-expansion oracle: each whole
    element matrix at the samples, which lie inside every element form's
    domain, and each chart form at Euler triples."""
    samples = sample_haar(seed, 20) + sample_gl2(seed + 1, 10)
    rng = np.random.default_rng(seed + 2)
    triples = [
        EulerAngles(t, p, q)
        for t, p, q in zip(
            rng.uniform(0, math.pi / 2, 20),
            rng.uniform(0, 2 * math.pi, 20),
            rng.uniform(0, 2 * math.pi, 20),
        )
    ]
    spins = spins_up_to(max_l)

    def references(elements):
        # Per spin, (entries in row-major order, max-norm) of the oracle at each
        # element: each reference is built once and shared by every route against it.
        stacks = (_stack(l, elements) for l in spins)
        return [[(T.ravel().tolist(), scale) for T, scale in zip(S, _norms(S).tolist())] for S in stacks]

    at_samples = references(samples)
    at_triples = references([from_euler(angles) for angles in triples])

    def entrywise(pairs, scale):
        return (abs(value - target) / scale for value, target in pairs)

    def element_form(build):
        for l, refs in zip(spins, at_samples):
            for A, (target, scale) in zip(samples, refs):
                yield from entrywise(zip(build(l, A).entries.ravel().tolist(), target), scale)

    def chart_form(route):
        for l, refs in zip(spins, at_triples):
            for matrix, (target, scale) in zip(route(l, triples), refs):
                yield from entrywise(zip(matrix.ravel().tolist(), target), scale)

    checks = [
        _check("finite-sum-vs-oracle", element_form(sum_matrix), 1e-10),
        _check("terminating-2f1-vs-oracle", element_form(hyp_matrix), 1e-9),
        _check("terminating-2f1-symmetric-vs-oracle", element_form(hyp_symmetric_matrix), 1e-9),
        _check("jacobi-vs-oracle", element_form(jacobi_matrix), 1e-9),
        *(_check(f"{name}-chart-vs-oracle", chart_form(route), 1e-9) for name, route in ROTATION_ROUTES.items()),
    ]
    return {"suite": "routes", "checks": checks}


def suite_unitarity(max_l: HalfInt, seed: int) -> dict:
    samples = sample_haar(seed, 50)

    def deviations():
        for l in spins_up_to(max_l):
            S = _stack(l, samples)
            yield from _norms(_products(S, S.conj().transpose(0, 2, 1)) - np.eye(l.twice + 1)).tolist()

    return {"suite": "unitarity", "checks": [_check("t(g) t(g)* = I on SU(2)", deviations(), 1e-10)]}


def suite_homomorphism(max_l: HalfInt, seed: int) -> dict:
    samples = sample_haar(seed, 100)
    products = [multiply(A, B) for A, B in zip(samples[:50], samples[50:])]

    def deviations():
        for l in spins_up_to(max_l):
            expected = _products(_stack(l, samples[:50]), _stack(l, samples[50:]))
            yield from (_norms(_stack(l, products) - expected) / _norms(expected)).tolist()

    return {"suite": "homomorphism", "checks": [_check("t(AB) = t(A) t(B)", deviations(), 1e-9)]}


def suite_schur(max_l: HalfInt, grid: HaarGrid | None = None) -> dict:
    grid = build_grid(max_l) if grid is None else grid
    checks = [_check("normalization integral of 1", [abs(pairwise_sum(grid.weights) - 1.0)], 1e-13)]
    spins = spins_up_to(max_l)
    for i, l in enumerate(spins):
        for l_prime in spins[i:]:
            report = schur_check(grid, l, l_prime)
            checks.append(
                _check(f"orthogonality l={l} vs l'={l_prime}", [report.max_deviation], 1e-10, report.checked)
            )
    return {"suite": "schur", "checks": checks}


def suite_character(max_l: HalfInt, grid: HaarGrid | None = None) -> dict:
    grid = build_grid(max_l) if grid is None else grid
    checks = [
        _check(f"character norm l={l}", [abs(character_norm(grid, l) - 1.0)], 1e-10) for l in spins_up_to(max_l)
    ]
    return {"suite": "character", "checks": checks}


def suite_jacobi_orth(max_l: HalfInt) -> dict:
    spins = spins_up_to(max_l)

    def same_column():
        for l, l_prime in product(spins, spins):
            if (l - l_prime).twice % 2:
                continue  # no common weight pairs between integer and half-integer spins
            for m, n in product(spin_range(min(l, l_prime)), repeat=2):
                if (m + n).twice >= 0 and (m - n).twice >= 0:
                    yield abs(jacobi_orthogonality_check(l, l_prime, m, n))

    def weighted():
        for al, be in product(range(5), repeat=2):
            x, w = gauss_legendre((2 * 8 + al + be) // 2 + 1)
            weight = (1 - x) ** al * (1 + x) ** be
            values = [jacobi_eval(JacobiParams(al, be, n), x) for n in range(9)]
            for n1 in range(9):
                for n2 in range(n1, 9):
                    integral = float(pairwise_sum(w * values[n1] * values[n2] * weight))
                    yield abs(integral - (jacobi_norm(JacobiParams(al, be, n1)) if n1 == n2 else 0.0))

    return {
        "suite": "jacobi-orth",
        "checks": [
            _check("same-column integrals vs 1/(2l+1)", same_column(), 1e-10),
            _check("weighted jacobi integrals vs closed-form norm", weighted(), 1e-10),
        ],
    }


def suite_legendre(seed: int) -> dict:
    matrices = sample_unimodular(seed, 20)
    central = (
        _relative(jacobi_complex(JacobiParams(0, 0, l), 2 * A.a * A.d - 1), center)
        for l in range(7)
        for A, center in zip(matrices, _stack(HalfInt(2 * l), matrices)[:, l, l].tolist())
    )
    rng = np.random.default_rng(seed + 1)
    angles = [(*rng.uniform(0.05, math.pi - 0.05, 2), rng.uniform(0, 2 * math.pi)) for _ in range(10)]
    return {
        "suite": "legendre",
        "checks": [
            _check("central element vs legendre of 2ad-1", central, 1e-9),
            _check(
                "addition formula",
                (addition_formula_check(l, t1, t2, phi) for t1, t2, phi in angles for l in range(7)),
                1e-9,
            ),
            _check(
                "product formula",
                (abs(legendre_product_check(l, t1, t2, 2 * l + 1)) for t1, t2, _ in angles for l in range(7)),
                1e-10,
            ),
        ],
    }


def suite_krawtchouk_sym() -> dict:
    deviations = (
        _relative(krawtchouk(n, x, p, N), (1 - 1 / p) ** (x + n - N) * krawtchouk(N - n, N - x, p, N))
        for N in range(1, 9)
        for n in range(N + 1)
        for x in range(N + 1)
        for p in (0.3, 0.5, 0.9)
    )
    return {"suite": "krawtchouk-sym", "checks": [_check("index-reflection identity", deviations, 1e-9)]}


def identity_checks(seed: int, krawtchouk_sym: dict) -> dict:
    """Transformation identities: index symmetries, polynomial reflections,
    the 2F1 argument flips and real-rotation row orthogonality; the
    Krawtchouk index reflection is the check of the krawtchouk_sym report."""
    samples = sample_haar(seed, 5) + sample_gl2(seed + 1, 5)

    def index_symmetries():
        # one deviation per entry of each symmetry image
        for l2 in range(1, 5):
            l = HalfInt(l2)
            for A, scale in zip(samples, _norms(_stack(l, samples)).tolist()):
                values = sum_matrix(l, A).entries.tolist()
                for index_map, element_map in SYMMETRIES.values():
                    images = sum_matrix(l, element_map(A)).entries.tolist()
                    for i, j in product(range(l2 + 1), repeat=2):
                        i2, j2 = index_map(l2, i, j)
                        yield abs(values[i][j] - images[i2][j2]) / scale

    def jacobi_reflection():
        # P_n^(al,be)(-x) = (-1)^n P_n^(be,al)(x); each side's 539 polynomials in one jacobi_values call
        xs, triples = np.linspace(-1, 1, 21), list(product(range(7), range(7), range(11)))
        lhs = jacobi_values([JacobiParams(al, be, n) for al, be, n in triples], -xs)
        rhs = jacobi_values([JacobiParams(be, al, n) for al, be, n in triples], xs) * [[(-1) ** n] for *_, n in triples]
        for left, right in zip(lhs.tolist(), rhs.tolist()):
            yield from map(_relative, left, right)

    pfaff = (
        _relative(hyp2f1(-n, b, c, z), (1 - z) ** n * hyp2f1(-n, c - b, c, z / (z - 1)))
        for n, b, c, z in product(range(9), (0.5, 2.0), (1.5, 3.0), (-0.7, -0.2, 0.3))
    )
    # each Pochhammer prefactor is computed once and used at both x
    flip_one = (
        _relative(hyp2f1(-n, b, c, x), pref * hyp2f1(-n, b, b - c - n + 1, 1 - x))
        for n, b, c in product(range(7), (0.5, 2.0), (1.5, 4.0))
        for pref in [float(pochhammer(c - b, n) / pochhammer(c, n))]
        for x in (0.2, 0.8)
    )
    flip_two = (
        _relative(hyp2f1(-n, -m, c, x), pref * hyp2f1(-n, -m, -c - n - m + 1, 1 - x))
        for n, m, c in product(range(7), range(7), (1.5, 4.0))
        for pref in [float(pochhammer(c, m + n) / (pochhammer(c, n) * pochhammer(c, m)))]
        for x in (0.2, 0.8)
    )

    def rotations():
        elements = [from_euler(EulerAngles(theta, 0.0, 0.0)) for theta in (math.pi / 6, math.pi / 3)]
        for l in spins_up_to(HalfInt(6)):
            S = _stack(l, elements)
            yield from _norms(_products(S, S.transpose(0, 2, 1)) - np.eye(l.twice + 1)).tolist()

    checks = [
        _check("index symmetries", index_symmetries(), 1e-10),
        _check("jacobi reflection", jacobi_reflection(), 1e-10),
        _check("pfaff transformation", pfaff, 1e-10),
        _check("terminating argument flip (one integer parameter)", flip_one, 1e-10),
        _check("terminating argument flip (two integer parameters)", flip_two, 1e-10),
        {**krawtchouk_sym["checks"][0], "check": "krawtchouk index reflection"},
        _check("real-rotation row orthogonality", rotations(), 1e-10),
    ]
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


def run_suite(name: str, max_l: HalfInt, seed: int) -> dict:
    """Run one named suite (or all of them) and report pinned-tolerance checks.

    The schur and character suites share one grid, so under "all" each
    matrix stack is built once.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    grid = build_grid(max_l) if name in _GRID_SUITES else None
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
