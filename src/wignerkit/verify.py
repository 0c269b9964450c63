"""Named verification suites behind the `verify` command.

Each suite runs a family of seeded numerical checks and reports the worst
deviation per check against a pinned tolerance.  Reports are plain dicts so
the CLI can serialize them as-is; nothing time- or environment-dependent goes
into a report, which keeps the output byte-reproducible for a fixed seed.

Each set of oracle references is one oracle_stack_by_spin call over every
spin, each route of the routes suite one by-spin call, and every check hands
its deviations to _check as one float64 array: the routes suite compares each
route's stack with the oracle's in one array expression per spin, and the
weighted Jacobi integrals of one (alpha, beta) are one pairwise sum over a
(nodes, pairs) stack.  The weighted family and the Legendre addition and
product formulas each take all their real Jacobi values in one
specfun.jacobi_rows call, every row at its own nodes.  The magnitude of a
complex deviation is libm's hypot of its parts (haar.magnitudes), the
function Python's abs(complex) calls, so the worst deviations are the
floats a per-entry loop gives; so is every entry's magnitude in the
max-norms that scale them (_norms), and haar's Schur and character
reductions take theirs the same way, so no check output depends on numpy's
SIMD complex abs.
"""
from __future__ import annotations

import cmath
import math
from itertools import product

import numpy as np

from .exactcomb import HalfInt, pochhammer_pair, spins_up_to
from .group import EulerAngles, Mat2C, from_euler, multiply, sample_haar, seeded_random
from .haar import (
    HaarGrid,
    build_grid,
    character_norm,
    gauss_legendre,
    legendre_checks,
    magnitudes,
    pairwise_sum,
    schur_checks,
    theta_rule,
)
from .specfun import JacobiParams, hyp2f1, jacobi_complex, jacobi_norm, jacobi_rows, jacobi_values, krawtchouk
from .wigner import (
    ROTATION_STACKS,
    SYMMETRIES,
    chart_phases,
    hyp_matrices_by_spin,
    hyp_symmetric_matrices_by_spin,
    jacobi_matrices_by_spin,
    jacobi_stack_by_spin,
    oracle_stack_by_spin,
    sum_matrices_by_spin,
)

__all__ = ["SUITE_NAMES", "run_suite", "sample_gl2", "sample_unimodular", "max_norm"]


def max_norm(entries) -> float:
    """The largest magnitude of the entries, each libm's hypot of its parts."""
    return float(np.max(magnitudes(entries)))


def _norms(S) -> np.ndarray:
    # max_norm of each matrix of a stack
    return np.max(magnitudes(S), axis=(1, 2))


def _products(X, Y) -> np.ndarray:
    # The product X[s] Y[s] of each pair, no BLAS call, each entry summed in one fixed order on contiguous copies.
    return (np.ascontiguousarray(X)[:, :, :, None] * np.ascontiguousarray(Y)[:, None, :, :]).sum(axis=2)


def _stacks(spins, elements) -> list:
    # The oracle matrices of t at the elements for each of the spins, one
    # stack of shape (len(elements), 2l+1, 2l+1) per spin, from one power table.
    return oracle_stack_by_spin(spins, *([getattr(A, x) for A in elements] for x in "abcd"))


# sample_gl2 gives up after this many rejected draws in a row.  Over 3,000
# seeds of 50 samples the longest run was 1 draw at min_det 1e-2, 6 at 0.3
# and 93 at 1.0; 10,000 draws take about 0.15 s (2-core x86-64).
_MAX_REJECTED = 10_000


def sample_gl2(seed: int, count: int, min_det: float = 1e-2) -> list[Mat2C]:
    """Random invertible GL(2, C) elements with entries in the unit disc.

    Each candidate entry draws re, then im, from seeded_random(seed).

    Near-singular draws and draws with a near-zero off-diagonal entry are
    rejected so every closed-form route is comfortably inside its domain.
    |ad - bc| <= |a| |d| + |b| |c| <= 2 for such entries, so a min_det of 2
    or more, which no draw would meet, is refused with ValueError.  Near 2 a
    draw is met so rarely (one took about 20 s to find at 1.95) that the call
    gives up with ValueError after _MAX_REJECTED rejected draws in a row.
    """
    if min_det >= 2:
        raise ValueError(f"min_det={min_det} is never met: |det| <= 2 for entries in the unit disc")
    rng = seeded_random(seed)
    out: list[Mat2C] = []
    rejected = 0
    while len(out) < count:
        if rejected == _MAX_REJECTED:
            raise ValueError(f"min_det={min_det} is too rare to sample: {rejected} draws in a row were rejected")
        entries = []
        while len(entries) < 4:
            re, im = rng.uniform(-1, 1), rng.uniform(-1, 1)
            if re * re + im * im <= 1:
                entries.append(complex(re, im))
        A = Mat2C(*entries)
        if abs(A.det()) < min_det or abs(A.b) < 1e-2 or abs(A.c) < 1e-2:
            rejected += 1
            continue
        rejected = 0
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

    deviations is a 1-d array of nonnegative floats, or any iterable of
    them.  The worst of no deviations is 0.0.  A NaN or infinite deviation
    makes the worst None (null in JSON), which fails.  The count is the
    number of deviations unless one is given.
    """
    values = np.asarray(deviations if isinstance(deviations, np.ndarray) else list(deviations), dtype=float)
    worst = float(values.max(initial=0.0)) if np.isfinite(values).all() else None
    return {
        "check": name,
        "max_deviation": worst,
        "tolerance": tolerance,
        "count": values.size if count is None else count,
        "passed": worst is not None and worst <= tolerance,
    }


def _relative(lhs, rhs) -> np.ndarray:
    # |lhs - rhs| relative to |lhs|, and absolute where |lhs| < 1, per element.
    lhs = np.asarray(lhs)
    return magnitudes(lhs - np.asarray(rhs)) / np.maximum(1.0, magnitudes(lhs))


def routes_triples(seed: int) -> list[EulerAngles]:
    """The routes suite's 20 Euler triples at its seed: 20 values of theta,
    then 20 of phi, then 20 of psi, from seeded_random(seed + 2)."""
    rng = seeded_random(seed + 2)
    thetas = [rng.uniform(0, math.pi / 2) for _ in range(20)]
    phis = [rng.uniform(0, 2 * math.pi) for _ in range(20)]
    psis = [rng.uniform(0, 2 * math.pi) for _ in range(20)]
    return [EulerAngles(t, p, q) for t, p, q in zip(thetas, phis, psis)]


def legendre_angles(seed: int) -> list[tuple[float, float, float]]:
    """The legendre suite's 10 (theta1, theta2, phi) at its seed, drawn in
    that order triple by triple from seeded_random(seed + 1)."""
    rng = seeded_random(seed + 1)
    return [
        (rng.uniform(0.05, math.pi - 0.05), rng.uniform(0.05, math.pi - 0.05), rng.uniform(0, 2 * math.pi))
        for _ in range(10)
    ]


def suite_routes(max_l: HalfInt, seed: int) -> dict:
    """Closed-form routes against the polynomial-expansion oracle: each whole
    element matrix at the samples, which lie inside every element form's
    domain, and each chart form at Euler triples.  An entry's deviation is
    its distance from the oracle's over the max-norm of the oracle matrix."""
    samples = sample_haar(seed, 20) + sample_gl2(seed + 1, 10)
    triples = routes_triples(seed)
    spins = spins_up_to(max_l)

    def references(elements):
        # Per spin, the oracle stack at the elements and its max-norms, shaped
        # to divide the stack: built once and shared by every route against it.
        return [(S, _norms(S)[:, None, None]) for S in _stacks(spins, elements)]

    at_samples = references(samples)
    at_triples = references([from_euler(angles) for angles in triples])

    def deviations(stacks, refs):
        # One array expression per spin over the whole stack of the route.
        return np.concatenate(
            [(magnitudes(np.asarray(S) - T) / scale).ravel() for S, (T, scale) in zip(stacks, refs)]
        )

    def element_form(build):
        return deviations(build(spins, samples), at_samples)

    # Each chart form's matrices are chart_phases times its d(theta), as the
    # routes of wigner.ROTATION_ROUTES multiply them; the phases are shared.
    thetas, phases = [angles.theta for angles in triples], [chart_phases(l, triples) for l in spins]

    def chart_form(stacks):
        return deviations((P * S for P, S in zip(phases, stacks(spins, thetas))), at_triples)

    checks = [
        _check("finite-sum-vs-oracle", element_form(sum_matrices_by_spin), 1e-10),
        _check("terminating-2f1-vs-oracle", element_form(hyp_matrices_by_spin), 1e-9),
        _check("terminating-2f1-symmetric-vs-oracle", element_form(hyp_symmetric_matrices_by_spin), 1e-9),
        _check("jacobi-vs-oracle", element_form(jacobi_matrices_by_spin), 1e-9),
        *(_check(f"{name}-chart-vs-oracle", chart_form(stacks), 1e-9) for name, stacks in ROTATION_STACKS.items()),
    ]
    return {"suite": "routes", "checks": checks}


def suite_unitarity(max_l: HalfInt, seed: int) -> dict:
    samples = sample_haar(seed, 50)

    def per_spin(S):
        return _norms(_products(S, S.conj().transpose(0, 2, 1)) - np.eye(S.shape[1]))

    deviations = np.concatenate([per_spin(S) for S in _stacks(spins_up_to(max_l), samples)])
    return {"suite": "unitarity", "checks": [_check("t(g) t(g)* = I on SU(2)", deviations, 1e-10)]}


def suite_homomorphism(max_l: HalfInt, seed: int) -> dict:
    samples = sample_haar(seed, 100)
    products = [multiply(A, B) for A, B in zip(samples[:50], samples[50:])]

    def per_spin(A, B, AB):
        expected = _products(A, B)
        return _norms(AB - expected) / _norms(expected)

    stacks = (_stacks(spins_up_to(max_l), elements) for elements in (samples[:50], samples[50:], products))
    deviations = np.concatenate([per_spin(*spin) for spin in zip(*stacks)])
    return {"suite": "homomorphism", "checks": [_check("t(AB) = t(A) t(B)", deviations, 1e-9)]}


def suite_schur(max_l: HalfInt, grid: HaarGrid) -> dict:
    checks = [_check("normalization integral of 1", [abs(pairwise_sum(grid.weights) - 1.0)], 1e-13)]
    spins = spins_up_to(max_l)
    pairs = [(l, l_prime) for i, l in enumerate(spins) for l_prime in spins[i:]]
    for (l, l_prime), report in zip(pairs, schur_checks(grid, pairs)):
        checks.append(_check(f"orthogonality l={l} vs l'={l_prime}", [report.max_deviation], 1e-10, report.checked))
    return {"suite": "schur", "checks": checks}


def suite_character(max_l: HalfInt, grid: HaarGrid) -> dict:
    spins = spins_up_to(max_l)
    for l in reversed(spins):  # the largest first, as schur_checks builds them, so a build meets the fewest stacks
        grid.matrices(l)
    checks = [_check(f"character norm l={l}", [abs(character_norm(grid, l) - 1.0)], 1e-10) for l in spins]
    return {"suite": "character", "checks": checks}


def suite_jacobi_orth(max_l: HalfInt) -> dict:
    # Same-column integrals of d(theta) = jacobi_stack against delta_{l,l'}/(2l+1)
    # on the Haar grid's theta rule, exact as d^l_{m,n} d^l'_{m,n} has degree
    # l + l' <= 2 max_l in x = cos 2 theta: per ordered pair of spins of one parity,
    # one pairwise sum over the rows and columns of each stack that hold the
    # weights m, n of the smaller spin, taken on its quadrant m + n >= 0, m - n >= 0.
    thetas, weights = theta_rule(max_l)
    stacks = jacobi_stack_by_spin(spins_up_to(max_l), thetas)
    same_column = []
    for S, S_prime in product(stacks, stacks):
        dim, dim_prime = len(S[0]), len(S_prime[0])
        if (dim - dim_prime) % 2:
            continue  # integer and half-integer spins share no weight pairs
        n = min(dim, dim_prime)
        a, b = (dim - n) // 2, (dim_prime - n) // 2
        integrals = pairwise_sum(weights[:, None, None] * S[:, a : a + n, a : a + n] * S_prime[:, b : b + n, b : b + n])
        i, j = np.indices((n, n))
        same_column.append(np.abs(integrals - (dim == dim_prime) / n)[(i + j >= n - 1) & (i >= j)])

    # The 45 degree pairs n1 <= n2 up to 8 of each (al, be), on the Gauss rule of
    # (2 * 8 + al + be) // 2 + 1 <= 13 nodes, exact for the degree 16 + al + be.
    # All 225 polynomials are one jacobi_rows call, each row at its own rule
    # padded to 13 nodes by repeating the last; per (al, be), one (nodes, 45)
    # stack of the products w P_n1 P_n2 (1-x)^al (1+x)^be, reduced by one pairwise sum.
    pairs = [(n1, n2) for n1 in range(9) for n2 in range(n1, 9)]
    first, second = np.array(pairs).T
    blocks = list(product(range(5), repeat=2))
    rules = [gauss_legendre((2 * 8 + al + be) // 2 + 1) for al, be in blocks]
    nodes = np.array([x[np.minimum(np.arange(13), len(x) - 1)] for x, _ in rules])
    params = [JacobiParams(al, be, n) for al, be in blocks for n in range(9)]
    rows = jacobi_rows(params, np.repeat(nodes, 9, axis=0)).reshape(len(blocks), 9, 13)
    weighted = []
    for (al, be), (x, w), block in zip(blocks, rules, rows):
        weight = (1 - x) ** al * (1 + x) ** be
        values = block[:, : len(x)].T
        integrals = pairwise_sum(w[:, None] * values[:, first] * values[:, second] * weight[:, None])
        norms = [jacobi_norm(JacobiParams(al, be, n1)) if n1 == n2 else 0.0 for n1, n2 in pairs]
        weighted.append(np.abs(integrals - norms))

    return {
        "suite": "jacobi-orth",
        "checks": [
            _check("same-column integrals vs 1/(2l+1)", np.concatenate(same_column), 1e-10),
            _check("weighted jacobi integrals vs closed-form norm", np.concatenate(weighted), 1e-10),
        ],
    }


def suite_legendre(seed: int) -> dict:
    matrices = sample_unimodular(seed, 20)
    central = _relative(
        [jacobi_complex(JacobiParams(0, 0, l), 2 * A.a * A.d - 1) for l in range(7) for A in matrices],
        np.concatenate([S[:, l, l] for l, S in enumerate(_stacks([HalfInt(2 * l) for l in range(7)], matrices))]),
    )
    angles = legendre_angles(seed)
    # The addition and product formulas at every degree and triple: one oracle_stack
    # call per degree over the 10 triples, and every Legendre value in one jacobi_rows call.
    addition, products = legendre_checks(range(7), angles)
    return {
        "suite": "legendre",
        "checks": [
            _check("central element vs legendre of 2ad-1", central, 1e-9),
            _check("addition formula", addition.ravel(), 1e-9),
            _check("product formula", np.abs(products).ravel(), 1e-10),
        ],
    }


def suite_krawtchouk_sym() -> dict:
    cases = [
        (n, x, p, N) for N in range(1, 9) for n in range(N + 1) for x in range(N + 1) for p in (0.3, 0.5, 0.9)
    ]
    values = {case: krawtchouk(*case) for case in cases}  # (N - n, N - x) runs over the grid of (n, x)
    deviations = _relative(
        list(values.values()),
        [(1 - 1 / p) ** (x + n - N) * values[N - n, N - x, p, N] for n, x, p, N in cases],
    )
    return {"suite": "krawtchouk-sym", "checks": [_check("index-reflection identity", deviations, 1e-9)]}


def identity_checks(seed: int, krawtchouk_sym: dict) -> dict:
    """Transformation identities: index symmetries, polynomial reflections,
    the 2F1 argument flips and real-rotation row orthogonality; the
    Krawtchouk index reflection is the check of the krawtchouk_sym report."""
    samples = sample_haar(seed, 5) + sample_gl2(seed + 1, 5)
    # The samples and their images under every symmetry in one sum_matrices_by_spin call.
    elements = [*samples, *(element_map(A) for _, element_map in SYMMETRIES.values() for A in samples)]
    spins = [HalfInt(l2) for l2 in range(1, 5)]

    def index_symmetries(stack, reference):
        # Each entry of the finite-sum matrix against its place in each symmetry image,
        # shape (samples, symmetries, entries), over the max-norm of the oracle matrix.
        l2 = reference.shape[1] - 1
        places = list(product(range(l2 + 1), repeat=2))
        values, *mapped = stack.reshape(len(SYMMETRIES) + 1, len(samples), l2 + 1, l2 + 1)
        images = []
        for (index_map, _), S in zip(SYMMETRIES.values(), mapped):
            rows, cols = np.array([index_map(l2, i, j) for i, j in places]).T
            images.append(S[:, rows, cols])
        values = values.reshape(len(samples), 1, -1)
        return magnitudes(values - np.stack(images, axis=1)) / _norms(reference)[:, None, None]

    symmetries = zip(sum_matrices_by_spin(spins, elements), _stacks(spins, samples))

    # P_n^(al,be)(-x) = (-1)^n P_n^(be,al)(x): the 539 polynomials in one jacobi_values call on
    # nodes that are symmetric bit for bit.  The left side reads row (al, be, n) at the reversed
    # nodes, the right side row (be, al, n) at the nodes, at index (7 be + al) 11 + n.
    triples = list(product(range(7), range(7), range(11)))
    values = jacobi_values([JacobiParams(*t) for t in triples], np.arange(-10, 11) / 10)
    al, be, n = np.array(triples).T
    reflection = _relative(values[:, ::-1], values[(7 * be + al) * 11 + n] * (-1.0) ** n[:, None]).ravel()

    cases = list(product(range(9), (0.5, 2.0), (1.5, 3.0), (-0.7, -0.2, 0.3)))
    pfaff = _relative(
        [hyp2f1(-n, b, c, z) for n, b, c, z in cases],
        [(1 - z) ** n * hyp2f1(-n, c - b, c, z / (z - 1)) for n, b, c, z in cases],
    )

    # The prefactors are exact ratios of rising factorials, each one integer
    # ratio rounded once by int / int, as float(Fraction) rounds it (c > 0, so
    # every denominator is positive), and used at both x.
    def flip_one(n, b, c):
        (p, q), (r, s) = pochhammer_pair(c - b, n), pochhammer_pair(c, n)
        pref = (p * s) / (q * r)
        return [(hyp2f1(-n, b, c, x), pref * hyp2f1(-n, b, b - c - n + 1, 1 - x)) for x in (0.2, 0.8)]

    def flip_two(n, m, c):
        (p, q), (r, s), (t, u) = (pochhammer_pair(c, k) for k in (m + n, n, m))
        pref = (p * s * u) / (q * r * t)
        return [(hyp2f1(-n, -m, c, x), pref * hyp2f1(-n, -m, -c - n - m + 1, 1 - x)) for x in (0.2, 0.8)]

    one = [pair for n, b, c in product(range(7), (0.5, 2.0), (1.5, 4.0)) for pair in flip_one(n, b, c)]
    two = [pair for n, m, c in product(range(7), range(7), (1.5, 4.0)) for pair in flip_two(n, m, c)]

    rotations = [from_euler(EulerAngles(theta, 0.0, 0.0)) for theta in (math.pi / 6, math.pi / 3)]

    def row_orthogonality(S):
        return _norms(_products(S, S.transpose(0, 2, 1)) - np.eye(S.shape[1]))

    checks = [
        _check("index symmetries", np.concatenate([index_symmetries(*pair).ravel() for pair in symmetries]), 1e-10),
        _check("jacobi reflection", reflection, 1e-10),
        _check("pfaff transformation", pfaff, 1e-10),
        _check("terminating argument flip (one integer parameter)", _relative(*zip(*one)), 1e-10),
        _check("terminating argument flip (two integer parameters)", _relative(*zip(*two)), 1e-10),
        {**krawtchouk_sym["checks"][0], "check": "krawtchouk index reflection"},
        _check(
            "real-rotation row orthogonality",
            np.concatenate([row_orthogonality(S) for S in _stacks(spins_up_to(HalfInt(6)), rotations)]),
            1e-10,
        ),
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

    The schur and character suites take the one grid built here, and share
    it under "all", so each matrix stack is built once.
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
