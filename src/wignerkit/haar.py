"""Quadrature-exact integration over SU(2) with the normalized invariant
measure, and the orthogonality checks built on it.

On the angle chart the measure is (1/(2 pi^2)) sin(t) cos(t) dt dpsi dphi.
Substituting x = cos(2t) makes the t-density uniform on [-1, 1], so a
Gauss-Legendre rule in x integrates the polynomial part exactly, while
uniform (trapezoidal) rules on the periodic phases are exact for every
trigonometric monomial below the node count.  A product
t^l_{m,n} conj(t^l'_{m',n'}) of elements of spin <= L is a sum of monomials
sin(t)^a cos(t)^b e^{i(j phi + k psi)} with a + b = 2l + 2l' and |j|, |k| <= 4L.
A monomial whose phase exponents do not cancel sums to zero under the phase
rules of 4L + 1 nodes.  One whose phases cancel has even a and b, so it is a
polynomial in x of degree (a + b)/2 = l + l' <= 2L.  An n-node
Gauss-Legendre rule is exact to degree 2n - 1, so (2L) // 2 + 1 nodes in x
are the fewest that are exact.

A grid serves the spins up to its exactness budget only, and its matrices
at all nodes are the oracle's (wigner.oracle_stack) in its two steps: one
power table of the node elements per grid, built to that budget, then one
batched polynomial expansion per spin from that table's first 2l+1 powers.
An integral over a grid is pairwise_sum, a fixed pairwise tree, of weighted
node values taken from those stacks; the Schur check first
contracts each theta slice of the grid with one matrix product and then
sums the per-theta slices pairwise.  The magnitude of a complex value is
libm's hypot of its parts (magnitudes), the function Python's abs(complex)
calls, never numpy's SIMD complex abs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .exactcomb import HalfInt, factorial, is_valid_spin_pair, spin_range
from .group import Mat2C, diag_element, multiply
from .specfun import JacobiParams, jacobi_eval, legendre
from .wigner import _oracle_expand, _oracle_powers, oracle_stack

__all__ = [
    "HaarGrid",
    "gauss_legendre",
    "pairwise_sum",
    "magnitudes",
    "build_grid",
    "DeviationReport",
    "schur_check",
    "character_norm",
    "jacobi_orthogonality_check",
    "legendre_product_check",
    "addition_formula_check",
]


@dataclass
class HaarGrid:
    """Product quadrature grid over the angle chart with weights summing to 1.

    Nodes are flattened theta-major, then phi, then psi; the node weight is
    (Gauss-Legendre weight in x)/2 * (1/n_phi) * (1/n_psi).
    """

    n_theta: int
    n_phi: int
    n_psi: int
    thetas: np.ndarray
    phis: np.ndarray
    psis: np.ndarray
    weights: np.ndarray
    _matrices: dict = field(default_factory=dict, repr=False)
    _powers: np.ndarray | None = field(default=None, repr=False)

    @property
    def node_count(self) -> int:
        return len(self.weights)

    def matrices(self, l: HalfInt) -> np.ndarray:
        """Representation matrices at every node, shape (nodes, 2l+1, 2l+1).

        A spin past the exactness budget (max_exact_l) raises ValueError
        before anything is built.  The node elements come straight from the
        angle arrays by the from_euler formulas.  Their power table is built
        once per grid, to the budget, and each spin's stack is expanded from
        the table's first 2l+1 powers and cached on the grid.  The table is a
        running product, so its prefix is the table oracle_stack would build
        for spin l, and the stack is oracle_stack at the nodes, bit for bit.
        """
        budget = self.max_exact_l()
        if l.twice > budget.twice:
            raise ValueError(f"spin l={l} exceeds the grid exactness budget (max l={budget})")
        if l.twice not in self._matrices:
            if self._powers is None:
                st, ct = np.sin(self.thetas), np.cos(self.thetas)
                ephi, epsi = np.exp(1j * self.phis), np.exp(1j * self.psis)
                self._powers = _oracle_powers(st * ephi, -ct / epsi, ct * epsi, st / ephi, budget.twice)
            self._matrices[l.twice] = _oracle_expand(l, self._powers)
        return self._matrices[l.twice]

    def max_exact_l(self) -> HalfInt:
        """Largest spin within this grid's exactness budget.  n_theta
        Gauss-Legendre nodes are exact to x-degree 2 n_theta - 1, and n
        phase nodes to phase degree n - 1; products of two spin-l elements
        need x-degree 2l and phase degree 4l."""
        twice = min(2 * self.n_theta - 1, (self.n_phi - 1) // 2, (self.n_psi - 1) // 2)
        return HalfInt(max(twice, 0))


@lru_cache(maxsize=256)
def gauss_legendre(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] (numpy's leggauss), computed
    once per node count; the arrays are read-only because they are shared.
    numpy.polynomial is imported here, not with the module, because `dmat`
    and `poly` never need it and it costs milliseconds of every import."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(npts)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def build_grid(max_l: HalfInt) -> HaarGrid:
    """Smallest grid exact for spin max_l: 4 max_l + 1 nodes per phase, the
    phase degree of a product of two spin-max_l elements being 4 max_l, and
    (2 max_l) // 2 + 1 theta nodes, the fewest whose Gauss-Legendre rule,
    exact to degree 2n - 1, reaches the x-degree 2 max_l of the products
    whose phases cancel (see the module docstring).  HaarGrid.max_exact_l
    above inverts the counts."""
    if max_l.twice < 0:
        raise ValueError(f"negative spin l={max_l}")
    n_theta, n_phi, n_psi = max_l.twice // 2 + 1, 2 * max_l.twice + 1, 2 * max_l.twice + 1
    x, wx = gauss_legendre(n_theta)
    thetas_1d = np.array([0.5 * math.acos(v) for v in x])  # np.arccos's bits depend on the SIMD level
    phis_1d = 2 * math.pi * np.arange(n_phi) / n_phi
    psis_1d = 2 * math.pi * np.arange(n_psi) / n_psi
    thetas = np.repeat(thetas_1d, n_phi * n_psi)
    phis = np.tile(np.repeat(phis_1d, n_psi), n_theta)
    psis = np.tile(psis_1d, n_theta * n_phi)
    weights = np.repeat(wx / 2, n_phi * n_psi) / (n_phi * n_psi)
    return HaarGrid(n_theta, n_phi, n_psi, thetas, phis, psis, weights)


def magnitudes(z) -> np.ndarray:
    """|z| per element by libm's hypot of its parts, the function Python's
    abs(complex) calls; numpy's SIMD complex abs can differ from it in the
    last bit."""
    return np.hypot(np.real(z), np.imag(z))


def pairwise_sum(values):
    """Deterministic pairwise-tree reduction along the leading axis."""
    arr = np.asarray(values)
    if arr.shape[0] == 0:
        return arr.sum(axis=0)
    while arr.shape[0] > 1:
        half = arr[0 : arr.shape[0] - arr.shape[0] % 2 : 2] + arr[1 :: 2]
        if arr.shape[0] % 2:
            arr = np.concatenate([half, arr[-1:]])
        else:
            arr = half
    return arr[0]


@dataclass(frozen=True)
class DeviationReport:
    """Worst absolute deviation over a family of checked integrals."""

    max_deviation: float
    worst: tuple
    checked: int


def schur_check(grid: HaarGrid, l: HalfInt, l_prime: HalfInt) -> DeviationReport:
    """Integrals of t^l_{m,n} conj(t^l'_{m',n'}) against their exact values.

    The exact value is 1/(2l+1) when (l, m, n) = (l', m', n') and 0 otherwise;
    the report carries the worst deviation over all index combinations, at
    the first (m, n, m', n') in row-major order that attains it.

    All integrals are computed at once.  The grid is theta-major, so its
    nodes split into n_theta blocks of n_phi * n_psi nodes; one batched
    matrix product of the weighted T stack with the conjugated T' stack
    contracts each block, and the per-theta results are summed pairwise.
    The order of the sums inside a block is BLAS's, so the last bits of the
    deviation can depend on its thread count.
    """
    if grid.node_count != grid.n_theta * grid.n_phi * grid.n_psi:
        raise ValueError(
            f"grid has {grid.node_count} nodes, not n_theta * n_phi * n_psi = "
            f"{grid.n_theta * grid.n_phi * grid.n_psi}"
        )
    dim, dim_u = l.twice + 1, l_prime.twice + 1
    blocks = (grid.n_theta, grid.n_phi * grid.n_psi)
    weighted = (grid.weights[:, None, None] * grid.matrices(l)).reshape(*blocks, dim * dim)
    conj_u = np.conj(grid.matrices(l_prime).reshape(*blocks, dim_u * dim_u))
    integrals = pairwise_sum(np.matmul(weighted.transpose(0, 2, 1), conj_u))
    if l.twice == l_prime.twice:
        integrals -= np.eye(dim * dim) / dim
    deviations = magnitudes(integrals)
    row, col = divmod(int(np.argmax(deviations)), dim_u * dim_u)
    (i1, j1), (i2, j2) = divmod(row, dim), divmod(col, dim_u)
    worst = (2 * i1 - l.twice, 2 * j1 - l.twice, 2 * i2 - l_prime.twice, 2 * j2 - l_prime.twice)
    return DeviationReport(float(deviations[row, col]), worst, dim * dim * dim_u * dim_u)


def character_norm(grid: HaarGrid, l: HalfInt) -> float:
    """Integral of |trace t^l|^2; equals 1 exactly for every spin within the grid's budget."""
    T = grid.matrices(l)
    traces = np.trace(T, axis1=1, axis2=2)
    return float(pairwise_sum(grid.weights * magnitudes(traces) ** 2))


def jacobi_orthogonality_check(l: HalfInt, l_prime: HalfInt, m: HalfInt, n: HalfInt) -> float:
    """Deviation of the x-substituted same-column integral from its target.

    Evaluates the weighted Jacobi product integral on [-1, 1] with a
    Gauss-Legendre rule of exact degree and compares against
    delta_{l,l'}/(2l+1).
    """
    for spin in (l, l_prime):
        if not (is_valid_spin_pair(spin, m) and is_valid_spin_pair(spin, n)):
            raise ValueError(f"(m={m}, n={n}) is not a weight pair of spin {spin}")
    if (m + n).twice < 0 or (m - n).twice < 0:
        raise ValueError("check is stated on the quadrant m + n >= 0, m - n >= 0")
    deg1 = (l - m).as_int()
    deg2 = (l_prime - m).as_int()
    al = (m + n).as_int()
    be = (m - n).as_int()
    x, w = gauss_legendre((deg1 + deg2 + al + be) // 2 + 1)
    p1 = jacobi_eval(JacobiParams(al, be, deg1), x)
    p2 = p1 if (deg2 == deg1) else jacobi_eval(JacobiParams(al, be, deg2), x)
    integral = float(pairwise_sum(w * p1 * p2 * (1 - x) ** al * (1 + x) ** be))
    pref = (factorial((l + m).as_int()) * factorial((l - m).as_int())) / (
        factorial((l + n).as_int()) * factorial((l - n).as_int()) * 2 ** (m.twice + 1)
    )
    expected = 1.0 / (l.twice + 1) if l.twice == l_prime.twice else 0.0
    return pref * integral - expected


def legendre_product_check(l: int, theta1: float, theta2: float) -> float:
    """Deviation of the phase-averaged composite Legendre value from the product.

    Compares P_l(cos t1) P_l(cos t2) with the uniform-quadrature average of
    P_l(cos t1 cos t2 + sin t1 sin t2 cos phi) over 2l + 1 phases; the
    integrand is a trigonometric polynomial of degree l, so that is exact.
    """
    n_phi = 2 * l + 1
    phis = 2 * math.pi * np.arange(n_phi) / n_phi
    args = math.cos(theta1) * math.cos(theta2) + math.sin(theta1) * math.sin(theta2) * np.cos(phis)
    values = legendre(l, args)
    average = float(pairwise_sum(values)) / n_phi
    return average - legendre(l, math.cos(theta1)) * legendre(l, math.cos(theta2))


def addition_formula_check(l: int, theta1: float, theta2: float, phi: float) -> float:
    """Largest deviation among the two decompositions of a composite element.

    Builds T = R(t1/2) diag(e^{i phi/2}, e^{-i phi/2}) R'(t2/2) from the two
    real rotation factors, takes the central matrix element of t^l(T), and
    checks it against (i) the Legendre value at the composite argument and
    (ii) the phase-weighted sum over the central row and column of the two
    factors.
    """
    if l < 0:
        raise ValueError(f"negative degree l={l}")
    h1, h2 = theta1 / 2, theta2 / 2
    left = Mat2C(math.sin(h1), -math.cos(h1), math.cos(h1), math.sin(h1))
    right = Mat2C(math.sin(h2), math.cos(h2), -math.cos(h2), math.sin(h2))
    T = multiply(multiply(left, diag_element(phi / 2)), right)
    spin = HalfInt(2 * l)
    S = oracle_stack(spin, *zip(*((X.a, X.b, X.c, X.d) for X in (T, left, right))))
    center = complex(S[0, l, l])  # row and column l hold the weight 0
    composite = math.cos(theta1) * math.cos(theta2) + math.sin(theta1) * math.sin(theta2) * math.cos(phi)
    closed_form = legendre(l, composite)
    series = 0j
    for k, r, c in zip(spin_range(spin), S[1, l].tolist(), S[2, :, l].tolist()):
        series += r * c * np.exp(-1j * float(k) * phi)
    return max(abs(center - closed_form), abs(center - series))
