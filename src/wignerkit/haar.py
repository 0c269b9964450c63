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
are the fewest that are exact.  That rule (theta_rule) serves the jacobi-orth
suite too: d^l_{m,n}(t) d^l'_{m,n}(t) is such a polynomial in x.

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

from .exactcomb import HalfInt, spin_range
from .group import Mat2C, diag_element, multiply
from .specfun import JacobiParams, jacobi_rows
from .wigner import _oracle_expand, _oracle_powers, oracle_stack

__all__ = [
    "HaarGrid",
    "gauss_legendre",
    "theta_rule",
    "pairwise_sum",
    "magnitudes",
    "build_grid",
    "DeviationReport",
    "schur_check",
    "character_norm",
    "legendre_checks",
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


def theta_rule(max_l: HalfInt) -> tuple[np.ndarray, np.ndarray]:
    """The grid's theta nodes acos(x)/2 and weights wx/2 for spin max_l: the fewest
    Gauss-Legendre nodes in x = cos 2 theta exact to degree 2 max_l."""
    x, wx = gauss_legendre(max_l.twice // 2 + 1)
    return np.array([0.5 * math.acos(v) for v in x]), wx / 2  # np.arccos's bits depend on the SIMD level


def build_grid(max_l: HalfInt) -> HaarGrid:
    """Smallest grid exact for spin max_l: 4 max_l + 1 nodes per phase, the
    phase degree of a product of two spin-max_l elements being 4 max_l, and
    the theta_rule of max_l, the fewest Gauss-Legendre nodes that reach the
    x-degree 2 max_l of the products whose phases cancel (see the module
    docstring).  HaarGrid.max_exact_l above inverts the counts."""
    if max_l.twice < 0:
        raise ValueError(f"negative spin l={max_l}")
    thetas_1d, w_theta = theta_rule(max_l)
    n_theta, n_phi, n_psi = len(thetas_1d), 2 * max_l.twice + 1, 2 * max_l.twice + 1
    phis_1d = 2 * math.pi * np.arange(n_phi) / n_phi
    psis_1d = 2 * math.pi * np.arange(n_psi) / n_psi
    thetas = np.repeat(thetas_1d, n_phi * n_psi)
    phis = np.tile(np.repeat(phis_1d, n_psi), n_theta)
    psis = np.tile(psis_1d, n_theta * n_phi)
    weights = np.repeat(w_theta, n_phi * n_psi) / (n_phi * n_psi)
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
    grid.matrices(max(l, l_prime))  # refuses a spin past the budget before either stack is built
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


def legendre_checks(degrees, angles) -> tuple[np.ndarray, np.ndarray]:
    """The deviations of the addition and the product formula of the Legendre
    polynomials at each (theta1, theta2, phi) of angles and each degree l of
    degrees, two arrays of shape (len(angles), len(degrees)).

    Addition: T = R(t1/2) diag(e^{i phi/2}, e^{-i phi/2}) R'(t2/2) is built
    from its two real rotation factors, and the central element of t^l(T) is
    checked against (i) P_l at the composite argument cos t1 cos t2 +
    sin t1 sin t2 cos phi and (ii) the phase-weighted sum over the central row
    and column of the two factors; the deviation is the larger of the two.
    Product: P_l(cos t1) P_l(cos t2) against the uniform-quadrature average of
    P_l(cos t1 cos t2 + sin t1 sin t2 cos phi') over 2l + 1 phases phi' (phi
    is not read); the integrand is a trigonometric polynomial of degree l, so
    that is exact, and the deviation is signed.

    Per degree, one oracle_stack call builds the three matrices of every
    triple, and one jacobi_rows call takes every Legendre value: per degree
    and triple, one row at the 2l + 1 phase nodes, cos t1, cos t2 and the
    composite argument, padded by repeating its last node.  Every value is
    the one that its degree and triple alone give, bit for bit.
    """
    degrees, angles = list(degrees), list(angles)  # each is read more than once
    for l in degrees:
        if l < 0:
            raise ValueError(f"negative degree l={l}")
    factors = []
    for theta1, theta2, phi in angles:
        h1, h2 = theta1 / 2, theta2 / 2
        left = Mat2C(math.sin(h1), -math.cos(h1), math.cos(h1), math.sin(h1))
        right = Mat2C(math.sin(h2), math.cos(h2), -math.cos(h2), math.sin(h2))
        factors += [multiply(multiply(left, diag_element(phi / 2)), right), left, right]
    stacks = [oracle_stack(HalfInt(2 * l), *([getattr(X, x) for X in factors] for x in "abcd")) for l in degrees]
    trig = []  # per triple: cos t1, cos t2, cos t1 cos t2, sin t1 sin t2 and the composite argument
    for theta1, theta2, phi in angles:
        cc, ss = math.cos(theta1) * math.cos(theta2), math.sin(theta1) * math.sin(theta2)
        trig.append((math.cos(theta1), math.cos(theta2), cc, ss, cc + ss * math.cos(phi)))
    c1, c2, cc, ss, composite = np.reshape(trig, (-1, 5, 1)).transpose(1, 0, 2)
    width = 2 * max(degrees, default=0) + 4
    nodes = []
    for l in degrees:
        n_phi = 2 * l + 1
        phases = cc + ss * np.cos(2 * math.pi * np.arange(n_phi) / n_phi)
        nodes.append(np.hstack([phases, c1, c2, composite])[:, np.minimum(np.arange(width), n_phi + 2)])
    params = [JacobiParams(0, 0, l) for l in degrees for _ in angles]
    values = jacobi_rows(params, np.reshape(nodes, (len(params), width))).reshape(len(degrees), len(angles), width)
    addition, product = np.empty((2, len(angles), len(degrees)))
    for d, (l, S, block) in enumerate(zip(degrees, stacks, values)):
        n_phi = 2 * l + 1
        product[:, d] = pairwise_sum(block[:, :n_phi].T) / n_phi - block[:, n_phi] * block[:, n_phi + 1]
        for t, ((_, _, phi), closed_form) in enumerate(zip(angles, block[:, n_phi + 2].tolist())):
            center = complex(S[3 * t, l, l])  # row and column l hold the weight 0
            series = 0j
            for k, r, c in zip(spin_range(HalfInt(2 * l)), S[3 * t + 1, l].tolist(), S[3 * t + 2, :, l].tolist()):
                series += r * c * np.exp(-1j * float(k) * phi)
            addition[t, d] = max(abs(center - closed_form), abs(center - series))
    return addition, product

