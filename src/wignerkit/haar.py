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
node values taken from those stacks.  The Schur check reads the stacks'
phase spectra instead.  On a theta slice t^l_{m,n} is the one phase mode
e^{-i(m+n) phi} e^{i(m-n) psi} times d^l_{m,n}(theta), so over the uniform
phase rules each entry's spectrum there is one on-bin value plus a rest
whose 2-norm e is rounding on an exact grid.  The integral of two entries
with the same (m, n) is the theta sum of their on-bin products, within the
theta sum of e_p e_q; that of two entries whose bins differ is at most the
theta sum of |on_p| e_q + e_p |on_q| + e_p e_q (Cauchy-Schwarz).  A pair
whose bound exceeds SCHUR_FLOOR is summed node by node over the grid, so a
real deviation is still located at its pair.  No step is a BLAS product,
every complex product is written as real products and sums, and every theta
sum is a pairwise_sum, so the Schur values depend on neither the BLAS kernel
nor numpy's SIMD level.  The magnitude of a complex value is libm's hypot of
its parts (magnitudes), the function Python's abs(complex) calls, never
numpy's SIMD complex abs.
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
    "schur_checks",
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


def _phase_rule(n: int) -> np.ndarray:
    """The uniform rule of n phase nodes 2 pi k / n, exact for phase degree n - 1."""
    return 2 * math.pi * np.arange(n) / n


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
    phis_1d, psis_1d = _phase_rule(n_phi), _phase_rule(n_psi)
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


# A pair whose bound exceeds this is integrated node by node instead.  On an
# exact grid every bound is a few units of 1e-16; 2^-43 is 1.1e-13, three
# orders above that and three below the suites' tolerance of 1e-10.
SCHUR_FLOOR = 2.0**-43


def _grid_scale(grid: HaarGrid) -> np.ndarray:
    """The factor by which a product of two raw spectrum values at each theta
    node enters an integral: the node weight over n_phi n_psi.  A grid that
    is not a product of theta slices, with the uniform phase rules and one
    node weight per slice, or with a negative weight (the bound of a pair
    holds only for weights of one sign), raises ValueError."""
    shape = (grid.n_theta, grid.n_phi, grid.n_psi)
    if grid.node_count != math.prod(shape):
        raise ValueError(f"grid has {grid.node_count} nodes, not n_theta * n_phi * n_psi = {math.prod(shape)}")
    if not (
        np.all(grid.phis.reshape(shape) == _phase_rule(grid.n_phi)[:, None])
        and np.all(grid.psis.reshape(shape) == _phase_rule(grid.n_psi))
    ):
        raise ValueError("the grid's phase nodes are not the uniform rules 2 pi k / n_phi and 2 pi k / n_psi")
    weights = grid.weights.reshape(grid.n_theta, -1)
    if not np.all(weights == weights[:, :1]):
        raise ValueError("the grid's node weights differ within a theta slice")
    if np.any(weights[:, 0] < 0):
        raise ValueError("the grid has a negative node weight")
    return weights[:, 0] / (grid.n_phi * grid.n_psi)


def _labels(l: HalfInt) -> tuple[np.ndarray, np.ndarray]:
    """Twice m and twice n of each entry of t^l, row-major."""
    return tuple(2 * k - l.twice for k in divmod(np.arange((l.twice + 1) ** 2), l.twice + 1))


def _phase_spectra(grid: HaarGrid, spins) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For the entries of t^l of each spin l of spins, row-major and
    concatenated: the real and imaginary part of the on-bin value of their raw
    phase spectrum at each theta node, and the 2-norm of the rest of it, three
    arrays of shape (n_theta, entries).

    The raw spectrum of an entry at a theta node is the unnormalized DFT of its
    values on that slice over (phi, psi), n_phi n_psi times its Fourier
    coefficients; its one mode e^{-i(m+n) phi} e^{i(m-n) psi} sits at the bin
    (-(m+n) mod n_phi, m-n mod n_psi).  One FFT per spin along psi gives every
    psi bin, and one along phi, over each entry's own psi-bin column only,
    that column's phi bins.  The rest's squared norm is summed directly from
    the off-bin terms, n_phi times those of the other psi columns plus those
    of the column's other phi bins (Parseval), never as the total less the
    on-bin term, which would leave only rounding.
    """
    from numpy.fft import fft  # loaded on first use: dmat and poly never need it

    columns, off_psi = zip(*(_psi_spectrum(grid, l) for l in spins))
    m2, n2 = (np.concatenate(parts) for parts in zip(*map(_labels, spins)))
    a, entries = (-(m2 + n2) // 2) % grid.n_phi, np.arange(len(m2))
    # Laid out (theta, entries, phi), whatever the layout of the columns: the
    # phi sum is then numpy's pairwise sum along the last axis on any numpy.
    column = fft(np.ascontiguousarray(np.concatenate(columns, axis=2).transpose(0, 2, 1)))
    on = column[:, entries, a]
    power = column.real * column.real + column.imag * column.imag
    power[:, entries, a] = 0.0
    return on.real, on.imag, np.sqrt(grid.n_phi * np.concatenate(off_psi, axis=1) + power.sum(axis=2))


def _psi_spectrum(grid: HaarGrid, l: HalfInt) -> tuple[np.ndarray, np.ndarray]:
    """One FFT of the stack of t^l along psi: each entry's own psi-bin column,
    shape (n_theta, n_phi, entries), and the squared norm of its other psi
    bins summed over phi, shape (n_theta, entries).  The spectrum, the size of
    the stack, is freed on return."""
    from numpy.fft import fft

    m2, n2 = _labels(l)
    b, entries = ((m2 - n2) // 2) % grid.n_psi, np.arange(len(m2))
    # numpy 1.x returns an FFT along an inner axis as a transposed view; the
    # float view below needs the entries axis contiguous.
    spectrum = np.ascontiguousarray(fft(grid.matrices(l).reshape(grid.n_theta, grid.n_phi, grid.n_psi, -1), axis=2))
    column = spectrum[:, :, b, entries]
    parts = spectrum.view(np.float64)  # real and imaginary parts, alternating
    parts *= parts  # squared in place: the spectrum is not read again
    power = parts.sum(axis=1)  # over phi: numpy adds along an outer axis in index order
    power = power[..., 0::2] + power[..., 1::2]
    power[:, b, entries] = 0.0
    return column, power.sum(axis=1)


def _grid_deviations(grid: HaarGrid, l: HalfInt, l_prime: HalfInt, p, q) -> np.ndarray:
    """The deviation of the integral of t^l_p conj(t^l'_q) from its exact value
    for each pair (p[k], q[k]) of row-major entry indices, the integral summed
    node by node over the whole grid, 2^18 node values of each side at a time."""
    T = grid.matrices(l).reshape(grid.node_count, -1)
    U = grid.matrices(l_prime).reshape(grid.node_count, -1)
    w = grid.weights[:, None]
    step = max(1, 2**18 // grid.node_count)
    deviations = []
    for k in range(0, len(p), step):
        t, u = T[:, p[k : k + step]], U[:, q[k : k + step]]
        re = pairwise_sum(w * (t.real * u.real + t.imag * u.imag))
        im = pairwise_sum(w * (t.imag * u.real - t.real * u.imag))
        expected = (p[k : k + step] == q[k : k + step]) / (l.twice + 1) if l == l_prime else 0.0
        deviations.append(np.hypot(re - expected, im))
    return np.concatenate(deviations)


def schur_checks(grid: HaarGrid, pairs) -> list[DeviationReport]:
    """schur_check of each spin pair (l, l') of pairs, in their order.

    The phase spectra of every spin (_phase_spectra) are taken once, and the
    integrals of every two entries with the same (m, n) in one pass.  The
    bounds are then reduced one first spin l at a time: every entry of t^l
    against the concatenated entries of all its second spins, in a few array
    operations whose size is one spin's rows, so memory at the CLI cap does
    not grow.
    """
    pairs = list(pairs)  # it is read more than once
    scale = _grid_scale(grid)[:, None]  # a column, to broadcast along the entries
    if not pairs:
        return []
    grid.matrices(max(max(pair) for pair in pairs))  # refuses a spin past the budget before anything is built
    spins = sorted({l for pair in pairs for l in pair})
    for l in reversed(spins):  # the largest first, so a stack's build meets the fewest other stacks
        grid.matrices(l)
    on_re, on_im, off = _phase_spectra(grid, spins)
    on_abs = np.hypot(on_re, on_im)
    sizes = [(l.twice + 1) ** 2 for l in spins]
    first = dict(zip(spins, np.cumsum([0, *sizes]).tolist()))
    # The same bin, (m, n) = (m', n'): the on-bin product plus at most e_p e_q.
    m2, n2 = (np.concatenate(parts) for parts in zip(*map(_labels, spins)))
    P, Q = np.nonzero((m2[:, None] == m2) & (n2[:, None] == n2))
    re, im, same_bound = pairwise_sum(
        scale[:, None]
        * np.stack(
            [
                on_re[:, P] * on_re[:, Q] + on_im[:, P] * on_im[:, Q],
                on_im[:, P] * on_re[:, Q] - on_re[:, P] * on_im[:, Q],
                off[:, P] * off[:, Q],
            ],
            axis=1,
        )
    )
    expected = (P == Q) / np.repeat([l.twice + 1 for l in spins], sizes)[P]
    same_deviation = np.hypot(re - expected, im) + same_bound
    # Bins that differ: the integral is F_p[b_q] conj(on_q) + on_p conj(F_q[b_p])
    # plus the other bins' terms, at most |on_p| e_q + e_p |on_q| + e_p e_q.
    row_on, row_off, col_sum = scale * on_abs, scale * off, on_abs + off
    seconds = {}
    for l, l_prime in pairs:
        seconds.setdefault(l, set()).add(l_prime)
    reports = {}
    for l in sorted(seconds):
        rows = slice(first[l], first[l] + (l.twice + 1) ** 2)
        columns = sorted(seconds[l])
        cols = np.concatenate([np.arange(first[lp], first[lp] + (lp.twice + 1) ** 2) for lp in columns])
        bound = row_on[:, rows, None] * off[:, None, cols]
        bound += row_off[:, rows, None] * col_sum[:, None, cols]
        bound = pairwise_sum(bound)
        col_at = np.full(len(m2), -1)  # each entry's column in this block
        col_at[cols] = np.arange(len(cols))
        same = (rows.start <= P) & (P < rows.stop) & (col_at[Q] >= 0)
        r, c = P[same] - rows.start, col_at[Q[same]]
        bound[r, c] = same_bound[same]
        deviations = bound.copy()
        deviations[r, c] = same_deviation[same]
        refine = bool((bound > SCHUR_FLOOR).any())
        for l_prime in columns:
            dim, dim_u = l.twice + 1, l_prime.twice + 1
            j = slice(col_at[first[l_prime]], col_at[first[l_prime]] + dim_u * dim_u)
            block = deviations[:, j]
            if refine:  # every pair whose bound exceeds the floor takes its node-by-node value
                p, q = np.nonzero(bound[:, j] > SCHUR_FLOOR)
                if p.size:
                    block[p, q] = _grid_deviations(grid, l, l_prime, p, q)
            row, col = divmod(int(np.argmax(block)), dim_u * dim_u)
            (i1, j1), (i2, j2) = divmod(row, dim), divmod(col, dim_u)
            worst = (2 * i1 - l.twice, 2 * j1 - l.twice, 2 * i2 - l_prime.twice, 2 * j2 - l_prime.twice)
            reports[l, l_prime] = DeviationReport(float(block[row, col]), worst, dim * dim * dim_u * dim_u)
    return [reports[pair] for pair in pairs]


def schur_check(grid: HaarGrid, l: HalfInt, l_prime: HalfInt) -> DeviationReport:
    """Integrals of t^l_{m,n} conj(t^l'_{m',n'}) against their exact values.

    The exact value is 1/(2l+1) when (l, m, n) = (l', m', n') and 0 otherwise;
    the report carries the worst deviation over all index combinations, at
    the first (m, n, m', n') in row-major order that attains it.

    The grid must be a product of theta slices with the uniform phase rules
    2 pi k / n and one non-negative node weight per slice, as build_grid
    makes it; any other grid raises ValueError.  Each deviation is an upper
    bound on the full-grid deviation, up to rounding, read from the phase
    spectra of the two stacks (see the module docstring): for (m, n) =
    (m', n') the on-bin deviation plus the theta sum of e e', for any other
    pair the Cauchy-Schwarz bound of its cross terms.  A pair whose bound part exceeds
    SCHUR_FLOOR (2^-43) takes its deviation summed node by node over the
    whole grid instead, so a real deviation is reported at its own pair.
    When no pair exceeds the floor, as on an exact grid, max_deviation is a
    rounding-level bound and worst names the pair with the largest one: an
    on-bin deviation or a bound, not a located defect.
    """
    return schur_checks(grid, [(l, l_prime)])[0]


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

