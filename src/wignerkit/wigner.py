"""Matrix elements t^l_{m,n} of the spin-l representation of GL(2, C) and
SU(2), computed by several independent routes.

The canonical route expands the image of each basis monomial as an explicit
homogeneous polynomial (exact binomial convolutions); it works for every
group element and every spin and serves as the oracle for everything else.
The closed-form routes (finite sum, terminating 2F1, Jacobi, Rodrigues-type
derivative, Krawtchouk) are faster on their domains but each has a singular
parameter set, on which they raise RouteUnavailableError instead of guessing
a limit.

Index convention, fixed once: row i corresponds to m = -l + i and column j
to n = -l + j, i.e. i = (m + l) as an integer.  The representation acts by
substitution with the transposed matrix, so for l = 1/2 the matrix of t(A)
is A itself.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .exactcomb import HalfInt, binomial, check_spin_pair
from .group import EulerAngles, Mat2C
from .specfun import (
    _binom_power_coeffs,
    _exact_series,
    _float_series,
    _hyp2f1_coeffs_cached,
    _jacobi_coeffs_cached,
    _poly_derivative,
    _poly_mul,
    hyp2f1_complex,
)

__all__ = [
    "RouteUnavailableError",
    "WignerMatrix",
    "oracle_matrix",
    "oracle_stack",
    "tmn_sum",
    "sum_matrix",
    "tmn_hyp",
    "hyp_entries",
    "tmn_hyp_symmetric",
    "tmn_jacobi",
    "jacobi_entries",
    "jacobi_matrix",
    "dmatrix_euler",
    "tmn_rodrigues",
    "rodrigues_stack",
    "tmn_krawtchouk",
    "krawtchouk_stack",
    "ELEMENT_ROUTES",
    "ROTATION_ROUTES",
    "SYMMETRIES",
    "apply_symmetry",
    "fold_to_quadrant",
    "character",
]


class RouteUnavailableError(ValueError):
    """A closed-form route was asked to evaluate on its singular locus."""


@dataclass(frozen=True)
class WignerMatrix:
    """Dense (2l+1) x (2l+1) matrix of representation matrix elements."""

    l: HalfInt
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        dim = self.l.twice + 1
        if entries.shape != (dim, dim):
            raise ValueError(f"expected shape ({dim}, {dim}), got {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("matrix contains non-finite entries")
        object.__setattr__(self, "entries", entries)

    def index_of(self, m: HalfInt) -> int:
        return _index(self.l, m)

    def entry(self, m: HalfInt, n: HalfInt) -> complex:
        return complex(self.entries[self.index_of(m), self.index_of(n)])


def _dim(l: HalfInt) -> int:
    if l.twice < 0:
        raise ValueError(f"negative spin l={l}")
    return l.twice + 1


def _powers(x, top: int) -> list:
    # x**e for e = 0 .. top, each by its own power operation.
    return [x**e for e in range(top + 1)]


class _PowerOf:
    """Stands in for _powers(x, top) where a single entry is computed: x**e
    is taken when the kernel reads index e, so the entry computes only its
    own powers, in the order its formula reads them.  (Whether a complex
    power overflows is not monotone in e: x**2 can raise where x**4 comes
    out as nan.)"""

    __slots__ = ("x",)

    def __init__(self, x, top: int | None = None):
        self.x = x

    def __getitem__(self, e: int):
        return self.x**e


def _expansion_tables(A: Mat2C, l2: int) -> tuple:
    """What the column expansions of one matrix of spin l2/2 read: the powers
    x^e of a, b, c and d for e <= l2 and the binomial rows C(r, k), r <= l2."""
    powers = tuple(_powers(x, l2) for x in (A.a, A.b, A.c, A.d))
    rows = [[1]]
    for _ in range(l2):
        prev = rows[-1]
        rows.append([1, *[x + y for x, y in zip(prev, prev[1:])], 1])
    return powers, rows


def _column_expansion(p: int, q: int, tables: tuple) -> np.ndarray:
    """sqrt(C(p+q, p)) (a z1 + c z2)^p (b z1 + d z2)^q, expanded: entry k
    multiplies z1^(p+q-k) z2^k."""
    (a_pow, b_pow, c_pow, d_pow), rows = tables
    left = np.array([rows[p][k] * a_pow[p - k] * c_pow[k] for k in range(p + 1)], dtype=complex)
    right = np.array([rows[q][k] * b_pow[q - k] * d_pow[k] for k in range(q + 1)], dtype=complex)
    return math.sqrt(binomial(p + q, p)) * np.convolve(left, right)


def _row_norm(l2: int) -> np.ndarray:
    # Row m sits at z2-degree i = l + m; its basis normalization is C(2l, l-m).
    return np.array([math.sqrt(binomial(l2, l2 - i)) for i in range(l2 + 1)])


def oracle_matrix(l: HalfInt, A: Mat2C) -> WignerMatrix:
    """Brute-force matrix of t(A): column n is read off the expanded image
    sqrt(C(2l, l-n)) (a z1 + c z2)^(l-n) (b z1 + d z2)^(l+n) of basis monomial
    n.  This is the reference implementation every closed-form route is tested
    against; it has no singular parameter set."""
    dim = _dim(l)
    tables = _expansion_tables(A, l.twice)
    row_norm = _row_norm(l.twice)
    entries = np.empty((dim, dim), dtype=complex)
    for j in range(dim):  # column n = -l + j: p = l - n, q = l + n
        entries[:, j] = _column_expansion(l.twice - j, j, tables) / row_norm
    return WignerMatrix(l, entries)


def _binomial_row(n: int) -> np.ndarray:
    return np.array([binomial(n, k) for k in range(n + 1)], dtype=float)


def oracle_stack(l: HalfInt, a, b, c, d) -> np.ndarray:
    """oracle_matrix at N elements at once, shape (N, 2l+1, 2l+1).

    a, b, c, d are (N,) arrays holding the entries of the N elements.  Each
    column is the same exact-binomial expansion as in oracle_matrix, done on
    tables of the entries' powers, with the convolution written as shifted
    adds.  The loops run over the spin's indices, never over the elements.
    """
    dim = _dim(l)
    entries = [np.asarray(x, dtype=complex) for x in (a, b, c, d)]
    if any(x.ndim != 1 or x.shape != entries[0].shape for x in entries):
        raise ValueError("expected four (N,) arrays of one length N")
    # power tables x_pow[:, e] = x^e for e <= 2l, with 0^0 = 1
    a_pow, b_pow, c_pow, d_pow = (
        np.cumprod(np.column_stack([np.ones_like(x)] + [x] * l.twice), axis=1) for x in entries
    )
    row_norm = _row_norm(l.twice)
    stack = np.zeros((len(entries[0]), dim, dim), dtype=complex)
    for j in range(dim):
        # column n = -l + j: (a z1 + c z2)^p (b z1 + d z2)^q with p = l - n, q = l + n
        p, q = l.twice - j, j
        left = _binomial_row(p) * a_pow[:, p::-1] * c_pow[:, : p + 1]
        right = _binomial_row(q) * b_pow[:, q::-1] * d_pow[:, : q + 1]
        if p > q:  # shift the shorter factor
            left, right = right, left
        column = stack[:, :, j]
        for k in range(left.shape[1]):
            column[:, k : k + right.shape[1]] += left[:, k : k + 1] * right
        column *= math.sqrt(binomial(l.twice, p))
        column /= row_norm
    if not np.all(np.isfinite(stack)):
        raise ValueError("matrix contains non-finite entries")
    return stack


# Every closed-form route below is written as one entry kernel on plain
# integers, called over the entries of a whole matrix.  With l2 = 2l, row
# i = l + m and column j = l + n, so l - m = l2 - i, l - n = l2 - j,
# m + n = i + j - l2 and m - n = i - j.  A kernel reads its powers and its
# trigonometric values from tables that a matrix builds once; the public
# per-entry functions check their HalfInt arguments, build the tables for
# their one entry and call the same kernel.


def _index(l: HalfInt, m: HalfInt) -> int:
    # Row or column index l + m of the weight m, after checking it is one.
    check_spin_pair(l, m)
    return (l.twice + m.twice) // 2


def _sqrt_fraction(num: int, den: int) -> float:
    # sqrt(num / den) with the ratio rounded once (int / int) before the root.
    return math.sqrt(num / den)


def _sum_entry(l2: int, i: int, j: int, powers: tuple) -> complex:
    a_pow, b_pow, c_pow, d_pow = powers
    lm, ln, mn = l2 - i, l2 - j, i + j - l2
    acc = 0j
    for k in range(max(0, -mn), min(lm, ln) + 1):
        acc += comb(ln, k) * comb(j, lm - k) * a_pow[k] * b_pow[lm - k] * c_pow[ln - k] * d_pow[mn + k]
    return _sqrt_fraction(comb(l2, ln), comb(l2, lm)) * acc


def tmn_sum(l: HalfInt, m: HalfInt, n: HalfInt, A: Mat2C) -> complex:
    """Single matrix element by the explicit finite sum over monomials.

    All binomials are exact integers; the monomials a^j b^.. c^.. d^.. are
    evaluated in floating point with the 0^0 = 1 convention, which is what
    makes the corner cases with vanishing entries come out right.
    """
    i, j = _index(l, m), _index(l, n)
    return _sum_entry(l.twice, i, j, tuple(_PowerOf(x) for x in (A.a, A.b, A.c, A.d)))


def sum_matrix(l: HalfInt, A: Mat2C) -> WignerMatrix:
    """The whole matrix by the finite sum, from one table of the powers of
    a, b, c and d."""
    dim = _dim(l)
    powers = tuple(_powers(x, l.twice) for x in (A.a, A.b, A.c, A.d))
    return WignerMatrix(l, [[_sum_entry(l.twice, i, j, powers) for j in range(dim)] for i in range(dim)])


def _factorial_ratio_sqrt(p: int, q: int, r: int, s: int) -> float:
    # sqrt(p! q! / (r! s!)) with the ratio taken exactly before the root.
    return _sqrt_fraction(factorial(p) * factorial(q), factorial(r) * factorial(s))


def _hyp_tables(A: Mat2C, l2: int, powers=_powers) -> tuple:
    # The 2F1 arguments ad/(bc) and (bc - ad)/(bc), then the powers.
    if A.b == 0 or A.c == 0:
        raise RouteUnavailableError("2F1 route needs b != 0 and c != 0")
    bc = A.b * A.c
    if bc == 0:
        raise RouteUnavailableError("2F1 route needs b * c != 0; it underflows to 0")
    ad = A.a * A.d
    z, w = ad / bc, (bc - ad) / bc
    if not (cmath.isfinite(z) and cmath.isfinite(w)):
        raise RouteUnavailableError("2F1 route needs ad/(bc) finite; it overflows")
    return z, w, powers(A.b, l2), powers(A.c, l2), powers(A.d, l2)


def _hyp_entry(l2: int, i: int, j: int, tables: tuple) -> complex:
    # Needs m + n >= 0 (i + j >= l2).
    z, _, b_pow, c_pow, d_pow = tables
    lm, ln, mn = l2 - i, l2 - j, i + j - l2
    pref = _factorial_ratio_sqrt(i, j, lm, ln)
    series = hyp2f1_complex(-lm, -ln, mn + 1, min(lm, ln), z)
    return pref * b_pow[lm] * c_pow[ln] * d_pow[mn] / factorial(mn) * series


def _hyp_args(l: HalfInt, m: HalfInt, n: HalfInt, A: Mat2C) -> tuple:
    i, j = _index(l, m), _index(l, n)
    l2 = l.twice
    if i + j < l2:
        raise RouteUnavailableError("2F1 route needs m + n >= 0")
    return l2, i, j, _hyp_tables(A, l2, _PowerOf)


def tmn_hyp(l: HalfInt, m: HalfInt, n: HalfInt, A: Mat2C) -> complex:
    """Matrix element as a prefactor times a terminating 2F1 in ad/(bc).

    Needs m+n >= 0 and b, c nonzero; outside that the finite-sum or oracle
    routes apply.
    """
    return _hyp_entry(*_hyp_args(l, m, n, A))


def hyp_entries(l: HalfInt, A: Mat2C) -> dict:
    """tmn_hyp on its whole index domain m + n >= 0, keyed by (row, column)
    in row-major order."""
    l2 = _dim(l) - 1
    tables = _hyp_tables(A, l2)
    return {(i, j): _hyp_entry(l2, i, j, tables) for i in range(l2 + 1) for j in range(max(0, l2 - i), l2 + 1)}


def tmn_hyp_symmetric(l: HalfInt, m: HalfInt, n: HalfInt, A: Mat2C) -> complex:
    """Variant 2F1 form with the symmetric binomial prefactor and argument
    (bc - ad)/(bc); same domain as tmn_hyp."""
    l2, i, j, (_, w, b_pow, c_pow, d_pow) = _hyp_args(l, m, n, A)
    lm, ln, mn = l2 - i, l2 - j, i + j - l2
    pref = math.sqrt(comb(l2, lm) * comb(l2, ln))
    series = hyp2f1_complex(-lm, -ln, -l2, min(lm, ln), w)
    return pref * b_pow[lm] * c_pow[ln] * d_pow[mn] * series


def _jacobi_tables(A: Mat2C, l2: int, powers=_powers) -> tuple:
    # (x, powers of c, d and bc - ad) with the Jacobi argument
    # (bc + ad)/(bc - ad) = 1 + 2x.  In the quadrant, l - m <= l.
    bc = A.b * A.c
    ad = A.a * A.d
    if bc == ad:
        raise RouteUnavailableError("Jacobi route needs bc != ad")
    x = ((bc + ad) / (bc - ad) - 1) / 2
    return x, powers(A.c, l2), powers(A.d, l2), powers(bc - ad, l2 // 2)


def _jacobi_entry(l2: int, i: int, j: int, tables: tuple) -> complex:
    # Needs the quadrant m + n >= 0, m - n >= 0 (i + j >= l2, i >= j).
    x, c_pow, d_pow, diff_pow = tables
    lm, mn, mmn = l2 - i, i + j - l2, i - j
    pref = _factorial_ratio_sqrt(i, lm, j, l2 - j)
    nums, den = _jacobi_coeffs_cached(mn, mmn, lm)
    poly = _float_series([c / den for c in nums], x)
    return pref * c_pow[mmn] * d_pow[mn] * diff_pow[lm] * poly


def tmn_jacobi(l: HalfInt, m: HalfInt, n: HalfInt, A: Mat2C) -> complex:
    """Matrix element as a Jacobi polynomial in (bc+ad)/(bc-ad).

    Needs m+n >= 0 and m-n >= 0 (the other three index triangles are reached
    through fold_to_quadrant) and bc != ad.
    """
    i, j = _index(l, m), _index(l, n)
    l2 = l.twice
    if i + j < l2 or i < j:
        raise RouteUnavailableError("Jacobi route needs m + n >= 0 and m - n >= 0")
    return _jacobi_entry(l2, i, j, _jacobi_tables(A, l2, _PowerOf))


def jacobi_entries(l: HalfInt, A: Mat2C) -> dict:
    """tmn_jacobi on its whole quadrant m + n >= 0, m - n >= 0, keyed by
    (row, column) in row-major order."""
    l2 = _dim(l) - 1
    tables = _jacobi_tables(A, l2)
    return {(i, j): _jacobi_entry(l2, i, j, tables) for i in range(l2 + 1) for j in range(max(0, l2 - i), i + 1)}


def jacobi_matrix(l: HalfInt, A: Mat2C) -> WignerMatrix:
    """The whole matrix by the Jacobi form, each entry folded onto the
    quadrant m + n >= 0, m - n >= 0 by the index symmetry that reaches it.

    Raises RouteUnavailableError when bc = ad.
    """
    dim = _dim(l)
    l2 = l.twice
    elements = {None: A, **{which: element_map(A) for which, (_, element_map) in SYMMETRIES.items()}}
    tables = {which: _jacobi_tables(B, l2) for which, B in elements.items()}
    values = [_jacobi_entry(l2, i, j, tables[which]) for which, i, j in _quadrant_fold(l2)]
    return WignerMatrix(l, np.reshape(values, (dim, dim)))


def _wrap_angle(x: float) -> float:
    out = math.fmod(x, 2 * math.pi)
    return out + 2 * math.pi if out < 0 else out


def _cos2_exact(theta: float, sin_t: float, cos_t: float) -> Fraction:
    # Rational representation of cos(2 theta) for the closed forms whose
    # value collapses to a power of 1 -+ cos(2 theta) near an interval end:
    # keep the collapsing factor exact on whichever side collapses, so the
    # negative trig powers in the prefactors cannot amplify its rounding.
    if theta <= math.pi / 4:
        return 1 - 2 * Fraction(sin_t) ** 2
    return 2 * Fraction(cos_t) ** 2 - 1


# The index symmetries t^l_{m,n}(A) = t^l_{m',n'}(A'), each as its map on the
# indices (i, j) of spin l2 and its map on A: transpose-bc swaps the indices
# and the off-diagonal entries; flip-signs negates both indices and reverses
# the matrix across its anti-diagonal; anti-transpose is their composition.
SYMMETRIES = {
    "transpose-bc": (lambda l2, i, j: (j, i), lambda A: Mat2C(A.a, A.c, A.b, A.d)),
    "flip-signs": (lambda l2, i, j: (l2 - i, l2 - j), lambda A: Mat2C(A.d, A.c, A.b, A.a)),
    "anti-transpose": (lambda l2, i, j: (l2 - j, l2 - i), lambda A: Mat2C(A.d, A.b, A.c, A.a)),
}

# Each index symmetry as it acts on the phases of the angle chart: it maps a
# chart element to another chart element, (phi, psi) -> (phi', psi').
_CHART_PHASES = {
    "transpose-bc": lambda phi, psi: (phi, _wrap_angle(math.pi - psi)),
    "flip-signs": lambda phi, psi: (_wrap_angle(-phi), _wrap_angle(math.pi - psi)),
    "anti-transpose": lambda phi, psi: (_wrap_angle(-phi), psi),
}


def _quadrant_symmetry(l2: int, i: int, j: int) -> str | None:
    # The symmetry that folds (i, j) onto the closed-form quadrant
    # m + n >= 0, m - n >= 0; None inside it.
    if i + j >= l2:
        return None if i >= j else "transpose-bc"
    return "anti-transpose" if i >= j else "flip-signs"


def _quadrant_fold(l2: int):
    # (symmetry, i', j') for each entry of spin l2 in row-major order: the
    # symmetry that folds it onto the quadrant and the indices it lands on.
    for i in range(l2 + 1):
        for j in range(l2 + 1):
            which = _quadrant_symmetry(l2, i, j)
            yield (which, i, j) if which is None else (which, *SYMMETRIES[which][0](l2, i, j))


def _chart_entry(l2: int, i: int, j: int, chart: tuple, phi: float, psi: float) -> complex:
    # Closed form on the angle chart for the quadrant i + j >= l2, i >= j;
    # chart = (sin theta, cos theta, (cos 2 theta - 1)/2 as an integer ratio).
    sin_t, cos_t, h = chart
    lm, mn, mmn = l2 - i, i + j - l2, i - j
    pref = _factorial_ratio_sqrt(i, lm, j, l2 - j)
    sign = -1.0 if lm % 2 else 1.0
    nums, den = _jacobi_coeffs_cached(mn, mmn, lm)
    jac = _exact_series(nums, den, h)
    phase = cmath.exp(1j * (mmn * psi - mn * phi))
    return sign * pref * phase * sin_t**mn * cos_t**mmn * jac


def dmatrix_euler(l: HalfInt, angles: EulerAngles) -> WignerMatrix:
    """Full matrix on the angle chart from the closed form plus symmetries."""
    dim = _dim(l)
    theta, phi, psi = angles.theta, angles.phi, angles.psi
    num, q = math.cos(2 * theta).as_integer_ratio()
    chart = (math.sin(theta), math.cos(theta), (num - q, 2 * q))
    phases = {None: (phi, psi), **{which: fn(phi, psi) for which, fn in _CHART_PHASES.items()}}
    values = [_chart_entry(l.twice, i, j, chart, *phases[which]) for which, i, j in _quadrant_fold(l.twice)]
    return WignerMatrix(l, np.reshape(values, (dim, dim)))


def _rodrigues_chart(theta: float) -> tuple:
    if not 0 < theta < math.pi / 2:
        raise RouteUnavailableError("derivative route needs theta strictly inside (0, pi/2)")
    sin_t = math.sin(theta)
    cos_t = math.cos(theta)
    return sin_t, cos_t, _cos2_exact(theta, sin_t, cos_t).as_integer_ratio()


def _rodrigues_entries(l2: int, i: int, j: int, charts: list) -> list[float]:
    # The entry at each chart (sin theta, cos theta, cos 2 theta as an
    # integer ratio); the derivative is expanded once for all of them.
    lm, ln, mn, mmn = l2 - i, l2 - j, i + j - l2, i - j
    deriv = _poly_derivative(_poly_mul(_binom_power_coeffs(-1, j), _binom_power_coeffs(+1, ln)), lm)
    pref = _sqrt_fraction(factorial(i), factorial(lm) * factorial(j) * factorial(ln)) * 2.0 ** (-i)
    out = []
    for sin_t, cos_t, cos2 in charts:
        # Exact Horner: the expanded derivative cancels almost completely near
        # the interval ends (its value carries the surviving power of 1 -+ s),
        # and a floating-point evaluation there would be wiped out by the
        # negative sin/cos powers of the prefactor.
        value = _exact_series(deriv, 1, cos2)
        out.append(pref * sin_t ** (-mn) * cos_t ** (-mmn) * value)
    return out


def tmn_rodrigues(l: HalfInt, m: HalfInt, n: HalfInt, theta: float) -> float:
    """Matrix element at zero phases via a Rodrigues-type derivative.

    The derivative of (1-s)^(l+n) (1+s)^(l-n) is expanded symbolically with
    exact integer coefficients and then evaluated at s = cos(2*theta).  Valid
    for every (m, n), but the prefactor holds negative powers of sin and cos,
    so theta must lie strictly inside (0, pi/2).
    """
    i, j = _index(l, m), _index(l, n)
    return _rodrigues_entries(l.twice, i, j, [_rodrigues_chart(theta)])[0]


def _entry_stack(l: HalfInt, charts: list, entries) -> np.ndarray:
    # The stack of every entry at each chart, shape (len(charts), 2l+1, 2l+1);
    # entries(l2, i, j, charts) lists the values of entry (i, j) per chart.
    dim = l.twice + 1
    values = [entries(l.twice, i, j, charts) for i in range(dim) for j in range(dim)]
    return np.ascontiguousarray(np.array(values, dtype=float).reshape(dim, dim, len(charts)).transpose(2, 0, 1))


def rodrigues_stack(l: HalfInt, thetas) -> np.ndarray:
    """tmn_rodrigues for every (m, n) at each of the thetas, shape
    (len(thetas), 2l+1, 2l+1); each derivative is expanded once."""
    _dim(l)
    return _entry_stack(l, [_rodrigues_chart(theta) for theta in thetas], _rodrigues_entries)


_NEGATIVE_SIN = "negative sin power: Krawtchouk route needs theta > 0 when m + n < 0"


def _krawtchouk_chart(theta: float) -> tuple:
    sin_t = math.sin(theta)
    cos_t = math.cos(theta)
    # Success parameter cos^2(theta) as an exact rational with the side
    # nearest collapse kept exact (the polynomial value degenerates to a
    # power of 1 - p near theta = 0 and of p near theta = pi/2, both of
    # which meet negative trig powers in the prefactor).
    p = (1 + _cos2_exact(theta, sin_t, cos_t)) / 2
    if p == 0 or theta >= math.pi / 2:
        raise RouteUnavailableError("Krawtchouk route needs cos(theta) != 0")
    p_num, p_den = p.as_integer_ratio()
    return sin_t, cos_t, (p_den, p_num)


def _krawtchouk_entries(l2: int, i: int, j: int, charts: list) -> list[float]:
    # The entry at each chart (sin theta, cos theta, 1/p as an integer
    # ratio); K_{l-m}(l-n; p, 2l) = 2F1(-(l-m), -(l-n); -2l; 1/p) is written
    # over one denominator once for all of them.
    lm, ln, mn = l2 - i, l2 - j, i + j - l2
    nums, den = _hyp2f1_coeffs_cached(-lm, -ln, -l2, lm)
    pref = (-1.0 if lm % 2 else 1.0) * math.sqrt(comb(l2, lm) * comb(l2, ln))
    return [
        pref * cos_t ** (lm + ln) * sin_t**mn * _exact_series(nums, den, inv_p)
        for sin_t, cos_t, inv_p in charts
    ]


def tmn_krawtchouk(l: HalfInt, m: HalfInt, n: HalfInt, theta: float) -> float:
    """Matrix element at zero phases via a Krawtchouk polynomial.

    Valid for every (m, n); for m+n < 0 the sin power is genuinely negative,
    so theta = 0 is refused there, and cos(theta) = 0 is always refused
    because it puts p = 0 inside the Krawtchouk argument.
    """
    i, j = _index(l, m), _index(l, n)
    l2 = l.twice
    if l2 == 0:
        return 1.0  # spin-0 representation is trivial; K needs a positive lattice size
    chart = _krawtchouk_chart(theta)
    if i + j < l2 and (chart[0] == 0.0 or theta <= 0.0):
        raise RouteUnavailableError(_NEGATIVE_SIN)
    return _krawtchouk_entries(l2, i, j, [chart])[0]


def krawtchouk_stack(l: HalfInt, thetas) -> np.ndarray:
    """tmn_krawtchouk for every (m, n) at each of the thetas, shape
    (len(thetas), 2l+1, 2l+1); each polynomial's coefficients are put over
    one denominator once."""
    if _dim(l) == 1:
        return np.ones((len(thetas), 1, 1))
    charts = []
    for theta in thetas:
        chart = _krawtchouk_chart(theta)
        if chart[0] == 0.0 or theta <= 0.0:  # entry (0, 0) has m + n = -2l < 0
            raise RouteUnavailableError(_NEGATIVE_SIN)
        charts.append(chart)
    return _entry_stack(l, charts, _krawtchouk_entries)


# The routes that build a whole matrix of any element, called as (l, A); the
# oracle, first, has no singular set.  The lambdas look each function up at
# call time, so a replaced module attribute (a tracing wrapper) is what runs.
ELEMENT_ROUTES = {
    "oracle": lambda l, A: oracle_matrix(l, A),
    "sum": lambda l, A: sum_matrix(l, A),
    "jacobi": lambda l, A: jacobi_matrix(l, A),
}
# The routes on real rotations only: each takes (l, thetas) and returns the
# zero-phase matrices at those colatitudes, shape (len(thetas), 2l+1, 2l+1).
ROTATION_ROUTES = {
    "rodrigues": lambda l, thetas: rodrigues_stack(l, thetas),
    "krawtchouk": lambda l, thetas: krawtchouk_stack(l, thetas),
}


def apply_symmetry(which: str, l: HalfInt, m: HalfInt, n: HalfInt, A: Mat2C):
    """Return (m', n', A') with t^l_{m,n}(A) = t^l_{m',n'}(A').

    transpose-bc swaps the indices and the off-diagonal entries; flip-signs
    negates both indices and reverses the matrix across its anti-diagonal
    [[a,b],[c,d]] -> [[d,c],[b,a]]; anti-transpose is their composition,
    (m,n) -> (-n,-m) with [[a,b],[c,d]] -> [[d,b],[c,a]].
    """
    i, j = _index(l, m), _index(l, n)
    if which not in SYMMETRIES:
        raise ValueError(f"unknown symmetry {which!r}; expected one of {tuple(SYMMETRIES)}")
    index_map, element_map = SYMMETRIES[which]
    i2, j2 = index_map(l.twice, i, j)
    return HalfInt(2 * i2 - l.twice), HalfInt(2 * j2 - l.twice), element_map(A)


def fold_to_quadrant(l: HalfInt, m: HalfInt, n: HalfInt, A: Mat2C):
    """Return (m', n', A') with t^l_{m,n}(A) = t^l_{m',n'}(A') and
    m' + n' >= 0, m' - n' >= 0; inside that quadrant, (m, n, A) itself."""
    which = _quadrant_symmetry(l.twice, _index(l, m), _index(l, n))
    return (m, n, A) if which is None else apply_symmetry(which, l, m, n, A)


def character(l: HalfInt, A: Mat2C) -> complex:
    """Trace of the spin-l representation matrix."""
    return complex(np.trace(oracle_matrix(l, A).entries))
