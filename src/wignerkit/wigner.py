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

import numpy as np

from .exactcomb import (
    HalfInt,
    binomial,
    check_spin_pair,
    factorial,
    spin_range,
    sqrt_binom_ratio,
)
from .group import EulerAngles, Mat2C
from .specfun import (
    JacobiParams,
    _binom_power_coeffs,
    _exact_series,
    _poly_derivative,
    _poly_mul,
    hyp2f1_complex,
    jacobi_complex,
    jacobi_eval,
    krawtchouk,
)

__all__ = [
    "RouteUnavailableError",
    "WignerMatrix",
    "transformed_basis_vector",
    "oracle_matrix",
    "oracle_stack",
    "tmn_sum",
    "tmn_hyp",
    "tmn_hyp_symmetric",
    "tmn_jacobi",
    "dmatrix_euler",
    "tmn_rodrigues",
    "tmn_krawtchouk",
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
        check_spin_pair(self.l, m)
        return (m.twice + self.l.twice) // 2

    def spins(self) -> list[HalfInt]:
        return spin_range(self.l)

    def entry(self, m: HalfInt, n: HalfInt) -> complex:
        return complex(self.entries[self.index_of(m), self.index_of(n)])


def transformed_basis_vector(l: HalfInt, n: HalfInt, A: Mat2C) -> np.ndarray:
    """Image of the n-th normalized basis monomial under t(A), expanded.

    Expands sqrt(C(2l, l-n)) (a z1 + c z2)^(l-n) (b z1 + d z2)^(l+n) via an
    exact binomial convolution of the two factor coefficient arrays.  Returns
    the 2l+1 complex coefficients; entry k multiplies z1^(2l-k) z2^k.
    """
    check_spin_pair(l, n)
    p = (l - n).as_int()
    q = (l + n).as_int()
    left = np.array([binomial(p, k) * A.a ** (p - k) * A.c**k for k in range(p + 1)], dtype=complex)
    right = np.array([binomial(q, k) * A.b ** (q - k) * A.d**k for k in range(q + 1)], dtype=complex)
    return math.sqrt(binomial(l.twice, p)) * np.convolve(left, right)


def oracle_matrix(l: HalfInt, A: Mat2C) -> WignerMatrix:
    """Brute-force matrix of t(A): read each column off a polynomial expansion.

    This is the reference implementation every closed-form route is tested
    against; it has no singular parameter set.
    """
    dim = l.twice + 1
    # row m sits at z2-degree i = l + m; its basis normalization is C(2l, l-m).
    row_norm = np.array([math.sqrt(binomial(l.twice, l.twice - i)) for i in range(dim)])
    entries = np.empty((dim, dim), dtype=complex)
    for j, n in enumerate(spin_range(l)):
        entries[:, j] = transformed_basis_vector(l, n, A) / row_norm
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
    if l.twice < 0:
        raise ValueError(f"negative spin l={l}")
    entries = [np.asarray(x, dtype=complex) for x in (a, b, c, d)]
    if any(x.ndim != 1 or x.shape != entries[0].shape for x in entries):
        raise ValueError("expected four (N,) arrays of one length N")
    dim = l.twice + 1
    # power tables x_pow[:, e] = x^e for e <= 2l, with 0^0 = 1
    a_pow, b_pow, c_pow, d_pow = (
        np.cumprod(np.column_stack([np.ones_like(x)] + [x] * l.twice), axis=1) for x in entries
    )
    row_norm = np.array([math.sqrt(binomial(l.twice, l.twice - i)) for i in range(dim)])
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


def tmn_sum(l: HalfInt, m: HalfInt, n: HalfInt, A: Mat2C) -> complex:
    """Single matrix element by the explicit finite sum over monomials.

    All binomials are exact integers; the monomials a^j b^.. c^.. d^.. are
    evaluated in floating point with the 0^0 = 1 convention, which is what
    makes the corner cases with vanishing entries come out right.
    """
    check_spin_pair(l, m)
    check_spin_pair(l, n)
    lm = (l - m).as_int()
    ln = (l - n).as_int()
    lpn = (l + n).as_int()
    mn = (m + n).as_int()
    acc = 0j
    for j in range(max(0, -mn), min(lm, ln) + 1):
        coef = binomial(ln, j) * binomial(lpn, lm - j)
        acc += coef * A.a**j * A.b ** (lm - j) * A.c ** (ln - j) * A.d ** (mn + j)
    return sqrt_binom_ratio(l, m, n) * acc


def _factorial_ratio_sqrt(p: int, q: int, r: int, s: int) -> float:
    # sqrt(p! q! / (r! s!)) with the ratio taken exactly before the root.
    return math.sqrt(Fraction(factorial(p) * factorial(q), factorial(r) * factorial(s)))


def _check_hyp_domain(l: HalfInt, m: HalfInt, n: HalfInt, A: Mat2C) -> None:
    check_spin_pair(l, m)
    check_spin_pair(l, n)
    if (m + n).twice < 0:
        raise RouteUnavailableError("2F1 route needs m + n >= 0")
    if A.b == 0 or A.c == 0:
        raise RouteUnavailableError("2F1 route needs b != 0 and c != 0")


def tmn_hyp(l: HalfInt, m: HalfInt, n: HalfInt, A: Mat2C) -> complex:
    """Matrix element as a prefactor times a terminating 2F1 in ad/(bc).

    Needs m+n >= 0 and b, c nonzero; outside that the finite-sum or oracle
    routes apply.
    """
    _check_hyp_domain(l, m, n, A)
    lm = (l - m).as_int()
    ln = (l - n).as_int()
    mn = (m + n).as_int()
    pref = _factorial_ratio_sqrt((l + m).as_int(), (l + n).as_int(), lm, ln)
    series = hyp2f1_complex(-lm, -ln, mn + 1, min(lm, ln), A.a * A.d / (A.b * A.c))
    return pref * A.b**lm * A.c**ln * A.d**mn / factorial(mn) * series


def tmn_hyp_symmetric(l: HalfInt, m: HalfInt, n: HalfInt, A: Mat2C) -> complex:
    """Variant 2F1 form with the symmetric binomial prefactor and argument
    (bc - ad)/(bc); same domain as tmn_hyp."""
    _check_hyp_domain(l, m, n, A)
    lm = (l - m).as_int()
    ln = (l - n).as_int()
    mn = (m + n).as_int()
    bc = A.b * A.c
    pref = math.sqrt(binomial(l.twice, lm) * binomial(l.twice, ln))
    series = hyp2f1_complex(-lm, -ln, -l.twice, min(lm, ln), (bc - A.a * A.d) / bc)
    return pref * A.b**lm * A.c**ln * A.d**mn * series


def tmn_jacobi(l: HalfInt, m: HalfInt, n: HalfInt, A: Mat2C) -> complex:
    """Matrix element as a Jacobi polynomial in (bc+ad)/(bc-ad).

    Needs m+n >= 0 and m-n >= 0 (the other three index triangles are reached
    through fold_to_quadrant) and bc != ad.
    """
    check_spin_pair(l, m)
    check_spin_pair(l, n)
    if (m + n).twice < 0 or (m - n).twice < 0:
        raise RouteUnavailableError("Jacobi route needs m + n >= 0 and m - n >= 0")
    bc = A.b * A.c
    ad = A.a * A.d
    if bc == ad:
        raise RouteUnavailableError("Jacobi route needs bc != ad")
    lm = (l - m).as_int()
    mn = (m + n).as_int()
    mmn = (m - n).as_int()
    pref = _factorial_ratio_sqrt((l + m).as_int(), lm, (l + n).as_int(), (l - n).as_int())
    poly = jacobi_complex(JacobiParams(mn, mmn, lm), (bc + ad) / (bc - ad))
    return pref * A.c**mmn * A.d**mn * (bc - ad) ** lm * poly


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


def _quadrant_entry(l: HalfInt, m: HalfInt, n: HalfInt, theta: float, phi: float, psi: float) -> complex:
    # Closed form for m+n >= 0, m-n >= 0 on the angle chart.
    mn = (m + n).as_int()
    mmn = (m - n).as_int()
    lm = (l - m).as_int()
    pref = _factorial_ratio_sqrt((l + m).as_int(), lm, (l + n).as_int(), (l - n).as_int())
    sign = -1.0 if lm % 2 else 1.0
    jac = jacobi_eval(JacobiParams(mn, mmn, lm), math.cos(2 * theta))
    phase = cmath.exp(1j * (mmn * psi - mn * phi))
    return sign * pref * phase * math.sin(theta) ** mn * math.cos(theta) ** mmn * jac


def _quadrant_symmetry(m: HalfInt, n: HalfInt) -> str | None:
    # The symmetry that folds (m, n) onto the closed-form quadrant
    # m + n >= 0, m - n >= 0; None inside it.
    if (m + n).twice >= 0:
        return None if (m - n).twice >= 0 else "transpose-bc"
    return "anti-transpose" if (m - n).twice >= 0 else "flip-signs"


# Each index symmetry as it acts on the angle chart: it maps a chart element
# to another chart element, (m, n, phi, psi) -> (m', n', phi', psi').
_CHART_SYMMETRIES = {
    "transpose-bc": lambda m, n, phi, psi: (n, m, phi, _wrap_angle(math.pi - psi)),
    "anti-transpose": lambda m, n, phi, psi: (-n, -m, _wrap_angle(-phi), psi),
    "flip-signs": lambda m, n, phi, psi: (-m, -n, _wrap_angle(-phi), _wrap_angle(math.pi - psi)),
}


def _euler_entry(l: HalfInt, m: HalfInt, n: HalfInt, theta: float, phi: float, psi: float) -> complex:
    which = _quadrant_symmetry(m, n)
    if which is not None:
        m, n, phi, psi = _CHART_SYMMETRIES[which](m, n, phi, psi)
    return _quadrant_entry(l, m, n, theta, phi, psi)


def dmatrix_euler(l: HalfInt, angles: EulerAngles) -> WignerMatrix:
    """Full matrix on the angle chart from the closed form plus symmetries."""
    dim = l.twice + 1
    entries = np.empty((dim, dim), dtype=complex)
    for i, m in enumerate(spin_range(l)):
        for j, n in enumerate(spin_range(l)):
            entries[i, j] = _euler_entry(l, m, n, angles.theta, angles.phi, angles.psi)
    return WignerMatrix(l, entries)


def tmn_rodrigues(l: HalfInt, m: HalfInt, n: HalfInt, theta: float) -> float:
    """Matrix element at zero phases via a Rodrigues-type derivative.

    The derivative of (1-s)^(l+n) (1+s)^(l-n) is expanded symbolically with
    exact integer coefficients and then evaluated at s = cos(2*theta).  Valid
    for every (m, n), but the prefactor holds negative powers of sin and cos,
    so theta must lie strictly inside (0, pi/2).
    """
    check_spin_pair(l, m)
    check_spin_pair(l, n)
    if not 0 < theta < math.pi / 2:
        raise RouteUnavailableError("derivative route needs theta strictly inside (0, pi/2)")
    lm = (l - m).as_int()
    lpm = (l + m).as_int()
    ln = (l - n).as_int()
    lpn = (l + n).as_int()
    deriv = _poly_derivative(_poly_mul(_binom_power_coeffs(-1, lpn), _binom_power_coeffs(+1, ln)), lm)
    sin_t = math.sin(theta)
    cos_t = math.cos(theta)
    # Exact Horner: the expanded derivative cancels almost completely near
    # the interval ends (its value carries the surviving power of 1 -+ s),
    # and a floating-point evaluation there would be wiped out by the
    # negative sin/cos powers of the prefactor.
    value = _exact_series(deriv, 1, _cos2_exact(theta, sin_t, cos_t).as_integer_ratio())
    pref = math.sqrt(Fraction(factorial(lpm), factorial(lm) * factorial(lpn) * factorial(ln)))
    mn = (m + n).as_int()
    mmn = (m - n).as_int()
    return pref * 2.0 ** (-lpm) * sin_t ** (-mn) * cos_t ** (-mmn) * value


def tmn_krawtchouk(l: HalfInt, m: HalfInt, n: HalfInt, theta: float) -> float:
    """Matrix element at zero phases via a Krawtchouk polynomial.

    Valid for every (m, n); for m+n < 0 the sin power is genuinely negative,
    so theta = 0 is refused there, and cos(theta) = 0 is always refused
    because it puts p = 0 inside the Krawtchouk argument.
    """
    check_spin_pair(l, m)
    check_spin_pair(l, n)
    if l.twice == 0:
        return 1.0  # spin-0 representation is trivial; K needs a positive lattice size
    sin_t = math.sin(theta)
    cos_t = math.cos(theta)
    # Success parameter cos^2(theta) as an exact rational with the side
    # nearest collapse kept exact (the polynomial value degenerates to a
    # power of 1 - p near theta = 0 and of p near theta = pi/2, both of
    # which meet negative trig powers in the prefactor).
    p = (1 + _cos2_exact(theta, sin_t, cos_t)) / 2
    if p == 0 or theta >= math.pi / 2:
        raise RouteUnavailableError("Krawtchouk route needs cos(theta) != 0")
    mn = (m + n).as_int()
    if mn < 0 and (sin_t == 0.0 or theta <= 0.0):
        raise RouteUnavailableError("negative sin power: Krawtchouk route needs theta > 0 when m + n < 0")
    lm = (l - m).as_int()
    ln = (l - n).as_int()
    pref = math.sqrt(binomial(l.twice, lm) * binomial(l.twice, ln))
    sign = -1.0 if lm % 2 else 1.0
    return sign * pref * cos_t ** (lm + ln) * sin_t**mn * krawtchouk(lm, float(ln), p, l.twice)


_SYMMETRY_NAMES = ("transpose-bc", "flip-signs", "anti-transpose")


def apply_symmetry(which: str, l: HalfInt, m: HalfInt, n: HalfInt, A: Mat2C):
    """Return (m', n', A') with t^l_{m,n}(A) = t^l_{m',n'}(A').

    transpose-bc swaps the indices and the off-diagonal entries; flip-signs
    negates both indices and reverses the matrix across its anti-diagonal
    [[a,b],[c,d]] -> [[d,c],[b,a]]; anti-transpose is their composition,
    (m,n) -> (-n,-m) with [[a,b],[c,d]] -> [[d,b],[c,a]].
    """
    check_spin_pair(l, m)
    check_spin_pair(l, n)
    if which == "transpose-bc":
        return n, m, Mat2C(A.a, A.c, A.b, A.d)
    if which == "flip-signs":
        return -m, -n, Mat2C(A.d, A.c, A.b, A.a)
    if which == "anti-transpose":
        return -n, -m, Mat2C(A.d, A.b, A.c, A.a)
    raise ValueError(f"unknown symmetry {which!r}; expected one of {_SYMMETRY_NAMES}")


def fold_to_quadrant(l: HalfInt, m: HalfInt, n: HalfInt, A: Mat2C):
    """Return (m', n', A') with t^l_{m,n}(A) = t^l_{m',n'}(A') and
    m' + n' >= 0, m' - n' >= 0; inside that quadrant, (m, n, A) itself."""
    check_spin_pair(l, m)
    check_spin_pair(l, n)
    which = _quadrant_symmetry(m, n)
    return (m, n, A) if which is None else apply_symmetry(which, l, m, n, A)


def character(l: HalfInt, A: Mat2C) -> complex:
    """Trace of the spin-l representation matrix."""
    return complex(np.trace(oracle_matrix(l, A).entries))
