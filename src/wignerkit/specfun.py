"""Terminating Gauss hypergeometric series and the classical polynomial
families built on them: Jacobi, Krawtchouk, Legendre.

Every series term is generated as an exact rational (Pochhammer ratios over
exact factorials) and converted to floating point as late as possible.  The
terminating sums alternate in sign, and naive floating-point term generation
loses digits to cancellation long before the degrees used here get large.

Every terminating series is summed one way, by an integer Horner scheme
(_exact_series): the coefficients are written over one common denominator
and the argument as a ratio of integers, a real p/q or a complex (p + i r)/q,
so the whole sum is a single integer quotient, or a Gaussian integer over an
integer, whose parts are each rounded once, with no gcd taken along the way.
jacobi_values, which evaluates many Jacobi rows at many real nodes, sums the
same integers against one table of powers per node instead of by Horner's
rule, and rounds the same rational once.  The coefficient rows of both series
are built in that integer form: the 2F1 row by its term-ratio recurrence
(_hyp2f1_coeffs_cached), the Jacobi row from its explicit sum
(_jacobi_coeffs_cached).  Every rounding is one int / int true division,
which is correctly rounded, so it gives the float that float(Fraction) gives
for the same rational.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .exactcomb import binomial, factorial

__all__ = [
    "JacobiParams",
    "hyp2f1_series_coeffs",
    "hyp2f1",
    "hyp2f1_complex",
    "jacobi_eval",
    "jacobi_values",
    "jacobi_complex",
    "jacobi_via_2f1",
    "jacobi_rodrigues",
    "krawtchouk",
    "legendre",
    "jacobi_norm",
]


@dataclass(frozen=True)
class JacobiParams:
    """Degree and exponent parameters of P_n^(alpha, beta).

    alpha and beta are unrestricted reals; the polynomial is defined through
    its terminating series for any parameter values.  Orthogonality-dependent
    quantities (jacobi_norm) additionally need alpha, beta > -1.
    """

    alpha: float
    beta: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", operator.index(self.n))
        if self.n < 0:
            raise ValueError(f"negative polynomial degree n={self.n}")


def _nonpositive_int(value):
    # Returns N >= 0 such that value == -N, or None.
    num, den = _as_ratio(value)
    return -num if den == 1 and num <= 0 else None


def _as_ratio(x) -> tuple[int, int]:
    # Exact numerator and positive denominator of a real input.
    if isinstance(x, (float, int, Fraction)):
        return x.as_integer_ratio()
    return Fraction(x).as_integer_ratio()


def _complex_ratio(w) -> tuple[int, int, int]:
    # (p, r, q) with w = (p + i r)/q exactly and q > 0: the parts of a complex
    # float share the larger of their denominators, both powers of two.
    (p, qp), (r, qr) = w.real.as_integer_ratio(), w.imag.as_integer_ratio()
    q = max(qp, qr)
    return p * (q // qp), r * (q // qr), q


def _exact_series(nums, den: int, z: tuple):
    """sum_k nums[k] / den * z^k for the rational z = p/q given as (p, q), or
    for the Gaussian rational z = (p + i r)/q given as (p, r, q) with q a
    power of two, which gives a complex.  den must be positive.

    With n = len(nums) - 1 the sum is sum_k nums[k] (p + i r)^k q^(n-k) /
    (den q^n); its numerator is accumulated by Horner's rule in integers, and
    the one true division per part at the end is correctly rounded, exactly
    like float(Fraction).
    """
    if len(z) == 3:
        p, r, q = z
        step, shift = q.bit_length() - 1, 0  # q^k is 1 << shift
        terms = reversed(nums)
        acc, acc_i = next(terms), 0
        for c in terms:
            shift += step
            acc, acc_i = acc * p - acc_i * r + (c << shift), acc * r + acc_i * p
        return complex(acc / (den << shift), acc_i / (den << shift))
    p, q = z
    if q < 0:
        p, q = -p, -q
    terms = reversed(nums)
    acc = next(terms)
    scale = 1
    for c in terms:
        scale *= q
        acc = acc * p + c * scale
    return acc / (den * scale)


@lru_cache(maxsize=4096)
def _hyp2f1_coeffs_cached(a, b, c, nterms: int) -> tuple[tuple[int, ...], int]:
    # Integer form (nums, den) of the coefficients (a)_k (b)_k / ((c)_k k!),
    # k = 0 .. nterms, with den > 0.  With a = pa/qa and so on, step k
    # multiplies the numerator by (pa + k qa)(pb + k qb) qc and the
    # denominator by (pc + k qc)(k + 1) qa qb; the numerators are then
    # carried onto the last term's denominator.
    pa, qa = _as_ratio(a)
    pb, qb = _as_ratio(b)
    pc, qc = _as_ratio(c)
    nums = [1]
    steps = []
    for k in range(nterms):
        if pc + k * qc == 0:
            raise ValueError(
                f"lower parameter c={c} hits a nonpositive integer inside the "
                f"retained terms (term {k + 1})"
            )
        nums.append(nums[-1] * (pa + k * qa) * (pb + k * qb) * qc)
        steps.append((pc + k * qc) * (k + 1) * qa * qb)
    den = 1
    for k in range(nterms - 1, -1, -1):
        den *= steps[k]
        nums[k] *= den
    if den < 0:
        den = -den
        nums = [-v for v in nums]
    return tuple(nums), den


@lru_cache(maxsize=4096)
def hyp2f1_series_coeffs(a, b, c, nterms: int) -> tuple[Fraction, ...]:
    """Exact rational coefficients (a)_k (b)_k / ((c)_k k!) for k = 0 .. nterms."""
    nums, den = _hyp2f1_coeffs_cached(a, b, c, nterms)
    return tuple(Fraction(v, den) for v in nums)


def _hyp2f1_row(a, b, c) -> tuple[tuple[int, ...], int]:
    # The integer row of the terminating 2F1(a, b; c; z), cut at the upper
    # parameter nearer zero of those that are nonpositive integers.
    ends = [v for v in (_nonpositive_int(a), _nonpositive_int(b)) if v is not None]
    if not ends:
        raise ValueError(f"2F1({a}, {b}; {c}; z) does not terminate: neither upper parameter is a nonpositive integer")
    return _hyp2f1_coeffs_cached(a, b, c, min(ends))


def hyp2f1(a, b, c, z) -> float:
    """Terminating 2F1(a, b; c; z) at a real z, summed exactly and rounded once;
    it ends at the upper parameter nearer zero that is a nonpositive integer,
    and is refused if neither is one or if c vanishes inside the kept terms."""
    return _exact_series(*_hyp2f1_row(a, b, c), _as_ratio(z))


def hyp2f1_complex(a, b, c, nterms: int, z: complex) -> complex:
    """Terminating 2F1 summed for k = 0 .. nterms at a complex argument,
    exactly, with each part rounded once."""
    return _exact_series(*_hyp2f1_coeffs_cached(a, b, c, nterms), _complex_ratio(complex(z)))


@lru_cache(maxsize=4096)
def _jacobi_coeffs_cached(alpha, beta, n: int) -> tuple[tuple[int, ...], int]:
    # Integer form (nums, den) of the series coefficients
    # c_k = C(n, k) (s)_k (alpha+k+1)_{n-k} / n! with s = n+alpha+beta+1,
    # den > 0 and no factor common to den and every numerator.  With
    # alpha = a/da and s = s_num/ds, over the denominator n! (ds da)^n the
    # numerator of c_k is C(n, k) times the prefix product of
    # da (s_num + i ds), i < k, and the suffix product of ds (a + i da),
    # k < i <= n.  Nothing is divided, so (alpha+1)_n = 0 needs no case of its own.
    a, da = _as_ratio(alpha)
    b, db = _as_ratio(beta)
    s_num, ds = (n + 1) * da * db + a * db + b * da, da * db
    prefix, suffix = [1], [1]
    for i in range(n):
        prefix.append(prefix[-1] * da * (s_num + i * ds))
        suffix.append(suffix[-1] * ds * (a + (n - i) * da))
    nums = [math.comb(n, k) * prefix[k] * suffix[n - k] for k in range(n + 1)]
    den = factorial(n) * (ds * da) ** n
    g = math.gcd(den, *nums)
    return tuple(c // g for c in nums), den // g


def jacobi_eval(p: JacobiParams, x):
    """P_n^(alpha, beta)(x) by its terminating series, evaluated exactly.

    x is a real number or an ndarray of them; an array gives the array of
    the values at its elements, each the float a scalar call returns.
    """
    if isinstance(x, np.ndarray):
        return jacobi_values([p], x).reshape(x.shape)
    nums, den = _jacobi_coeffs_cached(p.alpha, p.beta, p.n)
    num, q = _as_ratio(x)
    return _exact_series(nums, den, (num - q, 2 * q))


def jacobi_values(params, x) -> np.ndarray:
    """jacobi_eval(p, x) for each p of params, shape (len(params), *x.shape).

    Each element of the ndarray x is turned into its exact argument p/q once,
    and into one table of the terms p^k q^(N-k), k = 0 .. N, for the largest
    degree N among the params, which every row shares.  A row of degree n
    sums its numerators against the first n + 1 terms, which is its Horner
    numerator times q^(N-n), and divides by den q^N, the first term times
    den: one int / int division of the same rational, so the same float
    jacobi_eval gives.
    """
    mul = operator.mul
    rows = [_jacobi_coeffs_cached(p.alpha, p.beta, p.n) for p in params]
    top = max((len(nums) for nums, _ in rows), default=1)
    tables = []
    for num, q in map(_as_ratio, x.ravel().tolist()):
        p_pow, q_pow = [1] * top, [1] * top
        for k in range(1, top):
            p_pow[k] = p_pow[k - 1] * (num - q)
            q_pow[k] = q_pow[k - 1] * 2 * q
        tables.append(list(map(mul, p_pow, reversed(q_pow))))
    values = [[sum(map(mul, nums, t)) / (den * t[0]) for t in tables] for nums, den in rows]
    return np.array(values, dtype=float).reshape(len(rows), *x.shape)


def jacobi_complex(p: JacobiParams, w: complex) -> complex:
    """P_n^(alpha, beta)(w) at a complex argument: the series in powers of
    (w - 1)/2, taken exactly from w, summed exactly, each part rounded once."""
    num, r, q = _complex_ratio(complex(w))
    return _exact_series(*_jacobi_coeffs_cached(p.alpha, p.beta, p.n), (num - q, r, 2 * q))


def jacobi_via_2f1(p: JacobiParams, x: float) -> float:
    """P_n^(alpha, beta)(x) through its 2F1 form.

    Evaluates (alpha+1)_n / n! * 2F1(-n, n+alpha+beta+1; alpha+1; (1-x)/2).
    Fails when alpha+1 is a nonpositive integer reached inside the retained
    terms; jacobi_eval covers those parameters.  The prefactor is
    P_n^(alpha, beta)(1), the first coefficient of the Jacobi row.
    """
    nums, den = _hyp2f1_row(-p.n, p.n + p.alpha + p.beta + 1, p.alpha + 1)
    row, row_den = _jacobi_coeffs_cached(p.alpha, p.beta, p.n)
    return _exact_series([c * row[0] for c in nums], den * row_den, _as_ratio((1 - x) / 2))


def _binom_power_coeffs(sign: int, power: int) -> list[int]:
    # Integer coefficients of (1 + sign*x)^power, index = power of x.
    return [binomial(power, k) * sign**k for k in range(power + 1)]


def _poly_mul(u: list[int], v: list[int]) -> list[int]:
    out = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            out[i + j] += ui * vj
    return out


def _poly_derivative(coeffs: list[int], order: int) -> list[int]:
    if order >= len(coeffs):
        return [0]
    return [coeffs[k + order] * math.perm(k + order, order) for k in range(len(coeffs) - order)]


def _poly_divide_linear(coeffs: list[int], sign: int) -> list[int]:
    # Exact quotient of an integer polynomial by (1 + sign*x); the division
    # must leave no remainder (the dividend vanishes at x = -sign).
    if len(coeffs) == 1:
        if coeffs[0] != 0:
            raise ValueError("polynomial is not divisible by the linear factor")
        return [0]
    q = [0] * (len(coeffs) - 1)
    q[0] = coeffs[0]
    for k in range(1, len(q)):
        q[k] = coeffs[k] - sign * q[k - 1]
    if coeffs[-1] != sign * q[-1]:
        raise ValueError("polynomial is not divisible by the linear factor")
    return q


def jacobi_rodrigues(p: JacobiParams, x: float) -> float:
    """P_n^(alpha, beta)(x) through the Rodrigues-type derivative formula.

    Only defined for nonnegative integer alpha, beta.  The weight factors
    (1-x)^alpha (1+x)^beta are cancelled as exact polynomial divisions before
    anything is evaluated, so the formula stays valid at x = +-1 where a naive
    division by the weight would blow up.
    """
    al = _as_nonneg_int(p.alpha, "alpha")
    be = _as_nonneg_int(p.beta, "beta")
    n = p.n
    expanded = _poly_mul(_binom_power_coeffs(-1, n + al), _binom_power_coeffs(+1, n + be))
    deriv = _poly_derivative(expanded, n)
    for _ in range(al):
        deriv = _poly_divide_linear(deriv, -1)
    for _ in range(be):
        deriv = _poly_divide_linear(deriv, +1)
    # prefactor (-1)^n / (2^n n!)
    return _exact_series([(-1) ** n * c for c in deriv], 2**n * factorial(n), _as_ratio(x))


def _as_nonneg_int(value, name: str) -> int:
    num, den = _as_ratio(value)
    if den != 1 or num < 0:
        raise ValueError(f"Rodrigues route needs nonnegative integer {name}, got {value}")
    return num


def krawtchouk(n: int, x: float, p: float, N: int) -> float:
    """Krawtchouk polynomial K_n(x; p, N) = 2F1(-n, -x; -N; 1/p).

    The series is terminated on the -n parameter (length n+1), which is the
    only choice valid for non-integer x; the -N lower parameter stays nonzero
    for all retained terms because n <= N.  The sum is accumulated exactly
    and rounded once: near p = 1 the value is exponentially smaller than the
    individual terms, and a floating-point accumulation would surrender most
    of its digits to that cancellation.
    """
    n = operator.index(n)
    N = operator.index(N)
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if not 0 <= n <= N:
        raise ValueError(f"need 0 <= n <= N, got n={n}, N={N}")
    if p == 0:
        raise ValueError("p = 0 makes the 2F1 argument infinite")
    nums, den = _hyp2f1_coeffs_cached(-n, -x, -N, n)
    p_num, p_den = _as_ratio(p)
    return _exact_series(nums, den, (p_den, p_num))


def legendre(l: int, x):
    """Legendre polynomial P_l(x) = P_l^(0,0)(x), at a real x or an ndarray."""
    return jacobi_eval(JacobiParams(0, 0, l), x)


def jacobi_norm(p: JacobiParams) -> float:
    """Squared L2 norm h_n of P_n^(alpha, beta) under the weight (1-x)^a (1+x)^b.

    h_n = 2^(a+b+1) (n+a+b+1)_n Gamma(n+a+1) Gamma(n+b+1) / (n! Gamma(2n+a+b+2)),
    evaluated with exact factorials whenever alpha and beta are integers.
    """
    if p.alpha <= -1 or p.beta <= -1:
        raise ValueError(f"norm needs alpha, beta > -1, got ({p.alpha}, {p.beta})")
    (ia, da), (ib, db), n = _as_ratio(p.alpha), _as_ratio(p.beta), p.n
    if da == db == 1:
        # (n+a+b+1)_n = (2n+a+b)! / (n+a+b)!
        return (
            2 ** (ia + ib + 1) * math.perm(2 * n + ia + ib, n) * factorial(n + ia) * factorial(n + ib)
        ) / (factorial(n) * factorial(2 * n + ia + ib + 1))
    # alpha, beta, alpha + beta and alpha + beta + 1, each one int / int division of its exact ratio
    ab_num, ab_den = ia * db + ib * da, da * db
    al, be, ab = ia / da, ib / db, ab_num / ab_den
    poch = 1.0
    for i in range(n):
        poch *= ab + n + 1 + i
    log_gammas = math.lgamma(n + al + 1) + math.lgamma(n + be + 1) - math.lgamma(n + 1) - math.lgamma(2 * n + ab + 2)
    return 2.0 ** ((ab_num + ab_den) / ab_den) * poch * math.exp(log_gammas)
