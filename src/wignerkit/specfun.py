"""Terminating Gauss hypergeometric series and the classical polynomial
families built on them: Jacobi, Krawtchouk, Legendre.

Every series term is generated as an exact rational (Pochhammer ratios over
exact factorials) and converted to floating point as late as possible.  The
terminating sums alternate in sign, and naive floating-point term generation
loses digits to cancellation long before the degrees used here get large.

The exact evaluations share one integer Horner scheme (_exact_series): the
coefficients are written over one common denominator and the argument as a
ratio of integers, so the whole sum is a single integer quotient that is
rounded once, with no gcd taken along the way.  The coefficient rows of both
series (_hyp2f1_coeffs_cached, _jacobi_coeffs_cached) are built in that
integer form by their term-ratio recurrences.  Every rounding is one int / int
true division, which is correctly rounded, so it gives the float that
float(Fraction) gives for the same rational.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .exactcomb import binomial, factorial, pochhammer

__all__ = [
    "JacobiParams",
    "Hyp21Spec",
    "hyp2f1_series_coeffs",
    "hyp2f1_terminating",
    "hyp2f1",
    "hyp2f1_complex",
    "jacobi_eval",
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


@dataclass(frozen=True)
class Hyp21Spec:
    """A terminating 2F1(a, b; c; z) together with its termination length.

    `terms` is the index of the last nonzero-by-construction term: the series
    is summed for k = 0 .. terms.
    """

    a: float
    b: float
    c: float
    z: float
    terms: int

    def __post_init__(self):
        object.__setattr__(self, "terms", operator.index(self.terms))
        if self.terms < 0:
            raise ValueError(f"negative termination length {self.terms}")
        if _nonpositive_int(self.a) is None and _nonpositive_int(self.b) is None:
            raise ValueError(
                f"2F1({self.a}, {self.b}; {self.c}; z) does not terminate: "
                "neither upper parameter is a nonpositive integer"
            )
        neg_c = _nonpositive_int(self.c)
        if neg_c is not None and neg_c < self.terms:
            raise ValueError(
                f"lower parameter c={self.c} vanishes inside the retained terms"
            )

    @classmethod
    def terminating(cls, a, b, c, z) -> "Hyp21Spec":
        """Build the spec, deriving the termination length from a and b;
        __post_init__ refuses it when neither is a nonpositive integer."""
        candidates = [v for v in (_nonpositive_int(a), _nonpositive_int(b)) if v is not None]
        return cls(a, b, c, z, min(candidates, default=0))


def _nonpositive_int(value):
    # Returns N >= 0 such that value == -N, or None.
    num, den = _as_ratio(value)
    return -num if den == 1 and num <= 0 else None


def _as_ratio(x) -> tuple[int, int]:
    # Exact numerator and positive denominator of a real input.
    if isinstance(x, (float, int, Fraction)):
        return x.as_integer_ratio()
    return Fraction(x).as_integer_ratio()


def _integer_form(coeffs) -> tuple[list[int], int]:
    # Rational coefficients as (numerators, common positive denominator).
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _exact_series(nums, den: int, z: tuple[int, int]) -> float:
    """sum_k nums[k] / den * z^k for the rational z = p/q, rounded once.

    With n = len(nums) - 1 the sum is sum_k nums[k] p^k q^(n-k) / (den q^n);
    its numerator is accumulated by Horner's rule in integers, and the one
    true division at the end is correctly rounded, exactly like
    float(Fraction).  den must be positive.
    """
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


def _float_series(coeffs, z: complex) -> complex:
    # sum_k coeffs[k] z^k accumulated in floating point, lowest term first.
    acc = 0j
    power = 1 + 0j
    for ck in coeffs:
        acc += ck * power
        power *= z
    return acc


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


def hyp2f1_terminating(spec: Hyp21Spec) -> float:
    """Sum the terminating series; terms exact, accumulation in floating point."""
    nums, den = _hyp2f1_coeffs_cached(spec.a, spec.b, spec.c, spec.terms)
    p, q = _as_ratio(spec.z)
    total = 0.0
    p_k, q_k = 1, den
    for v in nums:
        total += (v * p_k) / q_k
        p_k *= p
        q_k *= q
    return total


def hyp2f1(a, b, c, z) -> float:
    """Convenience wrapper: terminating 2F1 straight from the parameters."""
    return hyp2f1_terminating(Hyp21Spec.terminating(a, b, c, z))


def hyp2f1_complex(a, b, c, nterms: int, z: complex) -> complex:
    """Terminating 2F1 summed for k = 0 .. nterms at a complex argument.

    The coefficients are exact; each is rounded once and the sum is
    accumulated in floating point.
    """
    nums, den = _hyp2f1_coeffs_cached(a, b, c, nterms)
    return _float_series([v / den for v in nums], z)


@lru_cache(maxsize=4096)
def _jacobi_coeffs_cached(alpha, beta, n: int) -> tuple[tuple[int, ...], int]:
    # Integer form (nums, den) of the series coefficients c_k = nums[k] / den,
    # with den > 0 and no factor common to den and every numerator.
    a, da = _as_ratio(alpha)
    b, db = _as_ratio(beta)
    if da == 1 and -n <= a <= -1:
        # (alpha+1)_n = 0: the leading coefficients vanish and the term ratio
        # below is 0/0, so each coefficient comes from its Pochhammer form.
        al, be = Fraction(alpha), Fraction(beta)
        nums, den = _integer_form([
            pochhammer(n + al + be + 1, k)
            * pochhammer(al + k + 1, n - k)
            / (factorial(k) * factorial(n - k))
            for k in range(n + 1)
        ])
        return tuple(nums), den
    # c_0 = (alpha+1)_n / n! and c_{k+1} = c_k (s+k)(n-k) / ((alpha+k+1)(k+1))
    # with s = n+alpha+beta+1 = s_num/ds.  With alpha = a/da, step k
    # multiplies the numerator by (s_num + k ds)(n-k) da and the denominator
    # by (a + (k+1) da)(k+1) ds; the numerators are then carried onto the
    # last term's denominator.
    s_num, ds = (n + 1) * da * db + a * db + b * da, da * db
    nums = [math.prod(a + j * da for j in range(1, n + 1))]
    steps = []
    for k in range(n):
        nums.append(nums[-1] * (s_num + k * ds) * (n - k) * da)
        steps.append((a + (k + 1) * da) * (k + 1) * ds)
    tail = 1
    for k in range(n - 1, -1, -1):
        tail *= steps[k]
        nums[k] *= tail
    den = da**n * factorial(n) * tail
    g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
    return tuple(c // g for c in nums), den // g


def jacobi_eval(p: JacobiParams, x):
    """P_n^(alpha, beta)(x) by its terminating series, evaluated exactly.

    x is a real number or an ndarray of them; an array gives the array of
    the values at its elements, each the float a scalar call returns.
    """
    nums, den = _jacobi_coeffs_cached(p.alpha, p.beta, p.n)
    if isinstance(x, np.ndarray):
        values = [_exact_series(nums, den, (num - q, 2 * q)) for num, q in map(_as_ratio, x.ravel().tolist())]
        return np.array(values, dtype=float).reshape(x.shape)
    num, q = _as_ratio(x)
    return _exact_series(nums, den, (num - q, 2 * q))


def jacobi_complex(p: JacobiParams, w: complex) -> complex:
    """P_n^(alpha, beta)(w) at a complex argument.

    The series coefficients are exact; each is rounded once and the sum in
    powers of (w-1)/2 is accumulated in floating point.
    """
    nums, den = _jacobi_coeffs_cached(p.alpha, p.beta, p.n)
    return _float_series([c / den for c in nums], (w - 1) / 2)


def jacobi_via_2f1(p: JacobiParams, x: float) -> float:
    """P_n^(alpha, beta)(x) through its 2F1 form.

    Evaluates (alpha+1)_n / n! * 2F1(-n, n+alpha+beta+1; alpha+1; (1-x)/2).
    Fails when alpha+1 is a nonpositive integer reached inside the retained
    terms; jacobi_eval covers those parameters.
    """
    spec = Hyp21Spec.terminating(-p.n, p.n + p.alpha + p.beta + 1, p.alpha + 1, (1 - x) / 2)
    nums, den = _hyp2f1_coeffs_cached(spec.a, spec.b, spec.c, spec.terms)
    prefactor = pochhammer(Fraction(p.alpha) + 1, p.n) / factorial(p.n)
    return _exact_series(
        [c * prefactor.numerator for c in nums], den * prefactor.denominator, _as_ratio(spec.z)
    )


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
    f = Fraction(value)
    if f.denominator != 1 or f < 0:
        raise ValueError(f"Rodrigues route needs nonnegative integer {name}, got {value}")
    return int(f)


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
    al, be = Fraction(ia, da), Fraction(ib, db)
    poch = 1.0
    for i in range(n):
        poch *= float(al + be) + n + 1 + i
    log_gammas = (
        math.lgamma(n + float(al) + 1)
        + math.lgamma(n + float(be) + 1)
        - math.lgamma(n + 1)
        - math.lgamma(2 * n + float(al + be) + 2)
    )
    return 2.0 ** float(al + be + 1) * poch * math.exp(log_gammas)
