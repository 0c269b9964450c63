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
The coefficient rows of both series are built in that integer form: the 2F1
row by its term-ratio recurrence (_hyp2f1_coeffs_cached), the Jacobi row
from its explicit sum (_jacobi_coeffs_cached).  Every rounding is one
int / int true division, which is correctly rounded, so it gives the float
that float(Fraction) gives for the same rational.

jacobi_rows evaluates many Jacobi rows, each at its own real nodes, and
jacobi_values is its broadcast case, every row at one shared set of nodes.
A block of at least _DD_MIN_VALUES values takes one numpy Horner pass in
double-double arithmetic (_dd_values), whose a-priori error bound certifies,
value by value, that the exact rational rounds to the computed double.
Every other value is summed by _exact_series, so each is the float that the
one int / int division gives.
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
    "jacobi_rows",
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


# The slots of each cache of exact coefficient rows.
_ROW_SLOTS = 4096


@lru_cache(maxsize=_ROW_SLOTS)
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


@lru_cache(maxsize=_ROW_SLOTS)
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
    """jacobi_eval(p, x) for each p of params, shape (len(params), *x.shape):
    jacobi_rows with every row at all of x."""
    return jacobi_rows(params, x.reshape(1, -1)).reshape(len(params), *x.shape)


def jacobi_rows(params, x) -> np.ndarray:
    """jacobi_eval(params[r], x[r, k]) at each (r, k), shape (len(params), nodes).

    x is 2-d: one row of nodes per polynomial, or one row that every
    polynomial shares.  A block of at least _DD_MIN_VALUES values (rows times
    nodes) of a float64 x goes through _dd_values: one double-double Horner
    pass whose error bound certifies, value by value, that the exact rational
    rounds to the computed float.  Every value it does not certify, and every
    value of a smaller block or of any other x, is summed by _exact_series at
    its node's exact ratio, so every value is the float jacobi_eval gives, and
    a non-finite node, which is never certified, raises as in jacobi_eval.
    """
    rows = [_jacobi_coeffs_cached(p.alpha, p.beta, p.n) for p in params]
    if x.ndim != 2 or len(x) not in (1, len(rows)):
        raise ValueError(f"nodes of shape {x.shape} for {len(rows)} rows; expected (1, k) or ({len(rows)}, k)")
    shape = (len(rows), x.shape[1])
    if len(rows) * shape[1] >= _DD_MIN_VALUES and x.dtype == np.float64:
        with np.errstate(over="ignore", invalid="ignore"):  # what overflows is not certified
            values, sure = _dd_values(rows, x)
    else:
        values, sure = np.empty(shape), np.zeros(shape, dtype=bool)
    # Value k sits at node k % x.size of x.ravel(), whether x has a row per
    # row or one shared row; each node that the exact sums need is converted once.
    miss, size, width = np.flatnonzero(~sure).tolist(), x.size, shape[1]
    nodes = sorted({k % size for k in miss})
    args = {i: (num - q, 2 * q) for i, (num, q) in zip(nodes, map(_as_ratio, x.ravel()[nodes].tolist()))}
    out = values.reshape(-1)  # a view
    for k in miss:
        nums, den = rows[k // width]
        out[k] = _exact_series(nums, den, args[k % size])
    return values


# The smallest block (rows times nodes) that _dd_values takes: below it the
# fixed cost of its numpy calls is more than the exact sums cost.
_DD_MIN_VALUES = 512
_U = 2.0**-53  # the unit roundoff of a double
# Magnitudes inside which the double-double pass cannot overflow and its
# underflows are negligible against its error bound; a row with an integer of
# at least _WIDE in magnitude never enters the pass.
_TINY, _HUGE = 2.0**-900, 2.0**900
_WIDE = 1 << 900


def _two_sum(a, b):
    # (s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth).
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _split(a):
    # Dekker's split of a double into two halves of at most 26 bits each.
    t = a * 134217729.0  # 2**27 + 1
    head = t - (t - a)
    return head, a - head


def _two_prod(a, b, b_halves):
    # (p, e) with p = fl(a b) and p + e = a b exactly (Dekker), b split once by the caller.
    p = a * b
    (ah, al), (bh, bl) = _split(a), b_halves
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_pairs(ints: list) -> tuple[np.ndarray, np.ndarray]:
    # Double-double pairs (hi, lo) of the integers, each below _WIDE in
    # magnitude.  Below 2^63 hi + lo = N exactly: N's high and low 32 bits are
    # exact doubles, summed by _two_sum.  Beyond, which the int64 conversion
    # signals by raising OverflowError, hi = float(N) and lo = float(N - hi),
    # within u^2 |N| of N.
    try:
        exact = np.array(ints, dtype=np.int64)
    except OverflowError:
        hi = [float(v) for v in ints]
        lo = [float(v - int(h)) for v, h in zip(ints, hi)]
        return np.array(hi), np.array(lo)
    return _two_sum((exact >> 32).astype(float) * 2.0**32, (exact & 0xFFFFFFFF).astype(float))


def _dd_values(rows, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows' values at the float64 nodes x, one row of nodes per row or one
    row that all share, from one double-double Horner pass, and the mask of
    those it certifies, each of shape (rows, nodes).

    Pass.  A row (nums, den) of degree n is V = S / den with S the sum of
    N_k y^k, y = (x - 1)/2.  Each N_k and den become pairs hi + lo
    (_dd_pairs), and x - 1 is split exactly by _two_sum and halved, so
    y = yh + yl exactly.  Horner's step a <- a y + N_k takes the exact
    product ah yh and the exact sum with N_k's hi (_two_prod, _two_sum),
    adds the low terms ah yl and al yh, the two errors and N_k's lo in plain
    doubles, and renormalizes with _two_sum.  Every product and sum is its
    own numpy call, so no SIMD level can contract one into an FMA.  The rows
    are taken by falling degree, and each step runs on the rows whose degree
    it reaches; the others still hold an exact 0.  The quotient by den is
    th = fl(ah / dh) corrected by the residual ah - th dh (exact), al and
    th dl, over dh.

    Bound.  Let B_k be the sum over j >= k of |N_j| |y|^(j-k), so that
    B_k = B_(k+1) |y| + |N_k| and B_0 is the condition sum.  With
    |al| <= u |ah| and |yl| <= u |yh|, u = 2^-53, the dropped al yl, the
    roundings of ah yl, al yh and of the four low additions, and N_k's lo
    each cost a few u^2 of |a| |y| + |N_k|: one step adds at most 20 u^2 B_k
    to the error e, and e_k <= |y| e_(k+1) (1 + 20 u^2) + 20 u^2 B_k.  As
    B_k |y|^k <= B_0, e_0 <= 20 (n + 1) u^2 B_0 (1 + 20 u^2)^n.  The
    quotient adds at most 13 u^2 (B_0 + e_0) / den.  So
    |h + l - V| < 64 (n + 1) u^2 B_0 / den, with room for the rounding of
    B_0 itself (a float Horner pass on |N_k| and |y|) and of the test below.

    Certificate.  h is V correctly rounded when |l| plus the bound is less
    than half the gap from |h| to its lower neighbour, the smaller of the
    gaps around h.  The bound holds without overflow and with underflows,
    each at most 2^-1074, far below u^2 B_k.  So a value is only certified
    where x is 0 or |x| lies in [_TINY, _HUGE], where y = 0 or |y|^N >= _TINY
    for the block's top degree N (then no partial sum B_(k+1) |y| is tiny,
    as a nonzero N_k has |N_k| >= 1), and where B_0 / den lies in [_TINY,
    _HUGE].  The bound exceeds the gap
    of a zero or subnormal h, so neither is certified.  A row with an integer
    of at least _WIDE in magnitude could never be certified, so it stays out
    of the pass, which runs over the other rows, and none of its values is.
    """
    shape = (len(rows), x.shape[1])
    values, sure = np.empty(shape), np.zeros(shape, dtype=bool)
    fits = (r for r, (nums, den) in enumerate(rows) if den < _WIDE and -_WIDE < min(nums) and max(nums) < _WIDE)
    order = sorted(fits, key=lambda r: -len(rows[r][0]))
    if not order:
        return values, sure
    sizes = np.array([len(rows[r][0]) for r in order])
    top = sizes[0]
    # Per step k, the numerators of degree top - 1 - k, row by row; a row's
    # first top - len(nums) entries are never read.
    table = [c for r in order for c in (0,) * (top - len(rows[r][0])) + rows[r][0][::-1]]
    nh, nl = (v.reshape(len(order), top).T[:, :, None] for v in _dd_pairs(table))
    dh, dl = (v[:, None] for v in _dd_pairs([rows[r][1] for r in order]))

    # Each node row follows its row into the order; one shared row broadcasts,
    # so a slice [:m] of a node table is the nodes of the m rows it serves.
    if len(x) > 1:
        x = x[order]
    s, e = _two_sum(x, -1.0)
    yh, yl = s * 0.5, e * 0.5
    ay, (yhh, yhl) = np.abs(yh), _split(yh)
    ah, al, bound = (np.zeros((len(order), shape[1])) for _ in range(3))
    for k in range(top):
        m = np.count_nonzero(sizes >= top - k)
        a, b, y = ah[:m], al[:m], yh[:m]
        p, pe = _two_prod(a, y, (yhh[:m], yhl[:m]))
        s, se = _two_sum(p, nh[k, :m])
        ah[:m], al[:m] = _two_sum(s, (((pe + a * yl[:m]) + b * y) + se) + nl[k, :m])
        bound[:m] = bound[:m] * ay[:m] + np.abs(nh[k, :m])

    th = ah / dh
    p, pe = _two_prod(th, dh, _split(dh))
    h, l = _two_sum(th, ((((ah - p) - pe) + al) - th * dl) / dh)
    bound /= dh
    err = 64 * _U**2 * sizes[:, None] * bound
    ax = np.abs(x)
    node_ok = ((ax == 0) | ((ax >= _TINY) & (ax <= _HUGE))) & ((ay == 0) | (ay ** (top - 1) >= _TINY))
    gap = np.spacing(np.nextafter(np.abs(h), 0))
    values[order] = h
    sure[order] = node_ok & (bound >= _TINY) & (bound <= _HUGE) & (np.abs(l) + err < gap / 2)
    return values, sure


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
