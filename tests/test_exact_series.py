"""The integer Horner evaluator behind every exact series, held bit for bit
to the exact-Fraction evaluation it replaced.

The reference loops below are copies of the earlier Fraction-accumulating
implementations; each route must return the same float (the same exception
type where the old loop raised) on a parameter grid that includes the
Pochhammer fallback (alpha = -1, -2) and half-integer parameters.
"""
import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerkit.exactcomb import HalfInt, binomial, factorial, pochhammer, spin_range
from wignerkit.specfun import (
    Hyp21Spec,
    JacobiParams,
    _binom_power_coeffs,
    _exact_series,
    _integer_form,
    _jacobi_coeffs_cached,
    _poly_derivative,
    _poly_divide_linear,
    _poly_mul,
    hyp2f1_complex,
    hyp2f1_series_coeffs,
    jacobi_complex,
    jacobi_eval,
    jacobi_rodrigues,
    jacobi_via_2f1,
    krawtchouk,
    legendre,
)
from wignerkit.wigner import _cos2_exact, tmn_rodrigues

# -- reference copies of the Fraction loops ---------------------------------


@functools.lru_cache(maxsize=None)
def old_jacobi_coeffs(alpha, beta, n):
    al, be = Fraction(alpha), Fraction(beta)
    return tuple(
        pochhammer(n + al + be + 1, k) * pochhammer(al + k + 1, n - k) / (factorial(k) * factorial(n - k))
        for k in range(n + 1)
    )


def old_jacobi_eval(p, x):
    h = (Fraction(x) - 1) / 2
    total = Fraction(0)
    power = Fraction(1)
    for ck in old_jacobi_coeffs(p.alpha, p.beta, p.n):
        total += ck * power
        power *= h
    return float(total)


def old_jacobi_via_2f1(p, x):
    spec = Hyp21Spec.terminating(-p.n, p.n + p.alpha + p.beta + 1, p.alpha + 1, (1 - x) / 2)
    coeffs = hyp2f1_series_coeffs(spec.a, spec.b, spec.c, spec.terms)
    zf = Fraction(spec.z)
    total = Fraction(0)
    power = Fraction(1)
    for ck in coeffs:
        total += ck * power
        power *= zf
    prefactor = pochhammer(Fraction(p.alpha) + 1, p.n) / factorial(p.n)
    return float(prefactor * total)


def old_jacobi_rodrigues(p, x):
    # The polynomial algebra is unchanged; the exact Horner loop is the old one.
    al, be, n = int(p.alpha), int(p.beta), p.n
    deriv = _poly_derivative(_poly_mul(_binom_power_coeffs(-1, n + al), _binom_power_coeffs(+1, n + be)), n)
    for _ in range(al):
        deriv = _poly_divide_linear(deriv, -1)
    for _ in range(be):
        deriv = _poly_divide_linear(deriv, +1)
    xf = Fraction(x)
    value = Fraction(0)
    for ck in reversed(deriv):
        value = value * xf + ck
    return float(Fraction((-1) ** n, 2**n * factorial(n)) * value)


def old_krawtchouk(n, x, p, N):
    coeffs = hyp2f1_series_coeffs(-n, -x, -N, n)
    zf = 1 / Fraction(p)
    total = Fraction(0)
    power = Fraction(1)
    for ck in coeffs:
        total += ck * power
        power *= zf
    return float(total)


def old_rodrigues_value(l, m, n, theta):
    # The exact Horner value inside tmn_rodrigues, before the float prefactor.
    lm, lpn, ln = (l - m).as_int(), (l + n).as_int(), (l - n).as_int()
    coeffs = [0] * (l.twice + 1)
    for k1 in range(lpn + 1):
        for k2 in range(ln + 1):
            coeffs[k1 + k2] += binomial(lpn, k1) * (-1) ** k1 * binomial(ln, k2)
    if lm >= len(coeffs):
        deriv = [0]
    else:
        deriv = [coeffs[k + lm] * math.perm(k + lm, lm) for k in range(len(coeffs) - lm)]
    s = _cos2_exact(theta, math.sin(theta), math.cos(theta))
    value = Fraction(0)
    for ck in reversed(deriv):
        value = value * s + ck
    return float(value)


def old_tmn_rodrigues(l, m, n, theta):
    lm, lpm, ln, lpn = (l - m).as_int(), (l + m).as_int(), (l - n).as_int(), (l + n).as_int()
    pref = math.sqrt(Fraction(factorial(lpm), factorial(lm) * factorial(lpn) * factorial(ln)))
    mn, mmn = (m + n).as_int(), (m - n).as_int()
    return (
        pref * 2.0 ** (-lpm) * math.sin(theta) ** (-mn) * math.cos(theta) ** (-mmn)
        * old_rodrigues_value(l, m, n, theta)
    )


def outcome(fn, *args):
    # The result as its exact bit pattern, or the type of what was raised.
    try:
        return float(fn(*args)).hex()
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc)


# -- the evaluator ------------------------------------------------------------

SPECIAL_Z = [
    Fraction(v)
    for v in (0.0, 1.0, -1.0, 1 - 2**-52, -(1 - 2**-53), 5e-324, -5e-324, 2.2250738585072014e-308, 0.5, 3.0)
] + [Fraction(1, p) for p in (3, 7, 11, 13, 97)] + [Fraction(-2, 3)]

coefficient = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
    st.integers(-10**12, 10**12).map(Fraction),
)
argument = st.one_of(
    st.sampled_from(SPECIAL_Z),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False).map(Fraction),
    st.floats(min_value=-1e-300, max_value=1e-300, allow_nan=False).map(Fraction),
    st.fractions(min_value=-4, max_value=4, max_denominator=1000),
)


def fraction_sum(coeffs, z):
    total = Fraction(0)
    power = Fraction(1)
    for c in coeffs:
        total += c * power
        power *= z
    return float(total)


class TestExactSeries:
    @given(st.lists(coefficient, min_size=1, max_size=31), argument)
    @settings(deadline=None, max_examples=200)
    def test_bit_identical_to_fraction_sum(self, coeffs, z):
        want = fraction_sum(coeffs, z).hex()
        nums, den = _integer_form(coeffs)
        p, q = z.as_integer_ratio()
        assert _exact_series(nums, den, (p, q)).hex() == want
        # the argument's sign may sit on either side of the ratio
        assert _exact_series(nums, den, (-p, -q)).hex() == want

    def test_integer_form(self):
        nums, den = _integer_form([Fraction(1, 6), Fraction(-3, 4), Fraction(0), Fraction(5)])
        assert (nums, den) == ([2, -9, 0, 60], 12)

    def test_zero_is_positive(self):
        assert math.copysign(1.0, _exact_series([0, 0], 1, (-3, 7))) == 1.0
        assert math.copysign(1.0, _exact_series([1, 1], 1, (1, -1))) == 1.0

    def test_underflow_keeps_sign(self):
        tiny = Fraction(5e-324)
        assert _exact_series([0, 0, -1], 1, tiny.as_integer_ratio()).hex() == "-0x0.0p+0"

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            _exact_series([1, 0, 1], 1, (10**200, 1))
        with pytest.raises(OverflowError):
            jacobi_eval(JacobiParams(0, 0, 30), 1e300)
        with pytest.raises(OverflowError):
            old_jacobi_eval(JacobiParams(0, 0, 30), 1e300)
        with pytest.raises(OverflowError):
            legendre(30, -1e300)


# -- the routes against their old loops ---------------------------------------

PARAMS = [
    (a, b)
    for a in (0, 1, 2, 3, -1, -2, 0.5, -0.5, 1.5, -1.5, 2.5, 0.3)
    for b in (0, 1, 3, -1, 0.5, -1.5, 2.5)
]
XS = [-1.0, -0.0, 0.0, 1.0, 1 - 2**-52, -1 + 2**-53, 0.3, -0.7, 5e-324, 0.999, 2.5, -3.25, Fraction(1, 3)]


class TestRoutesMatchFractionLoops:
    def test_jacobi_coefficients(self):
        for a, b in PARAMS:
            for n in range(10):
                nums, den = _jacobi_coeffs_cached(a, b, n)
                assert tuple(Fraction(c, den) for c in nums) == old_jacobi_coeffs(a, b, n)
                assert den > 0 and math.gcd(den, *nums) == 1

    def test_jacobi_eval(self):
        for a, b in PARAMS:
            for n in range(9):
                p = JacobiParams(a, b, n)
                for x in XS:
                    assert outcome(jacobi_eval, p, x) == outcome(old_jacobi_eval, p, x), (a, b, n, x)

    def test_jacobi_via_2f1(self):
        for a, b in PARAMS:
            for n in range(9):
                p = JacobiParams(a, b, n)
                for x in XS:
                    assert outcome(jacobi_via_2f1, p, x) == outcome(old_jacobi_via_2f1, p, x), (a, b, n, x)

    def test_jacobi_rodrigues(self):
        for a in range(4):
            for b in range(4):
                for n in range(8):
                    p = JacobiParams(a, b, n)
                    for x in XS:
                        assert outcome(jacobi_rodrigues, p, x) == outcome(old_jacobi_rodrigues, p, x)

    def test_krawtchouk(self):
        for N in range(1, 9):
            for n in range(N + 1):
                for x in [*range(N + 1), 0.5, 2.5, -1.0]:
                    for p in (0.3, 0.5, 0.9, -0.4, 1.0, 3.0, Fraction(2, 7), 1 - 2**-52):
                        assert outcome(krawtchouk, n, x, p, N) == outcome(old_krawtchouk, n, x, p, N)

    def test_tmn_rodrigues(self):
        thetas = (1e-9, 0.01, 0.3, math.pi / 4, 0.9, 1.2, math.pi / 2 - 1e-9)
        for l2 in range(9):
            l = HalfInt(l2)
            for m in spin_range(l):
                for n in spin_range(l):
                    for theta in thetas:
                        got = outcome(tmn_rodrigues, l, m, n, theta)
                        assert got == outcome(old_tmn_rodrigues, l, m, n, theta), (l2, m, n, theta)


class TestFloatSeriesMatchesOldLoops:
    # The complex-argument series keep the old float accumulation, term by term.
    @staticmethod
    def old_float_loop(coeffs, z):
        acc = 0j
        power = 1 + 0j
        for ck in coeffs:
            acc += float(ck) * power
            power *= z
        return acc

    ARGS = (0.3 - 0.4j, -1.7 + 0.2j, 2.5 + 0j, 1e-3j, -0.9 - 1.1j)

    def test_jacobi_complex(self):
        for a, b in PARAMS:
            for n in range(8):
                p = JacobiParams(a, b, n)
                for w in self.ARGS:
                    want = self.old_float_loop(old_jacobi_coeffs(a, b, n), (w - 1) / 2)
                    assert jacobi_complex(p, w) == want, (a, b, n, w)

    def test_hyp2f1_complex(self):
        for n in range(8):
            for m in range(8):
                for c in (n + 1, -(n + m + 1), 1.5):
                    for z in self.ARGS:
                        want = self.old_float_loop(hyp2f1_series_coeffs(-n, -m, c, min(n, m)), z)
                        assert hyp2f1_complex(-n, -m, c, min(n, m), z) == want
