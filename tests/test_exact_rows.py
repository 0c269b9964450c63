"""The integer 2F1 rows, the array form of jacobi_eval and the cached
Gauss-Legendre rules, held bit for bit to the code they replaced, and the
2F1 sums held to their exact values.

The reference functions below are copies of the earlier implementations: the
Fraction recurrence of hyp2f1_series_coeffs, the Fraction branch of
jacobi_norm and the square root of a Fraction.  The terminating 2F1 sums, at
a real and at a complex argument, are held to one exact Fraction sum rounded
once per part (exact_2f1, exact_complex_2f1).  Each path must give the same
float (compared by float.hex, so the sign of a zero counts) or raise the same
exception type with the same message.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from wignerkit import specfun
from wignerkit.exactcomb import factorial, pochhammer
from wignerkit.haar import gauss_legendre
from wignerkit.specfun import (
    JacobiParams,
    _as_ratio,
    _exact_series,
    _hyp2f1_coeffs_cached,
    _nonpositive_int,
    hyp2f1,
    hyp2f1_complex,
    hyp2f1_series_coeffs,
    jacobi_eval,
    jacobi_norm,
    jacobi_rows,
    jacobi_values,
    jacobi_via_2f1,
    krawtchouk,
    legendre,
)
from wignerkit.wigner import _krawtchouk_chart, _krawtchouk_entries, _sqrt_fraction

# -- reference copies of the old code ------------------------------------------


def old_hyp2f1_series_coeffs(a, b, c, nterms):
    fa, fb, fc = Fraction(a), Fraction(b), Fraction(c)
    coeffs = [Fraction(1)]
    for k in range(nterms):
        den = fc + k
        if den == 0:
            raise ValueError(
                f"lower parameter c={c} hits a nonpositive integer inside the "
                f"retained terms (term {k + 1})"
            )
        coeffs.append(coeffs[-1] * (fa + k) * (fb + k) / (den * (k + 1)))
    return tuple(coeffs)


def integer_form(coeffs):
    # Rational coefficients as (numerators, common positive denominator).
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def old_nonpositive_int(value):
    f = Fraction(value)
    if f.denominator == 1 and f <= 0:
        return int(-f)
    return None


def terms(a, b, c):
    # Where a terminating 2F1 ends: at the upper parameter nearer zero of
    # those that are nonpositive integers.
    ends = [v for v in (old_nonpositive_int(a), old_nonpositive_int(b)) if v is not None]
    if not ends:
        raise ValueError(f"2F1({a}, {b}; {c}; z) does not terminate: neither upper parameter is a nonpositive integer")
    return min(ends)


def exact_2f1(a, b, c, z):
    # The terminating 2F1 at a real z as one Fraction, rounded once.
    coeffs = old_hyp2f1_series_coeffs(a, b, c, terms(a, b, c))
    zf = Fraction(z)
    return float(sum(ck * zf**k for k, ck in enumerate(coeffs)))


def exact_complex_2f1(a, b, c, nterms, z):
    # The terminating 2F1 at a complex float z: each part of the sum as one
    # Fraction, rounded once.
    coeffs = old_hyp2f1_series_coeffs(a, b, c, nterms)
    re, im = Fraction(z.real), Fraction(z.imag)
    total_re, total_im, power_re, power_im = Fraction(0), Fraction(0), Fraction(1), Fraction(0)
    for ck in coeffs:
        total_re += ck * power_re
        total_im += ck * power_im
        power_re, power_im = power_re * re - power_im * im, power_re * im + power_im * re
    return complex(float(total_re), float(total_im))


def old_krawtchouk(n, x, p, N):
    nums, den = integer_form(old_hyp2f1_series_coeffs(-n, -x, -N, n))
    p_num, p_den = Fraction(p).as_integer_ratio()
    return _exact_series(nums, den, (p_den, p_num))


def old_jacobi_via_2f1(p, x):
    a, b, c = -p.n, p.n + p.alpha + p.beta + 1, p.alpha + 1
    nums, den = integer_form(old_hyp2f1_series_coeffs(a, b, c, terms(a, b, c)))
    prefactor = pochhammer(Fraction(p.alpha) + 1, p.n) / factorial(p.n)
    return _exact_series(
        [c * prefactor.numerator for c in nums], den * prefactor.denominator, Fraction((1 - x) / 2).as_integer_ratio()
    )


def parent_jacobi_via_2f1(p, x):
    # The prefactor by a Pochhammer symbol, on the integer 2F1 row.
    a, b, c = -p.n, p.n + p.alpha + p.beta + 1, p.alpha + 1
    nums, den = _hyp2f1_coeffs_cached(a, b, c, terms(a, b, c))
    prefactor = pochhammer(Fraction(p.alpha) + 1, p.n) / factorial(p.n)
    return _exact_series([c * prefactor.numerator for c in nums], den * prefactor.denominator, _as_ratio((1 - x) / 2))


def old_jacobi_norm(p):
    if p.alpha <= -1 or p.beta <= -1:
        raise ValueError(f"norm needs alpha, beta > -1, got ({p.alpha}, {p.beta})")
    al, be, n = Fraction(p.alpha), Fraction(p.beta), p.n
    if al.denominator == 1 and be.denominator == 1:
        ia, ib = int(al), int(be)
        h = (
            Fraction(2) ** (ia + ib + 1)
            * pochhammer(n + ia + ib + 1, n)
            * Fraction(factorial(n + ia) * factorial(n + ib))
            / Fraction(factorial(n) * factorial(2 * n + ia + ib + 1))
        )
        return float(h)
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


def old_krawtchouk_entries(l2, i, j, charts):
    lm, ln, mn = l2 - i, l2 - j, i + j - l2
    nums, den = integer_form(old_hyp2f1_series_coeffs(-lm, -float(ln), -l2, lm))
    pref = (-1.0 if lm % 2 else 1.0) * math.sqrt(math.comb(l2, lm) * math.comb(l2, ln))
    return [
        pref * cos_t ** (lm + ln) * sin_t**mn * _exact_series(nums, den, inv_p)
        for sin_t, cos_t, inv_p in charts
    ]


def outcome(fn, *args):
    # The value as an exact bit pattern (a complex by repr, a row as is), or
    # the type and message of what was raised.
    try:
        value = fn(*args)
    except (ValueError, ArithmeticError, TypeError) as exc:
        return type(exc), str(exc)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    return value


# -- strategies -----------------------------------------------------------------

integer = st.integers(-12, 12)
half_integer = st.integers(-25, 25).map(lambda k: Fraction(2 * k + 1, 2))
parameter = st.one_of(
    integer,
    half_integer,
    half_integer.map(float),
    integer.map(float),
    st.floats(-20.0, 20.0, allow_nan=False),
    st.fractions(min_value=-20, max_value=20, max_denominator=50),
)
argument = st.one_of(
    st.sampled_from([0.0, -0.0, 0, -0.7, -3.5, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e200]),
    st.floats(-10.0, 10.0, allow_nan=False),
    st.floats(-1e-300, 1e-300, allow_nan=False),
    st.fractions(min_value=-4, max_value=4, max_denominator=1000),
)


class TestHyp2f1Rows:
    @given(parameter, parameter, parameter, st.integers(0, 14))
    @settings(deadline=None, max_examples=300)
    def test_rows_equal_the_fraction_recurrence(self, a, b, c, nterms):
        want = outcome(old_hyp2f1_series_coeffs, a, b, c, nterms)
        assert outcome(hyp2f1_series_coeffs, a, b, c, nterms) == want
        rows = outcome(_hyp2f1_coeffs_cached, a, b, c, nterms)
        if isinstance(want, tuple) and want and isinstance(want[0], Fraction):
            nums, den = rows
            assert den > 0 and len(nums) == nterms + 1
            assert tuple(Fraction(v, den) for v in nums) == want
        else:
            assert rows == want

    def test_lower_parameter_error_names_the_term(self):
        for c in (-3, -3.0, Fraction(-3)):
            message = f"lower parameter c={c} hits a nonpositive integer inside the retained terms (term 4)"
            with pytest.raises(ValueError) as info:
                _hyp2f1_coeffs_cached(-5, 0.5, c, 5)
            assert str(info.value) == message
            assert outcome(hyp2f1_series_coeffs, -5, 0.5, c, 5) == (ValueError, message)

    @given(st.integers(0, 14), parameter, parameter, argument)
    @settings(deadline=None, max_examples=400)
    def test_terminating_sum_is_the_exact_sum_rounded_once(self, n, b, c, z):
        assert outcome(hyp2f1, -n, b, c, z) == outcome(exact_2f1, -n, b, c, z), (n, b, c, z)

    def test_terminating_sum_edges(self):
        # zero and signed-zero arguments, subnormal terms, an overflowing sum,
        # a non-finite argument and a series that does not terminate
        for z in (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e200, -2.0, float("inf"), float("nan")):
            for n in range(6):
                for b, c in ((0.5, 1.5), (-3, -7), (Fraction(1, 3), 2.5), (2, 1)):
                    assert outcome(hyp2f1, -n, b, c, z) == outcome(exact_2f1, -n, b, c, z), (n, b, c, z)
        assert outcome(hyp2f1, -3, 1, 1, 1e300)[0] is OverflowError
        assert outcome(hyp2f1, -3, 1, 1, float("inf"))[0] is OverflowError
        assert outcome(hyp2f1, -3, 1, 1, float("nan"))[0] is ValueError
        assert outcome(hyp2f1, 0.5, 1, 1, 0.5) == outcome(exact_2f1, 0.5, 1, 1, 0.5)
        assert outcome(hyp2f1, 0.5, 1, 1, 0.5)[0] is ValueError

    @given(st.integers(0, 10), parameter, parameter, st.complex_numbers(max_magnitude=5.0, allow_nan=False))
    @settings(deadline=None, max_examples=200)
    def test_complex_sum_is_the_exact_sum_rounded_once_per_part(self, n, b, c, z):
        assert outcome(hyp2f1_complex, -n, b, c, n, z) == outcome(exact_complex_2f1, -n, b, c, n, z)

    def test_complex_sum_edges(self):
        # signed zeros, subnormal and huge parts, an overflowing part, and an
        # infinite or NaN part, which raise as the real path does
        inf, nan = float("inf"), float("nan")
        parts = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.3, -1.7, 1e200, -1e300)
        for z in [complex(x, y) for x in parts for y in parts] + [complex(inf, 0.0), complex(0.5, nan)]:
            for n in range(5):
                for b, c in ((0.5, 1.5), (-3, -7), (2, 1)):
                    got = outcome(hyp2f1_complex, -n, b, c, n, z)
                    assert got == outcome(exact_complex_2f1, -n, b, c, n, z), (n, b, c, z)
        assert outcome(hyp2f1_complex, -3, 1, 1, 3, complex(1e200, 0.0))[0] is OverflowError
        assert outcome(hyp2f1_complex, -3, 1, 1, 3, complex(inf, 0.0))[0] is OverflowError
        assert outcome(hyp2f1_complex, -3, 1, 1, 3, complex(0.5, nan))[0] is ValueError

    @given(st.one_of(parameter, argument))
    def test_nonpositive_int(self, value):
        assert outcome(_nonpositive_int, value) == outcome(old_nonpositive_int, value)


class TestSeriesOnTheRows:
    @given(
        st.integers(1, 12).flatmap(lambda N: st.tuples(st.integers(0, N), st.just(N))),
        st.one_of(st.integers(-3, 15), half_integer, st.floats(-5.0, 15.0, allow_nan=False), st.just(1e300)),
        st.one_of(
            st.sampled_from([0.3, 0.5, 0.9, 1.0, -0.4, 3.0, 1e-300, 5e-324, 1e300, -1e-300]),
            st.floats(-3.0, 3.0, allow_nan=False).filter(lambda p: p != 0),
            st.fractions(min_value=Fraction(1, 100), max_value=2, max_denominator=100),
        ),
    )
    @settings(deadline=None, max_examples=300)
    def test_krawtchouk(self, nN, x, p):
        n, N = nN
        assert outcome(krawtchouk, n, x, p, N) == outcome(old_krawtchouk, n, x, p, N)

    @given(st.integers(0, 10), parameter, parameter, argument)
    @settings(deadline=None, max_examples=300)
    def test_jacobi_via_2f1(self, n, alpha, beta, x):
        p = JacobiParams(alpha, beta, n)
        assert outcome(jacobi_via_2f1, p, x) == outcome(old_jacobi_via_2f1, p, x)

    def test_jacobi_via_2f1_reads_the_jacobi_row(self):
        # Its prefactor (alpha+1)_n / n! is the Jacobi row's first coefficient,
        # where the parent took a Pochhammer symbol: every case of a grid of
        # 73,728 returns the same float or raises the same error.
        grid = [k / 2 for k in range(-14, 15)] + [0.3, -0.7, 0.001]
        xs = (-1.0, -0.5, -0.0, 0.3, 1.0, 2.5, -7.25, 1e300)
        for alpha in grid:
            for beta in grid:
                for n in range(9):
                    p = JacobiParams(alpha, beta, n)
                    for x in xs:
                        assert outcome(jacobi_via_2f1, p, x) == outcome(parent_jacobi_via_2f1, p, x), (p, x)

    def test_krawtchouk_entries(self):
        # on the rows krawtchouk_stack asks for: each column's quadrant rows
        charts = [_krawtchouk_chart(theta) for theta in (1e-9, 0.3, 0.7, 1.1, math.pi / 2 - 1e-6)]
        for l2 in range(13):
            for j in range(l2 + 1):
                rows = range(max(j, l2 - j), l2 + 1)
                got = _krawtchouk_entries(l2, j, rows, charts)
                for i, row in zip(rows, got):
                    want = old_krawtchouk_entries(l2, i, j, charts)
                    assert [v.hex() for v in row] == [v.hex() for v in want], (l2, i, j)


class TestJacobiNorm:
    @given(
        st.integers(0, 30),
        st.one_of(st.integers(0, 12), st.integers(0, 12).map(float), half_integer, st.floats(-0.99, 12.0)),
        st.one_of(st.integers(0, 12), st.integers(0, 12).map(float), half_integer, st.floats(-0.99, 12.0)),
    )
    @settings(deadline=None, max_examples=300)
    def test_equals_the_fraction_branch(self, n, alpha, beta):
        p = JacobiParams(alpha, beta, n)
        assert outcome(jacobi_norm, p) == outcome(old_jacobi_norm, p)

    def test_non_integer_grid_equals_the_fraction_formula(self):
        # The non-integer branch takes each ratio's float as one int / int
        # division; the Fraction formula takes float() of Fraction sums.
        grid = (-0.99, -0.5, 1e-300, 0.1, 0.3, Fraction(1, 3), 0.5, 1.0, 2.7, 7.25, 1e10 + 0.5, Fraction(-2, 7))
        for alpha in grid:
            for beta in grid:
                for n in (0, 1, 5, 40):
                    p = JacobiParams(alpha, beta, n)
                    assert outcome(jacobi_norm, p) == outcome(old_jacobi_norm, p), (alpha, beta, n)

    def test_large_degrees_and_refusals(self):
        for n in (0, 1, 50, 200, 400):
            for a, b in ((0, 0), (3, 7), (20, 0), (Fraction(4), 2.0)):
                p = JacobiParams(a, b, n)
                assert outcome(jacobi_norm, p) == outcome(old_jacobi_norm, p)
        for a, b in ((-1, 0), (0, -1.5)):
            assert outcome(jacobi_norm, JacobiParams(a, b, 2)) == outcome(old_jacobi_norm, JacobiParams(a, b, 2))


class TestSqrtFraction:
    @given(st.integers(0, 10**400), st.integers(1, 10**400))
    @settings(max_examples=300)
    def test_equals_the_root_of_the_fraction(self, num, den):
        assert outcome(_sqrt_fraction, num, den) == outcome(lambda: math.sqrt(Fraction(num, den)))

    def test_edges(self):
        for num, den in ((0, 1), (1, 10**400), (10**400, 1), (10**308, 3), (2, 1), (factorial(60), factorial(30))):
            assert outcome(_sqrt_fraction, num, den) == outcome(lambda: math.sqrt(Fraction(num, den)))


class TestArrayJacobiEval:
    @staticmethod
    def scalar_outcomes(p, xs):
        return [outcome(jacobi_eval, p, x) for x in xs]

    @given(
        st.integers(0, 12),
        parameter,
        parameter,
        st.lists(st.floats(-3.0, 3.0, allow_nan=False), max_size=25),
    )
    @settings(deadline=None, max_examples=200)
    def test_each_element_equals_the_scalar_call(self, n, alpha, beta, xs):
        p = JacobiParams(alpha, beta, n)
        arr = np.array(xs, dtype=float)
        try:
            got = jacobi_eval(p, arr)
        except (ValueError, ArithmeticError) as exc:
            first = next(o for o in self.scalar_outcomes(p, arr) if isinstance(o, tuple))
            assert (type(exc), str(exc)) == first
            return
        assert isinstance(got, np.ndarray) and got.shape == arr.shape and got.dtype == float
        assert [float(v).hex() for v in got] == self.scalar_outcomes(p, arr)

    def test_edges_at_degree_30(self):
        p = JacobiParams(0, 0, 30)
        empty = jacobi_eval(p, np.array([]))
        assert empty.shape == (0,) and empty.dtype == float
        xs = np.array([1.0, -1.0, -0.0, 0.0, 0.3, 1 - 2**-52])
        assert [v.hex() for v in jacobi_eval(p, xs).tolist()] == self.scalar_outcomes(p, xs)
        assert [v.hex() for v in legendre(30, xs).tolist()] == [legendre(30, x).hex() for x in xs]

    def test_overflow_raises_what_the_first_failing_element_raises(self):
        p = JacobiParams(0, 0, 30)
        xs = np.array([0.5, 1e300, -1e300])
        want = next(o for o in self.scalar_outcomes(p, xs) if isinstance(o, tuple))
        assert want[0] is OverflowError
        with pytest.raises(OverflowError) as info:
            jacobi_eval(p, xs)
        assert (type(info.value), str(info.value)) == want

    def test_shape_is_kept(self):
        p = JacobiParams(1, 2, 4)
        xs = np.linspace(-1, 1, 12).reshape(3, 4)
        got = jacobi_eval(p, xs)
        assert got.shape == (3, 4)
        assert [v.hex() for v in got.ravel().tolist()] == [jacobi_eval(p, x).hex() for x in xs.ravel()]

    def test_values_of_many_polynomials_are_their_jacobi_evals(self):
        params = [JacobiParams(al, be, n) for al, be, n in ((0, 0, 5), (6, 1, 10), (0.5, -1.5, 7), (3, 3, 0))]
        for xs in (np.linspace(-1, 1, 21), np.linspace(-2, 2, 12).reshape(3, 4), np.array([])):
            got = jacobi_values(params, xs)
            assert got.shape == (len(params), *xs.shape) and got.dtype == float
            for p, row in zip(params, got):
                assert [v.hex() for v in row.ravel().tolist()] == [v.hex() for v in jacobi_eval(p, xs).ravel().tolist()]
        assert jacobi_values([], np.linspace(-1, 1, 3)).shape == (0, 3)

    # Rows and nodes where the double-double kernel has to leave values to the
    # exact sum: alpha = beta (an exact zero at x = 0 for odd n), a negative
    # integer alpha (zero numerators), alpha = 1e-300 and other non-integer
    # parameters (numerators beyond 63 and beyond 900 bits), degrees up to 60;
    # x = +-1 (y = 0 or -1), |x| > 1, subnormal and tiny x, and 1 +- eps.
    ADVERSARIAL_ROWS = [
        *(JacobiParams(a, a, n) for a in (0, 2, 0.5) for n in (1, 3, 7, 15)),
        *(JacobiParams(-3, 2, n) for n in (2, 5, 9)),
        *(JacobiParams(1e-300, b, n) for b in (0, 3) for n in (1, 4, 9)),
        *(JacobiParams(0.3, -0.7, n) for n in (2, 11, 25)),
        JacobiParams(-1.5, 0.25, 6),
        JacobiParams(0, 0, 60),
        JacobiParams(5, 1, 60),
        JacobiParams(6, 6, 40),
        JacobiParams(40, 3, 20),
    ]
    ADVERSARIAL_NODES = [0.0, -0.0, 1.0, -1.0, 1.5, -2.0, 3.0, 5e-324, -1e-310, 1e-300, 1 - 2**-52, 1 + 2**-52, -0.3]

    @pytest.mark.parametrize("extra_nodes", [0, 30])
    def test_blocks_on_both_sides_of_the_kernel_cut_are_the_scalar_series(self, extra_nodes):
        params = self.ADVERSARIAL_ROWS
        xs = np.array([*self.ADVERSARIAL_NODES, *np.linspace(-1, 1, extra_nodes + 2)[1:-1]])
        # 29 rows at 13 nodes are summed exactly; at 43 nodes they take the kernel
        assert (len(params) * len(xs) >= specfun._DD_MIN_VALUES) == (extra_nodes > 0)
        got = jacobi_values(params, xs)
        for p, row in zip(params, got.tolist()):
            assert [v.hex() for v in row] == [jacobi_eval(p, x).hex() for x in xs.tolist()], p

    @given(
        st.lists(st.tuples(st.integers(0, 14), parameter, parameter), min_size=26, max_size=30),
        st.lists(st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, 1.0, -1.0, 5e-324])), min_size=20, max_size=30),
    )
    @settings(deadline=None, max_examples=20)
    def test_blocks_above_the_kernel_cut_are_the_scalar_series(self, rows, xs):
        params = [JacobiParams(alpha, beta, n) for n, alpha, beta in rows]
        got = jacobi_values(params, np.array(xs))
        for p, row in zip(params, got.tolist()):
            assert [v.hex() for v in row] == [jacobi_eval(p, x).hex() for x in xs], p

    def test_the_kernel_certifies_all_but_a_few_values(self, monkeypatch):
        # The reflection identity's block: 539 rows at 21 nodes.  The values
        # the certificate cannot decide are each one _exact_series call.
        fallbacks = []
        series = specfun._exact_series
        monkeypatch.setattr(specfun, "_exact_series", lambda *args: fallbacks.append(args) or series(*args))
        params = [JacobiParams(al, be, n) for al in range(7) for be in range(7) for n in range(11)]
        xs = np.arange(-10, 11) / 10
        got = jacobi_values(params, xs)
        assert got.size == 11319 and 0 < len(fallbacks) < 0.03 * got.size
        for p, row in zip(params, got.tolist()):
            assert [v.hex() for v in row] == [jacobi_eval(p, x).hex() for x in xs.tolist()], p

    def test_rows_the_pass_cannot_certify_stay_out_of_it(self, monkeypatch):
        # A row with an integer of more than 900 bits (alpha = 0.3, beta = -0.7
        # from n = 16 on, or alpha = 1e-300) has no certified value, so it
        # stays out of the double-double pass, which sees only the integers of
        # the other rows, and each of its values is summed exactly.
        seen = []
        pairs = specfun._dd_pairs
        monkeypatch.setattr(specfun, "_dd_pairs", lambda ints: seen.extend(ints) or pairs(ints))
        wide = [JacobiParams(0.3, -0.7, n) for n in (16, 20, 25)] + [JacobiParams(1e-300, b, 4) for b in (0, 0.5)]
        narrow = [JacobiParams(0.3, -0.7, n) for n in (2, 9, 15)] + [JacobiParams(a, 2, 6) for a in range(4)]
        params = [p for pair in zip(narrow, wide) for p in pair] + narrow[len(wide):]
        xs = np.array([*self.ADVERSARIAL_NODES, *np.linspace(-1.2, 1.2, 31)])
        assert len(params) * xs.size >= specfun._DD_MIN_VALUES
        rows = [specfun._jacobi_coeffs_cached(p.alpha, p.beta, p.n) for p in params]
        width = [max(abs(v) for v in (*nums, den)) for nums, den in rows]
        assert [p for p, top in zip(params, width) if top >= 2**900] == [p for p in params if p in wide]
        got = jacobi_values(params, xs)
        for p, row in zip(params, got.tolist()):
            assert [v.hex() for v in row] == [jacobi_eval(p, x).hex() for x in xs.tolist()], p
        assert seen and max(map(abs, seen)) < 2**900

    def test_a_non_finite_node_raises_as_the_scalar_call_in_a_large_block(self):
        params = [JacobiParams(1, 2, n) for n in range(40)]
        for bad in (np.nan, np.inf, -np.inf):
            xs = np.linspace(-1, 1, 20)
            xs[7] = bad
            with pytest.raises((ValueError, OverflowError)) as info:
                jacobi_values(params, xs)
            assert (type(info.value), str(info.value)) == outcome(jacobi_eval, params[0], float(bad))

    NODE_ARRAYS = {
        "int64": np.arange(-3, 4),
        "int64-600": np.arange(-300, 300),
        "float32": np.linspace(-1, 1, 7, dtype=np.float32),
        "float32-600": np.linspace(-1.2, 1.2, 60, dtype=np.float32),
        "object": np.array([Fraction(1, 3), Fraction(-2, 7), 0.5], dtype=object),
    }

    @pytest.mark.parametrize("kind", NODE_ARRAYS)
    def test_nodes_of_other_dtypes_are_the_scalar_series(self, kind):
        # Only a float64 block takes the double-double pass; any other nodes,
        # on either side of its cut, are summed exactly at the Python numbers.
        xs = self.NODE_ARRAYS[kind]
        params = [JacobiParams(al, be, n) for al, be in ((0, 0), (1, 2), (0.5, -0.5)) for n in (0, 3, 7)]
        assert (len(params) * xs.size >= specfun._DD_MIN_VALUES) == kind.endswith("600")
        got = jacobi_values(params, xs)
        assert got.shape == (len(params), xs.size) and got.dtype == float
        for p, row in zip(params, got.tolist()):
            assert [v.hex() for v in row] == [jacobi_eval(p, x).hex() for x in xs.tolist()], p


class TestPerRowNodes:
    # jacobi_rows(params, x): row r at its own nodes x[r], every value the
    # float scalar jacobi_eval gives, on either side of the kernel's cut.
    @staticmethod
    def assert_scalar(params, xs):
        got = jacobi_rows(params, xs)
        assert got.shape == xs.shape and got.dtype == float
        for p, row, nodes in zip(params, got.tolist(), xs.tolist()):
            assert [v.hex() for v in row] == [jacobi_eval(p, x).hex() for x in nodes], p

    @given(
        st.lists(st.tuples(st.integers(0, 14), parameter, parameter), min_size=26, max_size=40),
        st.integers(20, 30),
        st.integers(0, 2**32 - 1),
    )
    @settings(deadline=None, max_examples=30)
    def test_random_rows_at_random_nodes(self, rows, width, seed):
        rng = np.random.default_rng(seed)
        params = [JacobiParams(alpha, beta, n) for n, alpha, beta in rows]
        xs = rng.uniform(-1.5, 1.5, (len(params), width))
        assert xs.size >= specfun._DD_MIN_VALUES
        self.assert_scalar(params, xs)

    def test_edge_nodes_padding_wide_rows_and_degree_zero(self, monkeypatch):
        # 40 rows at 16 nodes each, 640 values, so the block takes the kernel;
        # each row has its own shuffle of +-1, +-0, subnormals and 1 +- eps,
        # and repeats its last node as padding.  Rows with an integer of 2^900
        # or more (alpha = 1e-300, alpha = 0.3 and beta = -0.7 from n = 16 on)
        # stay out of the pass, and degree-0 rows are the constant 1.
        seen = []
        pairs = specfun._dd_pairs
        monkeypatch.setattr(specfun, "_dd_pairs", lambda ints: seen.extend(ints) or pairs(ints))
        rng = np.random.default_rng(34)
        params = [
            *(JacobiParams(a, b, n) for a, b, n in rng.integers(0, 7, (28, 3)).tolist()),
            *(JacobiParams(a, b, 0) for a, b in ((0, 0), (3, 1), (0.5, -0.5), (1e-300, 2))),
            *(JacobiParams(0.3, -0.7, n) for n in (16, 20, 25)),
            *(JacobiParams(1e-300, b, 4) for b in (0, 0.5)),
            *(JacobiParams(a, a, n) for a, n in ((0, 7), (2, 15), (0.5, 3))),
        ]
        rows = [specfun._jacobi_coeffs_cached(p.alpha, p.beta, p.n) for p in params]
        assert sum(max(abs(v) for v in (*nums, den)) >= 2**900 for nums, den in rows) == 5
        edges = [1.0, -1.0, 0.0, -0.0, 5e-324, -5e-324, 2.0**-1060, 1 - 2**-52, 1 + 2**-52, -0.5]
        xs = []
        for r in range(len(params)):
            nodes = [*rng.permutation(edges).tolist(), *rng.uniform(-1, 1, 3).tolist()]
            xs.append(nodes + [nodes[-1]] * (16 - len(nodes)))
        xs = np.array(xs)
        assert len(params) == 40 and xs.size >= specfun._DD_MIN_VALUES
        self.assert_scalar(params, xs)
        assert seen and max(map(abs, seen)) < 2**900

    def test_a_block_below_the_cut_is_summed_exactly(self, monkeypatch):
        monkeypatch.setattr(specfun, "_dd_values", None)  # never called below the cut
        params = [JacobiParams(al, be, n) for al, be, n in ((0, 0, 5), (2, 1, 8), (0.5, -1.5, 7), (3, 3, 0))]
        xs = np.array([[-1.0, 0.0, 0.5], [1.0, 5e-324, 0.25], [0.3, 0.3, 0.3], [2.0, -2.0, 0.7]])
        assert xs.size < specfun._DD_MIN_VALUES
        self.assert_scalar(params, xs)

    def test_nodes_of_another_shape_are_refused(self):
        params = [JacobiParams(1, 2, n) for n in range(3)]
        for shape in ((2, 4), (4, 4), (12,), (3, 2, 2)):
            with pytest.raises(ValueError, match="^nodes of shape"):
                jacobi_rows(params, np.zeros(shape))
        assert jacobi_rows([], np.zeros((1, 4))).shape == jacobi_rows([], np.zeros((0, 4))).shape == (0, 4)

    def test_shared_nodes_are_the_broadcast_case(self):
        params = [JacobiParams(al, be, n) for al in range(3) for be in range(3) for n in range(60)]
        xs = np.linspace(-1, 1, 7)
        assert len(params) * xs.size >= specfun._DD_MIN_VALUES
        shared = jacobi_rows(params, xs[None, :])
        assert shared.tobytes() == jacobi_rows(params, np.tile(xs, (len(params), 1))).tobytes()
        assert shared.tobytes() == jacobi_values(params, xs).tobytes()


class TestDoubleDoublePairs:
    # _dd_pairs(ints) -> (hi, lo): below 2^63 in magnitude hi + lo is the
    # integer exactly; from 2^63 on, which np.array(ints, dtype=np.int64)
    # must signal by raising OverflowError, it is within 2^-104 of it.
    EXACT = [0, 1, -1, 2**63 - 1, -(2**63)]
    NEAR = [2**63, -(2**63) - 1, 3**500, -(7**300)]

    def test_the_int64_conversion_raises_from_2_to_the_63(self):
        assert np.array(self.EXACT, dtype=np.int64).tolist() == self.EXACT
        for n in self.NEAR:
            with pytest.raises(OverflowError):
                np.array([n], dtype=np.int64)

    def test_integers_below_2_to_the_63_are_exact(self):
        hi, lo = specfun._dd_pairs(self.EXACT)
        assert [Fraction(h) + Fraction(l) for h, l in zip(hi.tolist(), lo.tolist())] == self.EXACT

    @pytest.mark.parametrize("n", NEAR)
    def test_wider_integers_are_within_2_to_the_minus_104(self, n):
        for ints in ([n], [*self.EXACT, n]):
            hi, lo = specfun._dd_pairs(ints)
            assert len(hi) == len(lo) == len(ints)
            for v, h, l in zip(ints, hi.tolist(), lo.tolist()):
                assert abs(Fraction(h) + Fraction(l) - v) <= Fraction(abs(v), 2**104), v


class TestGaussLegendre:
    def test_matches_leggauss_byte_for_byte(self):
        for npts in range(1, 41):
            x, w = gauss_legendre(npts)
            x0, w0 = leggauss(npts)
            assert x.dtype == x0.dtype and x.tobytes() == x0.tobytes()
            assert w.dtype == w0.dtype and w.tobytes() == w0.tobytes()

    def test_rule_is_shared_and_read_only(self):
        x, w = gauss_legendre(9)
        assert gauss_legendre(9)[0] is x
        for arr in (x, w):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert gauss_legendre(9)[0].tobytes() == leggauss(9)[0].tobytes()
