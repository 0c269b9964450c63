"""Polynomial and terminating-series evaluations against independent oracles.

Derived expectations are produced by brute-force term-by-term rational
evaluation (for series) or by textbook closed forms at special points, then
frozen; the library routes must reproduce them.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from wignerkit.exactcomb import pochhammer
from wignerkit.specfun import (
    JacobiParams,
    _jacobi_coeffs_cached,
    hyp2f1,
    hyp2f1_series_coeffs,
    jacobi_eval,
    jacobi_norm,
    jacobi_rodrigues,
    jacobi_via_2f1,
    krawtchouk,
    legendre,
)


def brute_2f1(a, b, c, z, nterms):
    # Independent oracle: direct Pochhammer products per term, exact rationals.
    total = Fraction(0)
    for k in range(nterms + 1):
        total += (
            pochhammer(a, k) * pochhammer(b, k) / (pochhammer(c, k) * math.factorial(k))
        ) * Fraction(z) ** k
    return float(total)


class TestHyp2F1:
    def test_two_term_series(self):
        assert hyp2f1(-1, 2, 4, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_three_is_reached_by_direct_terms(self):
        # oracle: 1 + (-2)(-1)/1 * 1 = 3; the k=2 term vanishes with (-1)_2 = 0
        assert brute_2f1(-2, -1, 1, 1, 2) == 3.0
        assert hyp2f1(-2, -1, 1, 1.0) == pytest.approx(3.0, abs=1e-15)

    def test_zero_upper_parameter(self):
        assert hyp2f1(0, 7, 3, 0.9) == 1.0

    def test_matches_brute_oracle_on_grid(self):
        for n in range(7):
            for b in (0.5, -2.5, 3.0):
                for c in (1.25, 4.0):
                    for z in (-0.8, 0.3, 1.7):
                        got = hyp2f1(-n, b, c, z)
                        want = brute_2f1(-n, b, c, z, n)
                        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)

    def test_termination_length_is_min_over_upper(self):
        # 2F1(-3, -1; -1; z) ends after its b = -1 term, so c = -1 never
        # vanishes; ended at a = -3 it would.
        for z in (0.5, -2.0, 0.125):
            assert hyp2f1(-3, -1, -1, z) == 1 - 3 * z
        assert hyp2f1(-1, -3, -1, 0.5) == hyp2f1(-3, -1, -1, 0.5)

    def test_non_terminating_rejected(self):
        message = r"2F1\(0.5, 2.0; 3.0; z\) does not terminate: neither upper parameter is a nonpositive integer"
        with pytest.raises(ValueError, match=message):
            hyp2f1(0.5, 2.0, 3.0, 0.1)
        with pytest.raises(ValueError, match="does not terminate"):
            hyp2f1(-0.5, 1.5, 3.0, 0.1)

    def test_vanishing_lower_parameter_rejected_at_construction(self):
        # The row is refused before anything is summed, for any argument.
        message = "lower parameter c=-1 hits a nonpositive integer inside the retained terms (term 2)"
        for z in (0.5, 1e300, float("inf")):
            with pytest.raises(ValueError) as info:
                hyp2f1(-3, 5.0, -1, z)
            assert str(info.value) == message
        # c = -5 only vanishes beyond the retained terms
        assert hyp2f1(-3, 5.0, -5, 0.5) == brute_2f1(-3, 5.0, -5, 0.5, 3)

    def test_bad_lower_parameter_rejected(self):
        # c = -1 is hit at term 2 <= termination index 3
        with pytest.raises(ValueError):
            hyp2f1(-3, 5, -1, 0.5)

    def test_lower_parameter_beyond_termination_is_fine(self):
        # c = -5 never vanishes within the 4 retained terms
        value = hyp2f1(-3, 2, -5, 0.25)
        assert value == pytest.approx(brute_2f1(-3, 2, -5, 0.25, 3), rel=1e-14)

    def test_coeffs_are_exact_rationals(self):
        # (-2)_k (3)_k / ((2)_k k!): 1, -3, 2
        coeffs = hyp2f1_series_coeffs(-2, 3, 2, 2)
        assert coeffs == (Fraction(1), Fraction(-3), Fraction(2))


def brute_jacobi(n, alpha, beta, x):
    # Independent oracle for P_n^(a,b): term-by-term exact series evaluation.
    total = Fraction(0)
    a, b = Fraction(alpha), Fraction(beta)
    for k in range(n + 1):
        coeff = pochhammer(n + a + b + 1, k) * pochhammer(a + k + 1, n - k)
        coeff /= math.factorial(k) * math.factorial(n - k)
        total += coeff * ((Fraction(x) - 1) / 2) ** k
    return float(total)


class TestJacobi:
    def test_degree_zero(self):
        assert jacobi_eval(JacobiParams(2.5, -7.0, 0), 0.3) == 1.0

    def test_legendre_two_at_zero(self):
        # P_2 = (3x^2 - 1)/2 -> -1/2 at x = 0; brute series agrees
        assert brute_jacobi(2, 0, 0, 0) == -0.5
        assert jacobi_eval(JacobiParams(0, 0, 2), 0.0) == -0.5

    def test_endpoint_value(self):
        # P_n^(a,b)(1) = (a+1)_n / n! -> (2)_2/2! = 3
        assert jacobi_eval(JacobiParams(1, 1, 2), 1.0) == pytest.approx(3.0, abs=1e-15)

    def test_matches_brute_oracle_large_parameters(self):
        for n in (5, 17, 50):
            for alpha, beta in ((0, 0), (3.5, -2.25), (50, 50), (-50, 12.5)):
                for x in (-1.0, -0.37, 0.0, 0.92, 1.0):
                    got = jacobi_eval(JacobiParams(alpha, beta, n), x)
                    want = brute_jacobi(n, alpha, beta, x)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_series_coeff_count(self):
        nums, den = _jacobi_coeffs_cached(1.5, 2.5, 6)
        assert len(nums) == 7
        # P_1^(a,b)(x) = (a+1) + (a+b+2) (x-1)/2
        nums, den = _jacobi_coeffs_cached(1.5, 2.5, 1)
        assert tuple(Fraction(c, den) for c in nums) == (Fraction(5, 2), Fraction(6))

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            JacobiParams(0, 0, -1)


class TestJacobiVia2F1:
    def test_degree_one(self):
        assert jacobi_via_2f1(JacobiParams(0, 0, 1), 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_argument_zero(self):
        # x = 1 kills the series: value is (3)_3/3! = 10
        assert jacobi_via_2f1(JacobiParams(2, 1, 3), 1.0) == pytest.approx(10.0, abs=1e-14)

    def test_degree_zero(self):
        assert jacobi_via_2f1(JacobiParams(5, 7, 0), -0.4) == 1.0

    def test_negative_integer_alpha_rejected(self):
        with pytest.raises(ValueError):
            jacobi_via_2f1(JacobiParams(-2, 0, 3), 0.5)

    def test_route_agreement(self):
        for alpha in range(7):
            for beta in range(7):
                for n in range(11):
                    for x in np.linspace(-1, 1, 21):
                        a = jacobi_eval(JacobiParams(alpha, beta, n), x)
                        b = jacobi_via_2f1(JacobiParams(alpha, beta, n), x)
                        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


class TestJacobiRodrigues:
    def test_degree_one(self):
        assert jacobi_rodrigues(JacobiParams(0, 0, 1), 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_endpoint_matches_series(self):
        assert jacobi_rodrigues(JacobiParams(1, 1, 2), 1.0) == pytest.approx(3.0, abs=1e-14)

    def test_degree_zero(self):
        assert jacobi_rodrigues(JacobiParams(3, 2, 0), 0.1) == 1.0

    def test_both_endpoints_finite_and_correct(self):
        for alpha in range(4):
            for beta in range(4):
                for n in range(7):
                    for x in (-1.0, 1.0):
                        want = jacobi_eval(JacobiParams(alpha, beta, n), x)
                        got = jacobi_rodrigues(JacobiParams(alpha, beta, n), x)
                        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_non_integer_parameters_rejected(self):
        with pytest.raises(ValueError):
            jacobi_rodrigues(JacobiParams(0.5, 0, 2), 0.3)
        with pytest.raises(ValueError):
            jacobi_rodrigues(JacobiParams(0, -1, 2), 0.3)

    def test_route_agreement(self):
        for alpha in range(7):
            for beta in range(7):
                for n in range(11):
                    for x in np.linspace(-1, 1, 21):
                        a = jacobi_eval(JacobiParams(alpha, beta, n), x)
                        b = jacobi_rodrigues(JacobiParams(alpha, beta, n), x)
                        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


class TestKrawtchouk:
    def test_degree_zero(self):
        assert krawtchouk(0, 2.37, 0.4, 5) == 1.0

    def test_two_term_series(self):
        # 1 - x/(N p) = 1 - 2/2 = 0
        assert krawtchouk(1, 2.0, 0.5, 4) == 0.0

    def test_zero_x_kills_tail(self):
        assert krawtchouk(3, 0.0, 0.3, 5) == 1.0

    def test_non_integer_x(self):
        got = krawtchouk(3, 1.7, 0.6, 5)
        want = brute_2f1(-3, -1.7, -5, 1 / 0.6, 3)
        assert got == pytest.approx(want, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            krawtchouk(6, 1.0, 0.5, 5)
        with pytest.raises(ValueError):
            krawtchouk(1, 1.0, 0.0, 5)
        with pytest.raises(ValueError):
            krawtchouk(0, 1.0, 0.5, 0)

    def test_reflection_identity(self):
        for N in range(1, 9):
            for n in range(N + 1):
                for x in range(N + 1):
                    for p in (0.3, 0.5, 0.9):
                        lhs = krawtchouk(n, x, p, N)
                        rhs = (1 - 1 / p) ** (x + n - N) * krawtchouk(N - n, N - x, p, N)
                        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


class TestLegendre:
    def test_degree_zero(self):
        assert legendre(0, 0.77) == 1.0

    def test_degree_one(self):
        assert legendre(1, 0.77) == pytest.approx(0.77, abs=1e-16)

    def test_degree_two_at_zero(self):
        assert legendre(2, 0.0) == -0.5


class TestJacobiNorm:
    def test_constant_weight_one(self):
        # integral of 1 over [-1, 1]
        assert jacobi_norm(JacobiParams(0, 0, 0)) == 2.0

    def test_degree_one(self):
        # integral of x^2 over [-1, 1]
        assert jacobi_norm(JacobiParams(0, 0, 1)) == pytest.approx(2 / 3, rel=1e-15)

    def test_cross_check_both_closed_forms(self):
        # h_0^(1,1) directly, and through the factorial-ratio identity
        # 2^(2m+1) (l+n)! (l-n)! / ((2l+1) (l+m)! (l-m)!) at l=1, m=1, n=0
        direct = jacobi_norm(JacobiParams(1, 1, 0))
        via_identity = 2**3 * 1 * 1 / (3 * 2 * 1)
        assert direct == pytest.approx(4 / 3, rel=1e-15)
        assert via_identity == pytest.approx(4 / 3, rel=1e-15)

    def test_non_integer_parameters(self):
        got = jacobi_norm(JacobiParams(0.5, -0.5, 3))
        # quadrature oracle: weight (1-x)^0.5 (1+x)^-0.5 needs many nodes to
        # converge, so integrate the smooth transform x = cos(t) instead:
        # (1-cos t)^0.5 (1+cos t)^-0.5 sin t dt = (1 - cos t) dt
        t, w = leggauss(200)
        theta = (t + 1) * math.pi / 2
        vals = [
            jacobi_eval(JacobiParams(0.5, -0.5, 3), math.cos(th)) ** 2 * (1 - math.cos(th))
            for th in theta
        ]
        oracle = float(np.dot(w, vals) * math.pi / 2)
        assert got == pytest.approx(oracle, rel=1e-10)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            jacobi_norm(JacobiParams(-1, 0, 2))


class TestReflectionSymmetry:
    def test_parity_relation(self):
        for alpha in range(7):
            for beta in range(7):
                for n in range(11):
                    for x in np.linspace(-1, 1, 21):
                        lhs = jacobi_eval(JacobiParams(alpha, beta, n), -x)
                        rhs = (-1) ** n * jacobi_eval(JacobiParams(beta, alpha, n), x)
                        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestPfaff:
    def test_terminating_pfaff(self):
        for n in range(9):
            for b in (0.5, 2.0):
                for c in (1.5, 3.0):
                    for z in (-0.7, -0.2, 0.3):
                        lhs = hyp2f1(-n, b, c, z)
                        rhs = (1 - z) ** n * hyp2f1(-n, c - b, c, z / (z - 1))
                        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestArgumentFlips:
    def test_single_negative_integer_parameter(self):
        for n in range(7):
            for b in (0.5, 2.0):
                for c in (1.5, 4.0):
                    for x in (0.2, 0.8):
                        lhs = hyp2f1(-n, b, c, x)
                        ratio = float(pochhammer(c - b, n) / pochhammer(c, n))
                        rhs = ratio * hyp2f1(-n, b, b - c - n + 1, 1 - x)
                        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_double_negative_integer_parameters(self):
        for n in range(7):
            for m in range(7):
                for c in (1.5, 4.0):
                    for x in (0.2, 0.8):
                        lhs = hyp2f1(-n, -m, c, x)
                        ratio = float(pochhammer(c, m + n) / (pochhammer(c, n) * pochhammer(c, m)))
                        rhs = ratio * hyp2f1(-n, -m, -c - n - m + 1, 1 - x)
                        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestOrthogonality:
    def test_quadrature_reproduces_norm(self):
        for alpha in range(5):
            for beta in range(5):
                npts = (2 * 8 + alpha + beta) // 2 + 1
                x, w = leggauss(npts)
                weight = (1 - x) ** alpha * (1 + x) ** beta
                polys = [
                    np.array([jacobi_eval(JacobiParams(alpha, beta, n), xi) for xi in x])
                    for n in range(9)
                ]
                for n1 in range(9):
                    for n2 in range(9):
                        integral = float(np.dot(w, polys[n1] * polys[n2] * weight))
                        expected = (
                            jacobi_norm(JacobiParams(alpha, beta, n1)) if n1 == n2 else 0.0
                        )
                        assert abs(integral - expected) <= 1e-10
