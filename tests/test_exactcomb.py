"""Exact combinatorics: frozen values, independent oracles, invariants."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerkit.exactcomb import (
    HalfInt,
    binomial,
    check_spin_pair,
    factorial,
    is_valid_spin_pair,
    pochhammer,
    spin_range,
)


def pascal_binomial(n, k):
    # Independent oracle: Pascal recurrence, pure addition.
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def iterated_factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


class TestFactorial:
    def test_empty_product(self):
        assert factorial(0) == 1

    def test_standard_value(self):
        assert factorial(5) == 120

    def test_twenty_vs_iterated_oracle(self):
        assert factorial(20) == iterated_factorial(20) == 2432902008176640000

    def test_large_is_exact(self):
        # must not overflow or round anywhere up to 200!
        assert factorial(200) % 199 == 0
        assert factorial(200) // factorial(199) == 200

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            factorial(-1)


class TestBinomial:
    def test_simple(self):
        assert binomial(4, 2) == 6

    def test_out_of_range_is_zero(self):
        assert binomial(4, 5) == 0
        assert binomial(4, -1) == 0

    def test_vs_pascal_oracle(self):
        assert binomial(40, 20) == pascal_binomial(40, 20) == 137846528820

    def test_negative_row_rejected(self):
        with pytest.raises(ValueError):
            binomial(-2, 1)

    def test_symmetry(self):
        for n in range(61):
            for k in range(n + 1):
                assert binomial(n, k) == binomial(n, n - k)


class TestPochhammer:
    def test_integer(self):
        assert pochhammer(3, 2) == 12

    def test_vanishing_factor(self):
        assert pochhammer(-2, 3) == 0

    def test_half(self):
        assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)

    def test_empty_product_any_base(self):
        assert pochhammer(-7.3, 0) == 1

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            pochhammer(1, -1)

    def test_rising_factorial_identities(self):
        # (n+k)!/n! = (n+1)_k  and  n!/(n-k)! = (-1)^k (-n)_k, checked exactly
        for n in range(31):
            for k in range(n + 1):
                assert Fraction(factorial(n + k), factorial(n)) == pochhammer(n + 1, k)
                assert Fraction(factorial(n), factorial(n - k)) == (-1) ** k * pochhammer(-n, k)


class TestHalfInt:
    def test_arithmetic_exact(self):
        assert (HalfInt(3) + HalfInt(1)).twice == 4
        assert (HalfInt(3) - HalfInt(4)).twice == -1
        assert (-HalfInt(5)).twice == -5

    def test_float_value(self):
        assert float(HalfInt(3)) == 1.5

    def test_int_conversion_requires_even(self):
        assert HalfInt(4).as_int() == 2
        with pytest.raises(ValueError):
            HalfInt(3).as_int()

    def test_str(self):
        assert str(HalfInt(3)) == "3/2"
        assert str(HalfInt(4)) == "2"

    def test_ordering(self):
        assert HalfInt(1) < HalfInt(2)

    @given(st.integers(0, 40), st.data())
    @settings(deadline=None)
    def test_weight_roundtrip(self, l_twice, data):
        k = data.draw(st.integers(0, l_twice))
        l = HalfInt(l_twice)
        m = HalfInt(-l_twice + 2 * k)
        assert is_valid_spin_pair(l, m)
        assert ((l - m) + (l + m)).twice == 2 * l.twice

    def test_pair_validity(self):
        assert is_valid_spin_pair(HalfInt(3), HalfInt(1))
        assert not is_valid_spin_pair(HalfInt(3), HalfInt(2))  # parity mismatch
        assert not is_valid_spin_pair(HalfInt(3), HalfInt(5))  # |m| > l
        assert not is_valid_spin_pair(HalfInt(-1), HalfInt(-1))
        with pytest.raises(ValueError):
            check_spin_pair(HalfInt(2), HalfInt(1))

    def test_spin_range(self):
        assert [m.twice for m in spin_range(HalfInt(3))] == [-3, -1, 1, 3]
        assert [m.twice for m in spin_range(HalfInt(0))] == [0]

