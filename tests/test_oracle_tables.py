"""The oracle built from per-matrix power and binomial tables, held bit for
bit to the per-column expansion it replaced.

The reference functions below are copies of the earlier implementation, which
recomputed every power x**e and every binomial for each column.  The new code
must return the same bytes (the same exception type where the old code
raised) on group elements from every source the package uses, on elements
with a zero off-diagonal entry and on elements whose expansion overflows.
"""
import cmath
import math

import numpy as np
import pytest

from wignerkit.exactcomb import HalfInt, binomial, check_spin_pair, spin_range
from wignerkit.group import EulerAngles, Mat2C, from_euler
from wignerkit.verify import sample_gl2
from wignerkit.wigner import WignerMatrix, oracle_matrix

# The overflowing elements make numpy warn on both sides; that is expected.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def old_transformed_basis_vector(l, n, A):
    check_spin_pair(l, n)
    p = (l - n).as_int()
    q = (l + n).as_int()
    left = np.array([binomial(p, k) * A.a ** (p - k) * A.c**k for k in range(p + 1)], dtype=complex)
    right = np.array([binomial(q, k) * A.b ** (q - k) * A.d**k for k in range(q + 1)], dtype=complex)
    return math.sqrt(binomial(l.twice, p)) * np.convolve(left, right)


def old_oracle_matrix(l, A):
    dim = l.twice + 1
    row_norm = np.array([math.sqrt(binomial(l.twice, l.twice - i)) for i in range(dim)])
    entries = np.empty((dim, dim), dtype=complex)
    for j, n in enumerate(spin_range(l)):
        entries[:, j] = old_transformed_basis_vector(l, n, A) / row_norm
    return WignerMatrix(l, entries)


def outcome(fn, *args):
    try:
        value = fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)
    return (value.entries if isinstance(value, WignerMatrix) else value).tobytes()


EULER = [
    (0.7, 1.2, 0.3),
    (0.0, 0.0, 0.0),
    (math.pi / 2, 0.4, 2.9),
    (0.3, 0.0, 0.0),
    (1.1, 5.5, 4.0),
]
ELEMENTS = {
    **{f"gl2_{i}": A for i, A in enumerate(sample_gl2(5, 4))},
    **{f"euler_{i}": from_euler(EulerAngles(*t)) for i, t in enumerate(EULER)},
    "b_zero": Mat2C(0.6 + 0.3j, 0j, -0.4 + 0.2j, 0.9 - 0.1j),
    "c_zero": Mat2C(0.6 + 0.3j, -0.4 + 0.2j, 0j, 0.9 - 0.1j),
    "diagonal": Mat2C(cmath.exp(0.4j), 0j, 0j, cmath.exp(-0.4j)),
    "integer_entries": Mat2C(1, 2, 3, 4),
    "power_overflow": Mat2C(1e300 + 0j, 1e300 + 0j, 1e300 + 0j, 1e300 + 0j),
    # Only a's powers overflow: a basis vector with l - n <= 1 never raises.
    "a_overflow": Mat2C(1e200 + 0j, 0.5 + 0j, 0.3j, 0.5 + 0j),
    "product_overflow": Mat2C(1e154 + 0j, 1e154 + 0j, 1e154 + 0j, 1e154 + 0j),
}
SPINS = [-2, -1, *range(41), 120]


@pytest.mark.parametrize("name", sorted(ELEMENTS))
def test_oracle_matrix_bit_identical(name):
    A = ELEMENTS[name]
    for l_x2 in SPINS:
        l = HalfInt(l_x2)
        assert outcome(oracle_matrix, l, A) == outcome(old_oracle_matrix, l, A), l_x2


def test_overflow_elements_raise():
    assert outcome(oracle_matrix, HalfInt(3), ELEMENTS["power_overflow"]) is OverflowError
    assert outcome(oracle_matrix, HalfInt(2), ELEMENTS["product_overflow"]) is ValueError

