"""The oracle's one builder, held to the two builders it replaced.

The reference functions below are copies of earlier implementations.
old_oracle_matrix expanded one column at a time with np.convolve and took
every power as x**e; the builder that replaced it takes the powers as a
running product, so its values differ from the copy's in their last bits.
They are held to the copy's outcome type (the same exception type where it
raised) and, entrywise, to the rounding bound of the expansion.
old_oracle_stack is the batched builder as it was, one shifted add per term
and column; the builder must return its bytes, at one element and on a Haar
grid.  The elements come from every source the package uses, plus elements
with a zero off-diagonal entry and elements whose expansion overflows.
The builder runs every numpy loop over the element axis, so a stack's bits
must not depend on how many elements it holds, nor a grid's stacks on the
order in which their spins are asked for.
"""
import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wignerkit.exactcomb import HalfInt, binomial, check_spin_pair, spin_range
from wignerkit.group import EulerAngles, Mat2C, from_euler, sample_haar
from wignerkit.haar import build_grid
from wignerkit.verify import sample_gl2
from wignerkit.wigner import WignerMatrix, oracle_matrix, oracle_stack

# The overflowing elements make numpy warn on both sides; that is expected.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

EPS = float(np.finfo(float).eps)


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


def old_oracle_stack(l, a, b, c, d):
    if l.twice < 0:
        raise ValueError(f"negative spin l={l}")
    dim = l.twice + 1
    entries = [np.asarray(x, dtype=complex) for x in (a, b, c, d)]
    a_pow, b_pow, c_pow, d_pow = (
        np.cumprod(np.column_stack([np.ones_like(x)] + [x] * l.twice), axis=1) for x in entries
    )
    row_norm = np.array([math.sqrt(binomial(l.twice, l.twice - i)) for i in range(dim)])
    stack = np.zeros((len(entries[0]), dim, dim), dtype=complex)
    for j in range(dim):
        p, q = l.twice - j, j
        left = np.array([binomial(p, k) for k in range(p + 1)], dtype=float) * a_pow[:, p::-1] * c_pow[:, : p + 1]
        right = np.array([binomial(q, k) for k in range(q + 1)], dtype=float) * b_pow[:, q::-1] * d_pow[:, : q + 1]
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


def outcome(fn, *args):
    # The value of a call, or the type of the exception it raised.
    try:
        value = fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)
    return value.entries if isinstance(value, WignerMatrix) else value


def at_one_element(builder, l, A):
    return builder(l, [A.a], [A.b], [A.c], [A.d])


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
    # Same outcome type as the per-column expansion; values within its
    # rounding bound, 8 (2l + 1) eps times the sum of the moduli of the terms.
    A = ELEMENTS[name]
    moduli = Mat2C(*(abs(x) + 0j for x in (A.a, A.b, A.c, A.d)))
    for l_x2 in SPINS:
        l = HalfInt(l_x2)
        new, old = outcome(oracle_matrix, l, A), outcome(old_oracle_matrix, l, A)
        assert isinstance(new, type) == isinstance(old, type), l_x2
        if isinstance(old, type):
            assert new is old, l_x2
            continue
        scale = old_oracle_matrix(l, moduli).entries.real
        assert np.all(np.abs(new - old) <= 8 * (l_x2 + 1) * EPS * scale), l_x2


@pytest.mark.parametrize("name", sorted(ELEMENTS))
def test_oracle_stack_bit_identical_at_one_element(name):
    # The copy gives a non-finite stack where a power overflows; the builder
    # raises there too, as an OverflowError.
    A = ELEMENTS[name]
    for l_x2 in SPINS:
        l = HalfInt(l_x2)
        new, old = outcome(at_one_element, oracle_stack, l, A), outcome(at_one_element, old_oracle_stack, l, A)
        if isinstance(old, type):
            assert new in (old, OverflowError), l_x2
        else:
            assert not isinstance(new, type), l_x2
            assert new.tobytes() == old.tobytes(), l_x2
            assert oracle_matrix(l, A).entries.tobytes() == new[0].tobytes(), l_x2


def test_oracle_stack_bit_identical_on_a_haar_grid():
    grid = build_grid(HalfInt(6))
    st, ct = np.sin(grid.thetas), np.cos(grid.thetas)
    ephi, epsi = np.exp(1j * grid.phis), np.exp(1j * grid.psis)
    nodes = (st * ephi, -ct / epsi, ct * epsi, st / ephi)
    for l_x2 in range(7):
        l = HalfInt(l_x2)
        stack = grid.matrices(l)
        assert stack.flags.c_contiguous
        assert stack.tobytes() == old_oracle_stack(l, *nodes).tobytes(), l_x2


def test_grid_stacks_do_not_depend_on_the_order_of_spins():
    # The grid keeps one power table built to its budget, l_x2 6 here, and
    # every spin reads a prefix of it, whichever spin built it.
    grid = build_grid(HalfInt(6))
    st, ct = np.sin(grid.thetas), np.cos(grid.thetas)
    ephi, epsi = np.exp(1j * grid.phis), np.exp(1j * grid.psis)
    nodes = (st * ephi, -ct / epsi, ct * epsi, st / ephi)
    for l_x2 in [6, 0, 3, 1, 2, 4, 5]:
        l = HalfInt(l_x2)
        assert grid.matrices(l).tobytes() == old_oracle_stack(l, *nodes).tobytes(), l_x2


ELEMENT_SOURCES = {"haar": sample_haar, "gl2": sample_gl2}
ELEMENT_COUNTS = [2, 3, 5, 8, 17]


def check_element_count(source, count):
    # Each matrix of a stack of `count` elements is oracle_matrix at its element.
    elements = ELEMENT_SOURCES[source](11, count)
    columns = [[getattr(A, x) for A in elements] for x in "abcd"]
    for l_x2 in range(13):
        l = HalfInt(l_x2)
        stack = oracle_stack(l, *columns)
        for i, A in enumerate(elements):
            assert stack[i].tobytes() == oracle_matrix(l, A).entries.tobytes(), (source, count, l_x2, i)


@pytest.mark.parametrize("count", ELEMENT_COUNTS)
@pytest.mark.parametrize("source", sorted(ELEMENT_SOURCES))
def test_stack_bits_do_not_depend_on_the_element_count(source, count):
    check_element_count(source, count)


def test_stack_bits_do_not_depend_on_the_element_count_without_avx512():
    # numpy picks its complex-product loop by CPU level, and the element count
    # decides which elements fall in a loop's tail; run the check again in a
    # fresh interpreter with the AVX-512 levels off.
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    levels = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
    disabled = [f for f in levels if f in __cpu_dispatch__ and __cpu_features__.get(f)]
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled), "PYTHONPATH": path}
    env.pop("NPY_ENABLE_CPU_FEATURES", None)  # numpy refuses both variables at once
    script = (
        "import test_oracle_tables as t\n"
        "for source in sorted(t.ELEMENT_SOURCES):\n"
        "    for count in t.ELEMENT_COUNTS:\n"
        "        t.check_element_count(source, count)\n"
    )
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("l_x2", [0, 1, 6])
def test_oracle_stack_of_no_elements(l_x2):
    assert oracle_stack(HalfInt(l_x2), [], [], [], []).shape == (0, l_x2 + 1, l_x2 + 1)


def test_overflow_elements_raise():
    assert outcome(oracle_matrix, HalfInt(3), ELEMENTS["power_overflow"]) is OverflowError
    assert outcome(oracle_matrix, HalfInt(2), ELEMENTS["product_overflow"]) is ValueError
