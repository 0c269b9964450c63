"""floatrepr.write_reprs, the dmat matrix writer's kernel, against
float.__repr__ value by value.

The draws force in every class the kernel leaves to float.__repr__ or
decides next to a format boundary: raw bit patterns, subnormals, powers of
two, exact integers, decimal midpoints, neighbours of the powers of ten, and
the neighbours of 1e-5, 1e-4 and 1e16, where repr switches between fixed
and scientific notation.  A deterministic sweep writes every decimal
exponent with every digit count, lead digit and sign.
"""
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerkit import floatrepr


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def neighbour(base: float, steps: int) -> float:
    return from_bits(struct.unpack("<Q", struct.pack("<d", base))[0] + steps)


SIGN = st.sampled_from([1.0, -1.0])
RAW = st.integers(0, 2**64 - 1).map(from_bits).filter(math.isfinite)
SUBNORMAL = st.integers(1, 2**52 - 1).map(from_bits)
POWER_OF_TWO = st.integers(-1074, 1023).map(lambda e: math.ldexp(1.0, e))
# A double from 1e16 to 1e17 is an integer and its own value on the kernel's
# scale, so its interval ends sit on integers.
INTEGER = st.one_of(st.integers(-(2**70), 2**70), st.integers(10**16, 10**17)).map(float)
# Decimals ending in 5: midpoints of the decimals one digit shorter.
MIDPOINT = st.builds(lambda m, e: float(f"{m}5e{e}"), st.integers(0, 10**6), st.integers(-30, 30))
CUTOVER = st.builds(neighbour, st.sampled_from([1e-5, 1e-4, 1e16, 1e15, 1.0]), st.integers(-3, 3))
# A power of ten whose double lies below it (1e-6 is one) rounds up into the
# next decade.
POWER_OF_TEN = st.builds(neighbour, st.integers(-300, 300).map(lambda k: float(f"1e{k}")), st.integers(-1, 1))
# Beyond the kernel's power-of-ten table.
OUT_OF_TABLE = st.one_of(
    st.floats(min_value=1e281, allow_infinity=False), st.floats(min_value=1e-307, max_value=1e-281)
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
VALUE = st.one_of(FINITE, RAW, SUBNORMAL, POWER_OF_TWO, INTEGER, MIDPOINT, CUTOVER, POWER_OF_TEN, OUT_OF_TABLE)


def kernel_reprs(values) -> list[str]:
    x = np.array(values, dtype=float)
    text = floatrepr.write_reprs(x, np.full(len(x), ord("\n"), dtype=np.uint8))
    return text.decode().split("\n")[:-1]


@given(st.lists(st.builds(lambda sign, v: sign * v, SIGN, VALUE), max_size=40))
@settings(deadline=None, max_examples=400)
def test_same_text_as_float_repr(values):
    assert kernel_reprs(values) == [repr(v) for v in values]


# The doubles from 1e16 up to the last one below 1e17 are integers at the
# kernel's scale.
FALLBACK = st.one_of(SUBNORMAL, POWER_OF_TWO, OUT_OF_TABLE, st.integers(10**16, 10**17 - 16).map(float))


@given(st.builds(lambda sign, v: sign * v, SIGN, FALLBACK))
@settings(deadline=None)
def test_fallback_classes_reach_float_repr(v):
    # A lopsided or out-of-table interval, or an interval end on an integer
    # (a 17-digit integer is its own scaled value), is left undecided.
    *_, undecided = floatrepr._shortest(np.array([v]))
    assert undecided[0]
    assert kernel_reprs([v]) == [repr(v)]


# Magnitudes that repr writes in fixed notation with 2 to 16 integer digits
# (decimal exponents 1..15), where the point shifts into the digit words.
FIXED_INTEGRAL = st.builds(lambda m, e: m * 10.0**e, st.floats(1, 10, exclude_max=True), st.integers(1, 15))
SEP = st.sampled_from([0, 1, 2, ord("\n")])


@given(st.lists(st.tuples(st.one_of(VALUE, FALLBACK, FIXED_INTEGRAL), SIGN, SIGN, SEP, SEP), min_size=1, max_size=40))
@settings(deadline=None, max_examples=300)
def test_a_mirrored_row_is_the_kernel_row_of_its_own_value(parts):
    # The dmat writer keeps the rows of one half of a matrix and hands the
    # other half their reversed views; each mirrored row must be the row the
    # kernel writes for the part's own value and separator.
    magnitude, kept_sign, sign, kept_sep, sep = (np.array(column) for column in zip(*parts))
    magnitude = np.abs(magnitude)
    rows, prefix = floatrepr._word_rows(kept_sign * magnitude, kept_sep.astype(np.uint8))
    values, seps = (sign * magnitude)[::-1], sep.astype(np.uint8)[::-1]
    out = np.empty_like(rows)
    floatrepr._mirrored_rows(rows[::-1], prefix[::-1], values, seps, out)
    assert out.tolist() == floatrepr._word_rows(values, seps)[0].tolist()


def test_ordinary_values_stay_in_the_kernel():
    # dmat entries are ordinary doubles; the fallback should be rare.
    x = np.random.default_rng(0).standard_normal(10_000) * 10.0 ** np.arange(-8, 8).repeat(625)
    *_, undecided = floatrepr._shortest(x)
    assert np.count_nonzero(undecided) <= 10
    assert kernel_reprs(x) == [repr(v) for v in x.tolist()]


def test_zeros_separators_and_strides():
    x = np.array([0.0, -0.0, 1e16, 1e-5, 0.0001, 1e-6, 123.0, -2.5e-300, 5e-324])
    seps = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2], dtype=np.uint8)
    for values, marks in ((x, seps), (x[::3], seps[::3]), (x[:0], seps[:0])):
        want = b"".join(repr(v).encode() + bytes([s]) for v, s in zip(values.tolist(), marks.tolist()))
        assert floatrepr.write_reprs(values, marks) == want


def test_every_exponent_digit_count_lead_and_sign():
    # n digits, each lead digit followed by the first n - 1 of pi's, at every
    # decimal exponent of the doubles: every count at every normal exponent
    # (fixed 1..15 with fewer digits than the integer part, "123.0", among
    # them), three-digit exponents and subnormals.  Texts past the largest
    # double read as inf and are dropped; below the smallest they read as 0.
    tail = "3141592653589793"
    texts = (f"{lead}.{tail[: n - 1]}e{k}" for k in range(-324, 309) for n in range(1, 18) for lead in "123456789")
    magnitudes = [v for v in map(float, texts) if math.isfinite(v)]
    x = np.array(magnitudes + [-v for v in magnitudes])
    seps = np.resize(np.array([0, 1, 2, ord("\n")], dtype=np.uint8), len(x))
    want = b"".join(repr(v).encode() + bytes([s]) for v, s in zip(x.tolist(), seps.tolist()))
    assert floatrepr.write_reprs(x, seps) == want
    # What the sweep reaches: every exponent (each suffix row), every count at
    # every normal exponent (each digit mask in each notation), and every
    # prefix (notation, sign, lead digit, point); zeros lead with 0.
    digits, e, count, _ = floatrepr._shortest(x)
    assert set(e[x != 0].tolist()) == set(range(-324, 309))
    reached = set(zip(e.tolist(), count.tolist()))
    assert all((k, n) in reached for k in range(-307, 309) for n in range(1, 18))
    notation = np.where((e >= -4) & (e <= 0), e, np.where((e > 0) & (e < 16), 1, 2))
    prefixes = set(zip(notation.tolist(), np.signbit(x).tolist(), (digits // 10**16).tolist(), (count > 1).tolist()))
    assert prefixes >= {(f, s, d, p) for f in range(-4, 3) for s in (0, 1) for d in range(1, 10) for p in (0, 1)}
    assert {(0, 0, 0, 0), (0, 1, 0, 0)} <= prefixes


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_value_is_refused(bad):
    with pytest.raises(ValueError, match=r"finite values, got values\[1\] = "):
        floatrepr.write_reprs(np.array([1.0, bad, 2.0]), np.zeros(3, dtype=np.uint8))


@pytest.mark.parametrize("shape, sep_shape", [((2, 2), (2, 2)), ((2, 2), (4,)), ((3,), (2,))])
def test_values_not_one_per_separator_on_a_1d_array_are_refused(shape, sep_shape):
    message = f"1-d array and one separator each, got shapes {shape}, {sep_shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        floatrepr.write_reprs(np.ones(shape), np.zeros(sep_shape, dtype=np.uint8))


def test_the_filler_byte_is_refused_as_a_separator():
    # 0x7F pads the word rows and is deleted from the text, so it would vanish.
    with pytest.raises(ValueError, match=r"no separator 0x7F, its filler byte: seps\[1\]"):
        floatrepr.write_reprs(np.array([1.0, 2.0, 3.0]), np.array([0, 0x7F, 1], dtype=np.uint8))
