"""repr() of many doubles at once, without a Python call per value.

`write_reprs(values, seps)` returns the ASCII of ``repr(float(v)) + sep`` for
every value, concatenated.  It is the matrix writer behind ``wignerkit dmat``,
where ``float.__repr__`` through a %-template took about three quarters of a
200-spin call.

repr prints the shortest decimal digits that read back as the same double
and, among those, the nearest.  The kernel finds them for a whole array at
once, in the line of Ryu (Adams, PLDI 2018) and Schubfach (Giulietti, 2020):

- *Digits.*  With k = floor(log10 |x|), |x| * 10**(16 - k) is taken as a
  double-double product with a hi/lo table of the powers of ten built from
  exact integers.  Its integer part Y has 17 digits (int64), and its fraction
  F is good to about 1e-14.  h is half an ulp of x on the same scale, and x
  is the only double in [Y + F - h, Y + F + h].  n digits suffice when a
  multiple of 10**(17 - n) lies in that interval; the interval is
  symmetric, so the nearest n-digit decimal, Y + F rounded at 10**(17 - n),
  is one.  The smallest such n is repr's digit count.
- *Layout.*  Each value's characters are gathered from a small byte row (a
  sign, 17 digits from a 4-digit ASCII table, '.', '0', 'e', the exponent
  and the separator) through one layout row per (notation, digit count):
  fixed for decimal exponents -4..15, otherwise scientific with a sign and
  at least two exponent digits, as repr does.
- *Fallback.*  A value the kernel cannot decide with a wide margin gets its
  digits from ``float.__repr__``: an interval end within 1e-6 (in units of
  the 17th digit) of an integer, where a candidate could sit on it and
  round-half-even would decide; a rounding tie within the same margin; a
  power-of-two mantissa, whose interval is lopsided; or |x| outside
  [1e-280, 1e280], beyond the table.  Zeros are written directly.

NaN and infinity are not accepted.
"""
from __future__ import annotations

import numpy as np

# Magnitudes the kernel decides itself; the rest fall back.
_MIN_ABS, _MAX_ABS = 1e-280, 1e280
# The scale 10**q for |x| in that range, with q = 16 - k and k off by one at most.
_Q0, _Q1 = -266, 298
# Margin, in units of the 17th digit, around a tie or an interval end; the
# double-double scaled value is good to about 1e-14 of that unit.
_MARGIN = 1e-6
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a double into two halves


def _pow10_table() -> tuple[np.ndarray, ...]:
    """Columns (hi, lo, hi_head, hi_tail) for 10**q, q = _Q0.._Q1, each one
    contiguous array: hi is 10**q rounded to a double (int / int rounds
    correctly), hi + lo is 10**q to about 2**-105, and hi_head + hi_tail is
    hi split into two 26-bit halves."""
    rows = []
    exact = 1
    for _ in range(_Q1 + 1):
        hi = float(exact)
        rows.append((hi, float(exact - int(hi))))
        exact *= 10
    den = 10
    for _ in range(-_Q0):
        hi = 1 / den
        num, two_pow = hi.as_integer_ratio()
        rows.insert(0, (hi, (two_pow - num * den) / two_pow * hi))
        den *= 10
    hi, lo = np.array(rows).T.copy()
    head = hi * _SPLIT - (hi * _SPLIT - hi)
    return hi, lo, head, hi - head


_POW10 = _pow10_table()
# 10**(17 - n) for n = 1..17: the rounding step of an n-digit decimal.
_STEP = 10 ** np.arange(16, -1, -1, dtype=np.int64)


def _quad_table() -> np.ndarray:
    """The ASCII of 0000..9999, four bytes per number, as one native uint32
    each."""
    digit = np.arange(48, 58, dtype=np.uint8)
    quad = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    quad[..., 0] = digit[:, None, None, None]
    quad[..., 1] = digit[:, None, None]
    quad[..., 2] = digit[:, None]
    quad[..., 3] = digit
    return quad.reshape(10000, 4).view(np.uint32)[:, 0]


_QUAD = _quad_table()

# A value's source row: byte slots that the layout rows gather from.
_E, _DOT, _ZERO, _DIGITS, _SIGN, _EXP_SIGN, _SEP, _FILL, _EXP = 0, 1, 2, 3, 20, 21, 22, 23, 24
_WIDTH = 28  # _EXP holds four exponent digits, the first always 0
_FILLER = 0x7F  # padding in the gathered text, deleted before it is returned
_SOURCE = np.full(_WIDTH, _FILLER, dtype=np.uint8)
_SOURCE[[_E, _DOT, _ZERO]] = list(b"e.0")
# Notations: fixed at decimal exponents -4..15, then scientific with a two-
# and with a three-digit exponent.
_FIXED_MIN, _FIXED_MAX = -4, 15
_SCI2, _SCI3 = _FIXED_MAX - _FIXED_MIN + 1, _FIXED_MAX - _FIXED_MIN + 2
# The longest text, "-1.2345678901234567e-100", and its separator; shorter
# layout rows are padded with the filler slot.
_TEXT_MAX = 25
_DIGIT_SLOTS = bytes(range(_DIGITS, _DIGITS + 17))


def _layout_row(notation: int, n: int) -> bytes:
    """The source slot of each character of a value's text, then filler."""
    dot, zero = bytes([_DOT]), bytes([_ZERO])
    if notation < _SCI2:
        e = notation + _FIXED_MIN
        if e >= 0:  # the digit slots past n hold '0'
            text = _DIGIT_SLOTS[: e + 1] + dot + (_DIGIT_SLOTS[e + 1 : n] or zero)
        else:
            text = zero + dot + zero * (-e - 1) + _DIGIT_SLOTS[:n]
    else:
        text = _DIGIT_SLOTS[:1] + (dot + _DIGIT_SLOTS[1:n] if n > 1 else b"") + bytes([_E, _EXP_SIGN])
        text += bytes(range(_EXP + (2 if notation == _SCI2 else 1), _EXP + 4))
    return (bytes([_SIGN]) + text + bytes([_SEP])).ljust(_TEXT_MAX, bytes([_FILL]))


# Row notation * 17 + n - 1.
_LAYOUT = np.frombuffer(
    b"".join(_layout_row(notation, n) for notation in range(_SCI3 + 1) for n in range(1, 18)), np.uint8
).reshape(-1, _TEXT_MAX).astype(np.intp)


def _scaled(ax: np.ndarray, k: np.ndarray):
    """Y, F and h with ax * 10**(16 - k) = Y + F (Y an integer, 0 <= F < 1,
    F to about 1e-14) and h half an ulp of ax on the same scale."""
    at = 16 - k - _Q0
    hi, lo, head, tail = (column.take(at) for column in _POW10)
    p = ax * hi
    split = ax * _SPLIT
    ax_head = split - (split - ax)
    ax_tail = ax - ax_head
    # Dekker's exact product error of ax * hi, plus the table's remainder.
    low = ((ax_head * head - p) + ax_head * tail + ax_tail * head) + ax_tail * tail + ax * lo
    whole = np.floor(p)
    frac = (p - whole) + low
    carry = np.floor(frac)
    return whole.astype(np.int64) + carry.astype(np.int64), frac - carry, 0.5 * np.spacing(ax) * hi


def _fits(low: np.ndarray, high: np.ndarray, step) -> np.ndarray:
    """Whether a multiple of step lies in [low, high]."""
    return high // step * step >= low


def _shortest(x: np.ndarray):
    """(digits, exponent, count, undecided) for the float64 array x: repr's
    digits of |x| as a 17-digit int64 (zeros appended), its decimal exponent
    and digit count, and where the kernel left the answer to float.__repr__.
    Zeros give digits 0, exponent 0 and count 1."""
    ax = np.abs(x)
    bits = ax.view(np.uint64)
    decided = (ax >= _MIN_ABS) & (ax <= _MAX_ABS) & ((bits & np.uint64(2**52 - 1)) != 0)
    ax = np.where(decided, ax, 1.5)
    k = np.floor(np.log10(ax)).astype(np.int64)
    Y, F, h = _scaled(ax, k)
    # log10 can land one decade off next to a power of ten.
    off = (Y < 10**16).astype(np.int64) - (Y >= 10**17)
    if off.any():
        at = np.flatnonzero(off)
        k[at] -= off[at]
        Y[at], F[at], h[at] = _scaled(ax[at], k[at])
        decided[at] &= (Y[at] >= 10**16) & (Y[at] < 10**17)
    # The ends of the half-ulp interval on the same scale, Y + F -+ h, rounded
    # inward to integers; an end within the margin of an integer is undecided.
    low, high = F - h, F + h
    decided &= (np.abs(low - np.rint(low)) >= _MARGIN) & (np.abs(high - np.rint(high)) >= _MARGIN)
    low = Y + np.ceil(low).astype(np.int64)
    high = Y + np.floor(high).astype(np.int64)
    # n digits read back as x when a multiple of 10**(17 - n) lies in
    # [low, high].  17 always do (h > 1/2); a random double needs 16 or 17,
    # so 15 and fewer are tried only where 15 fit.
    count = 17 - _fits(low, high, 10) - _fits(low, high, 100)
    short = np.flatnonzero(count == 15)
    if short.size:
        count[short] -= _fits(low[short, None], high[short, None], _STEP[:14]).sum(axis=1)
    # The nearest count-digit decimal; near a tie it is left undecided.
    step = _STEP[count - 1]
    quot = Y // step
    rem = Y - quot * step
    past_mid = (2 * rem - step).astype(float) + 2 * F
    decided &= np.abs(past_mid) >= _MARGIN
    digits = (quot + (past_mid > 0)) * step
    carried = digits == 10**17  # 9.99..5 rounded to 10: count is 1 there
    digits[carried] = 10**16
    k += carried
    zero = x == 0
    digits[zero], k[zero], count[zero] = 0, 0, 1
    undecided = ~(decided | zero)
    for i in np.flatnonzero(undecided):
        digits[i], k[i], count[i] = _repr_digits(abs(float(x[i])))
    return digits, k, count, undecided


def _repr_digits(v: float) -> tuple[int, int, int]:
    """(17-digit int, decimal exponent, digit count) of repr(v), v > 0."""
    mant, _, exp = repr(v).partition("e")
    whole, _, frac = mant.partition(".")
    digits = (whole + frac).lstrip("0")
    e = int(exp or 0) - len(frac) + len(digits) - 1
    digits = digits.rstrip("0")
    return int(digits) * 10 ** (17 - len(digits)), e, len(digits)


def write_reprs(values: np.ndarray, seps: np.ndarray) -> bytes:
    """b"".join(repr(v).encode() + bytes([s]) for v, s in zip(values, seps))
    for a 1-d float64 array of finite values and a uint8 array of separator
    bytes, any but 0x7F."""
    x = np.ascontiguousarray(values, dtype=np.float64)
    digits, e, count, _ = _shortest(x)
    source = np.empty((len(x), _WIDTH), dtype=np.uint8)
    source[:] = _SOURCE
    quads = source.view(np.uint32)
    lead = digits // 10**16
    source[:, _DIGITS] = lead + 48
    rest = digits - lead * 10**16
    # Digits 2-17 fill bytes 4-19, the uint32 words 1-4.
    for word, power in zip(range(1, 5), (10**12, 10**8, 10**4, 1)):
        quads[:, word] = _QUAD[rest // power % 10000]
    quads[:, _EXP // 4] = _QUAD[np.abs(e)]
    source[:, _SIGN] = np.where(np.signbit(x), ord("-"), _FILLER)
    source[:, _EXP_SIGN] = np.where(e < 0, ord("-"), ord("+"))
    source[:, _SEP] = seps
    fixed = (e >= _FIXED_MIN) & (e <= _FIXED_MAX)
    notation = np.where(fixed, e - _FIXED_MIN, np.where(np.abs(e) < 100, _SCI2, _SCI3))
    at = _LAYOUT.take(notation * 17 + count - 1, axis=0)
    at += np.arange(0, source.size, _WIDTH)[:, None]  # in place: a fresh array this size costs more
    return source.ravel().take(at).tobytes().translate(None, bytes([_FILLER]))
