"""repr() of many doubles at once, without a Python call per value.

`write_reprs(values, seps)` returns the ASCII of ``repr(float(v)) + sep`` for
every value, concatenated.  It is the matrix writer behind ``wignerkit dmat``,
where ``float.__repr__`` through a %-template took about three quarters of a
200-spin call.  It is two steps: the kernel, `_word_rows`, which lays out
every value as a row of words, and `_rows_text`, which reads the text of any
run of those rows.  The dmat writer takes them apart, so that it pays the
kernel's fixed numpy cost (about 0.2 ms a call) once per block of rows and
still cuts the text into smaller pieces.  A third step, `_mirrored_rows`,
writes the rows of values from the kept rows of values of the same
magnitudes, bit for bit, without the kernel: the digit words and the
exponent carry over, and the prefix takes each value's sign (from the
kernel's prefix row of |x|) and the suffix each value's separator.  The dmat
writer runs the kernel on the first half of an Euler source's matrix and
mirrors the rest.

repr prints the shortest decimal digits that read back as the same double
and, among those, the nearest.  The kernel finds them for a whole array at
once, in the line of Ryu (Adams, PLDI 2018) and Schubfach (Giulietti, 2020):

- *Digits.*  With k = floor(log10 |x|), |x| * 10**(16 - k) is taken as a
  double-double product with a hi/lo table of the powers of ten built from
  exact integers.  Its integer part Y has 17 digits (int64), and its fraction
  F is good to about 1e-14.  h is half an ulp of x on the same scale (read
  from the exponent bits of x), and x is the only double in
  [Y + F - h, Y + F + h].  n digits suffice when a multiple of
  10**(17 - n) lies in that interval; the interval is symmetric, so the
  nearest n-digit decimal, Y + F rounded at 10**(17 - n), is one.  The
  smallest such n is repr's digit count.
- *Layout.*  Each value is a row of four uint64 words, each taken from a
  small table built at import: a prefix by (notation, sign, lead digit,
  point), with "0." and zeros at fixed exponents -1..-4; digits 2-17 in two
  words from the ASCII of 0000..9999, ORed with a row by digit count that
  turns the digits past it into filler; and a suffix by exponent, "e-05",
  "e+100" or filler, with the separator ORed into byte 5.  Fixed exponents
  1..15 shift the point into the digit words, on their subset only.  Tables
  and rows are little-endian ("<u8"), so the text does not depend on the
  host's byte order; one bytes.translate deletes the filler.
- *Fallback.*  A value the kernel cannot decide with a wide margin gets its
  digits from ``float.__repr__``: an interval end within 1e-6 (in units of
  the 17th digit) of an integer, where a candidate could sit on it and
  round-half-even would decide; a rounding tie within the same margin; a
  power-of-two mantissa, whose interval is lopsided; or |x| outside
  [1e-280, 1e280], beyond the table.  Zeros are written directly.

NaN, infinity, a 2-d array and the separator 0x7F are refused with a ValueError.
"""
from __future__ import annotations

import numpy as np

# Magnitudes the kernel decides itself; the rest fall back.  The bits of a
# non-negative double order as its value, so |x| lies in the range when its
# bits less _MIN_BITS, taken modulo 2**64, are at most _SPAN.
_MIN_ABS, _MAX_ABS = 1e-280, 1e280
_MIN_BITS = np.float64(_MIN_ABS).view(np.uint64)
_SPAN = np.float64(_MAX_ABS).view(np.uint64) - _MIN_BITS
# A double's exponent field, and half an ulp's field below it: 53 binades.
_EXPONENT, _HALF_ULP_BINADES = np.uint64(0x7FF << 52), np.uint64(53 << 52)
_MANTISSA = np.uint64(2**52 - 1)
# The scale 10**q for |x| in that range, with q = 16 - k and k off by one at
# most; row 16 - _Q0 - k of the table.
_Q0, _Q1 = -266, 298
_ROW16 = 16 - _Q0
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
_DECADE = np.uint64(9 * 10**16)  # the width of [10**16, 10**17)

_FILLER = 0x7F  # padding in the word rows, deleted before the text is returned
# Shifts as uint64: numpy 1.x makes a float64 of uint64 op int64.
_B8, _B16, _B24, _B32, _B40, _B56 = (np.uint64(bits) for bits in (8, 16, 24, 32, 40, 56))
_E_MIN = -324  # the doubles' decimal exponents run from -324 to 308
_E = np.arange(_E_MIN, 309)
_FIXED = (_E >= -4) & (_E <= 15)  # where repr writes fixed notation


def _words(text) -> np.ndarray:
    """Rows of 8k bytes as rows of k words, each its 8 bytes read little-endian."""
    return np.ascontiguousarray(text, dtype=np.uint8).view("<u8").astype(np.uint64)


_QUAD = np.arange(48, 58, dtype=np.uint64)  # the ASCII of 0000..9999, in the low and the high half of a word
_QUAD = (_QUAD[:, None, None, None] | _QUAD[:, None, None] << _B8 | _QUAD[:, None] << _B16 | _QUAD << _B24).ravel()
_QUAD = np.stack([_QUAD, _QUAD << _B32])
# Rows over the 16 bytes of the two digit words.
_MASK = _words((1 - np.tri(17, 16, -1)) * _FILLER)  # row n: filler over bytes n..15 (0x3X | 0x7F is 0x7F)
_KEEP = _words(np.tri(16, k=-1) * 0xFF)  # row p: every bit of bytes 0..p-1
_DOT = _words(np.eye(16) * ord("."))  # row p: '.' in byte p
_SEP = np.arange(256, dtype=np.uint64) << _B40
# The separator's byte in a row of native words: byte 5 of the fourth word.
_SEP_BYTE = 3 * 8 + (5 if np.little_endian else 2)

# Prefix row ((form * 2 + negative) * 2 + point) * 10 + d, for lead digit d and a point if more digits
# follow; forms: scientific, fixed at exponent 0, at -1..-4 and at 1..15 (point in the digit words).
_FORMS = ((b"d", b"d."), (b"d.0", b"d."), *((b"0." + b"0" * k + b"d",) * 2 for k in range(4)), (b"d", b"d"))
_FORM_AT = 40 * np.where(_E > 0, 6, 1 - _E) * _FIXED  # by exponent: 40 * form


def _prefix_table() -> np.ndarray:
    heads = b"".join((sign + head).ljust(8, b"\x7f") for pair in _FORMS for sign in (b"", b"-") for head in pair)
    text = np.frombuffer(heads, dtype=np.uint8).reshape(-1, 1, 8)
    return _words(np.where(text == ord("d"), np.arange(48, 58)[:, None], text).reshape(-1, 8))[:, 0]


def _suffix_table() -> np.ndarray:
    """Row e - _E_MIN: repr's exponent ("e-05", "e+100"), or filler for a
    fixed exponent, in bytes 0-4, then 0 for the separator and filler."""
    text = np.full((_E.size, 8), _FILLER, dtype=np.uint8)
    text[:, :2] = np.where(_E < 0, ord("-"), ord("+"))[:, None]
    text[:, 0], text[:, 5] = ord("e"), 0
    text[:, 2:5] = 48 + np.abs(_E)[:, None] // [100, 10, 1] % 10
    text[np.abs(_E) < 100, 2] = _FILLER
    text[_FIXED, :5] = _FILLER
    return _words(text)[:, 0]


_PREFIX, _SUFFIX = _prefix_table(), _suffix_table()


def _in_table(bits: np.ndarray) -> np.ndarray:
    """Whether |x| lies in [_MIN_ABS, _MAX_ABS], for the bits of |x|: one
    unsigned compare."""
    return bits - _MIN_BITS <= _SPAN


def _half_ulp(ax: np.ndarray) -> np.ndarray:
    """0.5 * np.spacing(ax), read from the exponent bits: the power of two 53
    binades below ax's.  It holds from 2**-969 up to the largest double
    (where np.spacing overflows), so on the whole table."""
    return ((ax.view(np.uint64) & _EXPONENT) - _HALF_ULP_BINADES).view(np.float64)


def _scaled(ax: np.ndarray, k: np.ndarray):
    """Y, F and h with ax * 10**(16 - k) = Y + F (Y an integer, 0 <= F < 1,
    F to about 1e-14) and h half an ulp of ax on the same scale."""
    hi, lo, head, tail = (column.take(_ROW16 - k) for column in _POW10)
    p = ax * hi
    split = ax * _SPLIT
    ax_head = split - (split - ax)
    ax_tail = ax - ax_head
    # Dekker's exact product error of ax * hi, plus the table's remainder.
    low = ((ax_head * head - p) + ax_head * tail + ax_tail * head) + ax_tail * tail + ax * lo
    whole = np.floor(p)
    frac = (p - whole) + low
    carry = np.floor(frac)
    return whole.astype(np.int64) + carry.astype(np.int64), frac - carry, _half_ulp(ax) * hi


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
    decided = _in_table(bits) & ((bits & _MANTISSA) != 0)
    ax = np.where(decided, ax, 1.5)
    k = np.floor(np.log10(ax)).astype(np.int64)
    Y, F, h = _scaled(ax, k)
    # log10 can land one decade off next to a power of ten, where Y falls
    # outside [10**16, 10**17): one unsigned compare finds it.
    if ((Y - 10**16).view(np.uint64) >= _DECADE).any():
        off = (Y < 10**16).astype(np.int64) - (Y >= 10**17)
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
    # so 14 and fewer are tried only where 14 fit, which few of the 15 do.
    count = 17 - _fits(low, high, 10) - _fits(low, high, 100)
    short = np.flatnonzero(count == 15)
    short = short[_fits(low[short], high[short], 1000)]
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
    for i in np.flatnonzero(undecided):  # every NaN and infinity lands here
        if not np.isfinite(x[i]):
            raise ValueError(f"write_reprs takes finite values, got values[{i}] = {x[i]}")
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


def _word_rows(values: np.ndarray, seps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The kernel of write_reprs: one row of four uint64 words per value,
    whose little-endian bytes, less the filler 0x7F, are repr(v) and then its
    separator, and each value's prefix row less its sign, for _mirrored_rows.
    The text of rows i..j-1 is that of values i..j-1 alone, so a caller can
    run the kernel once and cut the text at any row."""
    x = np.ascontiguousarray(values, dtype=np.float64)
    seps = np.asarray(seps)
    if x.ndim != 1 or seps.shape != x.shape:
        raise ValueError(f"write_reprs takes a 1-d array and one separator each, got shapes {x.shape}, {seps.shape}")
    if (seps == _FILLER).any():
        raise ValueError(f"write_reprs takes no separator 0x7F, its filler byte: seps[{np.argmax(seps == _FILLER)}]")
    digits, e, count, _ = _shortest(x)
    at = e - _E_MIN
    top = digits // 10**8
    lead = top // 10**8
    high, low = top - lead * 10**8, digits - top * 10**8  # digits 2-9 and 10-17
    kept = count - 1  # digits written after the lead
    integral = np.flatnonzero((e > 0) & (e < 16))  # fixed notation with two or more integer digits
    kept[integral] = np.maximum(kept[integral], e[integral] + 1)
    prefix = _FORM_AT.take(at) + (count > 1) * 10 + lead  # the prefix row of |x|
    words = np.empty((len(x), 4), dtype=np.uint64)
    words[:, 0] = _PREFIX.take(prefix + np.signbit(x) * 20)
    for word, half in ((1, high), (2, low)):
        quad = half // 10**4
        words[:, word] = _QUAD[0].take(quad) | _QUAD[1].take(half - quad * 10**4) | _MASK[:, word - 1].take(kept)
    words[:, 3] = _SUFFIX.take(at) | _SEP.take(seps)
    if integral.size:  # the point after digit e + 1 shifts the digits' last byte into the suffix
        text, keep = words[integral, 1:3], _KEEP[e[integral]]
        move = text & ~keep
        words[integral, 1:3] = text & keep | move << _B8 | _DOT[e[integral]]
        words[integral, 2] |= move[:, 0] >> _B56
        words[integral, 3] = words[integral, 3] >> _B8 << _B8 | text[:, 1] >> _B56
    return words, prefix


def _mirrored_rows(rows: np.ndarray, prefix: np.ndarray, values: np.ndarray, seps: np.ndarray, out: np.ndarray) -> None:
    """Write into out the word rows of values whose magnitudes are, bit for
    bit, those of the values that _word_rows gave rows and prefix (or views
    of them, reversed ones too).  The digit words and the exponent depend
    only on |x|, so they carry over; the prefix takes each value's own sign,
    and byte 5 of the fourth word its own separator.  rows and out have a
    last axis of four words, out's contiguous, and prefix, values and seps
    the shape of the rest."""
    out[...] = rows
    out[..., 0] = _PREFIX.take(prefix + np.signbit(values) * 20)
    out.view(np.uint8)[..., _SEP_BYTE] = seps


def write_reprs(values: np.ndarray, seps: np.ndarray) -> bytes:
    """b"".join(repr(v).encode() + bytes([s]) for v, s in zip(values, seps))
    for a 1-d float64 array of finite values and a uint8 array of separator
    bytes, any but 0x7F: the text of its word rows."""
    return _rows_text(_word_rows(values, seps)[0])


def _rows_text(words: np.ndarray) -> bytes:
    """The text of word rows from _word_rows, or of any run of them: their
    bytes with the filler deleted."""
    return words.astype("<u8", copy=False).tobytes().translate(None, b"\x7f")
