"""The digit kernel's bit forms against the float forms they replace.

floatrepr._shortest tests the table's range with one unsigned compare on the
bits of |x| (_in_table) and reads half an ulp from the exponent bits
(_half_ulp).  At the range's ends and their neighbours, at every power of two
in the range, and at subnormals and zeros, each must equal the float form:
(|x| >= 1e-280) & (|x| <= 1e280), and 0.5 * np.spacing at the magnitude the
kernel scales (|x| in the range, 1.5 outside it).
"""
import numpy as np
import pytest

from wignerkit import floatrepr

LOW, HIGH = 1e-280, 1e280
ENDS = [np.nextafter(end, toward) for end in (LOW, HIGH) for toward in (0.0, end, np.inf)]
POWERS = np.ldexp(1.0, np.arange(-930, 931))  # 2**-930 is the least power of two above 1e-280
SUBNORMALS = np.ldexp(np.array([1.0, 2.0, 3.0, 2.0**51, 2.0**52 - 1]), -1074)
ZEROS = [0.0, -0.0]
# A few values far outside the range, where the compare's difference wraps.
OUTSIDE = [np.ldexp(1.0, -1022), 2.0**-969, np.nextafter(LOW, 0.0) / 2, 1e300, np.finfo(float).max]
VALUES = {
    "ends": ENDS,
    "powers-of-two": POWERS,
    "subnormals": SUBNORMALS,
    "zeros": ZEROS,
    "outside": OUTSIDE,
}


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("kind", VALUES)
def test_the_bit_forms_are_the_float_forms(kind, sign):
    ax = np.abs(sign * np.asarray(VALUES[kind], dtype=np.float64))
    in_range = (ax >= LOW) & (ax <= HIGH)
    assert floatrepr._in_table(ax.view(np.uint64)).tolist() == in_range.tolist()
    scaled = np.where(in_range, ax, 1.5)
    assert floatrepr._half_ulp(scaled).tolist() == (0.5 * np.spacing(scaled)).tolist()


def test_the_range_ends_are_where_the_compare_turns():
    ends = np.array(ENDS).view(np.uint64)
    assert floatrepr._in_table(ends).tolist() == [False, True, True, True, True, False]


def test_the_half_ulp_holds_down_to_its_least_exponent():
    # Every power of two from 2**-969, the least whose half ulp is a normal
    # double, to 2**1023, and two values inside each binade; np.spacing of
    # the largest double overflows.
    ax = np.ldexp(np.array([1.0, 1.5, 1.75])[:, None], np.arange(-969, 1024)).ravel()
    assert floatrepr._half_ulp(ax).tolist() == (0.5 * np.spacing(ax)).tolist()
    assert floatrepr._half_ulp(np.array([2.0**-970]))[0] != 0.5 * np.spacing(2.0**-970)
