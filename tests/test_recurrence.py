"""The Jacobi recurrence in the degree against exact sums.

Every entry of t^l(A) is a finite sum of monomials in the entries of A.  A
float entry is an integer over a power of two, so the sum is a Gaussian
integer over 2^(s l2), taken here exactly as scripts/reference_table._values
takes it; the one square root per entry and the norm's roots are taken by
math.isqrt at ROOT_BITS bits, so no value below depends on mpmath.  The route
is held within 1e-14 of the norm s1^l2 (s1 the largest singular value of A)
at the chart ends and inside, and at the reference table's four elements as
matrix sources; a chart is also allowed the float element's own departure
from unitarity, |s1^l2 - 1|.  Edge elements are held within 1e-13.
"""
import json
import math
import random
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest

from wignerkit.exactcomb import HalfInt
from wignerkit.group import EulerAngles, Mat2C, from_euler
from wignerkit.verify import sample_gl2
from wignerkit.wigner import (
    ELEMENT_ROUTES,
    ROTATION_ROUTES,
    RouteUnavailableError,
    oracle_matrix,
    recurrence_matrix,
    recurrence_stack,
    recurrence_stack_by_spin,
)

ROOT_BITS = 96
TABLE = json.loads((Path(__file__).resolve().parent / "data" / "reference_table.json").read_text())
CHART_THETAS = [0.0, 1e-8, 1e-3, 0.05, 0.7, 1.5, math.pi / 2 - 1e-3, math.pi / 2]
EDGES = {
    "b_zero": Mat2C(0.9 + 0.2j, 0, 0.3 - 0.5j, 1.1 + 0.1j),
    "c_zero": Mat2C(0.9 + 0.2j, -0.4 + 0.7j, 0, 1.1 + 0.1j),
    "a_zero": Mat2C(0, -0.4 + 0.7j, 0.3 - 0.5j, 1.1 + 0.1j),
    "rank_1": Mat2C(1 + 1j, 2, 0.5 + 0.5j, 1),  # ad = bc = 1 + i exactly
    "det_1e-9": Mat2C(1, 2, 0.5, 1 + 1e-9),
    "nilpotent": Mat2C(0.5 + 0.25j, 1, -((0.5 + 0.25j) ** 2), -(0.5 + 0.25j)),  # x^2 is exact
}


def _gaussian(x: complex, s: int) -> tuple:
    # x times 2^s as an exact Gaussian integer (re, im).
    return tuple(int(math.ldexp(part, s)) for part in (x.real, x.imag))


def _mul(x: tuple, y: tuple) -> tuple:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def exact(A: Mat2C, l2: int, cells: list) -> tuple:
    """(entries at the cells, the norm s1^l2, s1^l2 - 1), the entries from
    the exact finite sum
        t_ij = sqrt(C(l2, l2-j) / C(l2, l2-i))
               * sum_k C(l2-j, k) C(j, l2-i-k) a^k b^(l2-i-k) c^(l2-j-k) d^(i+j-l2+k),
    each part rounded once from its ratio of integers, the root to ROOT_BITS bits."""
    entries = [complex(x) for x in (A.a, A.b, A.c, A.d)]
    s = max(part.as_integer_ratio()[1] for x in entries for part in (x.real, x.imag)).bit_length() - 1
    a, b, c, d = (_gaussian(x, s) for x in entries)
    pa, pb, pc, pd = (list(accumulate([x] * l2, _mul, initial=(1, 0))) for x in (a, b, c, d))
    out = []
    for i, j in cells:
        re = im = 0
        for k in range(max(0, l2 - i - j), min(l2 - i, l2 - j) + 1):
            weight = math.comb(l2 - j, k) * math.comb(j, l2 - i - k)
            term = _mul(_mul(pa[k], pb[l2 - i - k]), _mul(pc[l2 - j - k], pd[i + j - l2 + k]))
            re, im = re + weight * term[0], im + weight * term[1]
        num, den = math.comb(l2, l2 - j), math.comb(l2, l2 - i)
        root = math.isqrt((num * den) << (2 * ROOT_BITS))  # sqrt(num den) 2^ROOT_BITS
        scale = den << (ROOT_BITS + s * l2)
        out.append(complex(re * root / scale, im * root / scale))
    # s1^2 2^(2s+1) = F + sqrt(F^2 - 4 |det|^2), F the squared Frobenius norm
    frobenius = sum(x * x + y * y for x, y in (a, b, c, d))
    det = tuple(p - q for p, q in zip(_mul(a, d), _mul(b, c)))
    twice = (frobenius << ROOT_BITS) + math.isqrt((frobenius**2 - 4 * (det[0] ** 2 + det[1] ** 2)) << (2 * ROOT_BITS))
    unit = 1 << (2 * s + 1 + ROOT_BITS)
    s1_squared_minus_1 = (twice - unit) / unit
    return out, (twice / unit) ** (l2 / 2), math.expm1(l2 / 2 * math.log1p(s1_squared_minus_1))


def cells(l2: int) -> list:
    # The corners and the centre, the m + n = 0 lanes on the anti-diagonal
    # and the lanes beside the diagonal, where the chart ends lose digits in
    # the plain recurrence, and four cells drawn from a seed fixed by l2.
    half = l2 // 2
    chosen = [(0, 0), (0, l2), (l2, 0), (l2, l2), (half, half)]
    chosen += [(half + t, l2 - half - t) for t in (0, 1, max(1, l2 // 8), max(1, l2 // 3))]
    chosen += [(l2 - t, l2 - t - 1) for t in (0, max(1, l2 // 5))] if l2 else []
    rng = random.Random(l2)
    chosen += [(rng.randint(0, l2), rng.randint(0, l2)) for _ in range(4)]
    return [(i, j) for i, j in dict.fromkeys(chosen) if 0 <= i <= l2 and 0 <= j <= l2]


def worst(entries: np.ndarray, want: list, at: list) -> float:
    return max(abs(entries[i, j] - w) for (i, j), w in zip(at, want))


def table_element(name: str) -> Mat2C:
    kind, values = TABLE["elements"][name]
    if kind == "euler":
        return from_euler(EulerAngles(*values))
    return Mat2C(*map(complex, values[::2], values[1::2]))


@pytest.mark.parametrize("l2", [12, 41, 200, 400])
def test_the_chart_is_within_1e_14_of_the_norm_at_its_ends_and_inside(l2):
    # d(theta) is t(from_euler(theta, 0, 0)).  Inside the chart the plain
    # recurrence was fine; at its ends it lost two digits (7.4e-13 at theta
    # 1e-3, l_x2 400).
    at = cells(l2)
    stack = recurrence_stack(HalfInt(l2), CHART_THETAS)
    for theta, d in zip(CHART_THETAS, stack):
        want, norm, departure = exact(from_euler(EulerAngles(theta, 0.0, 0.0)), l2, at)
        assert worst(d, want, at) <= 1e-14 * norm + abs(departure), theta


@pytest.mark.parametrize("name", sorted(TABLE["elements"]))
@pytest.mark.parametrize("l2", [6, 40, 200, 400])
def test_the_reference_elements_as_matrices_are_within_1e_14_of_the_norm(name, l2):
    at = cells(l2)
    want, norm, _ = exact(table_element(name), l2, at)
    assert worst(ELEMENT_ROUTES["recurrence"](HalfInt(l2), table_element(name)).entries, want, at) <= 1e-14 * norm


@pytest.mark.parametrize("name", sorted(EDGES))
@pytest.mark.parametrize("l2", [1, 6, 41, 200])
def test_edge_elements_are_within_1e_13_of_the_norm(name, l2):
    at = cells(l2)
    want, norm, _ = exact(EDGES[name], l2, at)
    assert worst(recurrence_matrix(HalfInt(l2), EDGES[name]).entries, want, at) <= 1e-13 * norm


def test_the_exact_sums_agree_with_the_reference_table():
    # The stored rows of l_x2 40, 20 digits each, from the same sums.
    for name in TABLE["elements"]:
        entries = [row for row in TABLE["entries"] if row[:2] == [name, 40]]
        rows = [(i, j, complex(float(re), float(im))) for _, _, i, j, re, im in entries]
        want, _, _ = exact(table_element(name), 40, [(i, j) for i, j, _ in rows])
        assert want == pytest.approx([value for _, _, value in rows], rel=1e-15, abs=1e-300), name


@pytest.mark.parametrize("l2", range(13))
def test_the_element_form_is_the_oracle_at_low_spin(l2):
    l = HalfInt(l2)
    for A in [*sample_gl2(5, 12), Mat2C(1, 0, 0, 1), Mat2C(0, 1, -1, 0), Mat2C(0, 0, 0, 0), Mat2C(3, 1, -1, 0)]:
        got, want = recurrence_matrix(l, A).entries, oracle_matrix(l, A).entries
        s1 = np.linalg.norm(A.as_array(), 2)
        assert np.max(np.abs(got - want)) <= 1e-14 * max(s1**l2, 1e-300) + 1e-300, (l2, A)


def test_the_identity_is_exact_and_the_zero_matrix_is_zero_past_spin_0():
    for l2 in (0, 1, 7, 40, 41):
        assert np.array_equal(recurrence_matrix(HalfInt(l2), Mat2C(1, 0, 0, 1)).entries, np.eye(l2 + 1))
        assert np.array_equal(recurrence_matrix(HalfInt(l2), Mat2C(0, 0, 0, 0)).entries, np.eye(l2 + 1) * (l2 == 0))


@pytest.mark.parametrize("l2", [0, 1, 6, 41, 200])
def test_the_element_form_at_an_euler_element_is_the_chart_form(l2):
    # Both run the same lanes, one on (real, imaginary) pairs, one on reals,
    # and each is within 1e-14 of the norm of the exact matrix.
    for angles in [EulerAngles(0.7, 1.2, 0.3), EulerAngles(1e-3, 4.0, 2.5), EulerAngles(1.5, 0.2, 5.9)]:
        element = recurrence_matrix(HalfInt(l2), from_euler(angles)).entries
        chart = ROTATION_ROUTES["recurrence"](HalfInt(l2), [angles])[0]
        assert np.max(np.abs(element - chart)) <= 2e-14, (l2, angles)


def test_a_matrix_whose_norm_overflows_is_refused():
    message = r"^recurrence route's norm s1\^\(2l\) \(s1 the largest singular value of A\) overflows$"
    with pytest.raises(RouteUnavailableError, match=message):
        recurrence_matrix(HalfInt(400), Mat2C(30, 1, 2, 31))
    with pytest.raises(RouteUnavailableError, match=message):
        recurrence_matrix(HalfInt(3), Mat2C(1e300, 1e300, 1e300, 1e300))
    assert np.isfinite(recurrence_matrix(HalfInt(200), Mat2C(30, 1, 2, 31)).entries).all()


@pytest.mark.parametrize("l2", [0, 1, 5, 40])
def test_a_power_of_two_times_the_element_scales_the_matrix_bit_for_bit(l2):
    # A is scaled by a power of two before the lanes run, so 2^-20 A (or
    # 2^20 A) runs the same lanes and the same powers as A.
    for A in sample_gl2(9, 4):
        T = recurrence_matrix(HalfInt(l2), A).entries
        for shift in (-20, 20):
            scaled = Mat2C(*(math.ldexp(x.real, shift) + 1j * math.ldexp(x.imag, shift) for x in (A.a, A.b, A.c, A.d)))
            got = recurrence_matrix(HalfInt(l2), scaled).entries
            assert got.tobytes() == np.ldexp(T.view(float), shift * l2).view(complex).tobytes(), (l2, shift)


def test_a_spin_past_the_float_range_of_the_prefactors_is_refused():
    with pytest.raises(RouteUnavailableError, match="prefactor"):
        recurrence_stack(HalfInt(1500), [0.7])


def test_a_stack_over_both_halves_of_the_chart_is_its_thetas_one_at_a_time():
    # thetas on both sides of pi/4 take the lanes (m, n) and (m, -n) in one call
    thetas = [0.2, 1.4, math.pi / 4, 0.0, math.pi / 2, 0.9]
    for l2 in (0, 1, 2, 9, 40):
        stacks = recurrence_stack_by_spin([HalfInt(l2), HalfInt(l2 + 1)], thetas)
        for k, theta in enumerate(thetas):
            assert stacks[0][k].tobytes() == recurrence_stack(HalfInt(l2), [theta])[0].tobytes()
            assert stacks[1][k].tobytes() == recurrence_stack(HalfInt(l2 + 1), [theta])[0].tobytes()
