"""Write tests/data/reference_table.json: sampled entries of the spin-l
matrices t^l(A) and their norms, computed in high precision with mpmath.

Run from the repository root:

    PYTHONPATH=src python scripts/reference_table.py

Each element is taken at the exact binary values of its float entries; for
an Euler triple these are the values group.from_euler returns.  An entry is
the finite sum (row i = l + m, column j = l + n, l2 = 2l)

    t_ij = sqrt(C(l2, l2-j) / C(l2, l2-i))
           * sum_k C(l2-j, k) C(j, l2-i-k) a^k b^(l2-i-k) c^(l2-j-k) d^(i+j-l2+k)

and the norm is s1^l2, s1 the largest singular value of A, which bounds
every entry.  The sum cancels heavily at high spin: at l_x2 400, summed in
60-digit floating point, entry (200, 200) of (0.7, 1.2, 0.3) is wrong in its
second digit.  So the sum is taken exactly, in integers: every term has
degree l2 in the entries, and each entry is an integer over 2^s, so the sum
is a Gaussian integer over 2^(s l2).  Only the square roots and the final
division are rounded, at WORK_DIGITS decimal digits and again at twice that;
the table stores STORED_DIGITS significant digits, and the script stops if
the two runs differ in any of them.
"""
from __future__ import annotations

import json
import math
import sys
from itertools import accumulate
from pathlib import Path

import mpmath
import numpy as np

from wignerkit.group import EulerAngles, Mat2C, from_euler

OUT = Path(__file__).resolve().parents[1] / "tests" / "data" / "reference_table.json"
# name -> ("euler", [theta, phi, psi]) or ("matrix", [a_re, a_im, b_re, b_im, c_re, c_im, d_re, d_im])
ELEMENTS = {
    "su2_0.7_1.2_0.3": ("euler", [0.7, 1.2, 0.3]),
    "su2_0.05_4.0_2.5": ("euler", [0.05, 4.0, 2.5]),
    "su2_1.5_0.2_5.9": ("euler", [1.5, 0.2, 5.9]),
    "gl2": ("matrix", [0.9, 0.2, -0.4, 0.7, 0.3, -0.5, 1.1, 0.1]),
}
SPINS = (6, 20, 40, 80, 120, 200, 400)
SEEDED_CELLS = 4
WORK_DIGITS = 50
STORED_DIGITS = 20


def element(name: str) -> Mat2C:
    kind, values = ELEMENTS[name]
    if kind == "euler":
        return from_euler(EulerAngles(*values))
    return Mat2C(*map(complex, values[::2], values[1::2]))


def cells(name: str, l2: int) -> list[tuple[int, int]]:
    """The four corners, the centre and SEEDED_CELLS cells drawn from a seed
    fixed by the element and the spin, without repeats, as (row, column)."""
    index = list(ELEMENTS).index(name)
    drawn = np.random.default_rng([index, l2]).integers(0, l2 + 1, (SEEDED_CELLS, 2)).tolist()
    chosen = [(0, 0), (0, l2), (l2, 0), (l2, l2), (l2 // 2, l2 // 2), *map(tuple, drawn)]
    return list(dict.fromkeys(chosen))


def _scaled(A: Mat2C) -> tuple[int, list[tuple[int, int]]]:
    # (s, entries) with each entry of A the Gaussian integer (re, im) over 2^s.
    parts = [x for z in (A.a, A.b, A.c, A.d) for x in (z.real, z.imag)]
    s = max(x.as_integer_ratio()[1] for x in parts).bit_length() - 1
    ints = [n * (2**s // d) for n, d in (x.as_integer_ratio() for x in parts)]
    return s, list(zip(ints[::2], ints[1::2]))


def _mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _values(A: Mat2C, l2: int, at: list[tuple[int, int]], digits: int) -> tuple[list, mpmath.mpf]:
    # The entries at the cells and the norm s1^l2, rounded at the given precision.
    s, (a, b, c, d) = _scaled(A)
    pa, pb, pc, pd = (list(accumulate([x] * l2, _mul, initial=(1, 0))) for x in (a, b, c, d))
    sums = []
    for i, j in at:
        re = im = 0
        for k in range(max(0, l2 - i - j), min(l2 - i, l2 - j) + 1):
            weight = math.comb(l2 - j, k) * math.comb(j, l2 - i - k)
            term = _mul(_mul(pa[k], pb[l2 - i - k]), _mul(pc[l2 - j - k], pd[i + j - l2 + k]))
            re, im = re + weight * term[0], im + weight * term[1]
        sums.append((re, im))
    # s1^2 = (F + sqrt(F^2 - 4 |det|^2)) / 2 with F the squared Frobenius norm, over 2^(2s)
    frobenius = sum(x * x + y * y for x, y in (a, b, c, d))
    det = tuple(p - q for p, q in zip(_mul(a, d), _mul(b, c)))
    gap = frobenius**2 - 4 * (det[0] ** 2 + det[1] ** 2)
    with mpmath.workdps(digits):
        entries = [
            mpmath.sqrt(mpmath.mpf(math.comb(l2, l2 - j)) / math.comb(l2, l2 - i))
            * mpmath.mpc(mpmath.ldexp(re, -s * l2), mpmath.ldexp(im, -s * l2))
            for (i, j), (re, im) in zip(at, sums)
        ]
        s1 = mpmath.sqrt(mpmath.ldexp(frobenius + mpmath.sqrt(gap), -2 * s - 1))
        return entries, s1**l2


def _text(x: mpmath.mpf) -> str:
    return mpmath.nstr(x, STORED_DIGITS, min_fixed=0, max_fixed=0) if x else "0.0"


def table_rows(name: str, l2: int) -> tuple[list[list], str]:
    """The entry rows [name, l2, i, j, re, im] of one element at one spin, and
    its norm, each value as the text of STORED_DIGITS significant digits."""
    at = cells(name, l2)
    runs = []
    for digits in (WORK_DIGITS, 2 * WORK_DIGITS):
        entries, norm = _values(element(name), l2, at, digits)
        runs.append(([[_text(z.real), _text(z.imag)] for z in entries], _text(norm)))
    if runs[0] != runs[1]:
        raise ArithmeticError(f"{name} at l_x2 {l2}: doubling the precision changed a stored digit")
    parts, norm = runs[0]
    return [[name, l2, i, j, re, im] for (i, j), (re, im) in zip(at, parts)], norm


def main() -> int:
    rows, norms = [], []
    for name in ELEMENTS:
        for l2 in SPINS:
            entries, norm = table_rows(name, l2)
            rows += entries
            norms.append([name, l2, norm])
    lines = [
        "{",
        f'"elements": {json.dumps(ELEMENTS)},',
        '"norms": [',
        ",\n".join(json.dumps(row) for row in norms),
        "],",
        '"entries": [',
        ",\n".join(json.dumps(row) for row in rows),
        "]",
        "}",
    ]
    OUT.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(rows)} entries and {len(norms)} norms to {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
