"""Matrix elements t^l_{m,n} of the spin-l representation of GL(2, C) and
SU(2), computed by several independent routes.

The canonical route expands the image of each basis monomial as an explicit
homogeneous polynomial (exact binomials, products summed by shifted adds);
it works for every group element and every spin and serves as the oracle
for everything else.  Its float expansion cancels as the spin grows (at
(0.7, 1.2, 0.3) a unitarity residual of 1.1e-11 at l_x2 40 and 4.4e25 at 200).
The Jacobi recurrence in the degree builds t(A) of every element
(recurrence_matrix) and d(theta) of the angle chart (recurrence_stack) by
one kernel, to within about 1e-14 of the norm s1^(2l), at the ends of the
chart as inside it, up to l_x2 of about 1,480, where its prefactors leave
the float range and it refuses.
The closed-form routes (finite sum, terminating 2F1, Jacobi, Rodrigues-type
derivative, Krawtchouk) are faster on their domains but each has a singular
parameter set, on which they raise RouteUnavailableError instead of guessing
a limit.

The element forms (finite sum, the two 2F1 forms, Jacobi) build a stack over
a list of elements, and their one-element matrices are that stack at one
element.  Each element's powers and exact series are Python numbers, each
taken as a complex; every product of them runs on float64 arrays by one rule,
CPython's complex x complex on (real, imaginary) pairs, and the (m+n)!
divisor by its complex / complex.  A stack's matrices are its elements'
one-element matrices bit for bit, signed zeros included, at every numpy SIMD
level.

Every route also builds over a list of spins (oracle_stack_by_spin,
sum_matrices_by_spin, ..., recurrence_stack_by_spin): the tables that a
longer spin only extends (the powers of the entries and of bc - ad, the exact
arguments, the charts of the angles) are made once, at the largest spin,
and each spin reads their prefix, so its stack is its one-spin build bit for
bit.  The one-spin builders are that build at one spin.

Index convention, fixed once: row i corresponds to m = -l + i and column j
to n = -l + j, i.e. i = (m + l) as an integer.  The representation acts by
substitution with the transposed matrix, so for l = 1/2 the matrix of t(A)
is A itself.
"""
from __future__ import annotations

import cmath
import math
import operator
from array import array
from dataclasses import astuple, dataclass
from functools import lru_cache, partial, reduce
from itertools import accumulate
from math import comb, factorial

import numpy as np

from .exactcomb import HalfInt, check_spin_pair
from .group import EulerAngles, Mat2C
from .specfun import (
    _ROW_SLOTS,
    _binom_power_coeffs,
    _complex_ratio,
    _exact_series,
    _hyp2f1_coeffs_cached,
    _jacobi_coeffs_cached,
    _poly_derivative,
    _poly_mul,
)

__all__ = [
    "RouteUnavailableError",
    "WignerMatrix",
    "oracle_matrix",
    "oracle_stack",
    "oracle_stack_by_spin",
    "tmn_sum",
    "sum_matrices",
    "sum_matrices_by_spin",
    "sum_matrix",
    "tmn_hyp",
    "hyp_matrices",
    "hyp_matrices_by_spin",
    "hyp_matrix",
    "tmn_hyp_symmetric",
    "hyp_symmetric_matrices",
    "hyp_symmetric_matrices_by_spin",
    "hyp_symmetric_matrix",
    "tmn_jacobi",
    "jacobi_matrices",
    "jacobi_matrices_by_spin",
    "jacobi_matrix",
    "chart_phases",
    "dmatrix_euler",
    "jacobi_stack",
    "jacobi_stack_by_spin",
    "tmn_rodrigues",
    "rodrigues_stack",
    "rodrigues_stack_by_spin",
    "tmn_krawtchouk",
    "krawtchouk_stack",
    "krawtchouk_stack_by_spin",
    "recurrence_matrix",
    "recurrence_stack",
    "recurrence_stack_by_spin",
    "ELEMENT_ROUTES",
    "ROTATION_ROUTES",
    "ROTATION_STACKS",
    "SYMMETRIES",
    "apply_symmetry",
    "character",
]


class RouteUnavailableError(ValueError):
    """A closed-form route was asked to evaluate on its singular locus."""


@dataclass(frozen=True)
class WignerMatrix:
    """Dense (2l+1) x (2l+1) matrix of representation matrix elements."""

    l: HalfInt
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        dim = self.l.twice + 1
        if entries.shape != (dim, dim):
            raise ValueError(f"expected shape ({dim}, {dim}), got {entries.shape}")
        object.__setattr__(self, "entries", _finite(entries))

    def index_of(self, m: HalfInt) -> int:
        return _index(self.l, m)

    def entry(self, m: HalfInt, n: HalfInt) -> complex:
        return complex(self.entries[self.index_of(m), self.index_of(n)])


def _dim(l: HalfInt) -> int:
    if l.twice < 0:
        raise ValueError(f"negative spin l={l}")
    return l.twice + 1


def _finite(values):
    # The check every route makes: one value, a list or an array, all finite.
    if not np.isfinite(values).all():
        raise ValueError("matrix contains non-finite entries")
    return values


def _by_spin(spins, tables, build) -> list:
    """build(l, tables(top)) at each of the spins, in order, from one call
    tables(top) at the largest of them.

    Every route's tables have the prefix property: those of spin l2/2 are
    the first entries of any longer table, bit for bit (the powers x^0 ..
    x^l2 of an element's entries, each its own operation or a running
    product; exact arguments and charts, which do not depend on the spin).
    So each spin reads the prefix it needs.  Where tables(top) refuses,
    each spin makes its own after its spin is checked, so the call raises
    the refusal that the first spin's one-spin build raises, and a call at
    one spin is that one-spin build.
    """
    spins = list(spins)
    try:
        top = tables(max([0, *(l.twice for l in spins)]))
    except RouteUnavailableError:
        top = None
    return [build(l, tables(_dim(l) - 1) if top is None else top) for l in spins]


def _powers(x, top: int) -> list:
    # x**e for e = 0 .. top, each by its own power operation (OverflowError where one overflows).
    return [x**e for e in range(top + 1)]


def _entry_powers(A: Mat2C, l2: int) -> list:
    # _powers(x, l2) for x = a, b, c and d.
    exponents = range(l2 + 1)
    return [[x**e for e in exponents] for x in (A.a, A.b, A.c, A.d)]


@lru_cache(maxsize=32)  # a plan holds 48 (l2 + 1)^2 bytes, 7.7 MB at l2 = 400
def _expansion_plan(l2: int) -> tuple:
    """The tables the expansion of spin l2/2 reads, by (term k, column j).

    Column j expands (a z1 + c z2)^(l2-j) (b z1 + d z2)^j.  For its shorter
    and its longer factor (x z1 + y z2)^e: the binomials C(e, k), floats of
    exact Pascal rows and 0 past the degree, and where x^(e-k) and y^k sit in
    the power table, as (entry, exponent) with a, b, c, d the entries 0 to 3
    (x^0 y^0 past the degree).  Then the norms sqrt(C(l2, k)) that scale
    column k and divide row k.
    """
    dim = l2 + 1
    binom, row = np.zeros((dim, dim)), [1]
    for r in range(dim):
        binom[r, : r + 1] = row
        row = [1, *[x + y for x, y in zip(row, row[1:])], 1]
    k, j = np.ogrid[:dim, :dim]
    ac_short = 2 * j >= l2  # the (a, c) factor is the shorter one when l2 - j <= j
    e = np.array([np.minimum(l2 - j, j), np.maximum(l2 - j, j)])  # degrees, shorter factor first
    x = np.broadcast_to([np.where(ac_short, 0, 1), np.where(ac_short, 1, 0)], e.shape)  # x: a or b; y: c or d
    tables = binom[e, k], x, np.maximum(e - k, 0), x + 2, k * (k <= e)
    # the shorter factor has at most l2 // 2 + 1 terms
    return [t[0, : l2 // 2 + 1] for t in tables], [t[1] for t in tables], np.sqrt(binom[l2])


def _oracle_powers(a, b, c, d, top: int) -> np.ndarray:
    """x^e for the entries x of N elements and e = 0 .. top, shape (4, top + 1, N).

    Each row is a running product (np.cumprod, 0^0 = 1), so the first 2l+1
    powers of a longer table are bit for bit the table of spin l.  A loop of
    np.multiply calls would be faster but fuses its complex products from
    numpy's X86_V3 level up, which np.cumprod's accumulate does not, and
    would change the bits.
    """
    entries = np.array([a, b, c, d], dtype=complex)  # ValueError if they differ in shape
    if entries.ndim != 2:
        raise ValueError("expected four (N,) arrays of one length N")
    powers = np.ones((4, top + 1, entries.shape[1]), dtype=complex)
    powers[:, 1:] = entries[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        return np.cumprod(powers, axis=1)


def _oracle_expand(l: HalfInt, powers: np.ndarray) -> np.ndarray:
    """The stack of spin l from a power table of _oracle_powers with at least
    2l+1 powers, shape (N, 2l+1, 2l+1).

    Every table runs with the element axis last, so each numpy loop is one
    pass over the N elements; the stack is transposed once at the end.
    """
    dim = _dim(l)
    powers = _refusing_overflow(f"oracle {_POWERS}", _finite_powers, powers[:, :dim])
    (s_coef, s_xi, s_xe, s_yi, s_ye), (l_coef, l_xi, l_xe, l_yi, l_ye), norm = _expansion_plan(l.twice)
    short = s_coef[..., None] * powers[s_xi, s_xe] * powers[s_yi, s_ye]  # (term k, column j, N)
    long = l_coef[..., None] * powers[l_xi, l_xe] * powers[l_yi, l_ye]
    out = np.zeros((dim, dim, powers.shape[2]), dtype=complex)
    for k in range(l.twice // 2 + 1):  # term k of the shorter factor lands on rows k and up
        out[k:, k : dim - k] += short[k, None, k : dim - k] * long[: dim - k, k : dim - k]
    out *= norm[:, None]
    out /= norm[:, None, None]
    return _finite(np.ascontiguousarray(out.transpose(2, 0, 1)))


def _finite_powers(powers: np.ndarray) -> np.ndarray:
    # A power table of _oracle_powers, or OverflowError where a power of a
    # finite entry is not finite (at spin 0 the table holds no entry).
    if not np.isfinite(powers).all() and np.isfinite(powers[:, 1:2]).all():
        raise OverflowError
    return powers


def oracle_stack_by_spin(spins, a, b, c, d) -> list:
    """oracle_stack at each of the spins, from one power table at the
    largest: a table's first 2l+1 powers are spin l's (_oracle_powers)."""
    return _by_spin(spins, partial(_oracle_powers, a, b, c, d), _oracle_expand)


def oracle_stack(l: HalfInt, a, b, c, d) -> np.ndarray:
    """The matrices of t at N elements, shape (N, 2l+1, 2l+1).

    a, b, c, d are (N,) arrays of the elements' entries.  Column n of t(A) is
    read off the expanded image sqrt(C(2l, l-n)) (a z1 + c z2)^(l-n)
    (b z1 + d z2)^(l+n) of basis monomial n, the products of the two factors
    summed by shifted adds, one step per term of the shorter factor.  This is
    the reference every closed-form route is tested against; it has no
    singular parameter set.  Raises RouteUnavailableError where a power of
    a finite entry overflows.

    It is a power table (_oracle_powers), then the expansion (_oracle_expand),
    both with the element axis last.  Every element's value takes the same
    operations in the same order whatever N is, so a stack's matrices are
    oracle_matrix at each element, bit for bit.  It is oracle_stack_by_spin
    at the one spin l.
    """
    return oracle_stack_by_spin([l], a, b, c, d)[0]


def oracle_matrix(l: HalfInt, A: Mat2C) -> WignerMatrix:
    """The matrix of t(A): oracle_stack at the one element A."""
    return WignerMatrix(l, oracle_stack(l, [A.a], [A.b], [A.c], [A.d])[0])


# Every closed-form route below is written as one kernel on plain integers.
# With l2 = 2l, row i = l + m and column j = l + n, so l - m = l2 - i,
# l - n = l2 - j, m + n = i + j - l2 and m - n = i - j.  A kernel reads its
# powers and its trigonometric values from tables that a matrix builds once.
# The public per-entry functions check their HalfInt arguments, build the
# same tables as their matrix builder and call the same kernel: an entry is
# its builder's entry bit for bit, it raises where those tables overflow,
# and it is never a non-finite value.
#
# The element forms (the finite sum, the two 2F1 forms and the Jacobi form)
# build a stack over N elements.  Each element's tables are Python numbers
# (x**e of its entries, and exact series at its own arguments), each taken as
# a complex: an int or a float x is (x, 0.0).  Every product of them runs on
# float64 arrays over (entries x elements) by one rule, CPython's complex x
# complex on (real, imaginary) pairs, and the (m+n)! divisor by its complex /
# complex (_times, _over, _chain).  So an element's matrix is the same in any
# stack, bit for bit, signed zeros included, and it does not depend on
# numpy's SIMD level, which fuses complex ufuncs with FMA from X86_V3 up.  An
# int entry's powers are exact ints, each rounded once to a float where the
# arrays read it.


def _index(l: HalfInt, m: HalfInt) -> int:
    # Row or column index l + m of the weight m, after checking it is one.
    check_spin_pair(l, m)
    return (l.twice + m.twice) // 2


def _refusing_overflow(what: str, fn, *args):
    # fn(*args), with an OverflowError on the way refused as "<what> overflows".
    try:
        return fn(*args)
    except OverflowError:
        raise RouteUnavailableError(f"{what} overflows") from None


def _sqrt_fraction(num: int, den: int) -> float:
    # sqrt(num / den) with the ratio rounded once (int / int) before the root.
    return math.sqrt(num / den)


def _overflowing(fn, *args) -> float:
    # fn(*args), a float, or inf where it raises OverflowError.
    try:
        return fn(*args)
    except OverflowError:
        return math.inf


def _factorials(top: int) -> list:
    # k! for k = 0 .. top, as exact integers.
    out = [1]
    for k in range(1, top + 1):
        out.append(out[-1] * k)
    return out


def _pairs(values) -> np.ndarray:
    # Python numbers, or nested lists of them, as their real and imaginary
    # parts, shape (2, ...): an int or a float x is the complex (x, 0.0),
    # and an int past the float range raises OverflowError.
    pairs = np.array(values, dtype=complex)[..., None].view(float)
    return pairs.transpose(-1, *range(pairs.ndim - 1))


def _times(x, y) -> tuple:
    # CPython's complex product x * y of (real part, imaginary part) pairs of
    # floats or of arrays, broadcast against each other: (xr yr - xi yi,
    # xr yi + xi yr), each product and sum rounded on its own.
    (xr, xi), (yr, yi) = x, y
    re, im = xr * yr, xr * yi  # each of the shape of the product: x or y is a whole array
    re -= xi * yi
    im += xi * yr
    return re, im


def _over(x, f) -> tuple:
    # CPython's complex quotient x / complex(f) of a pair by a float f:
    # ((xr + xi 0.0)/f, (xi - xr 0.0)/f).
    xr, xi = x
    return (xr + xi * 0.0) / f, (xi - xr * 0.0) / f


def _chain(first: float, factors: list, divisor=None, last=None) -> tuple:
    # complex(first, 0.0) times each factor pair, left to right, then over
    # divisor and times last (a pair), as CPython takes them.
    out = reduce(_times, factors, (first, 0.0))
    if divisor is not None:
        out = _over(out, divisor)
    return out if last is None else _times(out, last)


def _power_pairs(what: str, tables: list, rows: int, top: int) -> np.ndarray:
    # Power tables of N elements (each a list of rows x^0 .. x^top) as pairs,
    # shape (2, rows, top + 1, N); an int power past the float range is refused as what.
    pairs = _refusing_overflow(what, _pairs, tables).reshape(2, len(tables), rows, top + 1)
    return pairs.transpose(0, 2, 3, 1)


def _block(elements: int) -> int:
    # How many entries an element form computes at a time for that many
    # elements, so that its temporary arrays stay small at any spin.
    return max(1, 1024 // max(elements, 1))


def _as_stack(entries: np.ndarray, dim: int) -> np.ndarray:
    # Complex entries of shape (dim * dim, N), by row and then by column, as
    # the stack of shape (N, dim, dim); raises if an entry is not finite.
    return _finite(np.ascontiguousarray(entries.T).reshape(-1, dim, dim))


def _sum_row(l2: int, i: int, j: int, c) -> tuple:
    # Entry (i, j)'s columns of _sum_plan, from the binomials c(k) = C(2l, k):
    # l - m, l - n, m + n, the first k, the number of terms k, and the
    # prefactor sqrt(C(2l, l-n) / C(2l, l-m)) or inf where it overflows.
    lm, ln, mn = l2 - i, l2 - j, i + j - l2
    start = max(0, -mn)
    return lm, ln, mn, start, min(lm, ln) + 1 - start, _overflowing(_sqrt_fraction, c(ln), c(lm))


@lru_cache(maxsize=32)
def _sum_plan(l2: int) -> tuple:
    """What sum_matrices reads at spin l2/2 before it sees an element.

    Pascal's triangle C(n, t), n, t <= l2, as an object array of exact ints.
    Then the entries (i, j), longest sum first, as int32 columns: l - n and
    l + n (the rows of the triangle that hold C(l-n, .) and C(l+n, .)),
    l - m, m + n and the first k; how many entries have more than r terms,
    for each r; the prefactor sqrt(C(2l, l-n) / C(2l, l-m)), or inf where it
    overflows a float; and each entry's flat index.  At l2 = 400 it holds
    160,801 entries and 80,601 binomials, about 12 MB.
    """
    dim = l2 + 1
    binomials, row = np.zeros((dim, dim), dtype=object), [1]
    for r in range(dim):
        binomials[r, : r + 1] = row
        row = [1, *map(operator.add, row, row[1:]), 1]
    c, columns = binomials[l2].__getitem__, [*(array("i") for _ in range(5)), array("d")]
    for i in range(dim):
        for j in range(dim):
            for column, value in zip(columns, _sum_row(l2, i, j, c)):
                column.append(value)
    lm, ln, mn, start, count, pref = map(np.array, columns)
    order = np.argsort(-count, kind="stable")
    active = (len(order) - np.cumsum(np.bincount(count)))[: count.max()].tolist()
    columns = [column[order].astype(np.int32) for column in (ln, l2 - ln, lm, mn, start)]
    return binomials, columns, active, pref[order], order


def _sum_term(lr, k, lm, ln, mn, powers) -> tuple:
    # Term k of the finite sum, C(l-n, k) C(l+n, l-m-k) a^k b^(l-m-k)
    # c^(l-n-k) d^(m+n+k), from lr, the product of its binomials, exact and
    # rounded once, and the power pairs of _power_pairs.
    return _chain(lr, [powers[:, x, e] for x, e in enumerate((k, lm - k, ln - k, mn + k))])


def tmn_sum(l: HalfInt, m: HalfInt, n: HalfInt, A: Mat2C) -> complex:
    """Single matrix element by the explicit finite sum over monomials.

    All binomials are exact integers; the monomials a^j b^.. c^.. d^.. are
    evaluated in floating point with the 0^0 = 1 convention, which is what
    makes the corner cases with vanishing entries come out right.  Computes
    its own row of sum_matrices' plan and reads the same tables: raises where
    they overflow, never returns inf or NaN.
    """
    l2 = l.twice
    i, j = _index(l, m), _index(l, n)
    lm, ln, mn, start, count, pref = _sum_row(l2, i, j, partial(comb, l2))
    powers = _sum_tables(l2, [A])
    left, right, acc = _binom_power_coeffs(+1, ln), _binom_power_coeffs(+1, j), (0.0, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # sum_matrices' arithmetic on one entry's floats
        for k in range(start, start + count):
            lr = _refusing_overflow(_SUM_TERM, float, left[k] * right[lm - k])
            term = _sum_term(lr, k, lm, ln, mn, powers[..., 0])
            acc = (acc[0] + term[0], acc[1] + term[1])
        re, im = _times((pref, 0.0), acc)
    if pref == math.inf:
        raise RouteUnavailableError(f"{_SUM_PREFACTOR} overflows")
    return _finite(complex(re, im))


def _sum_tables(l2: int, elements: list) -> tuple:
    # The pairs (_power_pairs) of the powers of a, b, c and d of each element.
    tables = [_refusing_overflow(_SUM_POWERS, _entry_powers, A, l2) for A in elements]
    return _power_pairs(_SUM_POWERS, tables, 4, l2)


def _sum_stack(l: HalfInt, powers: np.ndarray) -> np.ndarray:
    # The stack of spin l by the finite sum from _sum_tables at this spin or a larger one.
    dim, l2 = _dim(l), l.twice
    binomials, columns, active, prefactors, order = _sum_plan(l2)
    # Entry (0, n) has the one term 1 and the prefactor sqrt(C(2l, l-n)), so the
    # first refusal is that prefactor's wherever one overflows; and no term
    # overflows before then, as a term's binomials are at most C(2l, l-m).
    if prefactors.max() == math.inf:
        raise RouteUnavailableError(f"{_SUM_PREFACTOR} overflows")
    elements = powers.shape[-1]
    out, step = np.empty((dim * dim, elements), dtype=complex), _block(elements)
    with np.errstate(over="ignore", invalid="ignore"):  # a float overflows to inf as in Python, unchecked
        for s in range(0, dim * dim, step):
            at = slice(s, s + step)
            ln, j, lm, mn, start = (column[at] for column in columns)
            acc = np.zeros((2, len(lm), elements))
            # Pass r adds term k = start + r of the entries with more than r terms, which
            # lead the block, so each entry sums its terms in the order of k from 0j.
            for r, n in enumerate(min(n, s + step) - s for n in active if n > s):
                k = start[:n] + r
                lr = (binomials[ln[:n], k] * binomials[j[:n], lm[:n] - k]).astype(float)[:, None]
                acc[:, :n] += _sum_term(lr, k, lm[:n], ln[:n], mn[:n], powers)
            out.real[order[at]], out.imag[order[at]] = _times((prefactors[at, None], 0.0), acc)
    return _as_stack(out, dim)


def sum_matrices_by_spin(spins, elements) -> list:
    """sum_matrices at each of the spins, from one table of the powers of a,
    b, c and d per element, built at the largest spin."""
    elements = list(elements)
    return _by_spin(spins, lambda l2: _sum_tables(l2, elements), _sum_stack)


def sum_matrices(l: HalfInt, elements) -> np.ndarray:
    """The matrices of t at the elements by the finite sum, shape
    (len(elements), 2l+1, 2l+1), from one table of the powers of a, b, c and
    d per element and the spin's plan.  An element that the route refuses
    makes the stack raise.  It is sum_matrices_by_spin at the one spin l."""
    return sum_matrices_by_spin([l], elements)[0]


def sum_matrix(l: HalfInt, A: Mat2C) -> WignerMatrix:
    """The whole matrix by the finite sum: sum_matrices at the one element A."""
    return WignerMatrix(l, sum_matrices(l, [A])[0])


def _quadrant(l2: int):
    # The quadrant entries (i, j), i + j >= l2 and i >= j, of spin l2/2 by row
    # and then by column: the order in which every element builder computes them.
    return ((i, j) for i in range((l2 + 1) // 2, l2 + 1) for j in range(l2 - i, i + 1))


# The prefactors of the closed forms at quadrant entry (i, j) of spin l2, from
# the factorials f(k) = k! and the binomials c(k) = C(2l, k), each ratio
# taken exactly before the root; each raises OverflowError where it overflows a float.
# _prefactor_column holds one at every quadrant entry for the element
# builders; the per-entry forms and the chart forms compute each entry's own.
_PREFACTORS = {
    # sqrt((l+m)! (l+n)! / ((l-m)! (l-n)!)), the 2F1 form's
    "2F1": lambda l2, i, j, f, c: _sqrt_fraction(f(i) * f(j), f(l2 - i) * f(l2 - j)),
    # sqrt((l+m)! (l-m)! / ((l+n)! (l-n)!)), the Jacobi forms'
    "jacobi": lambda l2, i, j, f, c: _sqrt_fraction(f(i) * f(l2 - i), f(j) * f(l2 - j)),
    # sqrt(C(2l, l-m) C(2l, l-n)), the symmetric 2F1 and Krawtchouk forms'
    "binomial": lambda l2, i, j, f, c: math.sqrt(c(l2 - i) * c(l2 - j)),
}


def _quadrant_row(l2: int, i: int, j: int, f) -> tuple:
    # Quadrant entry (i, j)'s columns of _quadrant_plan: l - m, l - n, m + n,
    # m - n and (m + n)! as a float (inf past the float range), with f(k) = k!.
    return l2 - i, l2 - j, i + j - l2, i - j, _overflowing(float, f(i + j - l2))


def _row_source(cached, l2: int):
    """cached (a row cache of _ROW_SLOTS slots), or the function it caches
    where a build of spin l2/2 reads more rows than it holds.  Each quadrant
    entry has a row of its own, which a build reads once, so such a build
    would evict every cached row, the small ones that the verify families
    reuse among them, and hit none."""
    t = l2 // 2 + 1  # the quadrant has t (t + l2 % 2) entries
    return cached if t * (t + l2 % 2) <= _ROW_SLOTS else cached.__wrapped__


@lru_cache(maxsize=32)
def _quadrant_plan(l2: int) -> tuple:
    """What every element form reads at spin l2/2 before it sees an element,
    but its prefactors (_prefactor_column).

    Five columns over the quadrant entries in _quadrant order: l - m, l - n,
    m + n and m - n (int32), and (m + n)! as a float.  Then, per image of
    _IMAGES, the place it writes for each entry, a flat index into the
    matrix.  At l2 = 400 it holds 40,401 entries, about 1.6 MB, and each
    prefactor column 0.3 MB more.
    """
    dim, f = l2 + 1, _factorials(l2).__getitem__
    columns = [*(array("i") for _ in range(4)), array("d")]
    places = [array("i") for _ in _IMAGES]
    for i, j in _quadrant(l2):
        for column, value in zip(columns, _quadrant_row(l2, i, j, f)):
            column.append(value)
        for at, (index_map, _, _) in zip(places, _IMAGES.values()):
            r, col = index_map(l2, i, j)
            at.append(r * dim + col)
    return [*map(np.array, columns)], np.array(places)


@lru_cache(maxsize=32)
def _prefactor_column(l2: int, kind: str) -> np.ndarray:
    """The rule _PREFACTORS[kind] at each quadrant entry of spin l2/2, in
    _quadrant order, as a float column, inf where it overflows.  An element
    form reads one kind, so each is built on its first use."""
    f = _factorials(l2)
    c = [f[l2] // (f[k] * f[l2 - k]) for k in range(l2 + 1)]
    f, c, rule = f.__getitem__, c.__getitem__, _PREFACTORS[kind]
    return np.array([_overflowing(rule, l2, i, j, f, c) for i, j in _quadrant(l2)])


# What a closed form refuses where it overflows a float (the element and chart
# series are exact); the binomial prefactor's message follows its route's name.
_SUM_PREFACTOR = "finite sum route's prefactor sqrt(C(2l, l-n) / C(2l, l-m))"
_SUM_TERM = "finite sum route's term C(l-n, k) C(l+n, l-m-k) a^k b^(l-m-k) c^(l-n-k) d^(m+n+k)"
_HYP_PREFACTOR = "2F1 route's prefactor sqrt((l+m)! (l+n)! / ((l-m)! (l-n)!))"
_JACOBI_PREFACTOR = "Jacobi route's prefactor sqrt((l+m)! (l-m)! / ((l+n)! (l-n)!))"
_BINOMIAL_PREFACTOR = "route's prefactor sqrt(C(2l, l-m) C(2l, l-n))"
_HYP_SERIES = "2F1 route's series 2F1(-(l-m), -(l-n); m+n+1; ad/(bc))"
_HYP_SYMMETRIC_SERIES = "symmetric 2F1 route's series 2F1(-(l-m), -(l-n); -2l; (bc - ad)/(bc))"
_JACOBI_SERIES = "Jacobi route's polynomial P_(l-m)^(m+n, m-n)((bc + ad)/(bc - ad))"
# What a route's powers are, refused where one overflows a float: a complex
# power raises, and so does an int power of integer entries where the arrays
# read it as a float.
_POWERS = "route's power of a, b, c or d"
_SUM_POWERS = f"finite sum {_POWERS}"
_JACOBI_POWERS = "Jacobi route's power of a, b, c, d or bc - ad"

# A quadrant form is (tables, series, prefactor kind, what its powers are,
# factors, divides), in the quadrant m + n >= 0, m - n >= 0 (i + j >= l2,
# i >= j).  tables(A, l2) is (the powers of a, b, c and d, what A's symmetry
# images share with A).  series(l2, rows, commons) lists the exact series of
# each row at each element, row by row; a row is an entry's first four
# columns of _quadrant_plan and its value of the _prefactor_column of the
# form's kind, and commons holds each element's shared tables.  An entry
# is its prefactor times its factors, left to right, each (where, column):
# the power table of entry `where` of the image's element (a, b, c, d = 0 to
# 3; 4 is the shared powers of bc - ad) at the entry's value of that column;
# then divided by (m + n)! if the form divides, and times the series.  The
# images of A under SYMMETRIES have A's bc and ad bit for bit (the same
# products with the factors swapped), so they share its arguments and its
# series.  An entry whose prefactor is inf is refused in its place among the
# entry's refusals; a power that overflows is refused once per build, before
# any entry, as what its powers are.


def _hyp_tables(A: Mat2C, l2: int) -> tuple:
    # The 2F1 arguments ad/(bc) and (bc - ad)/(bc) as exact ratios.
    if A.b == 0 or A.c == 0:
        raise RouteUnavailableError("2F1 route needs b != 0 and c != 0")
    bc = A.b * A.c
    if bc == 0:
        raise RouteUnavailableError("2F1 route needs b * c != 0; it underflows to 0")
    ad = A.a * A.d
    z, w = ad / bc, (bc - ad) / bc
    if not (cmath.isfinite(z) and cmath.isfinite(w)):
        raise RouteUnavailableError("2F1 route needs ad/(bc) finite; it overflows")
    return _entry_powers(A, l2), (_complex_ratio(z), _complex_ratio(w))


def _series_at(nums, den: int, args: list) -> list:
    # The exact series sum_k nums[k] / den z^k at each z of args.
    return [_exact_series(nums, den, z) for z in args]


def _hyp_series(l2: int, rows, commons: list) -> list:
    args, row, out = [common[0] for common in commons], _row_source(_hyp2f1_coeffs_cached, l2), []
    for lm, ln, mn, _, pref in rows:
        if pref == math.inf:
            raise RouteUnavailableError(f"{_HYP_PREFACTOR} overflows")
        out += _refusing_overflow(_HYP_SERIES, _series_at, *row(-lm, -ln, mn + 1, min(lm, ln)), args)
    return out


def _hyp_symmetric_series(l2: int, rows, commons: list) -> list:
    args, row, out = [common[1] for common in commons], _row_source(_hyp2f1_coeffs_cached, l2), []
    for lm, ln, _, _, pref in rows:
        out += _refusing_overflow(_HYP_SYMMETRIC_SERIES, _series_at, *row(-lm, -ln, -l2, min(lm, ln)), args)
        if pref == math.inf:
            raise RouteUnavailableError(f"symmetric 2F1 {_BINOMIAL_PREFACTOR} overflows")
    return out


def _jacobi_tables(A: Mat2C, l2: int) -> tuple:
    # The Jacobi argument w = (bc + ad)/(bc - ad) = 1 + 2x, x = (w - 1)/2
    # taken exactly from the rounded w, and the powers of bc - ad; in the
    # quadrant, l - m <= l.
    bc = A.b * A.c
    ad = A.a * A.d
    if bc == ad:
        raise RouteUnavailableError("Jacobi route needs bc != ad")
    w = (bc + ad) / (bc - ad)
    if not cmath.isfinite(w):
        raise RouteUnavailableError("Jacobi route needs (bc + ad)/(bc - ad) finite; it overflows")
    p, r, q = _complex_ratio(w)
    return _entry_powers(A, l2), ((p - q, r, 2 * q), _powers(bc - ad, l2 // 2))


def _jacobi_series(l2: int, rows, commons: list) -> list:
    args, row, out = [common[0] for common in commons], _row_source(_jacobi_coeffs_cached, l2), []
    for lm, _, mn, mmn, pref in rows:
        out += _refusing_overflow(_JACOBI_SERIES, _series_at, *row(mn, mmn, lm), args)
        if pref == math.inf:
            raise RouteUnavailableError(f"{_JACOBI_PREFACTOR} overflows")
    return out


# Factors b^(l-m) c^(l-n) d^(m+n) of the 2F1 forms, c^(m-n) d^(m+n) (bc - ad)^(l-m) of the Jacobi form.
_BCD, _CD_DIFF = ((1, 0), (2, 1), (3, 2)), ((2, 3), (3, 2), (4, 0))
_HYP = (_hyp_tables, _hyp_series, "2F1", f"2F1 {_POWERS}", _BCD, True)
_HYP_SYMMETRIC = (_hyp_tables, _hyp_symmetric_series, "binomial", f"symmetric 2F1 {_POWERS}", _BCD, False)
_JACOBI = (_jacobi_tables, _jacobi_series, "jacobi", _JACOBI_POWERS, _CD_DIFF, False)


def _quadrant_tables(l2: int, elements: list, form) -> tuple:
    # What a quadrant form reads of each element: the pairs (_power_pairs) of
    # the powers of a, b, c and d, and of bc - ad as a fifth table (0 past
    # l - m = l) where the form reads them; and what the element shares with
    # its symmetry images.
    tables, _, _, what, factors, _ = form
    built = [_refusing_overflow(what, tables, A, l2) for A in elements]
    commons = [common for _, common in built]
    powers = _power_pairs(what, [table for table, _ in built], 4, l2)
    if any(where == 4 for where, _ in factors):
        diff = _power_pairs(what, [[common[1]] for common in commons], 1, l2 // 2)
        powers = np.concatenate([powers, np.zeros_like(powers[:, :1])], axis=1)
        powers[:, 4, : l2 // 2 + 1] = diff[:, 0]
    return powers, commons


def _factors(form, powers, image, columns) -> list:
    # The pairs of a quadrant form's factors: factor (where, column) reads
    # table image[where] of _quadrant_tables at the entries' values of the
    # column.  image and columns are arrays for a block of a stack, ints for
    # one entry.
    return [powers[:, image[where], columns[column]] for where, column in form[4]]


def _element_stack(l: HalfInt, tables: tuple, form) -> np.ndarray:
    # The matrices of a quadrant form at the elements of _quadrant_tables (of
    # this spin or a larger one) from the spin's plan: each quadrant entry's
    # series once per element, and its entry at each image of _IMAGES in
    # order, so a place that two images write keeps the last; a block of the
    # quadrant at a time.
    dim, l2 = _dim(l), l.twice
    (columns, places), prefactors = _quadrant_plan(l2), _prefactor_column(l2, form[2])
    powers, commons = tables
    images = np.array([(*order, 4) for _, order, _ in _IMAGES.values()]).T[..., None]  # each image's tables
    out, step = np.empty((dim * dim, len(commons)), dtype=complex), _block(len(commons))
    with np.errstate(over="ignore", invalid="ignore"):  # a float overflows to inf as in Python, unchecked
        for s in range(0, len(places[0]), step):
            at = slice(s, s + step)
            block, pref = [column[at] for column in columns], prefactors[at]
            rows = zip(*(column.tolist() for column in block[:4]), pref.tolist())
            series = _pairs(form[1](l2, rows, commons)).reshape(2, len(pref), len(commons))
            factors = _factors(form, powers, images, block)
            values = _chain(pref[:, None], factors, block[4][:, None] if form[5] else None, series)
            for part, value in zip((out.real, out.imag), values):
                for image_places, image in zip(places[:, at], value):
                    part[image_places] = image
    return _as_stack(out, dim)


def _element_stacks(spins, elements, form) -> list:
    # The stacks of a quadrant form at each of the spins, from one set of
    # _quadrant_tables at the largest.
    elements = list(elements)
    return _by_spin(spins, lambda l2: _quadrant_tables(l2, elements, form), partial(_element_stack, form=form))


def _element_entry(l: HalfInt, m: HalfInt, n: HalfInt, A: Mat2C, form) -> complex:
    # Entry (m, n) of _element_stacks([l], [A], form), bit for bit: its quadrant
    # entry's row of the plan, computed alone, at the image that _fold picks,
    # by the stack's arithmetic on that entry's floats.
    l2 = l.twice
    which, i, j = _fold(l2, _index(l, m), _index(l, n))
    row = _quadrant_row(l2, i, j, factorial)
    pref = _overflowing(_PREFACTORS[form[2]], l2, i, j, factorial, partial(comb, l2))
    powers, commons = _quadrant_tables(l2, [A], form)
    (series,) = form[1](l2, [(*row[:4], pref)], commons)
    factors = _factors(form, powers[..., 0], (*_IMAGES[which][1], 4), row)
    with np.errstate(over="ignore", invalid="ignore"):
        re, im = _chain(pref, factors, row[4] if form[5] else None, (series.real, series.imag))
    return _finite(complex(re, im))


def tmn_hyp(l: HalfInt, m: HalfInt, n: HalfInt, A: Mat2C) -> complex:
    """Matrix element as a prefactor times a terminating 2F1 in ad/(bc):
    hyp_matrix's entry, folded onto the quadrant m + n >= 0, m - n >= 0.

    Needs b and c nonzero; elsewhere the finite-sum or oracle routes apply.
    Reads hyp_matrix's tables: raises where they overflow, never returns inf
    or NaN.
    """
    return _element_entry(l, m, n, A, _HYP)


def hyp_matrices(l: HalfInt, elements) -> np.ndarray:
    """The matrices of t at the elements by the terminating 2F1 form in
    ad/(bc), shape (len(elements), 2l+1, 2l+1), each entry folded onto the
    quadrant m + n >= 0, m - n >= 0 by the index symmetry that reaches it.
    An element that the route refuses makes the stack raise.  It is
    hyp_matrices_by_spin at the one spin l."""
    return hyp_matrices_by_spin([l], elements)[0]


def hyp_matrices_by_spin(spins, elements) -> list:
    """hyp_matrices at each of the spins, from one set of each element's
    powers and exact arguments, built at the largest spin."""
    return _element_stacks(spins, elements, _HYP)


def hyp_matrix(l: HalfInt, A: Mat2C) -> WignerMatrix:
    """The whole matrix by the terminating 2F1 form: hyp_matrices at the one element A."""
    return WignerMatrix(l, hyp_matrices(l, [A])[0])


def tmn_hyp_symmetric(l: HalfInt, m: HalfInt, n: HalfInt, A: Mat2C) -> complex:
    """Variant 2F1 form with the symmetric binomial prefactor and argument
    (bc - ad)/(bc): hyp_symmetric_matrix's entry; same tables and failures as
    tmn_hyp."""
    return _element_entry(l, m, n, A, _HYP_SYMMETRIC)


def hyp_symmetric_matrices(l: HalfInt, elements) -> np.ndarray:
    """The matrices of t at the elements by the symmetric 2F1 form, folded as
    hyp_matrices are: hyp_symmetric_matrices_by_spin at the one spin l."""
    return hyp_symmetric_matrices_by_spin([l], elements)[0]


def hyp_symmetric_matrices_by_spin(spins, elements) -> list:
    """hyp_symmetric_matrices at each of the spins, from one set of tables
    per element, as hyp_matrices_by_spin."""
    return _element_stacks(spins, elements, _HYP_SYMMETRIC)


def hyp_symmetric_matrix(l: HalfInt, A: Mat2C) -> WignerMatrix:
    """The whole matrix by the symmetric 2F1 form: hyp_symmetric_matrices at the one element A."""
    return WignerMatrix(l, hyp_symmetric_matrices(l, [A])[0])


def tmn_jacobi(l: HalfInt, m: HalfInt, n: HalfInt, A: Mat2C) -> complex:
    """Matrix element as a Jacobi polynomial in (bc+ad)/(bc-ad): jacobi_matrix's
    entry, folded onto the quadrant m + n >= 0, m - n >= 0.

    Needs bc != ad.  Reads jacobi_matrix's tables: raises where they overflow,
    never returns inf or NaN.
    """
    return _element_entry(l, m, n, A, _JACOBI)


def jacobi_matrices(l: HalfInt, elements) -> np.ndarray:
    """The matrices of t at the elements by the Jacobi form, folded as
    hyp_matrices are; an element with bc = ad is refused.  It is
    jacobi_matrices_by_spin at the one spin l."""
    return jacobi_matrices_by_spin([l], elements)[0]


def jacobi_matrices_by_spin(spins, elements) -> list:
    """jacobi_matrices at each of the spins, from one set of each element's
    powers, powers of bc - ad and exact argument, built at the largest spin."""
    return _element_stacks(spins, elements, _JACOBI)


def jacobi_matrix(l: HalfInt, A: Mat2C) -> WignerMatrix:
    """The whole matrix by the Jacobi form: jacobi_matrices at the one element A."""
    return WignerMatrix(l, jacobi_matrices(l, [A])[0])


# The index symmetries t^l_{m,n}(A) = t^l_{m',n'}(A'), each as its map on the
# indices (i, j) of spin l2 (ints or arrays) and its map on A: transpose-bc
# swaps the indices and the off-diagonal entries; flip-signs negates both
# indices and reverses the matrix across its anti-diagonal; anti-transpose is
# their composition.  Every closed form but the finite sum computes the
# quadrant m + n >= 0, m - n >= 0 and fills the rest in the order of _IMAGES.
SYMMETRIES = {
    "transpose-bc": (lambda l2, i, j: (j, i), lambda A: Mat2C(A.a, A.c, A.b, A.d)),
    "flip-signs": (lambda l2, i, j: (l2 - i, l2 - j), lambda A: Mat2C(A.d, A.c, A.b, A.a)),
    "anti-transpose": (lambda l2, i, j: (l2 - j, l2 - i), lambda A: Mat2C(A.d, A.b, A.c, A.a)),
}
# The images of a quadrant entry (i, j) in the order every builder writes them;
# an entry reached twice, on a diagonal, keeps the last, which _fold picks.  Each
# is (its index map, its own inverse; where its element's entries sit in (a, b,
# c, d); whether d(theta) has the sign (-1)^(i - j) there: transpose-bc and
# flip-signs map R(theta) to its image at psi = pi).  None is (i, j) and A.
_IMAGES = {
    which: (index_map, astuple(element_map(Mat2C(0, 1, 2, 3))), which in ("transpose-bc", "flip-signs"))
    for which, (index_map, element_map) in (
        ("flip-signs", SYMMETRIES["flip-signs"]),
        ("anti-transpose", SYMMETRIES["anti-transpose"]),
        ("transpose-bc", SYMMETRIES["transpose-bc"]),
        (None, (lambda l2, i, j: (i, j), lambda A: A)),
    )
}


def _fold(l2: int, i: int, j: int) -> tuple:
    # (image, i', j'): the image of _IMAGES written last at entry (i, j) of spin
    # l2, and the quadrant entry it is the image of (None inside the quadrant).
    for which in reversed(_IMAGES):
        i2, j2 = _IMAGES[which][0](l2, i, j)
        if i2 + j2 >= l2 and i2 >= j2:
            return which, i2, j2


def _unfold(l2: int, i, j, values) -> np.ndarray:
    # d(theta) at N thetas, shape (N, l2 + 1, l2 + 1), from its quadrant lanes:
    # entry (i[k], j[k]) is values[k], shape (N,).  Each image of _IMAGES is one
    # flat-index scatter of every lane, in order.
    dim = l2 + 1
    signed = values * np.where((i - j) % 2, -1.0, 1.0)[:, None]
    out = np.empty((dim * dim, values.shape[1]))
    for index_map, _, flips in _IMAGES.values():
        rows, cols = index_map(l2, i, j)
        out[rows * dim + cols] = signed if flips else values
    return np.ascontiguousarray(out.T).reshape(-1, dim, dim)


def _chart(theta: float) -> tuple:
    # (sin theta, cos theta, cos 2 theta as an integer ratio), read by every
    # zero-phase form.  Each collapses to a power of 1 -+ cos 2 theta near an end
    # of [0, pi/2], so that factor is exact: 1 - 2 sin^2 of the rounded sine up
    # to pi/4 and 2 cos^2 - 1 of the rounded cosine above.  A theta that is
    # not finite is refused.
    if not math.isfinite(theta):
        raise ValueError(f"theta={theta} is not finite")
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    side = 1 if theta <= math.pi / 4 else -1
    num, den = (sin_t if side == 1 else cos_t).as_integer_ratio()
    return sin_t, cos_t, (side * (den * den - 2 * num * num), den * den)


# A chart form's entry is a product of floats, and on the way one of them can
# overflow where the entry does not (a negative power of a small sine, or a
# series in a large 1/p); every chart form refuses that with this reason.
_CHART_OVERFLOW = "a float on the way to a chart form's entry"


def _chart_stack(l: HalfInt, charts: list, entries) -> np.ndarray:
    # d(theta) at each of the charts, shape (len(charts), 2l+1, 2l+1).
    # entries(l2, j, rows, charts) lists entry (i, j) per chart for each i of
    # rows; it computes each column's quadrant rows, and _unfold writes their
    # images.
    dim, l2 = _dim(l), l.twice
    columns = [range(max(j, l2 - j), dim) for j in range(dim)]
    values = [_refusing_overflow(_CHART_OVERFLOW, entries, l2, j, rows, charts) for j, rows in enumerate(columns)]
    i, j = np.concatenate(columns), np.repeat(np.arange(dim), [len(rows) for rows in columns])
    return _unfold(l2, i, j, np.concatenate(values))


def _chart_stacks(spins, thetas, chart, build) -> list:
    # build(l, charts) at each of the spins, from one chart(theta) per theta.
    thetas = list(thetas)
    return _by_spin(spins, lambda _: [chart(theta) for theta in thetas], build)


def _chart_entry(l: HalfInt, m: HalfInt, n: HalfInt, theta: float, chart, entries) -> float:
    # Entry (m, n) of _chart_stack(l, [chart(theta)], entries), bit for bit.
    which, i, j = _fold(l.twice, _index(l, m), _index(l, n))
    column = _refusing_overflow(_CHART_OVERFLOW, entries, l.twice, j, [i], [chart(theta)])
    return (-1.0 if _IMAGES[which][2] and (i - j) % 2 else 1.0) * column[0][0]


def _jacobi_entries(l2: int, j: int, rows, charts: list) -> list[list[float]]:
    # The Jacobi form of entry (i, j) for each i of rows at each chart
    # (sin theta, cos theta, (cos 2 theta - 1)/2 as an integer ratio).
    row, c, out = _row_source(_jacobi_coeffs_cached, l2), partial(comb, l2), []
    for i in rows:
        lm, mn, mmn = l2 - i, i + j - l2, i - j
        pref = _refusing_overflow(_JACOBI_PREFACTOR, _PREFACTORS["jacobi"], l2, i, j, factorial, c)
        pref = (-1.0 if lm % 2 else 1.0) * pref
        nums, den = row(mn, mmn, lm)
        out.append([pref * sin_t**mn * cos_t**mmn * _exact_series(nums, den, h) for sin_t, cos_t, h in charts])
    return out


def _windows(v: np.ndarray, rows: int, width: int) -> np.ndarray:
    # The view W[n, i, j] = v[n, i + j], i < rows, j < width, of a C-contiguous
    # 2-d array v (a sliding window view, without its per-call checks).
    return np.ndarray((len(v), rows, width), v.dtype, v, 0, (v.strides[0], v.itemsize, v.itemsize))


def chart_phases(l: HalfInt, angles) -> np.ndarray:
    """e^{-i(m(phi - psi) + n(phi + psi))} at each entry (m, n) for each of the
    EulerAngles, shape (len(angles), 2l+1, 2l+1).

    A chart element is P1 R(theta) P2 with P1, P2 diagonal, so its matrix is
    this array times the real d(theta) = t(R(theta)).  Each phase is one
    exponential, not a product, so its bits do not depend on numpy's SIMD level.
    The argument of entry (-m, -n) is that of (m, n) negated exactly, or both
    are 0, so one exponential serves the pair: the first ceil(dim**2 / 2)
    entries in row-major order take np.exp(1j * argument), and each of the
    rest the conjugate of its mirror's phase.  That is the same bits as its
    own exponential wherever the complex exponential's sine is odd bit for
    bit, which the tests check against one exponential per entry.  Where the
    argument is 0 the entry takes its mirror's phase, 1 + 0j as
    np.exp(1j * 0) gives it, and not the conjugate 1 - 0j.
    """
    l2, dim = l.twice, _dim(l)
    size = dim * dim
    half = (size + 1) // 2
    psi, phi = (np.reshape([getattr(a, name) for a in angles], (-1, 1)) for name in ("psi", "phi"))
    # The arguments (i - j) psi - (i + j - l2) phi of the rows that hold the
    # first half, read from the multiples k psi and k phi, |k| <= l2: window i
    # of k psi, reversed, is (i - j) psi, and window i of k phi is (i + j - l2) phi.
    k, rows = np.arange(-l2, l2 + 1), (dim + 1) // 2
    arg = _windows(k * psi, rows, dim)[..., ::-1] - _windows(k * phi, rows, dim)
    first = arg.reshape(len(psi), rows * dim)[:, :half]
    out = np.empty((len(psi), size), dtype=complex)
    head = out[:, :half]
    np.multiply(1j, first, out=head)
    np.exp(head, out=head)
    mirror = out[:, : size - half][:, ::-1]
    np.conjugate(mirror, out=out[:, half:])
    np.copyto(out[:, half:], mirror, where=first[:, : size - half][:, ::-1] == 0)
    return out.reshape(-1, dim, dim)


def _chart_form(stack, l: HalfInt, angles) -> np.ndarray:
    # The matrices of the chart elements at the angles: chart_phases times the
    # d(theta) of a zero-phase stack builder, shape (len(angles), 2l+1, 2l+1).
    return chart_phases(l, angles) * stack(l, [a.theta for a in angles])


def _jacobi_chart(theta: float) -> tuple:
    # (sin theta, cos theta, (cos 2 theta - 1)/2 as an integer ratio).
    sin_t, cos_t, (num, den) = _chart(theta)
    return sin_t, cos_t, (num - den, 2 * den)


def jacobi_stack(l: HalfInt, thetas) -> np.ndarray:
    """d(theta) at each of the thetas, shape (len(thetas), 2l+1, 2l+1): an entry
    of the quadrant m + n >= 0, m - n >= 0 is a Jacobi polynomial in cos 2 theta
    times powers of sin and cos theta, computed once and folded onto the others.
    It is jacobi_stack_by_spin at the one spin l."""
    return jacobi_stack_by_spin([l], thetas)[0]


def jacobi_stack_by_spin(spins, thetas) -> list:
    """jacobi_stack at each of the spins, from one chart per theta."""
    return _chart_stacks(spins, thetas, _jacobi_chart, partial(_chart_stack, entries=_jacobi_entries))


def dmatrix_euler(l: HalfInt, angles: EulerAngles) -> WignerMatrix:
    """The matrix of a chart element by the Jacobi form: the jacobi entry of
    ROTATION_ROUTES, chart_phases times jacobi_stack, at one element."""
    return WignerMatrix(l, _chart_form(jacobi_stack, l, [angles])[0])


def _rodrigues_chart(theta: float) -> tuple:
    chart = _chart(theta)
    if not 0 < theta < math.pi / 2:
        raise RouteUnavailableError("derivative route needs theta strictly inside (0, pi/2)")
    return chart


def _rodrigues_entries(l2: int, j: int, rows, charts: list) -> list[list[float]]:
    # Entry (i, j) for each i of rows at each chart (sin theta, cos theta,
    # cos 2 theta as an integer ratio); the column's product is expanded
    # once, and each row's derivative of it once for all the charts.
    ln = l2 - j
    column = _poly_mul(_binom_power_coeffs(-1, j), _binom_power_coeffs(+1, ln))
    out = []
    for i in rows:
        lm, mn, mmn = l2 - i, i + j - l2, i - j
        deriv = _poly_derivative(column, lm)
        pref = _sqrt_fraction(factorial(i), factorial(lm) * factorial(j) * factorial(ln)) * 2.0 ** (-i)
        # Exact Horner: the expanded derivative cancels almost completely near
        # the interval ends (its value carries the surviving power of 1 -+ s),
        # and a floating-point evaluation there would be wiped out by the
        # negative sin/cos powers of the prefactor.
        out.append(
            [pref * sin_t ** (-mn) * cos_t ** (-mmn) * _exact_series(deriv, 1, cos2) for sin_t, cos_t, cos2 in charts]
        )
    return out


def tmn_rodrigues(l: HalfInt, m: HalfInt, n: HalfInt, theta: float) -> float:
    """Matrix element at zero phases via a Rodrigues-type derivative:
    rodrigues_stack's entry, folded onto the quadrant m + n >= 0, m - n >= 0.

    There the derivative of (1-s)^(l+n) (1+s)^(l-n), expanded with exact
    integer coefficients, is evaluated at s = cos(2*theta); the prefactor
    holds sin^-(m+n) cos^-(m-n), so theta must lie strictly inside (0, pi/2).
    """
    return _chart_entry(l, m, n, theta, _rodrigues_chart, _rodrigues_entries)


def rodrigues_stack(l: HalfInt, thetas) -> np.ndarray:
    """d(theta) by the Rodrigues form at each of the thetas, shape
    (len(thetas), 2l+1, 2l+1); each column's product is expanded once, and
    only the quadrant's entries are computed and folded.  It is
    rodrigues_stack_by_spin at the one spin l."""
    return rodrigues_stack_by_spin([l], thetas)[0]


def rodrigues_stack_by_spin(spins, thetas) -> list:
    """rodrigues_stack at each of the spins, from one chart per theta."""
    return _chart_stacks(spins, thetas, _rodrigues_chart, partial(_chart_stack, entries=_rodrigues_entries))


def _krawtchouk_chart(theta: float) -> tuple:
    # (sin theta, cos theta, 1/p as an integer ratio), p = cos^2 theta =
    # (1 + cos 2 theta)/2 from the chart.
    sin_t, cos_t, (num, den) = _chart(theta)
    if den + num == 0 or theta >= math.pi / 2:
        raise RouteUnavailableError("Krawtchouk route needs cos(theta) != 0")
    return sin_t, cos_t, (2 * den, den + num)


def _krawtchouk_entries(l2: int, j: int, rows, charts: list) -> list[list[float]]:
    # Entry (i, j) for each i of rows at each chart (sin theta, cos theta,
    # 1/p as an integer ratio); K_{l-m}(l-n; p, 2l) = 2F1(-(l-m), -(l-n);
    # -2l; 1/p) is written over one denominator once for all the charts.
    ln, row, c, out = l2 - j, _row_source(_hyp2f1_coeffs_cached, l2), partial(comb, l2), []
    for i in rows:
        lm, mn = l2 - i, i + j - l2
        nums, den = row(-lm, -ln, -l2, lm)
        pref = _refusing_overflow(f"Krawtchouk {_BINOMIAL_PREFACTOR}", _PREFACTORS["binomial"], l2, i, j, factorial, c)
        pref = (-1.0 if lm % 2 else 1.0) * pref
        out.append(
            [pref * cos_t ** (lm + ln) * sin_t**mn * _exact_series(nums, den, inv_p) for sin_t, cos_t, inv_p in charts]
        )
    return out


def tmn_krawtchouk(l: HalfInt, m: HalfInt, n: HalfInt, theta: float) -> float:
    """Matrix element at zero phases via a Krawtchouk polynomial:
    krawtchouk_stack's entry, folded onto the quadrant m + n >= 0, m - n >= 0,
    where the sin power m + n is never negative.  cos(theta) = 0 is refused,
    because it puts p = 0 inside the Krawtchouk argument.
    """
    return _chart_entry(l, m, n, theta, _krawtchouk_chart, _krawtchouk_entries)


def krawtchouk_stack(l: HalfInt, thetas) -> np.ndarray:
    """d(theta) by the Krawtchouk form at each of the thetas, shape
    (len(thetas), 2l+1, 2l+1); each polynomial is put over one denominator
    once, and only the quadrant's entries are computed and folded.  It is
    krawtchouk_stack_by_spin at the one spin l."""
    return krawtchouk_stack_by_spin([l], thetas)[0]


def krawtchouk_stack_by_spin(spins, thetas) -> list:
    """krawtchouk_stack at each of the spins, from one chart per theta."""
    return _chart_stacks(spins, thetas, _krawtchouk_chart, partial(_chart_stack, entries=_krawtchouk_entries))


# The Jacobi recurrence in the degree, which every source takes.  In the
# quadrant m + n >= 0, m - n >= 0 the Jacobi form is pref c^(m-n) d^(m+n)
# (bc - ad)^k P_k^(m+n, m-n)(x), k = l - m, x = (bc + ad)/(bc - ad).  With
# z = (1 - x)/2 = ad/det A and w = (1 + x)/2 = -bc/det A, P_k(x) = P_k(1)
# q_k(z).  Times det A^k, lane (m, n) runs in Reinsch's difference form (J.
# Stoer and R. Bulirsch, "Introduction to Numerical Analysis", section 2.3)
# from Q = 1 and E = 0 at J = m, one step a spin:
#     E_J = C D E_(J-1) - A Z Q_(J-1),   Q_J = D Q_(J-1) + E_J,
#     A = 2J (2J - 1)/((J + m)(J + n)),
#     C = J (J - m - 1)(J - n - 1)/((J - 1)(J + m)(J + n)),
# so that Q_J = D^k q_k(Z/D) and E_J = D^k (q_k - q_(k-1)), with Z = ad and
# D = det A.  It never divides by D, so rank 1, a = 0, b = 0 and c = 0 are
# ordinary inputs; off [-1, 1] P_k is the dominant solution, so the forward
# direction is stable (W. Gautschi, SIAM Review 9 (1967) 24-82); and near z
# = 0 it adds small differences to Q instead of cancelling large terms.
# Where |w| < |z|, P_k^(a, b)(x) = (-1)^k P_k^(b, a)(-x) makes entry (m, n)
# lane (m, -n) at Z = W = -bc, without the sign (-1)^k, so the argument is
# never the larger of the two.  The entry is pref P_k(1) c^(m-n) d^(m+n)
# Q_l, and pref P_k(1) = sqrt(C(l+m, l-n) C(l+n, l-m)), or that of (m, -n).

# Where a float on the way overflows, the route refuses with one of these reasons.
_RECURRENCE_NORM = "recurrence route's norm s1^(2l) (s1 the largest singular value of A)"
_RECURRENCE_WEIGHTS = "recurrence route's prefactor sqrt(C(l+m, l-n) C(l+n, l-m))"


def _lanes(l2: int) -> tuple:
    # The quadrant lanes of spin l2/2, sorted by m and each m's lanes by n, so
    # that the lanes with m below a bound are a prefix: per lane 2m, its entry
    # (i, j) = (l + m, l + n), m + n and m - n.
    m2 = np.arange(l2 % 2, l2 + 1, 2)
    twice_m = m2.repeat(m2 + 1)
    plus = np.arange(len(twice_m)) - twice_m * twice_m // 4  # (2m)^2 // 4 lanes come before m's
    i = (l2 + twice_m) // 2
    return twice_m, i, i - twice_m + plus, plus, twice_m - plus


def _scale(x: np.ndarray, s) -> None:
    # x *= s in place: x real, shape (lanes, N), and s a float or shape (N,);
    # or x a (real, imaginary) pair, shape (2, lanes, 1), and s a pair,
    # multiplied as _times does.
    if x.ndim == 2:
        x *= s
    else:
        x[0], x[1] = _times(x, s)


def _degree_lanes(l2: int, twice_m: np.ndarray, a: np.ndarray, Q: np.ndarray, z, det=None) -> np.ndarray:
    """The lanes of _lanes (2m per lane in twice_m, and a = m + n, or m - n
    for the lanes (m, -n)) run in place from their values Q at J = m to J =
    l, and Q returned.  On charts Q has shape (lanes, N), z is a float or
    has shape (N,), and det is None, which is 1; for a matrix Q is a (real,
    imaginary) pair of shape (2, lanes, 1), and z and det are pairs.

    Step J updates the lanes with m <= J - 1, a prefix.  P = (J + m)(J + n)
    rises by 2J + 1 + m + n to the next step, exactly in floats, so a step
    costs one division per lane: h = J (2J - 1)/(2 (J - 1) P), with A =
    4 (J - 1) h and C = J/(J - 1) - 2 (m + n + 1) h.  The lane (0, 0) takes
    its first step, to J = 1, alone: there A = 2 and C = 0.
    """
    E, T, (h, C) = np.zeros_like(Q), np.empty_like(Q), np.empty((2, len(a), 1))
    a1, m1 = (a + 1.0)[:, None], (twice_m + 1.0)[:, None]
    P, rise, a2 = a1 * m1, a1 + m1 + 1, 2 * a1  # P and its rise at each lane's first step, J = m + 1
    start = l2 % 2 + 2
    if start == 2 and l2:
        q, e = Q[..., :1, :], E[..., :1, :]
        np.multiply(q, -2.0, out=e)
        _scale(e, z)
        if det is not None:
            _scale(q, det)
        q += e
        start = 4
    for j2 in range(start, l2 + 1, 2):  # j2 = 2J
        k, before = j2 * j2 // 4, (j2 - 2) ** 2 // 4  # the lanes with m <= J - 1, and with m <= J - 2
        P[:before] += rise[:before]
        rise[:before] += 2
        c0 = j2 / (j2 - 2)
        hk = np.divide(c0 * (j2 - 1) / 2, P[:k], out=h[:k])
        ck = np.multiply(a2[:k], hk, out=C[:k])
        np.subtract(c0, ck, out=ck)
        q, e = Q[..., :k, :], E[..., :k, :]
        e *= ck
        t = np.multiply(q, hk, out=T[..., :k, :])
        _scale(t, 2 * (j2 - 2) * z)
        if det is not None:
            _scale(e, det)
            _scale(q, det)
        e -= t
        q += e
    return Q


def _lane_weights(l2: int, lanes: tuple, mirrored: bool) -> np.ndarray:
    """Each lane's pref P_k(1), its value at J = m before the powers:
    (-1)^(l-m) sqrt(C(l+m, l-n) C(l+n, l-m)) for the lane (m, n), or,
    mirrored, that of (m, -n) without the sign.

    With s_t = t!/2^(p t), each rounded from the 64 leading bits of the
    exact t!, and g_t = sqrt(s_t / s_(l2-t)), it is g_i / g_(l2-j) / s_(m+n),
    or g_i / g_j / s_(m-n): the powers of 2 cancel, and p keeps every s_t,
    g_t and weight inside the float range up to l2 of about 1,480.  Past it
    an s_t or a weight leaves that range, and the call raises OverflowError.
    Where m + n (or m - n) is 0 the weight is g_i / g_i, exactly 1, as
    C(l+m, l+m) C(l-m, l-m) is.
    """
    _, i, j, plus, minus = lanes
    p, s = max(0, l2.bit_length() - 2), []
    for t, f in enumerate(accumulate(range(1, l2 + 1), operator.mul, initial=1)):
        shift = max(f.bit_length() - 64, 0)
        s.append(math.ldexp(float(f >> shift), shift - p * t))
    s = np.array(s)
    with np.errstate(all="ignore"):
        g = np.sqrt(s / s[::-1])
        if mirrored:
            weights = g[i] / g[j] / s[minus]
        else:
            top = g.copy()
            top[(l2 + 1) % 2 :: 2] *= -1.0  # the sign (-1)^(l2 - i)
            weights = top[i] / g[::-1][j] / s[plus]
    if not (s.min() and np.isfinite(weights).all()):
        raise OverflowError
    return weights


def _recurrence_charts(l: HalfInt, charts: list) -> np.ndarray:
    # d(theta) at the charts (_chart) of recurrence_stack_by_spin: the lanes
    # from their weights times sin^(m+n) cos^(m-n), at z = sin^2 theta, or
    # mirrored at w = cos^2 theta for the thetas where it is smaller, unfolded.
    l2 = l.twice
    lanes = _lanes(l2)
    twice_m, i, j, plus, minus = lanes
    runs = {}
    for k, (sin_t, cos_t, _) in enumerate(charts):
        runs.setdefault(cos_t * cos_t < sin_t * sin_t, []).append(k)
    values = np.empty((len(twice_m), len(charts)))
    for mirrored, at in runs.items():
        sin_cos = np.array([charts[k][:2] for k in at]).T
        powers = np.ones((2, l2 + 1, len(at)))
        powers[:, 1:] = sin_cos[:, None]
        np.cumprod(powers, axis=1, out=powers)
        weights = _refusing_overflow(_RECURRENCE_WEIGHTS, _lane_weights, l2, lanes, mirrored)
        z = sin_cos[int(mirrored)] ** 2  # sin^2 theta, or cos^2 theta mirrored
        Q = powers[0][plus] * powers[1][minus] * weights[:, None]
        z = z if len(at) > 1 else float(z[0])  # one theta: a scalar, which each step multiplies in without an array
        values[:, at] = _degree_lanes(l2, twice_m, minus if mirrored else plus, Q, z)
    return _unfold(l2, i, j, values)


def recurrence_matrix(l: HalfInt, A: Mat2C) -> WignerMatrix:
    """The matrix of t(A) for any element A by the Jacobi recurrence in the
    degree, its complex products on (real, imaginary) pairs as _times takes
    them.  Raises RouteUnavailableError where s1^(2l) overflows a float, s1
    the largest singular value of A: every entry is at most s1^(2l); and past
    l_x2 of about 1,480, where a prefactor does.

    The lanes run at ad, -bc and det of A over 2^e, the power of two nearest
    s1, which is exact; each image of _IMAGES multiplies them by its power
    pair, (c, d), (b, d), (c, a) or (b, a), and 2^(e l2) is put back at the
    end.
    """
    l2, dim = l.twice, _dim(l)
    entries = _finite(np.array(astuple(A), dtype=complex))
    e0 = math.frexp(np.abs(entries.view(float)).max())[1]
    a, b, c, d = scaled = [complex(math.ldexp(x.real, -e0), math.ldexp(x.imag, -e0)) for x in entries]
    frobenius, det_abs = sum(abs(x) ** 2 for x in scaled), abs(a * d - b * c)
    s1 = math.sqrt((frobenius + math.sqrt(max(frobenius * frobenius - 4 * det_abs * det_abs, 0.0))) / 2)
    _refusing_overflow(_RECURRENCE_NORM, lambda: math.ldexp(s1, e0) ** l2)
    e = e0 + (round(math.log2(s1)) if s1 else 0)
    a, b, c, d = scaled = [complex(math.ldexp(x.real, e0 - e), math.ldexp(x.imag, e0 - e)) for x in scaled]
    za, zb = a * d, -(b * c)
    mirrored = abs(zb) < abs(za)
    lanes = _lanes(l2)
    twice_m, i, j, plus, minus = lanes
    Q = np.zeros((2, len(twice_m), 1))
    Q[0, :, 0] = _refusing_overflow(_RECURRENCE_WEIGHTS, _lane_weights, l2, lanes, mirrored)
    z, det = _pairs([[za, zb][mirrored], za + zb]).T
    Q = _degree_lanes(l2, twice_m, minus if mirrored else plus, Q, z, det)[..., 0]
    powers = _pairs([list(accumulate([x] * l2, operator.mul, initial=1 + 0j)) for x in scaled])
    out = np.empty((2, dim * dim))
    for index_map, order, _ in _IMAGES.values():
        rows, cols = index_map(l2, i, j)
        out[:, rows * dim + cols] = _times(_times(Q, powers[:, order[2], minus]), powers[:, order[3], plus])
    matrix = np.empty((dim, dim), dtype=complex)
    matrix.real, matrix.imag = np.ldexp(out, e * l2).reshape(2, dim, dim)
    return WignerMatrix(l, matrix)


def recurrence_stack(l: HalfInt, thetas) -> np.ndarray:
    """d(theta) at each of the thetas by the Jacobi recurrence in the degree,
    shape (len(thetas), 2l+1, 2l+1): recurrence_matrix's lanes at the chart
    element, in real arithmetic.

    There ad = sin^2 theta and -bc = cos^2 theta, with their sum taken as 1,
    and the powers are sin^(m+n) cos^(m-n) as running products.  Each lane's
    q_k starts at 1 and adds differences to it, so at theta 0 (or pi/2)
    every lane of the anti-diagonal (or the diagonal) is exactly +-1.  Each
    step is +, - and x on real arrays, elementwise in theta, and one
    division per lane, so a stack's matrices are the single-theta results
    bit for bit at every numpy SIMD level.  It is recurrence_stack_by_spin
    at the one spin l.
    """
    return recurrence_stack_by_spin([l], thetas)[0]


def recurrence_stack_by_spin(spins, thetas) -> list:
    """recurrence_stack at each of the spins, from one chart per theta; each
    spin runs its own recurrence."""
    return _chart_stacks(spins, thetas, _chart, _recurrence_charts)


# The routes that build a whole matrix of any element, called as (l, A); the
# oracle, first, has no singular set.  The lambdas look each function up at
# call time, so a replaced module attribute (a tracing wrapper) is what runs.
ELEMENT_ROUTES = {
    "oracle": lambda l, A: oracle_matrix(l, A),
    "sum": lambda l, A: sum_matrix(l, A),
    "jacobi": lambda l, A: jacobi_matrix(l, A),
    "recurrence": lambda l, A: recurrence_matrix(l, A),
}
# The chart forms, called as (l, angles) with a list of EulerAngles: each
# returns the matrices of those chart elements, shape (len(angles), 2l+1, 2l+1).
ROTATION_ROUTES = {
    "jacobi": lambda l, angles: _chart_form(jacobi_stack, l, angles),
    "rodrigues": lambda l, angles: _chart_form(rodrigues_stack, l, angles),
    "krawtchouk": lambda l, angles: _chart_form(krawtchouk_stack, l, angles),
    "recurrence": lambda l, angles: _chart_form(recurrence_stack, l, angles),
}
# Their zero-phase stacks over a list of spins, called as (spins, thetas):
# each returns d(theta) at those thetas for each spin, the stacks that
# ROTATION_ROUTES multiplies by chart_phases.
ROTATION_STACKS = {
    "jacobi": lambda spins, thetas: jacobi_stack_by_spin(spins, thetas),
    "rodrigues": lambda spins, thetas: rodrigues_stack_by_spin(spins, thetas),
    "krawtchouk": lambda spins, thetas: krawtchouk_stack_by_spin(spins, thetas),
    "recurrence": lambda spins, thetas: recurrence_stack_by_spin(spins, thetas),
}


def apply_symmetry(which: str, l: HalfInt, m: HalfInt, n: HalfInt, A: Mat2C):
    """Return (m', n', A') with t^l_{m,n}(A) = t^l_{m',n'}(A') for one of SYMMETRIES:
    transpose-bc, (n, m) and [[a,b],[c,d]] -> [[a,c],[b,d]]; flip-signs, (-m, -n) and
    [[d,c],[b,a]]; anti-transpose, their composition, (-n, -m) and [[d,b],[c,a]]."""
    i, j = _index(l, m), _index(l, n)
    if which not in SYMMETRIES:
        raise ValueError(f"unknown symmetry {which!r}; expected one of {tuple(SYMMETRIES)}")
    index_map, element_map = SYMMETRIES[which]
    i2, j2 = index_map(l.twice, i, j)
    return HalfInt(2 * i2 - l.twice), HalfInt(2 * j2 - l.twice), element_map(A)


def character(l: HalfInt, A: Mat2C) -> complex:
    """Trace of the spin-l representation matrix, each part rounded once.

    The trace is h_2l, the complete homogeneous symmetric polynomial of A's
    eigenvalues, and h_k = T h_(k-1) - D h_(k-2) with h_0 = 1, h_1 = T,
    T = tr A and D = det A.  The entries of A are Gaussian integers over one
    power of two q (_complex_ratio), so T q and D q^2 are Gaussian integers,
    H_k = h_k q^k runs in integers, and h_2l = H_2l / q^(2l).  A part that
    overflows a float is refused with RouteUnavailableError.
    """
    n = _dim(l) - 1
    parts = [_complex_ratio(complex(v)) for v in _finite(astuple(A))]
    q = max(f for *_, f in parts)
    (pa, ra), (pb, rb), (pc, rc), (pd, rd) = ((p * (q // f), r * (q // f)) for p, r, f in parts)
    t, t_i = pa + pd, ra + rd
    d, d_i = pa * pd - ra * rd - pb * pc + rb * rc, pa * rd + ra * pd - pb * rc - rb * pc
    h, h_i, g, g_i = 1, 0, 0, 0  # H_k and H_(k-1), from H_0 = 1 and H_(-1) = 0
    for _ in range(n):
        h, h_i, g, g_i = t * h - t_i * h_i - d * g + d_i * g_i, t * h_i + t_i * h - d * g_i - d_i * g, h, h_i
    scale = q**n
    return _refusing_overflow("the character", lambda: complex(h / scale, h_i / scale))
