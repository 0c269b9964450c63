"""The closed-form routes built a whole matrix at a time, held bit for bit to
the entry-by-entry evaluation they replaced.

The reference functions below are copies of the earlier implementation, in
which every matrix element redid its own powers, factorials, trigonometric
values and half-integer index arithmetic.  The whole-matrix functions, the
per-entry functions and the `dmat` route path must return the same bytes
(the same exception type and message where the old code raised) at every
spin up to l = 6, on group elements from every source the package uses and
on the edges of each route's domain; rodrigues_stack also at spins up to
l = 20.  Three exceptions: the per-entry forms of GL(2, C) elements read
the tables of their whole-matrix builders, so they raise where the old code
returned inf or NaN, and where their builder raises; dmatrix_euler applies
its phases to the whole zero-phase matrix, so it is held to the old entries
within a bound of a few rounding errors; and every closed form but the sum
computes only the quadrant m + n >= 0, m - n >= 0 and folds it, so its other
entries are held to the old entry they fold onto: the element forms' at the
image of the element (old_element_folded), the Rodrigues and Krawtchouk
forms' times d(theta)'s sign there (old_folded).  Where the old Rodrigues or
Krawtchouk code raised a bare OverflowError, the chart forms refuse with
RouteUnavailableError, and the copies below do the same
(refused_like_the_chart_forms); where the old sum or Jacobi code raised one
from a power of an entry, the element routes refuse it as their powers', and
old_dmat_by_route does the same (POWERS_REFUSALS).

The element builders and their per-entry forms now read one plan per spin:
the quadrant's index columns, the places of each entry's images and the
prefactors, and for the finite sum Pascal's rows and its prefactors.  The
copies old_element_matrix, old_element_entry and old_sum_entry, with their
kernels, are the builders that computed all of that per element; the planned
builders must return their bytes, and raise their exception and message, at
every spin up to l_x2 = 12 and at the first refusals of the 2F1 prefactor
and of the 2F1 and Jacobi series.
"""
import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from wignerkit import cli
from wignerkit.exactcomb import HalfInt, binomial, check_spin_pair, factorial, spin_range
from wignerkit.group import EulerAngles, Mat2C, from_euler, sample_haar
from wignerkit.specfun import (
    JacobiParams,
    _binom_power_coeffs,
    _exact_series,
    _hyp2f1_coeffs_cached,
    _jacobi_coeffs_cached,
    _poly_derivative,
    _poly_mul,
    hyp2f1_complex,
    jacobi_complex,
    jacobi_eval,
    krawtchouk,
)
from wignerkit.verify import sample_gl2, suite_routes
from wignerkit.wigner import (
    _IMAGES,
    SYMMETRIES,
    RouteUnavailableError,
    _chart,
    _finite,
    _fold,
    _hyp_tables,
    _jacobi_tables,
    WignerMatrix,
    apply_symmetry,
    dmatrix_euler,
    jacobi_stack,
    hyp_matrix,
    hyp_symmetric_matrix,
    jacobi_matrix,
    krawtchouk_stack,
    recurrence_stack,
    rodrigues_stack,
    sum_matrix,
    tmn_hyp,
    tmn_hyp_symmetric,
    tmn_jacobi,
    tmn_krawtchouk,
    tmn_rodrigues,
    tmn_sum,
)

# The overflowing elements make numpy warn on both sides; that is expected.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

# -- reference copies of the per-entry code ------------------------------------


def old_tmn_sum(l, m, n, A):
    check_spin_pair(l, m)
    check_spin_pair(l, n)
    lm = (l - m).as_int()
    ln = (l - n).as_int()
    lpn = (l + n).as_int()
    mn = (m + n).as_int()
    acc = 0j
    for j in range(max(0, -mn), min(lm, ln) + 1):
        coef = binomial(ln, j) * binomial(lpn, lm - j)
        acc += coef * A.a**j * A.b ** (lm - j) * A.c ** (ln - j) * A.d ** (mn + j)
    return math.sqrt(Fraction(binomial(l.twice, ln), binomial(l.twice, lm))) * acc


def old_factorial_ratio_sqrt(p, q, r, s):
    return math.sqrt(Fraction(factorial(p) * factorial(q), factorial(r) * factorial(s)))


def old_check_hyp_domain(l, m, n, A):
    check_spin_pair(l, m)
    check_spin_pair(l, n)
    if (m + n).twice < 0:
        raise RouteUnavailableError("2F1 route needs m + n >= 0")
    if A.b == 0 or A.c == 0:
        raise RouteUnavailableError("2F1 route needs b != 0 and c != 0")
    # Like the route, refuse a non-finite 2F1 argument; b * c may overflow.
    bc = A.b * A.c
    if not (cmath.isfinite(A.a * A.d / bc) and cmath.isfinite((bc - A.a * A.d) / bc)):
        raise RouteUnavailableError("2F1 route needs ad/(bc) finite; it overflows")


def old_tmn_hyp(l, m, n, A):
    old_check_hyp_domain(l, m, n, A)
    lm = (l - m).as_int()
    ln = (l - n).as_int()
    mn = (m + n).as_int()
    pref = old_factorial_ratio_sqrt((l + m).as_int(), (l + n).as_int(), lm, ln)
    series = hyp2f1_complex(-lm, -ln, mn + 1, min(lm, ln), A.a * A.d / (A.b * A.c))
    return pref * A.b**lm * A.c**ln * A.d**mn / factorial(mn) * series


def old_tmn_hyp_symmetric(l, m, n, A):
    old_check_hyp_domain(l, m, n, A)
    lm = (l - m).as_int()
    ln = (l - n).as_int()
    mn = (m + n).as_int()
    bc = A.b * A.c
    pref = math.sqrt(binomial(l.twice, lm) * binomial(l.twice, ln))
    series = hyp2f1_complex(-lm, -ln, -l.twice, min(lm, ln), (bc - A.a * A.d) / bc)
    return pref * A.b**lm * A.c**ln * A.d**mn * series


def old_tmn_jacobi(l, m, n, A):
    check_spin_pair(l, m)
    check_spin_pair(l, n)
    if (m + n).twice < 0 or (m - n).twice < 0:
        raise RouteUnavailableError("Jacobi route needs m + n >= 0 and m - n >= 0")
    bc = A.b * A.c
    ad = A.a * A.d
    if bc == ad:
        raise RouteUnavailableError("Jacobi route needs bc != ad")
    lm = (l - m).as_int()
    mn = (m + n).as_int()
    mmn = (m - n).as_int()
    pref = old_factorial_ratio_sqrt((l + m).as_int(), lm, (l + n).as_int(), (l - n).as_int())
    poly = jacobi_complex(JacobiParams(mn, mmn, lm), (bc + ad) / (bc - ad))
    return pref * A.c**mmn * A.d**mn * (bc - ad) ** lm * poly


def old_wrap_angle(x):
    out = math.fmod(x, 2 * math.pi)
    return out + 2 * math.pi if out < 0 else out


def old_cos2_exact(theta, sin_t, cos_t):
    if theta <= math.pi / 4:
        return 1 - 2 * Fraction(sin_t) ** 2
    return 2 * Fraction(cos_t) ** 2 - 1


def old_quadrant_entry(l, m, n, theta, phi, psi):
    mn = (m + n).as_int()
    mmn = (m - n).as_int()
    lm = (l - m).as_int()
    pref = old_factorial_ratio_sqrt((l + m).as_int(), lm, (l + n).as_int(), (l - n).as_int())
    sign = -1.0 if lm % 2 else 1.0
    jac = jacobi_eval(JacobiParams(mn, mmn, lm), math.cos(2 * theta))
    phase = cmath.exp(1j * (mmn * psi - mn * phi))
    return sign * pref * phase * math.sin(theta) ** mn * math.cos(theta) ** mmn * jac


def old_quadrant_symmetry(m, n):
    if (m + n).twice >= 0:
        return None if (m - n).twice >= 0 else "transpose-bc"
    return "anti-transpose" if (m - n).twice >= 0 else "flip-signs"


OLD_CHART_SYMMETRIES = {
    "transpose-bc": lambda m, n, phi, psi: (n, m, phi, old_wrap_angle(math.pi - psi)),
    "anti-transpose": lambda m, n, phi, psi: (-n, -m, old_wrap_angle(-phi), psi),
    "flip-signs": lambda m, n, phi, psi: (-m, -n, old_wrap_angle(-phi), old_wrap_angle(math.pi - psi)),
}


def old_dmatrix_euler(l, angles):
    dim = l.twice + 1
    entries = np.empty((dim, dim), dtype=complex)
    for i, m in enumerate(spin_range(l)):
        for j, n in enumerate(spin_range(l)):
            phi, psi = angles.phi, angles.psi
            m2, n2 = m, n
            which = old_quadrant_symmetry(m, n)
            if which is not None:
                m2, n2, phi, psi = OLD_CHART_SYMMETRIES[which](m, n, phi, psi)
            entries[i, j] = old_quadrant_entry(l, m2, n2, angles.theta, phi, psi)
    return WignerMatrix(l, entries)


def refused_like_the_chart_forms(old):
    # The old chart-form entry, with an OverflowError turned into the refusal
    # that every chart form now gives.
    def entry(*args):
        try:
            return old(*args)
        except OverflowError:
            raise RouteUnavailableError("a float on the way to a chart form's entry overflows") from None

    return entry


@refused_like_the_chart_forms
def old_tmn_rodrigues(l, m, n, theta):
    check_spin_pair(l, m)
    check_spin_pair(l, n)
    if not 0 < theta < math.pi / 2:
        raise RouteUnavailableError("derivative route needs theta strictly inside (0, pi/2)")
    lm = (l - m).as_int()
    lpm = (l + m).as_int()
    ln = (l - n).as_int()
    lpn = (l + n).as_int()
    deriv = _poly_derivative(_poly_mul(_binom_power_coeffs(-1, lpn), _binom_power_coeffs(+1, ln)), lm)
    sin_t = math.sin(theta)
    cos_t = math.cos(theta)
    value = _exact_series(deriv, 1, old_cos2_exact(theta, sin_t, cos_t).as_integer_ratio())
    pref = math.sqrt(Fraction(factorial(lpm), factorial(lm) * factorial(lpn) * factorial(ln)))
    mn = (m + n).as_int()
    mmn = (m - n).as_int()
    return pref * 2.0 ** (-lpm) * sin_t ** (-mn) * cos_t ** (-mmn) * value


@refused_like_the_chart_forms
def old_tmn_krawtchouk(l, m, n, theta):
    check_spin_pair(l, m)
    check_spin_pair(l, n)
    sin_t = math.sin(theta)
    cos_t = math.cos(theta)
    p = (1 + old_cos2_exact(theta, sin_t, cos_t)) / 2
    if p == 0 or theta >= math.pi / 2:
        raise RouteUnavailableError("Krawtchouk route needs cos(theta) != 0")
    if l.twice == 0:
        # The old code returned this before its cos(theta) check; the kernel
        # refuses cos(theta) = 0 at spin 0 too, and returns 1.0 elsewhere.
        return 1.0
    mn = (m + n).as_int()
    if mn < 0 and (sin_t == 0.0 or theta <= 0.0):
        raise RouteUnavailableError("negative sin power: Krawtchouk route needs theta > 0 when m + n < 0")
    lm = (l - m).as_int()
    ln = (l - n).as_int()
    pref = math.sqrt(binomial(l.twice, lm) * binomial(l.twice, ln))
    sign = -1.0 if lm % 2 else 1.0
    return sign * pref * cos_t ** (lm + ln) * sin_t**mn * krawtchouk(lm, float(ln), p, l.twice)


def old_jacobi_stack(l, thetas):
    # The Jacobi chart form as it was before the three chart forms shared one
    # layout: each quadrant entry by its own call at all the charts, and the
    # other entries folded onto it inline.
    l2, spins = l.twice, spin_range(l)
    charts = [(s, c, (num - den, 2 * den)) for s, c, (num, den) in map(_chart, thetas)]

    def quadrant_entry(m, n):
        i, j = (l + m).as_int(), (l + n).as_int()
        lm, mn, mmn = l2 - i, i + j - l2, i - j
        pref = (-1.0 if lm % 2 else 1.0) * old_ratio_sqrt(i, lm, j, l2 - j)
        nums, den = _jacobi_coeffs_cached(mn, mmn, lm)
        return [pref * s**mn * c**mmn * _exact_series(nums, den, h) for s, c, h in charts]

    values = []
    for m in spins:
        for n in spins:
            which = old_quadrant_symmetry(m, n)
            if which is None:
                values.append(quadrant_entry(m, n))
                continue
            m2, n2, _ = old_apply_symmetry(which, l, m, n, Mat2C(1, 0, 0, 1))
            flip = which != "anti-transpose" and (m2 - n2).as_int() % 2
            values.append([-v for v in quadrant_entry(m2, n2)] if flip else quadrant_entry(m2, n2))
    return np.array(values).reshape(l2 + 1, l2 + 1, len(charts)).transpose(2, 0, 1)


def old_apply_symmetry(which, l, m, n, A):
    check_spin_pair(l, m)
    check_spin_pair(l, n)
    if which == "transpose-bc":
        return n, m, Mat2C(A.a, A.c, A.b, A.d)
    if which == "flip-signs":
        return -m, -n, Mat2C(A.d, A.c, A.b, A.a)
    if which == "anti-transpose":
        return -n, -m, Mat2C(A.d, A.b, A.c, A.a)
    names = ("transpose-bc", "flip-signs", "anti-transpose")
    raise ValueError(f"unknown symmetry {which!r}; expected one of {names}")


def old_fold_to_quadrant(l, m, n, A):
    check_spin_pair(l, m)
    check_spin_pair(l, n)
    which = old_quadrant_symmetry(m, n)
    return (m, n, A) if which is None else old_apply_symmetry(which, l, m, n, A)


def old_folded(old, l, m, n, theta):
    # The old zero-phase entry at the quadrant entry (m', n') that (m, n) folds
    # onto, times d(theta)'s sign there: (-1)^(m - n) for transpose-bc and
    # flip-signs, +1 for anti-transpose.  Inside the quadrant, the old entry.
    check_spin_pair(l, m)
    check_spin_pair(l, n)
    which = old_quadrant_symmetry(m, n)
    if which is None:
        return old(l, m, n, theta)
    m2, n2, _ = old_apply_symmetry(which, l, m, n, Mat2C(1, 0, 0, 1))
    sign = -1.0 if which != "anti-transpose" and (m - n).as_int() % 2 else 1.0
    return sign * old(l, m2, n2, theta)


# What the element routes refuse where the old code raised a bare
# OverflowError from a power of an entry (of bc - ad too in the Jacobi form).
POWERS_REFUSALS = {
    "sum": "finite sum route's power of a, b, c or d overflows",
    "jacobi": "Jacobi route's power of a, b, c, d or bc - ad overflows",
}


def old_dmat_by_route(l, A, theta, route):
    if route == "jacobi" and theta is not None:
        # An Euler source takes the Jacobi chart form, which
        # test_dmatrix_euler_bit_identical holds to its old copy.
        return dmatrix_euler(l, EulerAngles(theta, 0.0, 0.0))
    entry = {
        "sum": lambda m, n: old_tmn_sum(l, m, n, A),
        "jacobi": lambda m, n: old_tmn_jacobi(l, *old_fold_to_quadrant(l, m, n, A)),
        "rodrigues": lambda m, n: old_folded(old_tmn_rodrigues, l, m, n, theta),
        "krawtchouk": lambda m, n: old_folded(old_tmn_krawtchouk, l, m, n, theta),
    }[route]
    spins = spin_range(l)
    try:
        entries = [[entry(m, n) for n in spins] for m in spins]
    except OverflowError:
        if theta is not None:
            raise
        raise RouteUnavailableError(POWERS_REFUSALS[route]) from None
    return WignerMatrix(l, np.array(entries, dtype=complex))


# -- reference copies of the element builders before their per-spin plan -----
# Each computed its prefactors, the places of a quadrant entry's images and
# its index arithmetic per element; the tables of powers and arguments are
# the builders' own (_hyp_tables, _jacobi_tables).


def old_refusing_overflow(what, fn, *args):
    try:
        return fn(*args)
    except OverflowError:
        raise RouteUnavailableError(f"{what} overflows") from None


def old_sum_entry(l2, i, j, powers):
    a_pow, b_pow, c_pow, d_pow = powers
    lm, ln, mn = l2 - i, l2 - j, i + j - l2
    acc = 0j
    for k in range(max(0, -mn), min(lm, ln) + 1):
        acc += math.comb(ln, k) * math.comb(j, lm - k) * a_pow[k] * b_pow[lm - k] * c_pow[ln - k] * d_pow[mn + k]
    return math.sqrt(math.comb(l2, ln) / math.comb(l2, lm)) * acc


def old_entry_powers(A, l2):
    return tuple([x**e for e in range(l2 + 1)] for x in (A.a, A.b, A.c, A.d))


def old_sum_matrix(l, A):
    dim = l.twice + 1
    powers = old_entry_powers(A, l.twice)
    return WignerMatrix(l, [[old_sum_entry(l.twice, i, j, powers) for j in range(dim)] for i in range(dim)])


def old_sum_tmn(l, m, n, A):
    check_spin_pair(l, m)
    check_spin_pair(l, n)
    i, j = (l + m).as_int(), (l + n).as_int()
    return _finite(old_sum_entry(l.twice, i, j, old_entry_powers(A, l.twice)))


def old_ratio_sqrt(p, q, r, s):
    # sqrt(p! q! / (r! s!)), the ratio rounded once by int / int.
    return math.sqrt(factorial(p) * factorial(q) / (factorial(r) * factorial(s)))


def old_binomial_sqrt(route, l2, lm, ln):
    what = f"{route} route's prefactor sqrt(C(2l, l-m) C(2l, l-n))"
    return old_refusing_overflow(what, math.sqrt, math.comb(l2, lm) * math.comb(l2, ln))


def old_hyp_shared(l2, i, j, common):
    lm, ln, mn = l2 - i, l2 - j, i + j - l2
    what = "2F1 route's prefactor sqrt((l+m)! (l+n)! / ((l-m)! (l-n)!))"
    pref = old_refusing_overflow(what, old_ratio_sqrt, i, j, lm, ln)
    row = _hyp2f1_coeffs_cached(-lm, -ln, mn + 1, min(lm, ln))
    series = "2F1 route's series 2F1(-(l-m), -(l-n); m+n+1; ad/(bc))"
    return pref, old_refusing_overflow(series, _exact_series, *row, common[0])


def old_hyp_entry(l2, i, j, powers, shared):
    _, b_pow, c_pow, d_pow = powers
    pref, series = shared
    lm, ln, mn = l2 - i, l2 - j, i + j - l2
    return pref * b_pow[lm] * c_pow[ln] * d_pow[mn] / factorial(mn) * series


def old_hyp_symmetric_shared(l2, i, j, common):
    lm, ln = l2 - i, l2 - j
    row = _hyp2f1_coeffs_cached(-lm, -ln, -l2, min(lm, ln))
    what = "symmetric 2F1 route's series 2F1(-(l-m), -(l-n); -2l; (bc - ad)/(bc))"
    series = old_refusing_overflow(what, _exact_series, *row, common[1])
    return old_binomial_sqrt("symmetric 2F1", l2, lm, ln), series


def old_hyp_symmetric_entry(l2, i, j, powers, shared):
    _, b_pow, c_pow, d_pow = powers
    pref, series = shared
    lm, ln, mn = l2 - i, l2 - j, i + j - l2
    return pref * b_pow[lm] * c_pow[ln] * d_pow[mn] * series


def old_jacobi_shared(l2, i, j, common):
    x, diff_pow = common
    lm, mn, mmn = l2 - i, i + j - l2, i - j
    what = "Jacobi route's polynomial P_(l-m)^(m+n, m-n)((bc + ad)/(bc - ad))"
    poly = old_refusing_overflow(what, _exact_series, *_jacobi_coeffs_cached(mn, mmn, lm), x)
    return old_ratio_sqrt(i, lm, j, l2 - j), diff_pow[lm], poly


def old_jacobi_entry(l2, i, j, powers, shared):
    _, _, c_pow, d_pow = powers
    pref, diff, poly = shared
    return pref * c_pow[i - j] * d_pow[i + j - l2] * diff * poly


OLD_FORMS = {
    "tmn_hyp": (_hyp_tables, old_hyp_shared, old_hyp_entry),
    "tmn_hyp_symmetric": (_hyp_tables, old_hyp_symmetric_shared, old_hyp_symmetric_entry),
    "tmn_jacobi": (_jacobi_tables, old_jacobi_shared, old_jacobi_entry),
}


def old_element_matrix(l, A, form):
    tables, shared, entry = form
    dim, l2 = l.twice + 1, l.twice
    powers, common = tables(A, l2)
    images = [(index_map, [powers[k] for k in order]) for index_map, order, _ in _IMAGES.values()]
    out = np.empty((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(max(0, l2 - i), i + 1):
            quadrant, places = shared(l2, i, j, common), {}
            for index_map, image in images:
                places[index_map(l2, i, j)] = image
            for place, image in places.items():
                out[place] = entry(l2, i, j, image, quadrant)
    return WignerMatrix(l, out)


def old_element_entry(l, m, n, A, form):
    tables, shared, entry = form
    check_spin_pair(l, m)
    check_spin_pair(l, n)
    which, i, j = _fold(l.twice, (l + m).as_int(), (l + n).as_int())
    powers, common = tables(A, l.twice)
    image = [powers[k] for k in _IMAGES[which][1]]
    return _finite(entry(l.twice, i, j, image, shared(l.twice, i, j, common)))


# The builders and per-entry forms above, by the name of the per-entry form.
OLD_BUILDERS = {
    "tmn_sum": old_sum_matrix,
    **{route: lambda l, A, form=form: old_element_matrix(l, A, form) for route, form in OLD_FORMS.items()},
}
OLD_ENTRIES = {
    "tmn_sum": old_sum_tmn,
    **{route: lambda l, m, n, A, form=form: old_element_entry(l, m, n, A, form) for route, form in OLD_FORMS.items()},
}


# -- comparison ----------------------------------------------------------------


def outcome(fn, *args):
    """What a call returns, as bytes or an exact repr, or the exception it raises."""
    try:
        value = fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    if isinstance(value, WignerMatrix):
        return value.entries.tobytes()
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return type(value), repr(value)


EULER = [
    (0.7, 1.2, 0.3),
    (0.0, 0.0, 0.0),
    (0.0, 2.0, 5.0),
    (math.pi / 2, 0.4, 2.9),
    (math.pi / 4, 0.0, 0.0),
    (0.3, 0.0, 0.0),
    (1.1, 5.5, 4.0),
]
ELEMENTS = {
    **{f"gl2_{i}": A for i, A in enumerate(sample_gl2(5, 3))},
    **{f"euler_{i}": from_euler(EulerAngles(*t)) for i, t in enumerate(EULER)},
    "b_zero": Mat2C(0.6 + 0.3j, 0j, -0.4 + 0.2j, 0.9 - 0.1j),
    "c_zero": Mat2C(0.6 + 0.3j, -0.4 + 0.2j, 0j, 0.9 - 0.1j),
    "diagonal": Mat2C(cmath.exp(0.4j), 0j, 0j, cmath.exp(-0.4j)),
    "anti_diagonal": Mat2C(0j, 1j, 1j, 0j),
    # bc = ad exactly: the Jacobi route's singular locus
    "bc_eq_ad_real": Mat2C(0.5 + 0j, 0.25 + 0j, 1 + 0j, 0.5 + 0j),
    "bc_eq_ad_complex": Mat2C(1 + 1j, 2 + 0j, 1j, 1 + 1j),
    "integer_entries": Mat2C(1, 2, 3, 4),
    "power_overflow": Mat2C(1e300 + 0j, 1e300 + 0j, 1e300 + 0j, 1e300 + 0j),
    "a_overflow": Mat2C(1e200 + 0j, 0.5 + 0j, 0.3j, 0.5 + 0j),
    "d_overflow": Mat2C(0.5 + 0j, 0.3j, 0.5 + 0j, 1e200 + 0j),
    # no power up to the square overflows, but ad + bc at l_x2 = 2 does
    "sum_overflow": Mat2C(1.2e154 + 0j, 1.2e154 + 0j, 1.2e154 + 0j, 1.2e154 + 0j),
    # (bc - ad)**12 overflows; the Jacobi form takes (bc - ad)**(l - m) only
    # up to l - m = l, so below l_x2 = 24 it never computes that power.
    "large_entries": Mat2C(1e14 + 0j, 2e13j, 3e13 + 0j, 1e14 - 1e13j),
}
THETAS = [
    0.0,
    5e-324,
    1e-300,
    1e-8,
    0.3,
    math.pi / 4,
    math.nextafter(math.pi / 4, 0.0),
    math.nextafter(math.pi / 4, 2.0),
    1.2,
    math.pi / 2 - 1e-9,
    math.pi / 2,
]
SPINS = range(13)


def old_element_folded(old):
    # The old element form at the quadrant entry and element that (m, n, A) fold onto.
    return lambda l, m, n, A: old(l, *old_fold_to_quadrant(l, m, n, A))


ELEMENT_ROUTES = {
    "tmn_sum": (tmn_sum, old_tmn_sum),
    "tmn_hyp": (tmn_hyp, old_element_folded(old_tmn_hyp)),
    "tmn_hyp_symmetric": (tmn_hyp_symmetric, old_element_folded(old_tmn_hyp_symmetric)),
    "tmn_jacobi": (tmn_jacobi, old_element_folded(old_tmn_jacobi)),
}
# The whole-matrix builder of each per-entry form, whose tables it reads.
MATRICES = {"tmn_sum": sum_matrix, "tmn_hyp": hyp_matrix, "tmn_hyp_symmetric": hyp_symmetric_matrix,
            "tmn_jacobi": jacobi_matrix}
BUILDERS = {
    route: lambda l, A, build=build: {ij: complex(v) for ij, v in np.ndenumerate(build(l, A).entries)}
    for route, build in MATRICES.items()
}
# Each per-entry form folds (m, n) onto the quadrant, as its stack builder does.
THETA_ROUTES = {
    "tmn_rodrigues": (tmn_rodrigues, lambda l, m, n, theta: old_folded(old_tmn_rodrigues, l, m, n, theta)),
    "tmn_krawtchouk": (tmn_krawtchouk, lambda l, m, n, theta: old_folded(old_tmn_krawtchouk, l, m, n, theta)),
}


def value_or_none(fn, *args):
    """What a call returns, or None where it raises."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError):
        return None


@pytest.mark.parametrize("route", sorted(ELEMENT_ROUTES))
@pytest.mark.parametrize("name", sorted(ELEMENTS))
def test_element_route_entries_bit_identical(route, name):
    new, old = ELEMENT_ROUTES[route]
    A = ELEMENTS[name]
    for l_x2 in SPINS:
        l = HalfInt(l_x2)
        builder_raises = value_or_none(BUILDERS[route], l, A) is None
        for m in spin_range(l):
            for n in spin_range(l):
                got, want = outcome(new, l, m, n, A), outcome(old, l, m, n, A)
                if got != want:
                    # Only a refusal may differ: where the old code returned
                    # inf or NaN, or where the builder raises.
                    old_value = value_or_none(old, l, m, n, A)
                    assert issubclass(got[0], Exception), (l_x2, m, n)
                    old_non_finite = old_value is not None and not cmath.isfinite(old_value)
                    assert builder_raises or old_non_finite, (l_x2, m, n)


@pytest.mark.parametrize("name", sorted(ELEMENTS))
def test_per_entry_forms_are_their_builders_entries(name):
    # Wherever a builder returns, its per-entry form returns that entry bit for
    # bit; wherever the builder's tables overflow, the per-entry form raises;
    # no per-entry form ever returns inf or NaN.
    A = ELEMENTS[name]
    for l_x2 in SPINS:
        l = HalfInt(l_x2)
        for route, (per_entry, _) in ELEMENT_ROUTES.items():
            got = {
                (i, j): value_or_none(per_entry, l, m, n, A)
                for i, m in enumerate(spin_range(l))
                for j, n in enumerate(spin_range(l))
            }
            assert all(v is None or cmath.isfinite(v) for v in got.values()), (route, l_x2)
            try:
                built = BUILDERS[route](l, A)
            except OverflowError:
                assert all(v is None for v in got.values()), (route, l_x2)
                continue
            except ValueError:
                continue
            assert {ij: repr(got[ij]) for ij in built} == {ij: repr(v) for ij, v in built.items()}, (route, l_x2)


@pytest.mark.parametrize("route", sorted(THETA_ROUTES))
def test_theta_route_entries_bit_identical(route):
    new, old = THETA_ROUTES[route]
    for theta in THETAS:
        for l_x2 in SPINS:
            l = HalfInt(l_x2)
            for m in spin_range(l):
                for n in spin_range(l):
                    assert outcome(new, l, m, n, theta) == outcome(old, l, m, n, theta), (theta, l_x2, m, n)


@pytest.mark.parametrize("route", sorted({**ELEMENT_ROUTES, **THETA_ROUTES}))
def test_invalid_spin_pairs_raise_as_before(route):
    new, old = {**ELEMENT_ROUTES, **THETA_ROUTES}[route]
    arg = 0.7 if route in THETA_ROUTES else ELEMENTS["gl2_0"]
    for l, m, n in [(2, 1, 0), (2, 0, 1), (2, 4, 0), (2, 0, -4), (3, 5, 1), (-1, 1, 1)]:
        args = (HalfInt(l), HalfInt(m), HalfInt(n), arg)
        assert outcome(new, *args) == outcome(old, *args)


@pytest.mark.parametrize("name", sorted(ELEMENTS))
def test_element_matrices_bit_identical(name):
    A = ELEMENTS[name]
    for l_x2 in SPINS:
        l = HalfInt(l_x2)
        assert outcome(sum_matrix, l, A) == outcome(old_dmat_by_route, l, A, None, "sum"), l_x2
        assert outcome(jacobi_matrix, l, A) == outcome(old_dmat_by_route, l, A, None, "jacobi"), l_x2
        # The 2F1 matrices, where they return, are the old 2F1 entries folded
        # onto the quadrant; where they raise, the per-entry test holds them.
        for route in ("tmn_hyp", "tmn_hyp_symmetric"):
            matrix = value_or_none(MATRICES[route], l, A)
            if matrix is not None:
                old = ELEMENT_ROUTES[route][1]
                want = [[old(l, m, n, A) for n in spin_range(l)] for m in spin_range(l)]
                assert matrix.entries.tobytes() == np.array(want, dtype=complex).tobytes(), (route, l_x2)


def image_arguments(tables, B):
    # The arguments of B that tables computes, as exact bytes, or the exception it raises.
    return outcome(lambda: repr(tables(B, 2)[1]))


@pytest.mark.parametrize("name", sorted(ELEMENTS))
def test_symmetry_images_share_the_jacobi_argument(name):
    # The element forms sum each quadrant series once for A and its three
    # images under SYMMETRIES: their bc and ad are the same complex products
    # with the factors swapped, which Python computes bit for bit alike, so
    # their Jacobi argument x, the powers of bc - ad and the 2F1 arguments
    # ad/(bc) and (bc - ad)/(bc) are the same exact values.
    for A in [ELEMENTS[name], *sample_gl2(11, 50)]:
        images = [A, *(element_map(A) for _, element_map in SYMMETRIES.values())]
        for tables in (_jacobi_tables, _hyp_tables):
            assert len({image_arguments(tables, B) for B in images}) == 1


@pytest.mark.parametrize("name", ["gl2_0", "euler_0", "euler_6", "integer_entries", "large_entries"])
def test_jacobi_matrix_is_the_folded_per_entry_form_up_to_l_x2_21(name):
    # Each element form's per-entry function folds (m, n) itself.
    A = ELEMENTS[name]
    for l_x2 in range(13, 22):
        l = HalfInt(l_x2)
        spins = spin_range(l)
        for route in ("tmn_hyp", "tmn_hyp_symmetric", "tmn_jacobi"):
            matrix = value_or_none(MATRICES[route], l, A)
            assert matrix is not None or route != "tmn_jacobi", l_x2
            if matrix is not None:
                per_entry = [[ELEMENT_ROUTES[route][0](l, m, n, A) for n in spins] for m in spins]
                assert matrix.entries.tobytes() == np.array(per_entry, dtype=complex).tobytes(), (route, l_x2)


# An element of GL(2, C) off the chart (|a| != |d|), at which all three
# element forms return up to l_x2 60.
OFF_CHART = Mat2C(0.8 + 0.3j, 0.5 - 0.2j, -0.4 + 0.1j, 0.9 - 0.6j)


@pytest.mark.parametrize("l_x2", [41, 60])
def test_element_matrices_are_their_per_entry_forms_above_l_x2_40(l_x2):
    l = HalfInt(l_x2)
    spins = spin_range(l)
    for route in ("tmn_hyp", "tmn_hyp_symmetric", "tmn_jacobi"):
        matrix = MATRICES[route](l, OFF_CHART)
        per_entry = [repr(ELEMENT_ROUTES[route][0](l, m, n, OFF_CHART)) for m in spins for n in spins]
        assert [repr(complex(v)) for v in matrix.entries.ravel()] == per_entry, (route, l_x2)


def test_theta_stacks_bit_identical():
    for l_x2 in SPINS:
        l = HalfInt(l_x2)
        for stack, route in ((rodrigues_stack, "rodrigues"), (krawtchouk_stack, "krawtchouk")):
            for theta in THETAS:
                old = outcome(old_dmat_by_route, l, None, theta, route)
                new = outcome(stack, l, [theta])
                if isinstance(old, tuple):
                    assert new == old, (route, l_x2, theta)
                else:
                    assert new[0] == "<f8" and new[1] == (1, l_x2 + 1, l_x2 + 1)
                    assert WignerMatrix(l, stack(l, [theta])[0]).entries.tobytes() == old
            # A stack of several angles is the stack of its angles one at a time.
            inside = [t for t in THETAS if 0 < t < math.pi / 2 and t > 1e-100]
            together = stack(l, inside)
            for theta, layer in zip(inside, together):
                assert layer.tobytes() == stack(l, [theta])[0].tobytes()


def test_rodrigues_stack_bit_identical_up_to_l_x2_40():
    # Each column's product is expanded once; the copy expands it per entry.
    thetas = [0.05, math.pi / 4, 1.2]
    for l_x2 in (17, 28, 40):
        l = HalfInt(l_x2)
        spins = spin_range(l)
        old = [[old_folded(old_tmn_rodrigues, l, m, n, theta) for n in spins] for theta in thetas for m in spins]
        assert rodrigues_stack(l, thetas).tobytes() == np.array(old).tobytes(), l_x2


FOLD_THETAS = [0.2, 0.7, 1.3]


@pytest.mark.parametrize("l_x2", range(41))
def test_chart_stacks_fold_the_quadrant(l_x2):
    # jacobi_stack is the old one bit for bit.  The Rodrigues and Krawtchouk
    # stacks hold the old entries on the quadrant bit for bit, and every other
    # entry is its folded entry times d(theta)'s sign there (old_folded).  The
    # per-entry forms return their stack's entries bit for bit; they are called
    # at one of the thetas per spin, each theta in turn.
    l = HalfInt(l_x2)
    spins = spin_range(l)
    assert jacobi_stack(l, FOLD_THETAS).tobytes() == old_jacobi_stack(l, FOLD_THETAS).tobytes()
    k = l_x2 % len(FOLD_THETAS)
    for stack, per_entry, old in (
        (rodrigues_stack, tmn_rodrigues, old_tmn_rodrigues),
        (krawtchouk_stack, tmn_krawtchouk, old_tmn_krawtchouk),
    ):
        got = stack(l, FOLD_THETAS)
        quadrant = {
            (m, n, theta): old(l, m, n, theta)
            for m in spins
            for n in spins
            if old_quadrant_symmetry(m, n) is None
            for theta in FOLD_THETAS
        }
        folded = [
            [[old_folded(lambda l, *key: quadrant[key], l, m, n, t) for n in spins] for m in spins] for t in FOLD_THETAS
        ]
        assert got.tobytes() == np.array(folded).tobytes()
        entries = [[per_entry(l, m, n, FOLD_THETAS[k]) for n in spins] for m in spins]
        assert got[k].tobytes() == np.array(entries).tobytes()


def unfolded_by_the_fold(stack):
    # The stack rebuilt from its quadrant by _fold: each entry is the quadrant
    # entry (i', j') that it folds onto, times (-1)^(i' - j') where the fold is
    # transpose-bc or flip-signs (d(theta)'s sign there).
    l2 = stack.shape[1] - 1
    want = np.empty_like(stack)
    for i in range(l2 + 1):
        for j in range(l2 + 1):
            which, i2, j2 = _fold(l2, i, j)
            assert i2 + j2 >= l2 and i2 >= j2
            sign = -1.0 if which in ("transpose-bc", "flip-signs") and (i2 - j2) % 2 else 1.0
            want[:, i, j] = sign * stack[:, i2, j2]
    return want


@pytest.mark.parametrize("l_x2", [*range(61), 199, 200, 201])
def test_recurrence_stack_unfolds_by_the_fold(l_x2):
    got = recurrence_stack(HalfInt(l_x2), FOLD_THETAS)
    assert got.tobytes() == unfolded_by_the_fold(got).tobytes()


@pytest.mark.parametrize("l_x2", range(41, 61))
def test_chart_stacks_unfold_by_the_fold_above_l_x2_40(l_x2):
    for stack in (jacobi_stack, rodrigues_stack, krawtchouk_stack):
        got = stack(HalfInt(l_x2), [0.7])
        assert got.tobytes() == unfolded_by_the_fold(got).tobytes(), stack.__name__


def test_theta_stacks_of_no_angle_are_empty():
    assert rodrigues_stack(HalfInt(2), []).shape == (0, 3, 3)
    assert krawtchouk_stack(HalfInt(2), []).shape == (0, 3, 3)
    assert jacobi_stack(HalfInt(2), []).shape == (0, 3, 3)
    assert recurrence_stack(HalfInt(2), []).shape == (0, 3, 3)


@pytest.mark.parametrize("euler", EULER + [(1e-300, 0.5, 0.5), (math.pi / 2 - 1e-9, 6.2, 0.1)])
def test_dmatrix_euler_bit_identical(euler):
    # dmatrix_euler multiplies one phase per entry into the real zero-phase
    # matrix, where the copy took each entry's phase inside its closed form;
    # the order of the products moves the last bits, by at most
    # 8 (l_x2 + 1) eps max|old|.
    angles = EulerAngles(*euler)
    eps = np.finfo(float).eps
    for l_x2 in SPINS:
        l = HalfInt(l_x2)
        new, old = dmatrix_euler(l, angles).entries, old_dmatrix_euler(l, angles).entries
        assert np.max(np.abs(new - old)) <= 8 * (l_x2 + 1) * eps * np.max(np.abs(old)), l_x2


@pytest.mark.parametrize("route", ["sum", "jacobi", "rodrigues", "krawtchouk"])
def test_dmat_route_path_bit_identical(route):
    elements = ELEMENTS.items() if route in ("sum", "jacobi") else []
    cases = [(A, None) for _, A in elements] + [
        (from_euler(EulerAngles(theta, 0.0, 0.0)), EulerAngles(theta, 0.0, 0.0)) for theta in THETAS
    ]
    for l_x2 in (0, 1, 2, 5, 8):
        l = HalfInt(l_x2)
        for A, angles in cases:
            theta = None if angles is None else angles.theta
            assert outcome(lambda *args: cli._dmat_by_route(*args)[1], l, A, angles, route) == outcome(
                old_dmat_by_route, l, A, theta, route
            ), (route, l_x2, A, angles)


def test_symmetries_and_fold_unchanged():
    A = ELEMENTS["gl2_1"]
    for l_x2 in range(7):
        l = HalfInt(l_x2)
        for m in spin_range(l):
            for n in spin_range(l):
                which, i2, j2 = _fold(l.twice, (l + m).as_int(), (l + n).as_int())
                folded = (m, n, A) if which is None else apply_symmetry(which, l, m, n, A)
                assert folded == old_fold_to_quadrant(l, m, n, A)
                assert ((l + folded[0]).as_int(), (l + folded[1]).as_int()) == (i2, j2)
                for which in ("transpose-bc", "flip-signs", "anti-transpose", "mirror"):
                    assert outcome(apply_symmetry, which, l, m, n, A) == outcome(
                        old_apply_symmetry, which, l, m, n, A
                    )


def test_negative_spin_matrices_raise():
    for fn, arg in ((sum_matrix, ELEMENTS["gl2_0"]), (hyp_matrix, ELEMENTS["gl2_0"]),
                    (hyp_symmetric_matrix, ELEMENTS["gl2_0"]), (jacobi_matrix, ELEMENTS["gl2_0"]),
                    (rodrigues_stack, [0.7]), (krawtchouk_stack, [0.7]), (jacobi_stack, [0.7])):
        with pytest.raises(ValueError, match="negative spin"):
            fn(HalfInt(-1), arg)


def test_routes_suite_builds_no_halfint_per_entry(monkeypatch):
    # Only the spin labels themselves (spins_up_to) are HalfInt objects.
    built = []
    post_init = HalfInt.__post_init__

    def counting(self):
        built.append(self.twice)
        post_init(self)

    monkeypatch.setattr(HalfInt, "__post_init__", counting)
    max_l = HalfInt(6)
    built.clear()
    suite_routes(max_l, 0)
    assert sorted(built) == list(range(7))


# Draws of both kinds and the edges of the element forms' domains.
PLAN_ELEMENTS = {
    **{f"haar_{k}": A for k, A in enumerate(sample_haar(21, 2))},
    **{f"gl2_{k}": A for k, A in enumerate(sample_gl2(22, 2))},
    **{name: ELEMENTS[name] for name in ("b_zero", "c_zero", "bc_eq_ad_complex")},
}


@pytest.mark.parametrize("name", sorted(PLAN_ELEMENTS))
def test_planned_builders_are_the_unplanned_ones(name):
    A = PLAN_ELEMENTS[name]
    for l_x2 in SPINS:
        l = HalfInt(l_x2)
        for route, old in OLD_BUILDERS.items():
            assert outcome(MATRICES[route], l, A) == outcome(old, l, A), (route, l_x2)


@pytest.mark.parametrize("name", ["haar_0", "gl2_0", "b_zero", "bc_eq_ad_complex"])
def test_planned_entries_are_the_unplanned_ones(name):
    A = PLAN_ELEMENTS[name]
    for l_x2 in SPINS:
        l = HalfInt(l_x2)
        spins = spin_range(l)
        for route, old in OLD_ENTRIES.items():
            new = ELEMENT_ROUTES[route][0]
            got = [outcome(new, l, m, n, A) for m in spins for n in spins]
            assert got == [outcome(old, l, m, n, A) for m in spins for n in spins], (route, l_x2)


# Entries that are exact binary fractions, so that the 2F1 series at l_x2 98
# and 99 are summed in small integers.
BINARY = Mat2C(0.5 + 0.5j, 1 + 0j, 0.5j, 1 + 0j)
# ad/(bc) = 1e300: every 2F1 series of degree 2 and up overflows, from the first quadrant entry on.
TINY_BC = Mat2C(1 + 0j, 1e-150 + 0j, 1e-150 + 0j, 1 + 0j)
# (bc + ad)/(bc - ad) = 1 - 2e300 i: every Jacobi polynomial of degree 2 and up overflows.
NEAR_BC_EQ_AD = Mat2C(1 + 0j, 1 + 0j, 1 + 1e-300j, 1 + 0j)


@pytest.mark.parametrize(
    "route, l_x2, A, refusal",
    [
        ("tmn_hyp", 98, BINARY, None),
        ("tmn_hyp", 99, BINARY, "2F1 route's prefactor sqrt((l+m)! (l+n)! / ((l-m)! (l-n)!)) overflows"),
        ("tmn_hyp", 99, TINY_BC, "2F1 route's series 2F1(-(l-m), -(l-n); m+n+1; ad/(bc)) overflows"),
        ("tmn_hyp_symmetric", 4, TINY_BC,
         "symmetric 2F1 route's series 2F1(-(l-m), -(l-n); -2l; (bc - ad)/(bc)) overflows"),
        ("tmn_jacobi", 4, NEAR_BC_EQ_AD, "Jacobi route's polynomial P_(l-m)^(m+n, m-n)((bc + ad)/(bc - ad)) overflows"),
    ],
)
def test_planned_refusals_are_the_unplanned_ones(route, l_x2, A, refusal):
    # The 2F1 prefactor overflows from l_x2 99, at (i, j) = (99, 98), and the
    # planned builder refuses it there; at TINY_BC the series of the first
    # quadrant entry overflows first, and that is the refusal.
    l = HalfInt(l_x2)
    got = outcome(MATRICES[route], l, A)
    assert got == outcome(OLD_BUILDERS[route], l, A)
    if refusal is None:
        assert isinstance(got, bytes)
    else:
        assert got == (RouteUnavailableError, refusal)


def test_an_entry_whose_2f1_prefactor_and_series_both_overflow_is_refused_for_its_prefactor():
    # (i, j) = (110, 105) at l_x2 120: the prefactor overflows, and so does the
    # series of degree 10 in ad/(bc) = 1e300; the prefactor is refused first.
    l, m, n = HalfInt(120), HalfInt(100), HalfInt(90)
    got = outcome(tmn_hyp, l, m, n, TINY_BC)
    assert got == outcome(OLD_ENTRIES["tmn_hyp"], l, m, n, TINY_BC)
    assert got == (RouteUnavailableError, "2F1 route's prefactor sqrt((l+m)! (l+n)! / ((l-m)! (l-n)!)) overflows")
