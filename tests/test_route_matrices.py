"""The closed-form routes built a whole matrix at a time, held bit for bit to
the entry-by-entry evaluation they replaced.

The reference functions below are copies of the earlier implementation, in
which every matrix element redid its own powers, factorials, trigonometric
values and half-integer index arithmetic.  The whole-matrix functions, the
per-entry functions and the `dmat` route path must return the same bytes
(the same exception type and message where the old code raised) at every
spin up to l = 6, on group elements from every source the package uses and
on the edges of each route's domain.
"""
import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from wignerkit import cli
from wignerkit.exactcomb import HalfInt, binomial, check_spin_pair, factorial, spin_range, sqrt_binom_ratio
from wignerkit.group import EulerAngles, Mat2C, from_euler
from wignerkit.specfun import (
    JacobiParams,
    _binom_power_coeffs,
    _exact_series,
    _poly_derivative,
    _poly_mul,
    hyp2f1_complex,
    jacobi_complex,
    jacobi_eval,
    krawtchouk,
)
from wignerkit.verify import sample_gl2, suite_routes
from wignerkit.wigner import (
    RouteUnavailableError,
    WignerMatrix,
    apply_symmetry,
    dmatrix_euler,
    fold_to_quadrant,
    jacobi_matrix,
    krawtchouk_stack,
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
    return sqrt_binom_ratio(l, m, n) * acc


def old_factorial_ratio_sqrt(p, q, r, s):
    return math.sqrt(Fraction(factorial(p) * factorial(q), factorial(r) * factorial(s)))


def old_check_hyp_domain(l, m, n, A):
    check_spin_pair(l, m)
    check_spin_pair(l, n)
    if (m + n).twice < 0:
        raise RouteUnavailableError("2F1 route needs m + n >= 0")
    if A.b == 0 or A.c == 0:
        raise RouteUnavailableError("2F1 route needs b != 0 and c != 0")


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


def old_tmn_krawtchouk(l, m, n, theta):
    check_spin_pair(l, m)
    check_spin_pair(l, n)
    if l.twice == 0:
        return 1.0
    sin_t = math.sin(theta)
    cos_t = math.cos(theta)
    p = (1 + old_cos2_exact(theta, sin_t, cos_t)) / 2
    if p == 0 or theta >= math.pi / 2:
        raise RouteUnavailableError("Krawtchouk route needs cos(theta) != 0")
    mn = (m + n).as_int()
    if mn < 0 and (sin_t == 0.0 or theta <= 0.0):
        raise RouteUnavailableError("negative sin power: Krawtchouk route needs theta > 0 when m + n < 0")
    lm = (l - m).as_int()
    ln = (l - n).as_int()
    pref = math.sqrt(binomial(l.twice, lm) * binomial(l.twice, ln))
    sign = -1.0 if lm % 2 else 1.0
    return sign * pref * cos_t ** (lm + ln) * sin_t**mn * krawtchouk(lm, float(ln), p, l.twice)


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


def old_dmat_by_route(l, A, theta, route):
    entry = {
        "sum": lambda m, n: old_tmn_sum(l, m, n, A),
        "jacobi": lambda m, n: old_tmn_jacobi(l, *old_fold_to_quadrant(l, m, n, A)),
        "rodrigues": lambda m, n: old_tmn_rodrigues(l, m, n, theta),
        "krawtchouk": lambda m, n: old_tmn_krawtchouk(l, m, n, theta),
    }[route]
    spins = spin_range(l)
    return WignerMatrix(l, np.array([[entry(m, n) for n in spins] for m in spins], dtype=complex))


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
ELEMENT_ROUTES = {
    "tmn_sum": (tmn_sum, old_tmn_sum),
    "tmn_hyp": (tmn_hyp, old_tmn_hyp),
    "tmn_hyp_symmetric": (tmn_hyp_symmetric, old_tmn_hyp_symmetric),
    "tmn_jacobi": (tmn_jacobi, old_tmn_jacobi),
}
THETA_ROUTES = {
    "tmn_rodrigues": (tmn_rodrigues, old_tmn_rodrigues),
    "tmn_krawtchouk": (tmn_krawtchouk, old_tmn_krawtchouk),
}


@pytest.mark.parametrize("route", sorted(ELEMENT_ROUTES))
@pytest.mark.parametrize("name", sorted(ELEMENTS))
def test_element_route_entries_bit_identical(route, name):
    new, old = ELEMENT_ROUTES[route]
    A = ELEMENTS[name]
    for l_x2 in SPINS:
        l = HalfInt(l_x2)
        for m in spin_range(l):
            for n in spin_range(l):
                assert outcome(new, l, m, n, A) == outcome(old, l, m, n, A), (l_x2, m, n)


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


def test_theta_stacks_of_no_angle_are_empty():
    assert rodrigues_stack(HalfInt(2), []).shape == (0, 3, 3)
    assert krawtchouk_stack(HalfInt(2), []).shape == (0, 3, 3)


@pytest.mark.parametrize("euler", EULER + [(1e-300, 0.5, 0.5), (math.pi / 2 - 1e-9, 6.2, 0.1)])
def test_dmatrix_euler_bit_identical(euler):
    angles = EulerAngles(*euler)
    for l_x2 in SPINS:
        l = HalfInt(l_x2)
        assert outcome(dmatrix_euler, l, angles) == outcome(old_dmatrix_euler, l, angles), l_x2


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
            assert outcome(cli._dmat_by_route, l, A, angles, route) == outcome(
                old_dmat_by_route, l, A, theta, route
            ), (route, l_x2, A, angles)


def test_symmetries_and_fold_unchanged():
    A = ELEMENTS["gl2_1"]
    for l_x2 in range(7):
        l = HalfInt(l_x2)
        for m in spin_range(l):
            for n in spin_range(l):
                assert fold_to_quadrant(l, m, n, A) == old_fold_to_quadrant(l, m, n, A)
                for which in ("transpose-bc", "flip-signs", "anti-transpose", "mirror"):
                    assert outcome(apply_symmetry, which, l, m, n, A) == outcome(
                        old_apply_symmetry, which, l, m, n, A
                    )


def test_negative_spin_matrices_raise():
    for fn, arg in ((sum_matrix, ELEMENTS["gl2_0"]), (jacobi_matrix, ELEMENTS["gl2_0"]),
                    (rodrigues_stack, [0.7]), (krawtchouk_stack, [0.7])):
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
