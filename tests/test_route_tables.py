"""The route tables in wignerkit.wigner and everything that dispatches from
them: `dmat --route`, the routes suite, and the element matrices
`hyp_matrix`, `hyp_symmetric_matrix` and `jacobi_matrix`, held to the
per-entry `tmn_*` functions."""
import argparse
import ast
import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from wignerkit import cli, specfun, verify, wigner
from wignerkit.exactcomb import HalfInt
from wignerkit.group import EulerAngles, Mat2C, from_euler
from wignerkit.verify import sample_gl2, suite_routes
from wignerkit.wigner import (
    ELEMENT_ROUTES,
    ROTATION_ROUTES,
    RouteUnavailableError,
    WignerMatrix,
    chart_phases,
    dmatrix_euler,
    hyp_matrix,
    hyp_symmetric_matrix,
    jacobi_matrix,
    jacobi_stack,
    krawtchouk_stack,
    oracle_matrix,
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

EULER = [(0.7, 1.2, 0.3), (0.0, 0.5, 2.0), (math.pi / 4, 3.0, 5.5), (math.pi / 2, 0.0, 0.0)]
ELEMENTS = {
    **{f"gl2_{k}": A for k, A in enumerate(sample_gl2(7, 4))},
    **{f"euler_{k}": from_euler(EulerAngles(*angles)) for k, angles in enumerate(EULER)},
    "b_zero": Mat2C(0.5 + 0.1j, 0j, 0.3 - 0.2j, 0.8 + 0j),
    "c_zero": Mat2C(0.5 + 0.1j, 0.4 + 0.4j, 0j, 0.8 + 0j),
    "bc_eq_ad": Mat2C(1 + 0j, 1 + 0j, 1 + 0j, 1 + 0j),
    "bc_eq_ad_complex": Mat2C(1j, 2 + 0j, 0.5j, 1 + 0j),
    # b and c are nonzero, but b * c rounds to 0
    "bc_underflows": Mat2C(1 + 0j, 1e-200 + 0j, 1e-200 + 0j, 1 + 0j),
    # b * c is subnormal but not 0, and ad/(bc) overflows
    "ad_over_bc_overflows": Mat2C(1 + 0j, 1e-160 + 0j, 1e-160 + 0j, 1 + 0j),
    # b * c overflows, so ad/(bc) is inf/inf
    "power_overflow": Mat2C(1e300 + 0j, 1e300 + 0j, 1e300 + 0j, 1e300 + 0j),
    # b * c overflows and a * d does not, so (bc + ad)/(bc - ad) is inf/inf
    "bc_overflows": Mat2C(0.5 + 0j, 1e200 + 0j, 1e200 + 0j, 0.5 + 0j),
    # from l_x2 = 4 the 2F1 series in ad/(bc) overflows, and a^2 overflows
    "a_overflow": Mat2C(1e200 + 0j, 0.5 + 0j, 0.3j, 0.5 + 0j),
    # from l_x2 = 2 a power of d overflows
    "d_overflow": Mat2C(0.5 + 0j, 0.3j, 0.5 + 0j, 1e200 + 0j),
}
SPINS = range(9)


def outcome(fn, *args):
    """What a call returns, as bytes, or the exception it raises."""
    try:
        value = fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    if isinstance(value, WignerMatrix):
        value = value.entries
    return value.dtype.str, value.shape, value.tobytes()


# -- dmat --route ----------------------------------------------------------------

def on_chart(stack):
    # chart_phases times the stack builder's d(theta), at one Euler source
    return lambda l, A, angles: WignerMatrix(l, chart_phases(l, [angles])[0] * stack(l, [angles.theta])[0])


# Each --route value and the function it must come down to, at a matrix source
# (angles None) or an Euler source; an Euler source takes the chart form.
DIRECT = {
    "oracle": lambda l, A, angles: oracle_matrix(l, A),
    "sum": lambda l, A, angles: sum_matrix(l, A),
    "jacobi": lambda l, A, angles: jacobi_matrix(l, A) if angles is None else dmatrix_euler(l, angles),
    "rodrigues": on_chart(rodrigues_stack),
    "krawtchouk": on_chart(krawtchouk_stack),
    "recurrence": on_chart(recurrence_stack),
    # the recurrence for an Euler source, the oracle for a matrix source
    "auto": lambda l, A, angles: oracle_matrix(l, A) if angles is None else on_chart(recurrence_stack)(l, A, angles),
}


def choices(command: str, option: str) -> tuple:
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return tuple(next(a for a in commands.choices[command]._actions if option in a.option_strings).choices)


def test_choices_are_the_table_keys_in_order():
    assert choices("dmat", "--route") == cli.ROUTES == (*{**ELEMENT_ROUTES, **ROTATION_ROUTES}, "auto")
    assert cli.ROUTES == ("oracle", "sum", "jacobi", "rodrigues", "krawtchouk", "recurrence", "auto")
    assert choices("poly", "--family") == tuple(cli._FAMILIES) == ("jacobi", "krawtchouk", "legendre")


@pytest.mark.parametrize("route", cli.ROUTES)
def test_dmat_by_route_is_the_route_function(route):
    cases = [(EulerAngles(theta, 0.0, 0.0), None) for theta in (0.0, 0.3, math.pi / 4, 1.2, math.pi / 2)]
    cases += [(EulerAngles(*angles), None) for angles in EULER]
    if route in (*ELEMENT_ROUTES, "auto"):
        cases += [(None, A) for A in ELEMENTS.values()]
    # auto takes one route per kind of source at every spin
    for l_x2 in [*range(7), *([40, 41] if route == "auto" else [])]:
        l = HalfInt(l_x2)
        for angles, A in cases:
            name = {"auto": "oracle" if angles is None else "recurrence"}.get(route, route)
            A = from_euler(angles) if A is None else A

            def by_route(*args):
                # dmat resolves auto once (_dmat_by_route) and names the route that served
                served, M = cli._dmat_by_route(*args)
                assert served == name
                return M

            assert outcome(by_route, l, A, angles, route) == outcome(DIRECT[route], l, A, angles), (route, l_x2, A)


CHART_EULER = [(0.7, 1.2, 0.3), (0.05, 4.0, 2.5), (1.5, 0.2, 5.9)]


@pytest.mark.parametrize("angles", CHART_EULER)
def test_dmat_jacobi_on_an_euler_source_prints_the_chart_form(angles, capsys):
    argv = ["--theta", str(angles[0]), "--phi", str(angles[1]), "--psi", str(angles[2]), "--route", "jacobi"]
    assert cli.main(["dmat", "--l-x2", "9", *argv]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    pairs = np.array(result["matrix"])
    assert result["route_used"] == "jacobi"
    assert np.array_equal(pairs[..., 0] + 1j * pairs[..., 1], dmatrix_euler(HalfInt(9), EulerAngles(*angles)).entries)


def test_the_jacobi_chart_form_is_unitary_at_l_x2_200():
    # The element form sums a float power series in (bc + ad)/(bc - ad); at
    # l_x2 200 its unitarity residual was 4.3e69 at the first of these angles.
    for T in ROTATION_ROUTES["jacobi"](HalfInt(200), [EulerAngles(*angles) for angles in CHART_EULER]):
        assert np.max(np.abs(T @ T.conj().T - np.eye(201))) < 1e-13


# chart_phases takes one exponential per mirrored pair of entries; these are
# the spins and angles it is held to the exponential of every entry at.
PHASE_SPINS = [*range(42), 145, 200, 201, 400]


def phase_angles() -> list:
    # phi = psi = 0 (every argument 0), phi = psi, a phase of pi on either
    # side and on both, and the 20 Euler triples of the routes suite at seed 0.
    fixed = [(0.7, 0.0, 0.0), (0.7, 1.2, 1.2), (0.7, math.pi, 0.3), (0.7, 0.3, math.pi), (0.7, math.pi, math.pi)]
    return [*(EulerAngles(*angles) for angles in fixed), *verify.routes_triples(0)]


def direct_phases(l_x2: int, angles) -> np.ndarray:
    # The reference: one exponential per entry, no mirror.
    i, j = np.indices((l_x2 + 1, l_x2 + 1))
    psi, phi = (np.reshape([getattr(a, name) for a in angles], (-1, 1, 1)) for name in ("psi", "phi"))
    return np.exp(1j * ((i - j) * psi - (i + j - l_x2) * phi))


def test_chart_phases_equal_one_exponential_per_entry_bit_for_bit():
    # The mirrored half reads conj(exp(1j * x)) for exp(1j * -x), which holds
    # where the complex exponential's sine is odd bit for bit; a platform
    # where it is not fails here.
    angles = phase_angles()
    for l_x2 in PHASE_SPINS:
        got = chart_phases(HalfInt(l_x2), angles)
        assert got.shape == (len(angles), l_x2 + 1, l_x2 + 1)
        for k, angle in enumerate(angles):  # one angle at a time, to keep the memory small
            assert got[k].tobytes() == direct_phases(l_x2, [angle]).tobytes(), (l_x2, angle)


@pytest.mark.parametrize("route", [r for r in cli.ROUTES if r not in ("oracle", "auto")])
def test_every_closed_route_has_a_check_in_the_routes_report(route):
    # one check per route table that holds the route
    checks = [chk for chk in suite_routes(HalfInt(1), 0)["checks"] if route in chk["check"]]
    assert len(checks) == (route in ELEMENT_ROUTES) + (route in ROTATION_ROUTES)
    assert all(chk["check"].endswith("-vs-oracle") and chk["count"] > 0 for chk in checks)


def test_verify_imports_no_private_name():
    tree = ast.parse(Path(verify.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert "hyp_matrices_by_spin" in imported
    assert [name for name in imported if name.startswith("_")] == []


# -- hyp_matrix, hyp_symmetric_matrix and jacobi_matrix ----------------------------

# Each element matrix and its per-entry function, which serves every (m, n).
ENTRY_ROUTES = {
    "hyp": (hyp_matrix, tmn_hyp),
    "hyp-symmetric": (hyp_symmetric_matrix, tmn_hyp_symmetric),
    "jacobi": (jacobi_matrix, tmn_jacobi),
}


def entries_outcome(fn, l, A):
    # The matrix's entries in row-major order, keyed by (row, column).
    try:
        return [(ij, complex(v)) for ij, v in np.ndenumerate(fn(l, A).entries)]
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def per_entry_outcome(fn, l, A):
    cells = np.ndindex(l.twice + 1, l.twice + 1)
    try:
        return [((i, j), fn(l, HalfInt(2 * i - l.twice), HalfInt(2 * j - l.twice), A)) for i, j in cells]
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("route", sorted(ENTRY_ROUTES))
@pytest.mark.parametrize("name", sorted(ELEMENTS))
def test_entries_equal_the_per_entry_route(route, name):
    entries, per_entry = ENTRY_ROUTES[route]
    A = ELEMENTS[name]
    for l_x2 in SPINS:
        l = HalfInt(l_x2)
        got = entries_outcome(entries, l, A)
        want = per_entry_outcome(per_entry, l, A)
        # by repr, so that the sign of a zero counts and NaN equals NaN
        assert repr(got) == repr(want), (route, name, l_x2)


BC_UNDERFLOWS = "2F1 route needs b * c != 0; it underflows to 0"
Z_OVERFLOWS = "2F1 route needs ad/(bc) finite; it overflows"


@pytest.mark.parametrize(
    "route, name, message",
    [
        ("hyp", "b_zero", "2F1 route needs b != 0 and c != 0"),
        ("hyp", "c_zero", "2F1 route needs b != 0 and c != 0"),
        ("hyp", "bc_underflows", BC_UNDERFLOWS),
        ("hyp", "ad_over_bc_overflows", Z_OVERFLOWS),
        ("hyp", "power_overflow", Z_OVERFLOWS),
        ("hyp-symmetric", "b_zero", "2F1 route needs b != 0 and c != 0"),
        ("hyp-symmetric", "bc_underflows", BC_UNDERFLOWS),
        ("hyp-symmetric", "ad_over_bc_overflows", Z_OVERFLOWS),
        ("jacobi", "bc_eq_ad", "Jacobi route needs bc != ad"),
        ("jacobi", "bc_eq_ad_complex", "Jacobi route needs bc != ad"),
        # refused at every spin, where a float sum of degree 0 used to return
        ("jacobi", "bc_overflows", "Jacobi route needs (bc + ad)/(bc - ad) finite; it overflows"),
    ],
)
def test_entries_refuse_the_singular_set(route, name, message):
    entries, per_entry = ENTRY_ROUTES[route]
    A = ELEMENTS[name]
    for l_x2 in SPINS:
        l = HalfInt(l_x2)
        assert entries_outcome(entries, l, A) == (RouteUnavailableError, message)
        assert per_entry_outcome(per_entry, l, A) == (RouteUnavailableError, message)


def assert_2f1_forms_refuse(name, message):
    A = ELEMENTS[name]
    for l_x2 in range(1, 5):
        l = HalfInt(l_x2)
        assert np.all(np.isfinite(oracle_matrix(l, A).entries))
        for fn in (tmn_hyp, tmn_hyp_symmetric):
            with pytest.raises(RouteUnavailableError) as info:
                fn(l, HalfInt(l_x2), HalfInt(0 if l_x2 % 2 == 0 else 1), A)
            assert str(info.value) == message


def test_2f1_forms_refuse_an_underflowing_bc():
    # The oracle is finite there; the 2F1 forms used to divide by b * c = 0.
    assert_2f1_forms_refuse("bc_underflows", BC_UNDERFLOWS)
    # b * c that is subnormal but not zero is still accepted
    assert hyp_matrix(HalfInt(2), Mat2C(1 + 0j, 1e-160 + 0j, 1e-160 + 0j, 1e-300 + 0j)).entries.shape == (3, 3)


def test_2f1_forms_refuse_an_overflowing_ad_over_bc():
    # The oracle is finite there; the 2F1 forms used to sum a series in an
    # infinite ad/(bc) into NaN.
    assert_2f1_forms_refuse("ad_over_bc_overflows", Z_OVERFLOWS)


PREFACTOR_OVERFLOWS = "2F1 route's prefactor sqrt((l+m)! (l+n)! / ((l-m)! (l-n)!)) overflows"


def test_2f1_route_refuses_an_overflowing_prefactor():
    # At m = n = l the prefactor is (2l)!, a float up to l_x2 = 98 and past
    # the largest float at 99; it used to raise a bare OverflowError.
    A = from_euler(EulerAngles(0.7, 1.2, 0.3))
    corner = HalfInt(98), HalfInt(98), HalfInt(98)
    assert hyp_matrix(HalfInt(98), A).entries.shape == (99, 99)
    assert np.isfinite(tmn_hyp(*corner, A))
    for call in (lambda: hyp_matrix(HalfInt(99), A), lambda: tmn_hyp(HalfInt(99), HalfInt(99), HalfInt(99), A)):
        with pytest.raises(RouteUnavailableError) as info:
            call()
        assert str(info.value) == PREFACTOR_OVERFLOWS


def test_binomial_prefactor_overflow_is_refused():
    # sqrt(C(2l, l-m) C(2l, l-n)) is largest at the centre: the product of the
    # binomials is a float up to l_x2 = 516 and past the largest float at 517,
    # where the symmetric 2F1 form used to raise a bare OverflowError.  Only
    # per-entry calls: hyp_symmetric_matrix sums 67,081 exact series at 516.
    A = from_euler(EulerAngles(0.7, 1.2, 0.3))
    assert np.isfinite(tmn_hyp_symmetric(HalfInt(516), HalfInt(0), HalfInt(0), A))
    assert np.isfinite(tmn_krawtchouk(HalfInt(516), HalfInt(0), HalfInt(0), 0.7))
    centre = HalfInt(517), HalfInt(1), HalfInt(1)
    for route, call in (
        ("symmetric 2F1", lambda: tmn_hyp_symmetric(*centre, A)),
        ("Krawtchouk", lambda: tmn_krawtchouk(*centre, 0.7)),
    ):
        with pytest.raises(RouteUnavailableError) as info:
            call()
        assert str(info.value) == f"{route} route's prefactor sqrt(C(2l, l-m) C(2l, l-n)) overflows"


SUM_MONOMIAL = "a^k b^(l-m-k) c^(l-n-k) d^(m+n+k)"


@pytest.mark.parametrize(
    "tmn, m_x2, n_x2, refusal",
    [
        # sqrt(1040! / (520! 520!)): the ratio overflows before the root
        (tmn_jacobi, 1040, 0, "Jacobi route's prefactor sqrt((l+m)! (l-m)! / ((l+n)! (l-n)!)) overflows"),
        (tmn_sum, 1040, 0, "finite sum route's prefactor sqrt(C(2l, l-n) / C(2l, l-m)) overflows"),
        # C(0, 0) C(1040, 520) does not convert to a float
        (tmn_sum, 0, 1040, f"finite sum route's term C(l-n, k) C(l+n, l-m-k) {SUM_MONOMIAL} overflows"),
    ],
    ids=["jacobi-prefactor", "sum-prefactor", "sum-term"],
)
def test_every_prefactor_or_term_overflow_is_refused(tmn, m_x2, n_x2, refusal):
    # These raised a bare OverflowError from an int / int division or an int
    # to float conversion.
    with pytest.raises(RouteUnavailableError) as info:
        tmn(HalfInt(1040), HalfInt(m_x2), HalfInt(n_x2), from_euler(EulerAngles(0.7, 1.2, 0.3)))
    assert str(info.value) == refusal


def wigner_caches() -> list:
    # Every lru_cache defined in wigner (not the row caches it imports): the per-spin plans.
    caches = [obj for obj in vars(wigner).values() if isinstance(obj, functools._lru_cache_wrapper)]
    return [cache for cache in caches if cache.__module__ == wigner.__name__]


def test_the_krawtchouk_entry_computes_only_its_prefactor():
    # Its first call at a spin used to build the spin's whole binomial
    # prefactor table (55-72 ms at l_x2 400); it fills no cache of wigner and
    # is still the stack's entry bit for bit.
    for cache in wigner_caches():
        cache.cache_clear()
    assert np.isfinite(tmn_krawtchouk(HalfInt(400), HalfInt(10), HalfInt(-40), 0.7))
    assert [cache.cache_info().currsize for cache in wigner_caches()] == [0] * len(wigner_caches())
    l = HalfInt(40)
    stack = krawtchouk_stack(l, [0.7, 1.3])
    for t, theta in enumerate((0.7, 1.3)):
        for i in [*range(0, 41, 4), 39]:
            for j in [*range(0, 41, 4), 1]:
                got = tmn_krawtchouk(l, HalfInt(2 * i - 40), HalfInt(2 * j - 40), theta)
                assert got.hex() == stack[t, i, j].hex(), (theta, i, j)


@pytest.mark.parametrize(
    "stack, cache", [(jacobi_stack, specfun._jacobi_coeffs_cached), (krawtchouk_stack, specfun._hyp2f1_coeffs_cached)]
)
def test_a_stack_past_the_row_cache_leaves_the_cached_rows(stack, cache):
    # Every quadrant entry has a row of its own.  At l_x2 140 there are 5,041
    # against the cache's 4,096 slots: through the cache, two such stacks made
    # 0 hits in 10,082 lookups and evicted the small rows of every spin.
    assert cache.cache_parameters()["maxsize"] == specfun._ROW_SLOTS == 4096
    assert wigner._row_source(cache, 126) is cache and wigner._row_source(cache, 127) is cache.__wrapped__
    cache.cache_clear()
    small = stack(HalfInt(6), [0.7])
    before = cache.cache_info()
    assert before.misses == before.currsize > 0
    big = stack(HalfInt(140), [0.7])
    assert cache.cache_info() == before and np.isfinite(big).all()
    assert stack(HalfInt(6), [0.7]).tobytes() == small.tobytes()
    after = cache.cache_info()
    assert (after.hits, after.misses) == (before.hits + before.misses, before.misses)


def test_per_entry_forms_compute_only_their_entry():
    # A first call at a spin used to build the spin's whole plan (0.3-0.8 s
    # at l_x2 400); each entry is still its builder's bit for bit.
    A = from_euler(EulerAngles(0.7, 1.2, 0.3))
    plans = (wigner._quadrant_plan, wigner._sum_plan)
    forms = [
        (tmn_hyp, hyp_matrix),
        (tmn_hyp_symmetric, hyp_symmetric_matrix),
        (tmn_jacobi, jacobi_matrix),
        (tmn_sum, sum_matrix),
    ]
    for plan in plans:
        plan.cache_clear()
    for tmn, _ in forms:
        assert np.isfinite(tmn(HalfInt(400), HalfInt(2), HalfInt(0), A))
    assert [plan.cache_info().currsize for plan in plans] == [0, 0]
    l = HalfInt(40)
    for tmn, builder in forms:
        entries = builder(l, A).entries
        for i in [*range(0, 41, 4), 39]:
            for j in [*range(0, 41, 4), 1]:
                got, want = tmn(l, HalfInt(2 * i - 40), HalfInt(2 * j - 40), A), entries[i, j]
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), (tmn, i, j)


def test_chart_stacks_fill_no_cache_of_wigner():
    # Each chart form computes its entries' prefactors one by one; the
    # Jacobi form used to fill a per-spin prefactor table.
    assert {"_expansion_plan", "_sum_plan", "_quadrant_plan"} <= {cache.__name__ for cache in wigner_caches()}
    for stack in (jacobi_stack, krawtchouk_stack, rodrigues_stack):
        for cache in wigner_caches():
            cache.cache_clear()
        assert np.isfinite(stack(HalfInt(12), [0.3, 0.7, 1.3])).all()
        assert [cache.cache_info().currsize for cache in wigner_caches()] == [0] * len(wigner_caches()), stack


@pytest.mark.parametrize("l_x2", range(41))
def test_the_plan_holds_each_prefactor_rule(l_x2):
    # Each prefactor column, built apart from the plan on its first use, is
    # its rule at each quadrant entry of the plan's order, computed alone from
    # math.factorial and math.comb, bit for bit.
    columns, _ = wigner._quadrant_plan(l_x2)
    quadrant = list(wigner._quadrant(l_x2))
    assert list(zip(l_x2 - np.array(columns[0]), l_x2 - np.array(columns[1]))) == quadrant
    f, c = math.factorial, functools.partial(math.comb, l_x2)
    for kind, rule in wigner._PREFACTORS.items():
        want = [rule(l_x2, i, j, f, c).hex() for i, j in quadrant]
        assert [value.hex() for value in wigner._prefactor_column(l_x2, kind)] == want, kind


def test_an_element_build_computes_only_its_prefactor_kind():
    # An element form reads one kind of prefactor, so its first build at a
    # spin builds that column alone, and its next build reuses it.
    A = from_euler(EulerAngles(0.7, 1.2, 0.3))
    builds = [(jacobi_matrix, "jacobi"), (hyp_matrix, "2F1"), (hyp_symmetric_matrix, "binomial")]
    wigner._prefactor_column.cache_clear()
    for count, (build, kind) in enumerate(builds, 1):
        build(HalfInt(12), A)
        build(HalfInt(12), A)
        info = wigner._prefactor_column.cache_info()
        assert (info.currsize, info.misses) == (count, count), kind


CHART_OVERFLOWS = "a float on the way to a chart form's entry overflows"


@pytest.mark.parametrize(
    "stack, per_entry, l_x2, theta, m",
    [
        # sin(theta) ** -(m + n) overflows a float at m = n = l, though the entry is tiny
        (rodrigues_stack, tmn_rodrigues, 40, 1e-9, 40),
        (rodrigues_stack, tmn_rodrigues, 2, 1e-200, 2),
        # the Krawtchouk series in 1/p = 1/cos^2(theta) overflows a float at m = n = 0
        (krawtchouk_stack, tmn_krawtchouk, 40, 1.5707963267, 0),
    ],
    ids=["rodrigues-40", "rodrigues-2", "krawtchouk-40"],
)
def test_chart_forms_refuse_an_overflowing_float(stack, per_entry, l_x2, theta, m):
    # They used to raise a bare OverflowError, so dmat exited 3 instead of
    # falling back.  Entry (l, -l) is finite in both forms.
    l, m = HalfInt(l_x2), HalfInt(m)
    with pytest.raises(RouteUnavailableError) as info:
        stack(l, [0.7, theta])
    assert str(info.value) == CHART_OVERFLOWS
    with pytest.raises(RouteUnavailableError) as info:
        per_entry(l, m, m, theta)
    assert str(info.value) == CHART_OVERFLOWS
    assert math.isfinite(per_entry(l, l, -l, theta))


NON_FINITE = "matrix contains non-finite entries"
SERIES_OVERFLOWS = "2F1 route's series 2F1(-(l-m), -(l-n); m+n+1; ad/(bc)) overflows"
POWERS_OVERFLOW = "2F1 route's power of a, b, c or d overflows"


# ad/(bc) = -3.3e100 i, and no power of an entry up to the 4th overflows
Z_OVERFLOW_4 = Mat2C(1e50 + 0j, 1e-50 + 0j, 0.3e-50j, 1e50 + 0j)
# ad/(bc) = -3.3e80 i, and no power of an entry up to the 12th overflows
Z_OVERFLOW_12 = Mat2C(1e20 + 0j, 1e-20 + 0j, 0.3e-20j, 1e20 + 0j)


@pytest.mark.parametrize(
    "route, l_x2, A, refusal",
    [
        # the exact series in ad/(bc) overflows a float at (2, 2), though the oracle is finite
        ("hyp", 4, Z_OVERFLOW_4, (RouteUnavailableError, SERIES_OVERFLOWS)),
        ("hyp", 12, Z_OVERFLOW_12, (RouteUnavailableError, SERIES_OVERFLOWS)),
        # a^2 = 1e400: the tables of every element form hold the powers of a
        ("hyp", 4, ELEMENTS["a_overflow"], (RouteUnavailableError, POWERS_OVERFLOW)),
        ("hyp", 12, ELEMENTS["a_overflow"], (RouteUnavailableError, POWERS_OVERFLOW)),
        # entry (2, 1) is c (bc - ad) = 1.8e308 times a polynomial of size 1.6,
        # though no power of an entry up to the cube overflows
        ("jacobi", 3, Mat2C(5e102 + 0j, 5e102 + 0j, 5e102j, 5e102 + 0j), (ValueError, NON_FINITE)),
    ],
    ids=["hyp-z_overflow-4", "hyp-z_overflow-12", "hyp-a_overflow-4", "hyp-a_overflow-12",
         "jacobi-c_times_bc_overflows-3"],
)
def test_entries_refuse_a_non_finite_entry(route, l_x2, A, refusal):
    # hyp_entries, the 2F1 form on m + n >= 0, used to return nan+nanj at
    # (2, 2) of l_x2 = 4 without an error, from a float sum of its series;
    # the exact sum overflows there and is refused.  The per-entry form
    # refuses at the first such entry, alike.
    entries, per_entry = ENTRY_ROUTES[route]
    l = HalfInt(l_x2)
    assert entries_outcome(entries, l, A) == refusal
    assert per_entry_outcome(per_entry, l, A) == refusal


@pytest.mark.parametrize(
    "matrix, per_entry, powers",
    [
        (sum_matrix, tmn_sum, "finite sum route's power of a, b, c or d"),
        (hyp_matrix, tmn_hyp, "2F1 route's power of a, b, c or d"),
        (hyp_symmetric_matrix, tmn_hyp_symmetric, "symmetric 2F1 route's power of a, b, c or d"),
        (jacobi_matrix, tmn_jacobi, "Jacobi route's power of a, b, c, d or bc - ad"),
    ],
    ids=["sum", "hyp", "hyp-symmetric", "jacobi"],
)
def test_an_overflowing_power_is_refused_with_its_route(matrix, per_entry, powers):
    # 31^400 overflows a float, and Python's complex power raised a bare
    # "complex exponentiation" before any entry.  The powers of integer entries
    # are exact ints, and the Jacobi route's entry product raised a bare "int
    # too large to convert to float" where it converts d^(m+n) at (l, l).
    l, refusal = HalfInt(400), (RouteUnavailableError, f"{powers} overflows")
    A = Mat2C(30 + 0j, 1 + 0j, 2 + 0j, 31 + 0j)
    assert outcome(matrix, l, A) == outcome(per_entry, l, l, l, A) == refusal
    if matrix is jacobi_matrix:
        A = Mat2C(30, 1, 2, 31)
        assert outcome(matrix, l, A) == outcome(per_entry, l, l, l, A) == refusal


def test_entries_refuse_a_negative_spin():
    for fn in (hyp_matrix, hyp_symmetric_matrix, jacobi_matrix):
        with pytest.raises(ValueError, match="negative spin"):
            fn(HalfInt(-1), ELEMENTS["gl2_0"])
