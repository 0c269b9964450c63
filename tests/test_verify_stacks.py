"""The verify suites' oracle references, built one stack per reference set,
and their array reductions, held float for float to the per-element loops
they replaced.

The functions below are copies of earlier implementations: one built every
oracle reference with its own oracle_matrix call and took each product and
max-norm one matrix at a time; the next yielded one deviation per entry,
value or integral from a generator, with Python's abs and max.  Every
magnitude in a copy, each max-norm included, is Python's abs.  Each suite
must report the same deviations, in the same order, as the copy.  The
same-column Jacobi integrals are the exception: they are now sums of
jacobi_stack products on another rule, so they are held to the copy's count
and to their exact values within 1e-15.
"""
import math
from itertools import product

import numpy as np
import pytest

from wignerkit import verify
from wignerkit.exactcomb import HalfInt, factorial, is_valid_spin_pair, pochhammer, spin_range, spins_up_to
from wignerkit.group import EulerAngles, Mat2C, from_euler, multiply, sample_haar
from wignerkit.haar import gauss_legendre, pairwise_sum
from wignerkit.specfun import JacobiParams, hyp2f1, jacobi_complex, jacobi_eval, jacobi_norm, krawtchouk
from wignerkit.verify import sample_gl2, sample_unimodular
from wignerkit.wigner import (
    ROTATION_ROUTES,
    SYMMETRIES,
    hyp_matrix,
    hyp_symmetric_matrix,
    jacobi_matrix,
    oracle_matrix,
    sum_matrix,
)

# (--max-l-x2, seed); the legendre and identity checks take the seed only.
CASES = [(4, 0), (4, 1), (4, 2), (12, 5)]


def old_max_norm(M):
    return max(abs(z) for z in np.ravel(M).tolist())


def old_product(X, Y):
    return (np.ascontiguousarray(X)[:, :, None] * np.ascontiguousarray(Y)[None, :, :]).sum(axis=1)


def old_unitarity(max_l, seed):
    samples = sample_haar(seed, 50)
    for l in spins_up_to(max_l):
        eye = np.eye(l.twice + 1)
        for g in samples:
            T = oracle_matrix(l, g).entries
            yield old_max_norm(old_product(T, T.conj().T) - eye)


def old_homomorphism(max_l, seed):
    samples = sample_haar(seed, 100)
    products = [(A, B, multiply(A, B)) for A, B in zip(samples[:50], samples[50:])]
    for l in spins_up_to(max_l):
        for A, B, AB in products:
            expected = old_product(oracle_matrix(l, A).entries, oracle_matrix(l, B).entries)
            yield old_max_norm(oracle_matrix(l, AB).entries - expected) / old_max_norm(expected)


def old_relative(lhs, rhs):
    return abs(lhs - rhs) / max(1.0, abs(lhs))


def old_central(seed):
    matrices = sample_unimodular(seed, 20)
    for l in range(7):
        for A in matrices:
            yield old_relative(
                jacobi_complex(JacobiParams(0, 0, l), 2 * A.a * A.d - 1),
                oracle_matrix(HalfInt(2 * l), A).entry(HalfInt(0), HalfInt(0)),
            )


def old_index_symmetries(seed):
    samples = sample_haar(seed, 5) + sample_gl2(seed + 1, 5)
    for l2, A in product(range(1, 5), samples):
        l = HalfInt(l2)
        scale = old_max_norm(oracle_matrix(l, A).entries)
        values = sum_matrix(l, A).entries.tolist()
        for index_map, element_map in SYMMETRIES.values():
            images = sum_matrix(l, element_map(A)).entries.tolist()
            for i, j in product(range(l2 + 1), repeat=2):
                i2, j2 = index_map(l2, i, j)
                yield abs(values[i][j] - images[i2][j2]) / scale


def old_rotations():
    for l, theta in product(spins_up_to(HalfInt(6)), (math.pi / 6, math.pi / 3)):
        T = oracle_matrix(l, from_euler(EulerAngles(theta, 0.0, 0.0))).entries
        yield old_max_norm(old_product(T, T.T) - np.eye(l.twice + 1))


def old_routes(max_l, seed):
    # Every routes check, one deviation per entry: abs(complex) over the oracle's max-norm.
    samples = sample_haar(seed, 20) + sample_gl2(seed + 1, 10)
    rng = np.random.default_rng(seed + 2)
    triples = [EulerAngles(*angles) for angles in zip(
        rng.uniform(0, math.pi / 2, 20), rng.uniform(0, 2 * math.pi, 20), rng.uniform(0, 2 * math.pi, 20)
    )]
    elements = [from_euler(angles) for angles in triples]
    spins = spins_up_to(max_l)

    def entrywise(matrices, references):
        for T, R in zip(matrices, references):
            scale = old_max_norm(R)
            yield from (abs(v - t) / scale for v, t in zip(T.ravel().tolist(), R.ravel().tolist()))

    def element_form(build):
        for l in spins:
            yield from entrywise((build(l, A).entries for A in samples), (oracle_matrix(l, A).entries for A in samples))

    def chart_form(route):
        for l in spins:
            yield from entrywise(route(l, triples), (oracle_matrix(l, A).entries for A in elements))

    forms = {
        "finite-sum-vs-oracle": element_form(sum_matrix),
        "terminating-2f1-vs-oracle": element_form(hyp_matrix),
        "terminating-2f1-symmetric-vs-oracle": element_form(hyp_symmetric_matrix),
        "jacobi-vs-oracle": element_form(jacobi_matrix),
        **{f"{name}-chart-vs-oracle": chart_form(route) for name, route in ROTATION_ROUTES.items()},
    }
    return {name: hexes(values) for name, values in forms.items()}


def old_weighted():
    # One Jacobi evaluation per degree and one pairwise sum per integral.
    for al, be in product(range(5), repeat=2):
        x, w = gauss_legendre((2 * 8 + al + be) // 2 + 1)
        weight = (1 - x) ** al * (1 + x) ** be
        values = [jacobi_eval(JacobiParams(al, be, n), x) for n in range(9)]
        for n1 in range(9):
            for n2 in range(n1, 9):
                integral = float(pairwise_sum(w * values[n1] * values[n2] * weight))
                yield abs(integral - (jacobi_norm(JacobiParams(al, be, n1)) if n1 == n2 else 0.0))


def old_jacobi_orthogonality_check(l, l_prime, m, n):
    # The x-substituted same-column integral, with its own prefactor, Jacobi
    # integrand and exact Gauss-Legendre rule, against delta_{l,l'}/(2l+1).
    for spin in (l, l_prime):
        if not (is_valid_spin_pair(spin, m) and is_valid_spin_pair(spin, n)):
            raise ValueError(f"(m={m}, n={n}) is not a weight pair of spin {spin}")
    if (m + n).twice < 0 or (m - n).twice < 0:
        raise ValueError("check is stated on the quadrant m + n >= 0, m - n >= 0")
    deg1 = (l - m).as_int()
    deg2 = (l_prime - m).as_int()
    al = (m + n).as_int()
    be = (m - n).as_int()
    x, w = gauss_legendre((deg1 + deg2 + al + be) // 2 + 1)
    p1 = jacobi_eval(JacobiParams(al, be, deg1), x)
    p2 = p1 if (deg2 == deg1) else jacobi_eval(JacobiParams(al, be, deg2), x)
    integral = float(pairwise_sum(w * p1 * p2 * (1 - x) ** al * (1 + x) ** be))
    pref = (factorial((l + m).as_int()) * factorial((l - m).as_int())) / (
        factorial((l + n).as_int()) * factorial((l - n).as_int()) * 2 ** (m.twice + 1)
    )
    expected = 1.0 / (l.twice + 1) if l.twice == l_prime.twice else 0.0
    return pref * integral - expected


def old_same_column(max_l):
    # One integral per ordered spin pair of one parity and quadrant entry of the smaller spin.
    spins = spins_up_to(max_l)
    for l, l_prime in product(spins, spins):
        if (l - l_prime).twice % 2 == 0:
            for m, n in product(spin_range(min(l, l_prime)), repeat=2):
                if (m + n).twice >= 0 and (m - n).twice >= 0:
                    yield abs(old_jacobi_orthogonality_check(l, l_prime, m, n))


def old_krawtchouk_sym():
    for N in range(1, 9):
        for n, x, p in product(range(N + 1), range(N + 1), (0.3, 0.5, 0.9)):
            yield old_relative(krawtchouk(n, x, p, N), (1 - 1 / p) ** (x + n - N) * krawtchouk(N - n, N - x, p, N))


def old_identities():
    # The reflection at each node, and the argument flips with Fraction Pochhammer prefactors.
    xs = np.linspace(-1, 1, 21).tolist()
    reflection = (
        old_relative(jacobi_eval(JacobiParams(al, be, n), -x), (-1) ** n * jacobi_eval(JacobiParams(be, al, n), x))
        for al, be, n in product(range(7), range(7), range(11))
        for x in xs
    )
    pfaff = (
        old_relative(hyp2f1(-n, b, c, z), (1 - z) ** n * hyp2f1(-n, c - b, c, z / (z - 1)))
        for n, b, c, z in product(range(9), (0.5, 2.0), (1.5, 3.0), (-0.7, -0.2, 0.3))
    )
    flip_one = (
        old_relative(hyp2f1(-n, b, c, x), pref * hyp2f1(-n, b, b - c - n + 1, 1 - x))
        for n, b, c in product(range(7), (0.5, 2.0), (1.5, 4.0))
        for pref in [float(pochhammer(c - b, n) / pochhammer(c, n))]
        for x in (0.2, 0.8)
    )
    flip_two = (
        old_relative(hyp2f1(-n, -m, c, x), pref * hyp2f1(-n, -m, -c - n - m + 1, 1 - x))
        for n, m, c in product(range(7), range(7), (1.5, 4.0))
        for pref in [float(pochhammer(c, m + n) / (pochhammer(c, n) * pochhammer(c, m)))]
        for x in (0.2, 0.8)
    )
    return {
        "jacobi reflection": hexes(reflection),
        "pfaff transformation": hexes(pfaff),
        "terminating argument flip (one integer parameter)": hexes(flip_one),
        "terminating argument flip (two integer parameters)": hexes(flip_two),
    }


def old_oracle_stack(l, a, b, c, d):
    # One oracle_matrix call per element, as the routes suite's references were built.
    dim = l.twice + 1
    return np.array([oracle_matrix(l, Mat2C(*entries)).entries for entries in zip(a, b, c, d)]).reshape(-1, dim, dim)


def hexes(values):
    return [float(v).hex() for v in values]


@pytest.fixture
def deviations(monkeypatch):
    """Run a suite and return the deviations each of its checks reduced, by name."""
    check = verify._check

    def capturing(name, values, tolerance, count=None):
        captured[name] = list(values)
        return check(name, captured[name], tolerance, count)

    def run(suite, *args):
        captured.clear()
        suite(*args)
        return {name: hexes(values) for name, values in captured.items()}

    captured = {}
    monkeypatch.setattr(verify, "_check", capturing)
    return run


def test_products_are_the_per_matrix_product():
    rng = np.random.default_rng(0)
    for dim in range(1, 14):
        X, Y = (rng.normal(size=(5, dim, dim)) + 1j * rng.normal(size=(5, dim, dim)) for _ in range(2))
        for left, right in ((X, Y), (X, X.conj().transpose(0, 2, 1)), (Y.transpose(0, 2, 1), X)):
            got = verify._products(left, right)
            assert got.flags.c_contiguous and got.shape == (5, dim, dim)
            for s in range(5):
                assert got[s].tobytes() == old_product(left[s], right[s]).tobytes(), dim


@pytest.mark.parametrize("l_x2, seed", CASES)
def test_unitarity_and_homomorphism_deviations_are_the_per_element_ones(deviations, l_x2, seed):
    max_l = HalfInt(l_x2)
    (unitarity,) = deviations(verify.suite_unitarity, max_l, seed).values()
    assert unitarity == hexes(old_unitarity(max_l, seed))
    (homomorphism,) = deviations(verify.suite_homomorphism, max_l, seed).values()
    assert homomorphism == hexes(old_homomorphism(max_l, seed))


@pytest.mark.parametrize("l_x2, seed", CASES)
def test_routes_references_are_the_per_element_ones(deviations, monkeypatch, l_x2, seed):
    # Every deviation of every routes check, with each reference and its
    # max-norm built one element at a time.
    batched = deviations(verify.suite_routes, HalfInt(l_x2), seed)
    monkeypatch.setattr(verify, "oracle_stack_by_spin", lambda spins, *entries: [old_oracle_stack(l, *entries) for l in spins])
    monkeypatch.setattr(verify, "_norms", lambda S: np.array([old_max_norm(T) for T in S]))
    per_element = deviations(verify.suite_routes, HalfInt(l_x2), seed)
    assert batched == per_element and sum(map(len, batched.values())) > 0


@pytest.mark.parametrize("seed", sorted({seed for _, seed in CASES}))
def test_legendre_and_identity_deviations_are_the_per_element_ones(deviations, seed):
    legendre = deviations(verify.suite_legendre, seed)
    assert legendre["central element vs legendre of 2ad-1"] == hexes(old_central(seed))
    identities = deviations(verify.identity_checks, seed, verify.suite_krawtchouk_sym())
    assert identities["index symmetries"] == hexes(old_index_symmetries(seed))
    assert identities["real-rotation row orthogonality"] == hexes(old_rotations())


@pytest.mark.parametrize("l_x2, seed", CASES)
def test_routes_deviations_are_the_per_entry_ones(deviations, l_x2, seed):
    assert deviations(verify.suite_routes, HalfInt(l_x2), seed) == old_routes(HalfInt(l_x2), seed)


def test_jacobi_orth_and_krawtchouk_deviations_are_the_per_value_ones(deviations):
    weighted = deviations(verify.suite_jacobi_orth, HalfInt(4))["weighted jacobi integrals vs closed-form norm"]
    assert weighted == hexes(old_weighted())
    (krawtchouk_sym,) = deviations(verify.suite_krawtchouk_sym).values()
    assert krawtchouk_sym == hexes(old_krawtchouk_sym())


@pytest.mark.parametrize("l_x2", [0, 1, 2, 6, 12])
def test_same_column_integrals_are_as_many_and_exact(l_x2):
    # jacobi_stack on the grid's theta rule checks the integrals the
    # per-entry Jacobi integrals did, each to within 1e-15 of its exact value.
    same_column = verify.suite_jacobi_orth(HalfInt(l_x2))["checks"][0]
    assert same_column["count"] == len(list(old_same_column(HalfInt(l_x2))))
    assert same_column["max_deviation"] <= 1e-15


def test_identity_deviations_are_the_per_value_ones(deviations):
    # These checks take no seed; the index symmetries, which do, are held above.
    identities = deviations(verify.identity_checks, 0, verify.suite_krawtchouk_sym())
    want = old_identities()
    assert {name: identities[name] for name in want} == want
