"""The verify suites' oracle references, built one stack per reference set,
held float for float to the per-element loops they replaced.

The functions below are copies of the earlier implementation, which built
every oracle reference with its own oracle_matrix call and took each
product and max-norm one matrix at a time.  Each suite must report the same
deviations, in the same order, as the copy.
"""
import math
from itertools import product

import numpy as np
import pytest

from wignerkit import verify
from wignerkit.exactcomb import HalfInt, spins_up_to
from wignerkit.group import EulerAngles, Mat2C, from_euler, multiply, sample_haar
from wignerkit.specfun import JacobiParams, jacobi_complex
from wignerkit.verify import max_norm, sample_gl2, sample_unimodular
from wignerkit.wigner import SYMMETRIES, oracle_matrix, sum_matrix

# (--max-l-x2, seed); the legendre and identity checks take the seed only.
CASES = [(4, 0), (4, 1), (4, 2), (12, 5)]


def old_product(X, Y):
    return (np.ascontiguousarray(X)[:, :, None] * np.ascontiguousarray(Y)[None, :, :]).sum(axis=1)


def old_unitarity(max_l, seed):
    samples = sample_haar(seed, 50)
    for l in spins_up_to(max_l):
        eye = np.eye(l.twice + 1)
        for g in samples:
            T = oracle_matrix(l, g).entries
            yield max_norm(old_product(T, T.conj().T) - eye)


def old_homomorphism(max_l, seed):
    samples = sample_haar(seed, 100)
    products = [(A, B, multiply(A, B)) for A, B in zip(samples[:50], samples[50:])]
    for l in spins_up_to(max_l):
        for A, B, AB in products:
            expected = old_product(oracle_matrix(l, A).entries, oracle_matrix(l, B).entries)
            yield max_norm(oracle_matrix(l, AB).entries - expected) / max_norm(expected)


def old_central(seed):
    matrices = sample_unimodular(seed, 20)
    for l in range(7):
        for A in matrices:
            yield verify._relative(
                jacobi_complex(JacobiParams(0, 0, l), 2 * A.a * A.d - 1),
                oracle_matrix(HalfInt(2 * l), A).entry(HalfInt(0), HalfInt(0)),
            )


def old_index_symmetries(seed):
    samples = sample_haar(seed, 5) + sample_gl2(seed + 1, 5)
    for l2, A in product(range(1, 5), samples):
        l = HalfInt(l2)
        scale = max_norm(oracle_matrix(l, A).entries)
        values = sum_matrix(l, A).entries.tolist()
        for index_map, element_map in SYMMETRIES.values():
            images = sum_matrix(l, element_map(A)).entries.tolist()
            for i, j in product(range(l2 + 1), repeat=2):
                i2, j2 = index_map(l2, i, j)
                yield abs(values[i][j] - images[i2][j2]) / scale


def old_rotations():
    for l, theta in product(spins_up_to(HalfInt(6)), (math.pi / 6, math.pi / 3)):
        T = oracle_matrix(l, from_euler(EulerAngles(theta, 0.0, 0.0))).entries
        yield max_norm(old_product(T, T.T) - np.eye(l.twice + 1))


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
    monkeypatch.setattr(verify, "oracle_stack", old_oracle_stack)
    monkeypatch.setattr(verify, "_norms", lambda S: np.array([max_norm(T) for T in S]))
    per_element = deviations(verify.suite_routes, HalfInt(l_x2), seed)
    assert batched == per_element and sum(map(len, batched.values())) > 0


@pytest.mark.parametrize("seed", sorted({seed for _, seed in CASES}))
def test_legendre_and_identity_deviations_are_the_per_element_ones(deviations, seed):
    legendre = deviations(verify.suite_legendre, seed)
    assert legendre["central element vs legendre of 2ad-1"] == hexes(old_central(seed))
    identities = deviations(verify.identity_checks, seed, verify.suite_krawtchouk_sym())
    assert identities["index symmetries"] == hexes(old_index_symmetries(seed))
    assert identities["real-rotation row orthogonality"] == hexes(old_rotations())
