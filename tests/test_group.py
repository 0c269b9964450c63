"""Group elements, the angle chart, and the uniform sampler."""
import math
import random

import numpy as np
import pytest

from wignerkit.group import (
    EulerAngles,
    Mat2C,
    diag_element,
    from_euler,
    multiply,
    sample_haar,
)
from wignerkit.verify import sample_gl2, sample_unimodular

I2 = Mat2C(1, 0, 0, 1)


class TestFromEuler:
    def test_identity_at_theta_half_pi(self):
        M = from_euler(EulerAngles(math.pi / 2, 0.0, 0.0))
        assert np.allclose(M.as_array(), np.eye(2), atol=1e-15)

    def test_theta_zero(self):
        M = from_euler(EulerAngles(0.0, 0.0, 0.0))
        assert np.allclose(M.as_array(), [[0, -1], [1, 0]], atol=1e-15)

    def test_quarter_turn(self):
        M = from_euler(EulerAngles(math.pi / 4, 0.0, 0.0))
        r = math.sqrt(2) / 2
        assert np.allclose(M.as_array(), [[r, -r], [r, r]], atol=1e-15)

    def test_out_of_range_angles_rejected(self):
        with pytest.raises(ValueError):
            EulerAngles(-0.1, 0.0, 0.0)
        with pytest.raises(ValueError):
            EulerAngles(0.3, 2 * math.pi, 0.0)
        with pytest.raises(ValueError):
            EulerAngles(0.3, 0.0, -1.0)

    def test_always_in_su2(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            angles = EulerAngles(
                rng.uniform(0, math.pi / 2),
                rng.uniform(0, 2 * math.pi),
                rng.uniform(0, 2 * math.pi),
            )
            M = from_euler(angles)
            assert M.is_su2()
            assert abs(M.det() - 1) <= 1e-12


class TestMultiplyInverse:
    def test_identity_neutral(self):
        A = Mat2C(1 + 2j, 0.5, -0.25j, 3)
        assert multiply(A, I2) == A
        assert multiply(I2, A) == A

    def test_diagonal_subgroup_is_abelian_one_parameter(self):
        # a_phi a_psi = a_{phi+psi}
        got = multiply(diag_element(0.7), diag_element(1.1))
        want = diag_element(1.8)
        assert np.allclose(got.as_array(), want.as_array(), atol=1e-15)

    def test_rotation_composition(self):
        M = from_euler(EulerAngles(math.pi / 4, 0.0, 0.0))
        assert np.allclose(multiply(M, M).as_array(), [[0, -1], [1, 0]], atol=1e-15)


class TestDiagElement:
    def test_zero_is_identity(self):
        assert np.allclose(diag_element(0.0).as_array(), np.eye(2))

    def test_pi_is_minus_identity(self):
        assert np.allclose(diag_element(math.pi).as_array(), -np.eye(2), atol=1e-15)

    def test_half_pi(self):
        assert np.allclose(diag_element(math.pi / 2).as_array(), [[1j, 0], [0, -1j]], atol=1e-15)

    def test_two_pi_periodicity(self):
        for phi in (0.0, 0.3, 2.5):
            a = diag_element(phi).as_array()
            b = diag_element(phi + 2 * math.pi).as_array()
            assert np.max(np.abs(a - b)) <= 1e-12


class TestSampleHaar:
    def test_single_sample_in_group(self):
        (g,) = sample_haar(7, 1)
        assert g.is_su2()

    def test_deterministic(self):
        xs = sample_haar(123, 5)
        ys = sample_haar(123, 5)
        assert xs == ys

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_haar(0, 0)

    def test_draws_every_x_then_every_phi_then_every_psi(self):
        # x = cos(2 theta), from the standard library's Mersenne Twister at the seed.
        rng = random.Random(5)
        x = [rng.uniform(-1, 1) for _ in range(4)]
        phi = [rng.uniform(0, 2 * math.pi) for _ in range(4)]
        psi = [rng.uniform(0, 2 * math.pi) for _ in range(4)]
        want = [from_euler(EulerAngles(0.5 * math.acos(v), p, q)) for v, p, q in zip(x, phi, psi)]
        assert sample_haar(5, 4) == want

    def test_entry_mean_vanishes(self):
        # invariant-measure mean of any matrix entry is 0; 3 sigma ~ 0.0067
        samples = sample_haar(2024, 100_000)
        mean = np.mean([g.a for g in samples])
        assert abs(mean) < 0.02


class TestSeedContract:
    # The seed is a non-negative int, as numpy's default_rng took it:
    # random.Random alone would take -1 as 1 and hash 1.5 and "3".
    @pytest.mark.parametrize("sampler", [sample_haar, sample_gl2, sample_unimodular])
    def test_refuses_a_negative_or_non_int_seed(self, sampler):
        with pytest.raises(ValueError, match="non-negative"):
            sampler(-1, 1)
        for seed in (1.5, "3"):
            with pytest.raises(TypeError):
                sampler(seed, 1)

    @pytest.mark.parametrize("sampler", [sample_haar, sample_gl2, sample_unimodular])
    def test_takes_a_bool_and_a_wide_int(self, sampler):
        assert sampler(True, 2) == sampler(1, 2)
        assert len(sampler(2**70, 2)) == 2 and sampler(2**70, 2) != sampler(0, 2)


class TestMat2C:
    def test_su2_predicate_rejects_scaled(self):
        assert not Mat2C(2, 0, 0, 2).is_su2()
        assert not Mat2C(1, 1e-6, 0, 1).is_su2()

    def test_invertibility_predicate(self):
        assert Mat2C(1, 2, 3, 4).is_invertible()
        assert not Mat2C(1, 2, 2, 4).is_invertible()

    def test_array_roundtrip(self):
        A = Mat2C(1 + 1j, 2, 3, 4 - 2j)
        assert Mat2C.from_array(A.as_array()) == A
        with pytest.raises(ValueError):
            Mat2C.from_array(np.eye(3))
