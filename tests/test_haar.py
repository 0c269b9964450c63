"""Invariant-measure quadrature: normalization, orthogonality, exactness."""
import math

import numpy as np
import pytest

from wignerkit.exactcomb import HalfInt, spin_range, spins_up_to
from wignerkit.group import sample_haar
from wignerkit.haar import (
    HaarGrid,
    addition_formula_check,
    build_grid,
    character_norm,
    gauss_legendre,
    jacobi_orthogonality_check,
    legendre_product_check,
    pairwise_sum,
    schur_check,
)
from wignerkit.wigner import tmn_sum

HALF = HalfInt(1)


class TestGridConstruction:
    def test_budget_thresholds(self):
        grid = build_grid(HalfInt(1))
        assert (grid.n_theta, grid.n_phi, grid.n_psi) == (1, 3, 3)

    def test_weights_sum_to_one(self):
        for twice in range(0, 7):
            grid = build_grid(HalfInt(twice))
            assert abs(grid.weights.sum() - 1.0) <= 1e-13

    def test_weights_positive(self):
        grid = build_grid(HalfInt(3))
        assert np.all(grid.weights > 0)

    def test_max_exact_l_roundtrip(self):
        for twice in range(0, 13):
            grid = build_grid(HalfInt(twice))
            assert grid.n_theta == twice // 2 + 1
            assert grid.max_exact_l().twice == twice

    def test_negative_spin_rejected(self):
        with pytest.raises(ValueError, match="negative spin"):
            build_grid(HalfInt(-1))

    def test_node_iteration_matches_count(self):
        grid = build_grid(HalfInt(2))
        assert len(grid.weights) == grid.node_count == grid.n_theta * grid.n_phi * grid.n_psi

    def test_a_spin_past_the_budget_builds_nothing(self):
        grid = build_grid(HalfInt(6))
        with pytest.raises(ValueError, match=r"^spin l=7/2 exceeds the grid exactness budget \(max l=3\)$"):
            grid.matrices(HalfInt(7))
        assert grid._matrices == {}
        assert grid._powers is None

    def test_the_power_table_is_built_to_the_budget(self):
        # powers 0 .. 6 of the node elements, whichever spin asks first
        grid = build_grid(HalfInt(6))
        grid.matrices(HalfInt(0))
        assert grid._powers.shape == (4, 7, grid.node_count)


def one_theta_node_fewer(grid: HaarGrid, l: HalfInt) -> HaarGrid:
    """grid with the Gauss-Legendre rule of one theta node fewer, claiming
    spin l anyway, so that the checks run on it past its true budget."""
    n_theta, per_theta = grid.n_theta - 1, grid.n_phi * grid.n_psi
    x, wx = gauss_legendre(n_theta)
    thetas = np.repeat([0.5 * math.acos(v) for v in x], per_theta)
    weights = np.repeat(wx / 2, per_theta) / per_theta
    nodes = slice(0, n_theta * per_theta)
    fewer = HaarGrid(n_theta, grid.n_phi, grid.n_psi, thetas, grid.phis[nodes], grid.psis[nodes], weights)
    assert fewer.max_exact_l().twice < l.twice
    fewer.max_exact_l = lambda: l
    return fewer


class TestExactnessRule:
    """build_grid's theta rule has l_x2 // 2 + 1 nodes: the products whose
    phases cancel are polynomials of degree l + l' <= l_x2 in x, and an
    n-node Gauss-Legendre rule is exact to degree 2n - 1."""

    @pytest.mark.parametrize("l_x2", range(13))
    def test_every_check_passes_at_machine_precision(self, l_x2):
        grid = build_grid(HalfInt(l_x2))
        spins = spins_up_to(HalfInt(l_x2))
        for i, l in enumerate(spins):
            assert abs(character_norm(grid, l) - 1.0) <= 1e-13, l
            for lp in spins[i:]:
                assert schur_check(grid, l, lp).max_deviation <= 1e-13, (l, lp)

    @pytest.mark.parametrize("l_x2", [6, 12])
    def test_one_theta_node_fewer_misses_the_top_spin(self, l_x2):
        l = HalfInt(l_x2)
        fewer = one_theta_node_fewer(build_grid(l), l)
        misses = (schur_check(fewer, l, l).max_deviation, abs(character_norm(fewer, l) - 1.0))
        assert max(misses) > 1e-3, misses


class TestPairwiseSum:
    def test_matches_plain_sum(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=1001)
        assert pairwise_sum(values) == pytest.approx(values.sum(), rel=1e-13)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=777)
        assert pairwise_sum(values) == pairwise_sum(values.copy())

    def test_axis0_on_matrices(self):
        values = np.arange(12.0).reshape(4, 3)
        assert np.allclose(pairwise_sum(values), values.sum(axis=0))


class TestSchur:
    def test_same_representation(self):
        grid = build_grid(HalfInt(3))
        report = schur_check(grid, HALF, HALF)
        assert report.max_deviation <= 1e-10
        assert report.checked == 16

    def test_different_representations(self):
        grid = build_grid(HalfInt(3))
        report = schur_check(grid, HALF, HalfInt(2))
        assert report.max_deviation <= 1e-10

    def test_trivial_representation(self):
        grid = build_grid(HalfInt(2))
        report = schur_check(grid, HalfInt(0), HalfInt(0))
        assert report.max_deviation <= 1e-13

    def test_all_pairs_to_three_halves(self):
        grid = build_grid(HalfInt(3))
        spins = spins_up_to(HalfInt(3))
        for l in spins:
            for lp in spins:
                assert schur_check(grid, l, lp).max_deviation <= 1e-10

    def test_budget_guard(self):
        grid = build_grid(HALF)
        with pytest.raises(ValueError):
            schur_check(grid, HalfInt(2), HALF)

    @pytest.mark.parametrize(
        "l_x2, lp_x2, i, j, i2, j2", [(2, 3, 0, 2, 1, 3), (0, 3, 0, 0, 3, 1), (1, 2, 1, 0, 2, 2)]
    )
    def test_perturbed_entry_is_located(self, l_x2, lp_x2, i, j, i2, j2):
        # Adding eps * t^l'_{i2,j2} to t^l_{i,j} on one theta slice moves only
        # the (i, j; i2, j2) integral: the slice's phase sums are exact, so the
        # other l' entries stay orthogonal to the added term.
        grid = build_grid(HalfInt(3))
        l, lp = HalfInt(l_x2), HalfInt(lp_x2)
        assert schur_check(grid, l, lp).max_deviation <= 1e-10
        block = slice(grid.n_phi * grid.n_psi, 2 * grid.n_phi * grid.n_psi)
        grid.matrices(l)[block, i, j] += 1e-6 * grid.matrices(lp)[block, i2, j2]
        report = schur_check(grid, l, lp)
        assert report.max_deviation > 1e-8
        assert report.worst == (2 * i - l_x2, 2 * j - l_x2, 2 * i2 - lp_x2, 2 * j2 - lp_x2)
        assert all(type(v) is int for v in report.worst)
        assert report.checked == (l_x2 + 1) ** 2 * (lp_x2 + 1) ** 2

    def test_grid_with_wrong_node_count_rejected(self):
        good = build_grid(HalfInt(2))
        bad = HaarGrid(good.n_theta, good.n_phi, good.n_psi + 1, good.thetas, good.phis, good.psis, good.weights)
        with pytest.raises(ValueError, match="nodes"):
            schur_check(bad, HALF, HALF)

    def test_exactness_not_mere_convergence(self):
        # growing the grid beyond the budget must not move the result
        small = build_grid(HalfInt(3))
        big = build_grid(HalfInt(5))
        for l, lp in ((HALF, HALF), (HALF, HalfInt(2)), (HalfInt(3), HalfInt(3))):
            a = schur_check(small, l, lp).max_deviation
            b = schur_check(big, l, lp).max_deviation
            assert abs(a - b) <= 1e-12


class TestCharacterNorm:
    def test_trivial(self):
        grid = build_grid(HalfInt(0))
        assert character_norm(grid, HalfInt(0)) == pytest.approx(1.0, abs=1e-13)

    def test_spin_half(self):
        grid = build_grid(HALF)
        assert character_norm(grid, HALF) == pytest.approx(1.0, abs=1e-10)

    def test_up_to_spin_three(self):
        grid = build_grid(HalfInt(6))
        for l in spins_up_to(HalfInt(6)):
            assert abs(character_norm(grid, l) - 1.0) <= 1e-10

    def test_budget_guard(self):
        grid = build_grid(HALF)
        with pytest.raises(ValueError, match="exceeds the grid exactness budget"):
            character_norm(grid, HalfInt(2))


class TestJacobiOrthogonality:
    def test_trivial_case(self):
        dev = jacobi_orthogonality_check(HalfInt(0), HalfInt(0), HalfInt(0), HalfInt(0))
        assert abs(dev) <= 1e-14

    def test_different_spins_vanish(self):
        dev = jacobi_orthogonality_check(HalfInt(2), HalfInt(4), HalfInt(2), HalfInt(0))
        assert abs(dev) <= 1e-12

    def test_same_spin_inverse_dimension(self):
        dev = jacobi_orthogonality_check(HalfInt(2), HalfInt(2), HalfInt(2), HalfInt(0))
        assert abs(dev) <= 1e-12

    def test_invalid_quadrant_rejected(self):
        with pytest.raises(ValueError):
            jacobi_orthogonality_check(HalfInt(2), HalfInt(2), HalfInt(0), HalfInt(2))

    def test_invalid_pair_rejected(self):
        with pytest.raises(ValueError):
            jacobi_orthogonality_check(HalfInt(2), HalfInt(1), HalfInt(2), HalfInt(0))

    def test_all_quadrant_pairs_to_spin_three(self):
        spins = spins_up_to(HalfInt(6))
        for l in spins:
            for lp in spins:
                if (l - lp).twice % 2:
                    continue
                smaller = min(l, lp)
                for m in spin_range(smaller):
                    for n in spin_range(smaller):
                        if (m + n).twice < 0 or (m - n).twice < 0:
                            continue
                        dev = jacobi_orthogonality_check(l, lp, m, n)
                        assert abs(dev) <= 1e-10


class TestLegendreFormulas:
    def test_product_degree_zero(self):
        assert abs(legendre_product_check(0, 0.4, 1.0)) <= 1e-15

    def test_product_degree_one(self):
        # the cos(phi) cross term averages to zero, leaving cos(t1) cos(t2)
        assert abs(legendre_product_check(1, 0.4, 1.0)) <= 1e-15

    def test_product_degree_three(self):
        assert abs(legendre_product_check(3, 0.7, 1.1)) <= 1e-10

    def test_addition_collapses_without_phi_dependence(self):
        # theta2 = 0 removes the phi dependence: both sides P_l(cos theta1)
        for l in range(5):
            assert addition_formula_check(l, 0.8, 0.0, 1.9) <= 1e-12

    def test_addition_argument_one(self):
        assert addition_formula_check(1, math.pi / 2, math.pi / 2, 0.0) <= 1e-14

    def test_addition_random_angles(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            t1, t2 = rng.uniform(0.05, math.pi - 0.05, 2)
            phi = rng.uniform(0, 2 * math.pi)
            for l in range(7):
                assert addition_formula_check(l, t1, t2, phi) <= 1e-9

    def test_addition_refuses_non_finite_angles(self):
        # The phase series sums finite WignerMatrix entries times unit phases,
        # so it cannot be NaN while the check returns: a non-finite angle is
        # refused before any deviation is formed.
        nan, inf = math.nan, math.inf
        for l in range(1, 6):
            for angles in ((nan, 0.4, 1.0), (0.3, nan, 1.0), (0.3, 0.4, nan), (0.3, 0.4, inf), (0.3, 0.4, -inf)):
                with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
                    addition_formula_check(l, *angles)
        for l in range(6):
            for angles in ((inf, 0.4, 1.0), (-inf, 0.4, 1.0), (0.3, inf, 1.0)):
                with pytest.raises(ValueError, match="^math domain error$"):
                    addition_formula_check(l, *angles)
        # At l = 0 the matrices are [[1]] at any angle; the Legendre argument
        # refuses a NaN or infinite phase instead.
        for angles in ((nan, 0.4, 1.0), (0.3, 0.4, nan), (0.3, 0.4, inf)):
            with pytest.raises(ValueError):
                addition_formula_check(0, *angles)


class TestMonteCarloConsistency:
    def test_squared_element_mean(self):
        # 1e5-draw estimate of the squared (m=1, n=0) element of spin 1,
        # exact value 1/3; 4 sigma from the sample variance
        samples = sample_haar(2024, 100_000)
        l, m, n = HalfInt(2), HalfInt(2), HalfInt(0)
        values = np.array([abs(tmn_sum(l, m, n, g)) ** 2 for g in samples])
        mean = values.mean()
        sigma = values.std(ddof=1) / math.sqrt(len(values))
        assert abs(mean - 1 / 3) <= 4 * sigma


class TestOrthonormalFamily:
    def test_gram_matrix_is_identity(self):
        # sqrt(2l+1) t^l_{m,n} for l <= 3/2: 30 functions, Gram vs identity
        grid = build_grid(HalfInt(3))
        columns = []
        for l in spins_up_to(HalfInt(3)):
            stack = grid.matrices(l)
            dim = l.twice + 1
            scale = math.sqrt(l.twice + 1)
            for i in range(dim):
                for j in range(dim):
                    columns.append(scale * stack[:, i, j])
        F = np.column_stack(columns)
        gram = pairwise_sum(grid.weights[:, None, None] * np.conj(F)[:, :, None] * F[:, None, :])
        assert np.max(np.abs(gram - np.eye(F.shape[1]))) <= 1e-10
