"""Invariant-measure quadrature: normalization, orthogonality, exactness."""
import math

import numpy as np
import pytest

from wignerkit.exactcomb import HalfInt, spin_range, spins_up_to
from wignerkit.group import Mat2C, diag_element, multiply, sample_haar
from wignerkit import haar
from wignerkit.haar import (
    HaarGrid,
    build_grid,
    character_norm,
    gauss_legendre,
    legendre_checks,
    pairwise_sum,
    schur_check,
    schur_checks,
    theta_rule,
)
from wignerkit.specfun import legendre
from wignerkit.verify import legendre_angles
from wignerkit.wigner import jacobi_stack, oracle_stack, tmn_sum

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

    def test_the_theta_axis_is_the_theta_rule(self):
        grid = build_grid(HalfInt(6))
        assert np.array_equal(grid.thetas[:: grid.n_phi * grid.n_psi], theta_rule(HalfInt(6))[0])

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

    @pytest.mark.parametrize("l_x2, lp_x2", [(1, 2), (2, 1)])
    def test_a_spin_past_the_budget_builds_nothing(self, l_x2, lp_x2, monkeypatch):
        spectra = []
        monkeypatch.setattr(haar, "_phase_spectra", lambda *args: spectra.append(args))
        grid = build_grid(HALF)
        with pytest.raises(ValueError, match="exceeds the grid exactness budget"):
            schur_check(grid, HalfInt(l_x2), HalfInt(lp_x2))
        assert grid._matrices == {}
        assert grid._powers is None
        assert spectra == []

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

    @pytest.mark.parametrize("i, j, i2, j2", [(0, 0, 0, 2), (0, 1, 1, 1), (0, 1, 1, 0)])
    def test_a_perturbation_across_psi_bins_is_located(self, i, j, i2, j2, monkeypatch):
        # t^{1/2}_{i,j} and t^{3/2}_{i2,j2} have different psi bins (m - n), so
        # the integral the perturbation moves is a cross term, which the bound
        # alone would pin on the l' entry largest on that slice.  The pairs
        # over the floor take their node-by-node value, which locates it.
        l, lp = HALF, HalfInt(3)
        expected = (2 * i - 1, 2 * j - 1, 2 * i2 - 3, 2 * j2 - 3)
        assert expected[0] - expected[1] != expected[2] - expected[3]
        grid = build_grid(HalfInt(3))
        block = slice(grid.n_phi * grid.n_psi, 2 * grid.n_phi * grid.n_psi)
        grid.matrices(l)[block, i, j] += 1e-6 * grid.matrices(lp)[block, i2, j2]
        report = schur_check(grid, l, lp)
        assert report.worst == expected
        assert report.max_deviation == pytest.approx(full_grid_deviations(grid, l, lp).max(), rel=1e-9)
        monkeypatch.setattr(haar, "SCHUR_FLOOR", math.inf)  # the bound alone
        bound_only = schur_check(grid, l, lp)
        assert bound_only.worst != expected
        assert bound_only.max_deviation >= report.max_deviation

    @pytest.mark.parametrize("axis", ["phis", "psis"])
    def test_a_grid_off_the_uniform_phase_rule_is_refused(self, axis):
        grid = build_grid(HalfInt(2))
        setattr(grid, axis, getattr(grid, axis) + 1e-3)
        with pytest.raises(ValueError, match="uniform rules 2 pi k / n_phi and 2 pi k / n_psi"):
            schur_check(grid, HALF, HALF)

    def test_a_grid_with_two_weights_on_one_slice_is_refused(self):
        grid = build_grid(HalfInt(2))
        grid.weights = grid.weights.copy()
        grid.weights[0] *= 2
        with pytest.raises(ValueError, match="node weights differ within a theta slice"):
            schur_check(grid, HALF, HALF)

    def test_a_grid_with_a_negative_slice_weight_is_refused(self):
        # The bound of a pair in different bins sums |terms| against the
        # weights, so it bounds the integral only if no weight is negative.
        grid = build_grid(HalfInt(2))
        grid.weights = grid.weights.copy()
        grid.weights[: grid.n_phi * grid.n_psi] *= -1
        with pytest.raises(ValueError, match="negative node weight"):
            schur_check(grid, HALF, HALF)

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


def full_grid_deviations(grid: HaarGrid, l: HalfInt, lp: HalfInt) -> np.ndarray:
    """|integral - exact value| of every pair of entries, each integral summed
    over the whole grid by one matrix product."""
    T = grid.matrices(l).reshape(grid.node_count, -1)
    U = grid.matrices(lp).reshape(grid.node_count, -1)
    integrals = (grid.weights[:, None] * T).T @ U.conj()
    if l == lp:
        integrals -= np.eye(T.shape[1]) / (l.twice + 1)
    return np.abs(integrals)


# Both sides round: an integral of at most 1 in magnitude, summed over a few
# thousand nodes, is off by a few units of 2^-53 on each side.  The Schur
# values themselves are a few units of 1e-16 on an exact grid.
ROUNDING_MARGIN = 2.0**-48


class TestSchurBound:
    """The reported deviation is at least the full-grid deviation, up to
    rounding: on-bin deviations plus Cauchy-Schwarz bounds below the floor,
    node-by-node values above it."""

    @staticmethod
    def assert_bounds(grid, pairs):
        for (l, lp), report in zip(pairs, schur_checks(grid, pairs)):
            full = full_grid_deviations(grid, l, lp).max()
            assert report.max_deviation >= full - ROUNDING_MARGIN, (l, lp, report, full)
            assert report.max_deviation <= 1e-10 or report.max_deviation <= full + ROUNDING_MARGIN, (l, lp)

    @pytest.mark.parametrize("noise, one_entry", [(0.0, False), (1e-14, False), (1e-12, True)])
    def test_every_pair_up_to_l_x2_8(self, noise, one_entry, monkeypatch):
        # Noise of 1e-14 on every value keeps every bound below the floor;
        # 1e-12 on the entry (2, 1) of t^1 puts the pairs of that entry over
        # it, which then report their node-by-node value.
        grid = build_grid(HalfInt(8))
        spins = spins_up_to(HalfInt(8))
        rng = np.random.default_rng(8)
        for stack in [grid.matrices(HalfInt(2))[:, 2, 1]] if one_entry else map(grid.matrices, spins):
            stack += noise * (rng.normal(size=stack.shape) + 1j * rng.normal(size=stack.shape))
        refined = []
        grid_deviations = haar._grid_deviations
        monkeypatch.setattr(haar, "_grid_deviations", lambda *args: refined.append(args) or grid_deviations(*args))
        self.assert_bounds(grid, [(l, lp) for l in spins for lp in spins])
        assert bool(refined) == one_entry

    def test_a_sample_of_pairs_at_l_x2_12(self):
        grid = build_grid(HalfInt(12))
        spins = spins_up_to(HalfInt(12))
        rng = np.random.default_rng(12)
        pairs = [(spins[a], spins[b]) for a, b in rng.integers(len(spins), size=(8, 2))]
        self.assert_bounds(grid, [*pairs, (HalfInt(12), HalfInt(12)), (HalfInt(11), HalfInt(12))])

    def test_the_spectra_are_those_of_fft2(self):
        # On-bin values and off-bin norms against a full 2-D FFT of each theta
        # slice, on stacks with noise off the on-bin modes.
        grid = build_grid(HalfInt(4))
        spins = spins_up_to(HalfInt(4))
        rng = np.random.default_rng(4)
        on, off = [], []
        for l in spins:
            stack = grid.matrices(l)
            stack += 1e-9 * (rng.normal(size=stack.shape) + 1j * rng.normal(size=stack.shape))
            spectrum = np.fft.fft2(stack.reshape(grid.n_theta, grid.n_phi, grid.n_psi, -1), axes=(1, 2))
            power = np.abs(spectrum) ** 2
            for k in range(power.shape[3]):
                m2, n2 = (2 * v - l.twice for v in divmod(k, l.twice + 1))  # row-major entry k
                bins = (-(m2 + n2) // 2) % grid.n_phi, ((m2 - n2) // 2) % grid.n_psi
                on.append(spectrum[:, bins[0], bins[1], k])
                power[:, bins[0], bins[1], k] = 0.0
            off.append(np.sqrt(power.sum(axis=(1, 2))))
        on_re, on_im, off_norm = haar._phase_spectra(grid, spins)
        assert np.allclose(on_re + 1j * on_im, np.transpose(on), rtol=0, atol=1e-12)
        assert np.allclose(off_norm, np.concatenate(off, axis=1), rtol=1e-9, atol=0)
        assert off_norm.min() > 1e-8  # the noise, not the rounding of the modes

    def test_an_fft_returned_as_a_transposed_view_gives_the_same_reports(self, monkeypatch):
        # numpy 1.x takes an FFT along an inner axis by transposing that axis
        # last, transforming into a new C-ordered array and transposing back,
        # so its result is a view whose last axis is strided.
        grid = build_grid(HalfInt(4))
        spins = spins_up_to(HalfInt(4))
        pairs = [(l, lp) for l in spins for lp in spins]
        expected = schur_checks(grid, pairs)
        fft, strided = np.fft.fft, []

        def transposed_fft(a, axis=-1):
            out = np.swapaxes(np.ascontiguousarray(fft(np.swapaxes(a, axis, -1), axis=-1)), axis, -1)
            strided.append(out.strides[-1] != out.itemsize)
            return out

        monkeypatch.setattr(np.fft, "fft", transposed_fft)
        assert schur_checks(grid, pairs) == expected
        assert any(strided)

    def test_one_call_reports_each_pair_as_its_own_call(self):
        grid = build_grid(HalfInt(4))
        spins = spins_up_to(HalfInt(4))
        pairs = [(l, lp) for l in spins for lp in spins]
        assert schur_checks(grid, pairs) == [schur_check(grid, l, lp) for l, lp in pairs]
        assert schur_checks(grid, []) == []


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
    # The same-column integral of d^l_{m,n} d^l'_{m,n} (jacobi_stack) on the
    # theta rule of the larger spin, as the jacobi-orth suite takes it,
    # against its exact value delta_{l,l'}/(2l+1).
    @staticmethod
    def deviation(l, l_prime, m, n):
        thetas, weights = theta_rule(max(l, l_prime))
        first, second = (
            jacobi_stack(s, thetas)[:, (s.twice + m.twice) // 2, (s.twice + n.twice) // 2] for s in (l, l_prime)
        )
        expected = 1 / (l.twice + 1) if l == l_prime else 0.0
        return float(pairwise_sum(weights * first * second)) - expected

    def test_trivial_case(self):
        assert abs(self.deviation(HalfInt(0), HalfInt(0), HalfInt(0), HalfInt(0))) <= 1e-14

    def test_different_spins_vanish(self):
        assert abs(self.deviation(HalfInt(2), HalfInt(4), HalfInt(2), HalfInt(0))) <= 1e-12

    def test_same_spin_inverse_dimension(self):
        assert abs(self.deviation(HalfInt(2), HalfInt(2), HalfInt(2), HalfInt(0))) <= 1e-12

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
                        assert abs(self.deviation(l, lp, m, n)) <= 1e-10


class TestLegendreFormulas:
    # legendre_checks at one degree and one (theta1, theta2, phi); the
    # product check does not read phi.
    def test_product_degree_zero(self):
        assert abs(legendre_checks([0], [(0.4, 1.0, 0.0)])[1][0, 0]) <= 1e-15

    def test_product_degree_one(self):
        # the cos(phi) cross term averages to zero, leaving cos(t1) cos(t2)
        assert abs(legendre_checks([1], [(0.4, 1.0, 0.0)])[1][0, 0]) <= 1e-15

    def test_product_degree_three(self):
        assert abs(legendre_checks([3], [(0.7, 1.1, 0.0)])[1][0, 0]) <= 1e-10

    def test_addition_collapses_without_phi_dependence(self):
        # theta2 = 0 removes the phi dependence: both sides P_l(cos theta1)
        for l in range(5):
            assert legendre_checks([l], [(0.8, 0.0, 1.9)])[0][0, 0] <= 1e-12

    def test_addition_argument_one(self):
        assert legendre_checks([1], [(math.pi / 2, math.pi / 2, 0.0)])[0][0, 0] <= 1e-14

    def test_addition_random_angles(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            t1, t2 = rng.uniform(0.05, math.pi - 0.05, 2)
            phi = rng.uniform(0, 2 * math.pi)
            for l in range(7):
                assert legendre_checks([l], [(t1, t2, phi)])[0][0, 0] <= 1e-9

    def test_addition_refuses_non_finite_angles(self):
        # The phase series sums finite WignerMatrix entries times unit phases,
        # so it cannot be NaN while the check returns: a non-finite angle is
        # refused before any deviation is formed.
        nan, inf = math.nan, math.inf
        for l in range(1, 6):
            for angles in ((nan, 0.4, 1.0), (0.3, nan, 1.0), (0.3, 0.4, nan), (0.3, 0.4, inf), (0.3, 0.4, -inf)):
                with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
                    legendre_checks([l], [angles])
        for l in range(6):
            for angles in ((inf, 0.4, 1.0), (-inf, 0.4, 1.0), (0.3, inf, 1.0)):
                with pytest.raises(ValueError, match="^math domain error$"):
                    legendre_checks([l], [angles])
        # At l = 0 the matrices are [[1]] at any angle; the Legendre argument
        # refuses a NaN or infinite phase instead.
        for angles in ((nan, 0.4, 1.0), (0.3, 0.4, nan), (0.3, 0.4, inf)):
            with pytest.raises(ValueError):
                legendre_checks([0], [angles])


# Reference copies of the per-triple checks that legendre_checks batches.
def old_legendre_product_check(l, theta1, theta2):
    n_phi = 2 * l + 1
    phis = 2 * math.pi * np.arange(n_phi) / n_phi
    args = math.cos(theta1) * math.cos(theta2) + math.sin(theta1) * math.sin(theta2) * np.cos(phis)
    values = legendre(l, args)
    average = float(pairwise_sum(values)) / n_phi
    return average - legendre(l, math.cos(theta1)) * legendre(l, math.cos(theta2))


def old_addition_formula_check(l, theta1, theta2, phi):
    h1, h2 = theta1 / 2, theta2 / 2
    left = Mat2C(math.sin(h1), -math.cos(h1), math.cos(h1), math.sin(h1))
    right = Mat2C(math.sin(h2), math.cos(h2), -math.cos(h2), math.sin(h2))
    T = multiply(multiply(left, diag_element(phi / 2)), right)
    spin = HalfInt(2 * l)
    S = oracle_stack(spin, *zip(*((X.a, X.b, X.c, X.d) for X in (T, left, right))))
    center = complex(S[0, l, l])
    composite = math.cos(theta1) * math.cos(theta2) + math.sin(theta1) * math.sin(theta2) * math.cos(phi)
    closed_form = legendre(l, composite)
    series = 0j
    for k, r, c in zip(spin_range(spin), S[1, l].tolist(), S[2, :, l].tolist()):
        series += r * c * np.exp(-1j * float(k) * phi)
    return max(abs(center - closed_form), abs(center - series))


class TestBatchedLegendreChecks:
    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_ten_triples_at_degrees_0_to_6_are_the_per_triple_checks(self, seed):
        # The legendre suite's draw: every deviation of the batch, bit for bit.
        angles = legendre_angles(seed)
        addition, product = legendre_checks(range(7), angles)
        assert addition.shape == product.shape == (10, 7)
        for t, (t1, t2, phi) in enumerate(angles):
            for l in range(7):
                want_addition = old_addition_formula_check(l, t1, t2, phi).hex()
                want_product = old_legendre_product_check(l, t1, t2).hex()
                one_addition, one_product = legendre_checks([l], [(t1, t2, phi)])  # one degree and triple
                assert float(addition[t, l]).hex() == want_addition == float(one_addition[0, 0]).hex()
                assert float(product[t, l]).hex() == want_product == float(one_product[0, 0]).hex()

    def test_degrees_in_any_order_and_empty_inputs(self):
        angles = [(0.3, 1.1, 2.0), (2.9, 0.05, 5.5)]
        addition, product = legendre_checks([4, 0, 2], angles)
        for t, (t1, t2, phi) in enumerate(angles):
            for d, l in enumerate([4, 0, 2]):
                assert float(addition[t, d]).hex() == old_addition_formula_check(l, t1, t2, phi).hex()
                assert float(product[t, d]).hex() == old_legendre_product_check(l, t1, t2).hex()
        assert [a.shape for a in legendre_checks([], angles)] == [(2, 0), (2, 0)]
        assert [a.shape for a in legendre_checks([3], [])] == [(0, 1), (0, 1)]
        with pytest.raises(ValueError, match="^negative degree l=-1$"):
            legendre_checks([2, -1], angles)


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
