"""Matrix-element routes against the polynomial-expansion oracle.

The oracle itself is pinned by hand-checkable cases (spin 0, spin 1/2, the
identity element, diagonal elements); every closed-form route is then held
to the oracle on its stated domain.
"""
import cmath
import math

import numpy as np
import pytest

from wignerkit.exactcomb import HalfInt, binomial, spin_range
from wignerkit.group import EulerAngles, Mat2C, diag_element, from_euler, sample_haar
from wignerkit.haar import build_grid
from wignerkit.verify import max_norm, sample_gl2
from wignerkit.wigner import (
    RouteUnavailableError,
    WignerMatrix,
    apply_symmetry,
    character,
    dmatrix_euler,
    _fold,
    jacobi_stack,
    krawtchouk_stack,
    oracle_matrix,
    oracle_stack,
    recurrence_stack,
    ROTATION_ROUTES,
    tmn_hyp,
    tmn_hyp_symmetric,
    tmn_jacobi,
    tmn_krawtchouk,
    tmn_rodrigues,
    tmn_sum,
)

A_TEST = Mat2C(1, 2, 3, 4)
SPINS = [HalfInt(t) for t in range(0, 7)]  # 0, 1/2, ..., 3


def su2_and_gl2_samples():
    return sample_haar(11, 20), sample_gl2(12, 10)


class TestOracleMatrix:
    def test_spin_zero_is_scalar_one(self):
        M = oracle_matrix(HalfInt(0), A_TEST)
        assert M.entries.shape == (1, 1)
        assert M.entries[0, 0] == 1.0

    def test_spin_half_is_the_matrix_itself(self):
        M = oracle_matrix(HalfInt(1), A_TEST)
        assert np.allclose(M.entries, A_TEST.as_array(), atol=1e-15)

    def test_identity_maps_to_identity(self):
        for l in SPINS:
            M = oracle_matrix(l, Mat2C(1, 0, 0, 1))
            assert np.allclose(M.entries, np.eye(l.twice + 1), atol=1e-15)

    def test_index_convention(self):
        # row 0 is m = -l: the (m=-l, n=l) corner of spin 1 is b^2... pinned
        # by the basis-vector expansion by hand: column n=l is sqrt(C(2l,0)) (b z1 + d z2)^2l.
        M = oracle_matrix(HalfInt(2), A_TEST)
        assert M.entry(HalfInt(-2), HalfInt(2)) == pytest.approx(4.0)  # b^2
        assert M.entry(HalfInt(2), HalfInt(2)) == pytest.approx(16.0)  # d^2

    def test_double_generating_function(self):
        # the elementary power (a z1 w1 + b z1 w2 + c z2 w1 + d z2 w2)^2l
        # reproduces the weighted double sum of oracle entries
        rng = np.random.default_rng(31)
        for l in (HalfInt(1), HalfInt(3), HalfInt(6)):
            A = Mat2C(*(complex(x, y) for x, y in rng.uniform(-1, 1, (4, 2))))
            z1, z2, w1, w2 = (complex(x, y) for x, y in rng.uniform(-1, 1, (4, 2)))
            lhs = (A.a * z1 * w1 + A.b * z1 * w2 + A.c * z2 * w1 + A.d * z2 * w2) ** l.twice
            M = oracle_matrix(l, A)
            rhs = 0j
            for m in spin_range(l):
                for n in spin_range(l):
                    lm = (l - m).as_int()
                    ln = (l - n).as_int()
                    rhs += (
                        math.sqrt(binomial(l.twice, lm) * binomial(l.twice, ln))
                        * M.entry(m, n)
                        * z1**lm
                        * z2 ** (l + m).as_int()
                        * w1**ln
                        * w2 ** (l + n).as_int()
                    )
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_entries_homogeneous_of_degree_2l(self):
        for lam in (2.0, 1j):
            for l in (HalfInt(1), HalfInt(2), HalfInt(5)):
                base = oracle_matrix(l, A_TEST).entries
                scaled = oracle_matrix(
                    l, Mat2C(lam * A_TEST.a, lam * A_TEST.b, lam * A_TEST.c, lam * A_TEST.d)
                ).entries
                assert np.max(np.abs(scaled - lam**l.twice * base)) <= 1e-10 * np.max(
                    np.abs(scaled)
                )

    def test_diagonal_action(self):
        # t(a_phi) is diagonal with entries e^{-2 i n phi}
        for phi in (0.0, 0.9, 4.1):
            for l in (HalfInt(1), HalfInt(2), HalfInt(3)):
                M = oracle_matrix(l, diag_element(phi))
                expected = np.diag(
                    [cmath.exp(-2j * float(n) * phi) for n in spin_range(l)]
                )
                assert np.max(np.abs(M.entries - expected)) <= 1e-12

    def test_homomorphism(self):
        su2, _ = su2_and_gl2_samples()
        pairs = list(zip(su2[:10], su2[10:]))
        for l in SPINS:
            for A, B in pairs:
                AB = Mat2C.from_array(A.as_array() @ B.as_array())
                product = oracle_matrix(l, A).entries @ oracle_matrix(l, B).entries
                dev = max_norm(oracle_matrix(l, AB).entries - product)
                assert dev <= 1e-9 * max_norm(product)

    def test_unitary_on_su2(self):
        su2, _ = su2_and_gl2_samples()
        for l in SPINS:
            for g in su2:
                T = oracle_matrix(l, g).entries
                assert max_norm(T @ T.conj().T - np.eye(l.twice + 1)) <= 1e-10

    def test_row_orthogonality_real_rotation(self):
        for l in SPINS:
            for theta in (math.pi / 6, math.pi / 3):
                T = oracle_matrix(l, from_euler(EulerAngles(theta, 0.0, 0.0))).entries
                # no conjugation: the matrix is real
                assert max_norm(T @ T.T - np.eye(l.twice + 1)) <= 1e-10


class TestOracleStack:
    """The expansion of a batch of elements against the same expansion at
    each element alone."""

    @staticmethod
    def assert_matches(stack, elements, l):
        for i, A in enumerate(elements):
            reference = oracle_matrix(l, A).entries
            assert max_norm(stack[i] - reference) <= 1e-14 * max_norm(reference)

    @staticmethod
    def stack_of(l, elements):
        return oracle_stack(l, *(np.array([getattr(A, k) for A in elements]) for k in "abcd"))

    def test_every_haar_grid_node(self):
        # the grid builds its node entries from the angle arrays, not from
        # from_euler, so this also ties those formulas to the chart
        grid = build_grid(HalfInt(6))
        elements = [
            from_euler(EulerAngles(float(t), float(p), float(q))) for t, p, q in zip(grid.thetas, grid.phis, grid.psis)
        ]
        for l in SPINS:
            stack = grid.matrices(l)
            assert stack.shape == (grid.node_count, l.twice + 1, l.twice + 1)
            self.assert_matches(stack, elements, l)

    def test_gl2_elements(self):
        elements = sample_gl2(31, 40)
        for l in SPINS:
            self.assert_matches(self.stack_of(l, elements), elements, l)

    def test_diagonal_elements(self):
        # b = c = 0: every power table but 0^0 vanishes off the diagonal
        elements = [diag_element(phi) for phi in np.linspace(0.0, 2 * math.pi, 9)]
        for l in SPINS:
            stack = self.stack_of(l, elements)
            self.assert_matches(stack, elements, l)
            assert np.all(stack[:, ~np.eye(l.twice + 1, dtype=bool)] == 0)

    def test_negative_spin_rejected(self):
        with pytest.raises(ValueError):
            oracle_stack(HalfInt(-1), [1.0], [0.0], [0.0], [1.0])

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            oracle_stack(HalfInt(2), [1.0, np.nan], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0])


class TestTmnSum:
    def test_corner_single_term(self):
        # m = n = l keeps only the top-degree monomial d^2l
        assert tmn_sum(HalfInt(2), HalfInt(2), HalfInt(2), Mat2C(2, 0, 0, 3)) == 9.0

    def test_last_column_closed_form(self):
        # n = l column: sqrt(C(2l, l-m)) b^(l-m) d^(l+m)
        for l in (HalfInt(2), HalfInt(3), HalfInt(5)):
            for m in spin_range(l):
                lm = (l - m).as_int()
                expected = (
                    math.sqrt(binomial(l.twice, lm)) * A_TEST.b**lm * A_TEST.d ** (l + m).as_int()
                )
                got = tmn_sum(l, m, HalfInt(l.twice), A_TEST)
                assert got == pytest.approx(expected, rel=1e-13)

    def test_spin_half_reproduces_matrix(self):
        l = HalfInt(1)
        half = HalfInt(1)
        assert tmn_sum(l, -half, -half, A_TEST) == 1.0
        assert tmn_sum(l, -half, half, A_TEST) == 2.0
        assert tmn_sum(l, half, -half, A_TEST) == 3.0
        assert tmn_sum(l, half, half, A_TEST) == 4.0

    def test_oracle_agreement(self):
        su2, gl2 = su2_and_gl2_samples()
        for l in SPINS:
            for A in su2 + gl2:
                reference = oracle_matrix(l, A)
                scale = max_norm(reference.entries)
                for m in spin_range(l):
                    for n in spin_range(l):
                        dev = abs(tmn_sum(l, m, n, A) - reference.entry(m, n))
                        assert dev <= 1e-10 * scale

    def test_zero_entries_with_zero_exponent(self):
        # 0^0 = 1 keeps the diagonal corner case alive at b = c = 0
        got = tmn_sum(HalfInt(4), HalfInt(4), HalfInt(4), Mat2C(2, 0, 0, 3))
        assert got == 81.0


class TestTmnHyp:
    def test_against_finite_sum(self):
        got = tmn_hyp(HalfInt(2), HalfInt(2), HalfInt(0), A_TEST)
        want = tmn_sum(HalfInt(2), HalfInt(2), HalfInt(0), A_TEST)
        assert got == pytest.approx(want, rel=1e-12)
        # hand value: sqrt(2) * b^0 c^1 d^1 / 1! with a trivial 2F1
        assert got == pytest.approx(math.sqrt(2) * 12, rel=1e-12)

    def test_vanishing_offdiagonal_is_route_unavailable(self):
        with pytest.raises(RouteUnavailableError):
            tmn_hyp(HalfInt(2), HalfInt(2), HalfInt(2), Mat2C(2, 0, 0, 3))

    def test_negative_index_sum_is_the_folded_entry(self):
        # m + n < 0 folds onto m + n > 0 at an image of A
        got = tmn_hyp(HalfInt(2), HalfInt(-2), HalfInt(0), A_TEST)
        assert got == pytest.approx(tmn_sum(HalfInt(2), HalfInt(-2), HalfInt(0), A_TEST), rel=1e-12)

    def test_spin_half_diagonal(self):
        got = tmn_hyp(HalfInt(1), HalfInt(1), HalfInt(1), A_TEST)
        assert got == pytest.approx(4.0, rel=1e-13)

    def test_oracle_agreement_on_domain(self):
        su2, gl2 = su2_and_gl2_samples()
        for l in SPINS:
            for A in su2 + gl2:
                reference = oracle_matrix(l, A)
                scale = max_norm(reference.entries)
                for m in spin_range(l):
                    for n in spin_range(l):
                        if A.b == 0 or A.c == 0:
                            continue
                        dev = abs(tmn_hyp(l, m, n, A) - reference.entry(m, n))
                        assert dev <= 1e-9 * scale


class TestTmnHypSymmetric:
    def test_matches_primary_2f1_form(self):
        su2, gl2 = su2_and_gl2_samples()
        for l in SPINS:
            for A in su2[:5] + gl2[:5]:
                reference = oracle_matrix(l, A)
                scale = max_norm(reference.entries)
                for m in spin_range(l):
                    for n in spin_range(l):
                        dev = abs(tmn_hyp_symmetric(l, m, n, A) - reference.entry(m, n))
                        assert dev <= 1e-9 * scale


class TestTmnJacobi:
    def test_top_corner(self):
        got = tmn_jacobi(HalfInt(2), HalfInt(2), HalfInt(2), A_TEST)
        assert got == pytest.approx(16.0, rel=1e-13)

    def test_unimodular_central_element_is_legendre(self):
        # for det A = 1 the central element is P_l(2ad - 1)
        from wignerkit.specfun import legendre

        A = Mat2C(2, 1, 1, 1)  # det = 1
        for l in range(5):
            got = tmn_jacobi(HalfInt(2 * l), HalfInt(0), HalfInt(0), A)
            assert got.real == pytest.approx(legendre(l, 2 * 2 * 1 - 1), rel=1e-11)

    def test_angle_chart_center(self):
        got = tmn_jacobi(HalfInt(2), HalfInt(0), HalfInt(0), from_euler(EulerAngles(math.pi / 4, 0, 0)))
        assert abs(got) <= 1e-15

    def test_route_unavailable_cases(self):
        # m - n < 0 folds onto the quadrant; only bc = ad is refused
        got = tmn_jacobi(HalfInt(2), HalfInt(0), HalfInt(2), A_TEST)
        assert got == pytest.approx(tmn_sum(HalfInt(2), HalfInt(0), HalfInt(2), A_TEST), rel=1e-12)
        with pytest.raises(RouteUnavailableError):
            tmn_jacobi(HalfInt(2), HalfInt(2), HalfInt(0), Mat2C(1, 2, 2, 4))  # bc = ad

    def test_oracle_agreement_on_domain(self):
        su2, gl2 = su2_and_gl2_samples()
        for l in SPINS:
            for A in su2 + gl2:
                reference = oracle_matrix(l, A)
                scale = max_norm(reference.entries)
                for m in spin_range(l):
                    for n in spin_range(l):
                        if A.b * A.c == A.a * A.d:
                            continue
                        dev = abs(tmn_jacobi(l, m, n, A) - reference.entry(m, n))
                        assert dev <= 1e-9 * scale


class TestDmatrixEuler:
    def test_center_entry_quarter_turn(self):
        M = dmatrix_euler(HalfInt(2), EulerAngles(math.pi / 4, 0.0, 0.0))
        assert abs(M.entry(HalfInt(0), HalfInt(0))) <= 1e-15

    def test_identity_angles(self):
        for l in SPINS:
            M = dmatrix_euler(l, EulerAngles(math.pi / 2, 0.0, 0.0))
            assert np.allclose(M.entries, np.eye(l.twice + 1), atol=1e-14)

    def test_spin_half_equals_chart_matrix(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            angles = EulerAngles(
                rng.uniform(0, math.pi / 2),
                rng.uniform(0, 2 * math.pi),
                rng.uniform(0, 2 * math.pi),
            )
            M = dmatrix_euler(HalfInt(1), angles)
            assert np.max(np.abs(M.entries - from_euler(angles).as_array())) <= 1e-14

    def test_oracle_agreement_all_quadrants(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            angles = EulerAngles(
                rng.uniform(0, math.pi / 2),
                rng.uniform(0, 2 * math.pi),
                rng.uniform(0, 2 * math.pi),
            )
            for l in SPINS:
                got = dmatrix_euler(l, angles).entries
                want = oracle_matrix(l, from_euler(angles)).entries
                assert np.max(np.abs(got - want)) <= 1e-9 * max_norm(want)

    def test_boundary_thetas(self):
        for theta in (0.0, math.pi / 2):
            for l in SPINS:
                angles = EulerAngles(theta, 0.7, 5.1)
                got = dmatrix_euler(l, angles).entries
                want = oracle_matrix(l, from_euler(angles)).entries
                assert np.max(np.abs(got - want)) <= 1e-12

    def test_zero_phases_are_exactly_real(self):
        # phi = psi = 0: the phases are all 1, and d(theta) is real.
        for theta in (0.0, 0.3, math.pi / 4, 1.2, math.pi / 2):
            for l_x2 in range(41):
                M = dmatrix_euler(HalfInt(l_x2), EulerAngles(theta, 0.0, 0.0))
                assert not M.entries.imag.any(), (theta, l_x2)

    def test_folded_signs_match_the_oracle(self):
        # At zero phases, transpose-bc and flip-signs carry (-1)^(i' - j') and
        # anti-transpose none; a wrong sign is off by twice the entry.
        for theta in (0.2, 0.7, 1.3):
            for phi, psi in ((0.0, 0.0), (1.2, 0.3), (5.9, 4.4)):
                angles = EulerAngles(theta, phi, psi)
                for l in SPINS:
                    got = dmatrix_euler(l, angles).entries
                    want = oracle_matrix(l, from_euler(angles)).entries
                    assert np.max(np.abs(got - want)) <= 1e-13 * max_norm(want), (angles, l)

    def test_diagonal_subgroup_action(self):
        # theta = pi/2 with a phase lands on diag(e^{i phi}, e^{-i phi}):
        # the matrix is diagonal with entries e^{-2 i n phi}
        for phi in (0.4, 3.3):
            for l in (HalfInt(2), HalfInt(3)):
                got = dmatrix_euler(l, EulerAngles(math.pi / 2, phi, 0.0)).entries
                expected = np.diag([cmath.exp(-2j * float(n) * phi) for n in spin_range(l)])
                assert np.max(np.abs(got - expected)) <= 1e-12


class TestJacobiStack:
    def test_unitary_near_the_ends_of_the_chart(self):
        # cos 2 theta from the rounded sine (cosine) keeps 1 - cos 2 theta
        # (1 + cos 2 theta) exact; from a rounded cos(2 theta) the residual
        # here was 1.3e-13.
        d = jacobi_stack(HalfInt(120), [1e-3, math.pi / 2 - 1e-3])
        for layer in d:
            assert np.max(np.abs(layer @ layer.T - np.eye(121))) <= 1e-14

    def test_a_stack_is_its_angles_one_at_a_time(self):
        thetas = [0.0, 0.3, math.pi / 4, 1.2, math.pi / 2]
        for l_x2 in range(7):
            l = HalfInt(l_x2)
            d = jacobi_stack(l, thetas)
            assert d.shape == (5, l_x2 + 1, l_x2 + 1) and d.flags.c_contiguous
            for theta, layer in zip(thetas, d):
                assert layer.tobytes() == jacobi_stack(l, [theta])[0].tobytes()


class TestRecurrenceStack:
    THETAS = [0.05, 0.7, math.pi / 4, 1.2, 1.55]

    def test_entries_are_the_jacobi_forms(self):
        # Odd spins included; at theta = 0 against the Krawtchouk form.
        for l_x2 in range(81):
            l = HalfInt(l_x2)
            assert np.max(np.abs(recurrence_stack(l, self.THETAS) - jacobi_stack(l, self.THETAS))) <= 1e-12, l_x2
            assert np.max(np.abs(recurrence_stack(l, [0.0]) - krawtchouk_stack(l, [0.0]))) <= 1e-12, l_x2

    @pytest.mark.parametrize("count", [2, 3, 5, 17])
    def test_a_stack_is_its_angles_one_at_a_time(self, count):
        thetas = np.linspace(0.0, math.pi / 2, count).tolist()
        for l_x2 in (0, 1, 2, 7, 40, 81):
            l = HalfInt(l_x2)
            d = recurrence_stack(l, thetas)
            assert d.shape == (count, l_x2 + 1, l_x2 + 1) and d.flags.c_contiguous
            for theta, layer in zip(thetas, d):
                assert layer.tobytes() == recurrence_stack(l, [theta])[0].tobytes(), (count, l_x2, theta)

    @pytest.mark.parametrize("l_x2", [200, 201, 400])
    def test_unitary_at_high_spin(self, l_x2):
        # The oracle's residual at (0.7, 1.2, 0.3) and l_x2 200 is 4.4e25.  At
        # the ends of the chart, where cos beta = -+1, the residual is largest.
        l = HalfInt(l_x2)
        angles = [EulerAngles(theta, 1.2, 0.3) for theta in (0.7, 0.0, 0.01, math.pi / 4, 1.565, math.pi / 2)]
        residuals = [max_norm(T @ T.conj().T - np.eye(l_x2 + 1)) for T in ROTATION_ROUTES["recurrence"](l, angles)]
        assert residuals[0] < 1e-13 and max(residuals) < 1e-12, residuals


class TestTmnRodrigues:
    def test_zeroth_derivative_case(self):
        got = tmn_rodrigues(HalfInt(2), HalfInt(2), HalfInt(2), math.pi / 3)
        assert got == pytest.approx(math.sin(math.pi / 3) ** 2, rel=1e-14)

    def test_center_zero(self):
        assert abs(tmn_rodrigues(HalfInt(2), HalfInt(0), HalfInt(0), math.pi / 4)) <= 1e-15

    def test_spin_half_off_diagonals(self):
        # (m, n) = (-1/2, +1/2) is the upper-right entry -cos(theta);
        # (m, n) = (+1/2, -1/2) the lower-left +cos(theta)
        theta = math.pi / 6
        got_b = tmn_rodrigues(HalfInt(1), HalfInt(-1), HalfInt(1), theta)
        got_c = tmn_rodrigues(HalfInt(1), HalfInt(1), HalfInt(-1), theta)
        assert got_b == pytest.approx(-math.cos(theta), rel=1e-14)
        assert got_c == pytest.approx(math.cos(theta), rel=1e-14)
        M = oracle_matrix(HalfInt(1), from_euler(EulerAngles(theta, 0.0, 0.0)))
        assert got_b == pytest.approx(M.entry(HalfInt(-1), HalfInt(1)).real, rel=1e-14)
        assert got_c == pytest.approx(M.entry(HalfInt(1), HalfInt(-1)).real, rel=1e-14)

    def test_all_indices_valid(self):
        # valid for every (m, n), not only the closed-form quadrant
        rng = np.random.default_rng(23)
        for theta in rng.uniform(0.05, math.pi / 2 - 0.05, 5):
            for l in SPINS:
                want = oracle_matrix(l, from_euler(EulerAngles(theta, 0.0, 0.0)))
                scale = max_norm(want.entries)
                for m in spin_range(l):
                    for n in spin_range(l):
                        got = tmn_rodrigues(l, m, n, theta)
                        assert abs(got - want.entry(m, n).real) <= 1e-9 * scale

    def test_boundary_is_route_unavailable(self):
        for theta in (0.0, math.pi / 2):
            with pytest.raises(RouteUnavailableError):
                tmn_rodrigues(HalfInt(2), HalfInt(0), HalfInt(0), theta)

    def test_near_boundary_conditioning(self):
        # the expanded derivative collapses near the interval ends while the
        # prefactor holds negative trig powers; the evaluation must not let
        # rounding through that cancellation (regression: 3e-8 at theta 0.03)
        for theta in (1e-5, 1e-3, 0.03, math.pi / 2 - 0.03, math.pi / 2 - 1e-5):
            for l in SPINS:
                want = oracle_matrix(l, from_euler(EulerAngles(theta, 0.0, 0.0)))
                scale = max_norm(want.entries)
                for m in spin_range(l):
                    for n in spin_range(l):
                        got = tmn_rodrigues(l, m, n, theta)
                        assert abs(got - want.entry(m, n).real) <= 1e-12 * scale


class TestTmnKrawtchouk:
    def test_top_corner(self):
        got = tmn_krawtchouk(HalfInt(2), HalfInt(2), HalfInt(2), math.pi / 3)
        assert got == pytest.approx(0.75, rel=1e-14)

    def test_spin_half_diagonal(self):
        got = tmn_krawtchouk(HalfInt(1), HalfInt(1), HalfInt(1), math.pi / 6)
        assert got == pytest.approx(0.5, rel=1e-14)

    def test_antidiagonal_corner(self):
        got = tmn_krawtchouk(HalfInt(2), HalfInt(-2), HalfInt(2), math.pi / 4)
        assert got == pytest.approx(0.5, rel=1e-14)
        want = oracle_matrix(HalfInt(2), from_euler(EulerAngles(math.pi / 4, 0.0, 0.0)))
        assert got == pytest.approx(want.entry(HalfInt(-2), HalfInt(2)).real, rel=1e-13)

    def test_all_indices_valid(self):
        rng = np.random.default_rng(29)
        for theta in rng.uniform(0.05, math.pi / 2 - 0.05, 5):
            for l in SPINS:
                want = oracle_matrix(l, from_euler(EulerAngles(theta, 0.0, 0.0)))
                scale = max_norm(want.entries)
                for m in spin_range(l):
                    for n in spin_range(l):
                        got = tmn_krawtchouk(l, m, n, theta)
                        assert abs(got - want.entry(m, n).real) <= 1e-9 * scale

    def test_route_unavailable_cases(self):
        # cos(theta) = 0 is refused at every spin, spin 0 included
        for l_x2, m_x2, n_x2 in ((2, 0, 0), (2, -2, 0), (0, 0, 0)):
            with pytest.raises(RouteUnavailableError, match="needs cos"):
                tmn_krawtchouk(HalfInt(l_x2), HalfInt(m_x2), HalfInt(n_x2), math.pi / 2)

    def test_theta_zero_valid_for_nonnegative_index_sum(self):
        want = oracle_matrix(HalfInt(2), from_euler(EulerAngles(0.0, 0.0, 0.0)))
        got = tmn_krawtchouk(HalfInt(2), HalfInt(0), HalfInt(0), 0.0)
        assert got == pytest.approx(want.entry(HalfInt(0), HalfInt(0)).real, abs=1e-14)

    def test_theta_zero_valid_for_every_index(self):
        # folded onto the quadrant, where the sin power m + n is never negative
        for l_x2 in range(13):
            l = HalfInt(l_x2)
            want = oracle_matrix(l, from_euler(EulerAngles(0.0, 0.0, 0.0)))
            for m in spin_range(l):
                for n in spin_range(l):
                    assert tmn_krawtchouk(l, m, n, 0.0) == pytest.approx(want.entry(m, n).real, abs=1e-14)

    def test_near_boundary_conditioning(self):
        # the polynomial degenerates to a power of 1-p or p near the
        # interval ends, against negative trig powers in the prefactor
        for theta in (1e-5, 1e-3, 0.03, math.pi / 2 - 0.03, math.pi / 2 - 1e-5):
            for l in SPINS:
                want = oracle_matrix(l, from_euler(EulerAngles(theta, 0.0, 0.0)))
                scale = max_norm(want.entries)
                for m in spin_range(l):
                    for n in spin_range(l):
                        got = tmn_krawtchouk(l, m, n, theta)
                        assert abs(got - want.entry(m, n).real) <= 1e-12 * scale


class TestApplySymmetry:
    def test_transpose_bc_example(self):
        m2, n2, A2 = apply_symmetry("transpose-bc", HalfInt(2), HalfInt(2), HalfInt(0), A_TEST)
        assert (m2.twice, n2.twice) == (0, 2)
        assert A2 == Mat2C(1, 3, 2, 4)

    def test_flip_signs_is_involution(self):
        m2, n2, A2 = apply_symmetry("flip-signs", HalfInt(2), HalfInt(2), HalfInt(-2), A_TEST)
        m3, n3, A3 = apply_symmetry("flip-signs", HalfInt(2), m2, n2, A2)
        assert (m3.twice, n3.twice) == (2, -2)
        assert A3 == A_TEST

    def test_anti_transpose_is_composite(self):
        l = HalfInt(3)
        m, n = HalfInt(1), HalfInt(-3)
        m2, n2, A2 = apply_symmetry("transpose-bc", l, m, n, A_TEST)
        m3, n3, A3 = apply_symmetry("flip-signs", l, m2, n2, A2)
        m4, n4, A4 = apply_symmetry("anti-transpose", l, m, n, A_TEST)
        assert (m3, n3, A3) == (m4, n4, A4)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            apply_symmetry("mirror", HalfInt(2), HalfInt(0), HalfInt(0), A_TEST)

    def test_all_three_preserve_matrix_elements(self):
        su2, gl2 = su2_and_gl2_samples()
        for name in ("transpose-bc", "flip-signs", "anti-transpose"):
            for l in (HalfInt(1), HalfInt(2), HalfInt(4)):
                for A in su2[:5] + gl2[:5]:
                    scale = max_norm(oracle_matrix(l, A).entries)
                    for m in spin_range(l):
                        for n in spin_range(l):
                            m2, n2, A2 = apply_symmetry(name, l, m, n, A)
                            dev = abs(tmn_sum(l, m, n, A) - tmn_sum(l, m2, n2, A2))
                            assert dev <= 1e-10 * scale

    def test_fold_to_quadrant_lands_in_quadrant(self):
        for twice in range(8):
            l = HalfInt(twice)
            for m in spin_range(l):
                for n in spin_range(l):
                    which, _, _ = _fold(twice, (l + m).as_int(), (l + n).as_int())
                    m2, n2, A2 = (m, n, A_TEST) if which is None else apply_symmetry(which, l, m, n, A_TEST)
                    assert (m2 + n2).twice >= 0 and (m2 - n2).twice >= 0
                    if (m + n).twice >= 0 and (m - n).twice >= 0:
                        assert (m2, n2, A2) == (m, n, A_TEST)


class TestCharacter:
    def test_identity(self):
        for l in SPINS:
            assert character(l, Mat2C(1, 0, 0, 1)) == pytest.approx(l.twice + 1)

    def test_diagonal_element_geometric_sum(self):
        for phi in (0.3, 2.2):
            for l in (HalfInt(1), HalfInt(3), HalfInt(4)):
                want = sum(cmath.exp(-2j * float(n) * phi) for n in spin_range(l))
                assert character(l, diag_element(phi)) == pytest.approx(want, abs=1e-12)

    def test_spin_half_is_trace(self):
        assert character(HalfInt(1), A_TEST) == pytest.approx(5.0)

    # Haar and GL(2, C) draws, +-I, a Jordan block, eigenvalues 1e-9 apart on
    # the unit circle, and a rank-1 element.
    EXACT_CASES = [
        *sample_haar(11, 4),
        *sample_gl2(12, 4),
        Mat2C(1, 0, 0, 1),
        Mat2C(-1, 0, 0, -1),
        Mat2C(1, 1, 0, 1),
        Mat2C(cmath.exp(1e-9j), 0, 0, cmath.exp(-1e-9j)),
        Mat2C(1, 2, 2, 4),
    ]

    @staticmethod
    def within_two_ulp(l2, A):
        # h_2l as the sum of lambda1^k lambda2^(2l-k) over A's eigenvalues in 120-digit mpmath.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(120):
            a, b, c, d = (mpmath.mpc(complex(v).real, complex(v).imag) for v in (A.a, A.b, A.c, A.d))
            root = mpmath.sqrt((a + d) ** 2 - 4 * (a * d - b * c))
            lam1, lam2 = (a + d + root) / 2, (a + d - root) / 2
            want = mpmath.fsum(lam1**k * lam2 ** (l2 - k) for k in range(l2 + 1))
            got = character(HalfInt(l2), A)
            return abs(mpmath.mpc(got.real, got.imag) - want) <= 2 * np.spacing(float(abs(want)))

    @pytest.mark.parametrize("l2", [6, 40, 200, 400])
    def test_is_the_exact_character_rounded_once(self, l2):
        assert all(self.within_two_ulp(l2, A) for A in self.EXACT_CASES)

    @pytest.mark.parametrize("l2", [6, 40])
    def test_a_tiny_imaginary_part_is_kept(self, l2):
        # 1e-300 i makes q = 2^1048 or so; the integers grow with it.
        assert self.within_two_ulp(l2, Mat2C(0.9 + 1e-300j, -0.2, 0.5, 0.8))

    def test_an_overflow_is_refused(self):
        assert self.within_two_ulp(200, Mat2C(30, 0, 0, 0.1))
        with pytest.raises(RouteUnavailableError, match="the character overflows"):
            character(HalfInt(400), Mat2C(30, 0, 0, 0.1))

    def test_a_non_finite_entry_is_refused(self):
        for bad in (math.nan, math.inf, complex(0, -math.inf)):
            with pytest.raises(ValueError, match="non-finite"):
                character(HalfInt(0), Mat2C(bad, 0, 0, 1))


class TestWignerMatrixType:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            WignerMatrix(HalfInt(2), np.eye(2))

    def test_nonfinite_rejected(self):
        bad = np.eye(3, dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            WignerMatrix(HalfInt(2), bad)

    def test_index_of(self):
        M = oracle_matrix(HalfInt(3), A_TEST)
        assert M.index_of(HalfInt(-3)) == 0
        assert M.index_of(HalfInt(3)) == 3
