"""wignerkit: irreducible SU(2)/GL(2,C) representation matrices, the
Jacobi/Krawtchouk/Legendre polynomials inside their matrix elements, and
quadrature-exact orthogonality verification under the invariant measure.
"""
from .exactcomb import (
    HalfInt,
    binomial,
    check_spin_pair,
    factorial,
    is_valid_spin_pair,
    pochhammer,
    spin_range,
    spins_up_to,
)
from .group import EulerAngles, Mat2C, diag_element, from_euler, multiply, sample_haar
from .haar import (
    DeviationReport,
    HaarGrid,
    build_grid,
    character_norm,
    legendre_checks,
    pairwise_sum,
    schur_check,
    schur_checks,
)
from .specfun import (
    JacobiParams,
    hyp2f1,
    hyp2f1_complex,
    hyp2f1_series_coeffs,
    integer_jacobi_norm,
    jacobi_complex,
    jacobi_eval,
    jacobi_norm,
    jacobi_rodrigues,
    jacobi_rows,
    jacobi_values,
    jacobi_via_2f1,
    krawtchouk,
    legendre,
)
from .wigner import (
    RouteUnavailableError,
    WignerMatrix,
    apply_symmetry,
    character,
    chart_phases,
    dmatrix_euler,
    hyp_matrices,
    hyp_matrix,
    hyp_symmetric_matrices,
    hyp_symmetric_matrix,
    jacobi_matrices,
    jacobi_matrix,
    jacobi_stack,
    krawtchouk_stack,
    oracle_matrix,
    oracle_stack,
    rodrigues_stack,
    sum_matrices,
    sum_matrix,
    tmn_hyp,
    tmn_hyp_symmetric,
    tmn_jacobi,
    tmn_krawtchouk,
    tmn_rodrigues,
    tmn_sum,
)

__version__ = "0.1.0"
