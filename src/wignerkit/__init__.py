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
    addition_formula_check,
    build_grid,
    character_norm,
    integrate,
    jacobi_orthogonality_check,
    legendre_product_check,
    pairwise_sum,
    schur_check,
)
from .specfun import (
    Hyp21Spec,
    JacobiParams,
    hyp2f1,
    hyp2f1_complex,
    hyp2f1_series_coeffs,
    hyp2f1_terminating,
    jacobi_complex,
    jacobi_eval,
    jacobi_norm,
    jacobi_rodrigues,
    jacobi_via_2f1,
    krawtchouk,
    legendre,
)
from .wigner import (
    RouteUnavailableError,
    WignerMatrix,
    apply_symmetry,
    character,
    dmatrix_euler,
    fold_to_quadrant,
    hyp_entries,
    jacobi_entries,
    jacobi_matrix,
    krawtchouk_stack,
    oracle_matrix,
    oracle_stack,
    rodrigues_stack,
    sum_matrix,
    tmn_hyp,
    tmn_hyp_symmetric,
    tmn_jacobi,
    tmn_krawtchouk,
    tmn_rodrigues,
    tmn_sum,
)

__version__ = "0.1.0"
