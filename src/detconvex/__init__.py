"""Convexity certification for determinant-composed energies on the cone
of symmetric positive definite matrices."""

__version__ = "0.1.0"

from .certifier import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
    CertificationReport,
    GridSpec,
    Witness,
    certify,
    diff_ineq_lhs,
    reduction_check,
    sample_convexity,
    sigma_checks,
    witness_positive_fprime,
    witness_second_order,
)
from .detcalculus import (
    condition_lhs_diag,
    directional_forms,
    g_grad_form,
    g_hess_form,
    oracle_sweep,
)
from .linalg import (
    PosDefMatrix,
    det,
    frob_inner,
    jacobi_eigen,
    random_posdef,
    random_sym,
)
from .odelimit import (
    CurveTable,
    IvpSpec,
    comparison_check,
    export_family_curves,
    solve_livp_numeric,
    y_limit_function,
)
from .scalarfun import (
    Expr,
    FamilyA,
    Jet2,
    LogFamily,
    NeoHookeVolumetric,
    PowerLaw,
    eval_jet,
    parse,
)

__all__ = [
    "CERTIFIED",
    "INCONCLUSIVE",
    "REFUTED",
    "CertificationReport",
    "CurveTable",
    "Expr",
    "FamilyA",
    "GridSpec",
    "IvpSpec",
    "Jet2",
    "LogFamily",
    "NeoHookeVolumetric",
    "PosDefMatrix",
    "PowerLaw",
    "Witness",
    "certify",
    "comparison_check",
    "condition_lhs_diag",
    "det",
    "diff_ineq_lhs",
    "directional_forms",
    "eval_jet",
    "export_family_curves",
    "frob_inner",
    "g_grad_form",
    "g_hess_form",
    "jacobi_eigen",
    "oracle_sweep",
    "parse",
    "random_posdef",
    "random_sym",
    "reduction_check",
    "sample_convexity",
    "sigma_checks",
    "solve_livp_numeric",
    "witness_positive_fprime",
    "witness_second_order",
    "y_limit_function",
]
