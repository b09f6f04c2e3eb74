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
    witness_pair,
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
    jacobi_eigen,
    random_sym,
)
from .scalarfun import (
    CurveTable,
    Expr,
    FamilyA,
    Jet2,
    LogFamily,
    NeoHookeVolumetric,
    PowerLaw,
    eval_jet,
    export_family_curves,
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
    "Jet2",
    "LogFamily",
    "NeoHookeVolumetric",
    "PosDefMatrix",
    "PowerLaw",
    "Witness",
    "certify",
    "condition_lhs_diag",
    "det",
    "diff_ineq_lhs",
    "directional_forms",
    "eval_jet",
    "export_family_curves",
    "g_grad_form",
    "g_hess_form",
    "jacobi_eigen",
    "oracle_sweep",
    "parse",
    "random_sym",
    "reduction_check",
    "sample_convexity",
    "sigma_checks",
    "witness_pair",
]
