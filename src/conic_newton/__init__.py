"""Semi-smooth Newton solver for conic projection equations.

Solves P_K(x) + Tx = b over closed convex cones (orthant, second-order,
positive semidefinite, and their products), with a quadratic conic
programming frontend, a specialized nearest-correlation-matrix solver, and
a benchmark harness with performance profiles.
"""

__version__ = "0.1.0"

from .cones import (
    Cone,
    FreeSpace,
    JacobianElement,
    Orthant,
    Product,
    PsdCone,
    SecondOrder,
    smat,
    svec,
)
from .exceptions import DimensionMismatchError, NumericalFailureError
from .newton import NewtonConfig, SolveReport, Termination, measure_ratios, residual, solve
from .operators import (
    AugmentedKkt,
    DenseOperator,
    EquationForm,
    Guarantee,
    GuaranteeReport,
    LinearOperator,
    ProjectionEquationProblem,
    ScaledIdentity,
    analyze,
    analyze_problem,
    analyze_qcp_operator,
    as_operator,
)
from .ncm import (
    NcmProblem,
    NcmState,
    diagonal_step,
    ncm_residual,
    ncm_step,
    solve_ncm,
    solve_ncm_baseline,
    solve_ncm_diagonal,
)
from .qcp import KktPoint, QcpProblem, embed_kkt, kkt_residual, solve_qcp, to_projection_equation

__all__ = [
    "AugmentedKkt",
    "Cone",
    "DenseOperator",
    "DimensionMismatchError",
    "EquationForm",
    "FreeSpace",
    "Guarantee",
    "GuaranteeReport",
    "JacobianElement",
    "KktPoint",
    "LinearOperator",
    "NcmProblem",
    "NcmState",
    "NewtonConfig",
    "NumericalFailureError",
    "Orthant",
    "Product",
    "ProjectionEquationProblem",
    "PsdCone",
    "QcpProblem",
    "ScaledIdentity",
    "SecondOrder",
    "SolveReport",
    "Termination",
    "analyze",
    "analyze_problem",
    "analyze_qcp_operator",
    "as_operator",
    "diagonal_step",
    "embed_kkt",
    "kkt_residual",
    "measure_ratios",
    "ncm_residual",
    "ncm_step",
    "residual",
    "smat",
    "solve",
    "solve_ncm",
    "solve_ncm_baseline",
    "solve_ncm_diagonal",
    "solve_qcp",
    "svec",
    "to_projection_equation",
]
