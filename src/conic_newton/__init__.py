"""Semi-smooth Newton solver for conic projection equations.

Solves P_K(x) + Tx = b over closed convex cones (orthant, second-order,
positive semidefinite, and their products), with a quadratic conic
programming frontend, a specialized nearest-correlation-matrix solver, a
convergence analyzer, and a benchmark harness with performance profiles.

The package exports what a caller of the solvers needs; internals such as
the NCM steps or the KKT residual are imported from their modules.  The
``analysis``, ``ncm``, ``matrixio``, ``bench`` and ``cli`` modules load on
first use (an attribute access or ``from conic_newton import ...``), so a
projection equation or QCP solve does not pay for them.
"""

import importlib

__version__ = "0.1.0"

from .cones import Cone, FreeSpace, Orthant, Product, PsdCone, SecondOrder, smat, svec
from .exceptions import DimensionMismatchError, NumericalFailureError
from .newton import NewtonConfig, SolveReport, Termination, residual, solve
from .operators import (
    AugmentedKkt,
    DenseOperator,
    EquationForm,
    LinearOperator,
    ProjectionEquationProblem,
    ScaledIdentity,
)
from .qcp import KktPoint, QcpProblem, solve_qcp

__all__ = [
    "AugmentedKkt",
    "Cone",
    "DenseOperator",
    "DimensionMismatchError",
    "EquationForm",
    "FreeSpace",
    "Guarantee",
    "KktPoint",
    "LinearOperator",
    "NcmProblem",
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
    "residual",
    "smat",
    "solve",
    "solve_ncm",
    "solve_ncm_baseline",
    "solve_ncm_diagonal",
    "solve_qcp",
    "svec",
]

# submodules, and the exports of two of them, that load on first access
_LAZY_MODULES = ("analysis", "bench", "cli", "matrixio", "ncm")
_LAZY_NAMES = {
    "Guarantee": "analysis",
    "analyze": "analysis",
    "NcmProblem": "ncm",
    "solve_ncm": "ncm",
    "solve_ncm_baseline": "ncm",
    "solve_ncm_diagonal": "ncm",
}


def __getattr__(name):
    if name in _LAZY_MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY_NAMES:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY_NAMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_LAZY_MODULES})
