"""Quadratic conic programming via projection equations.

A program  min 0.5 <x, Qx> + <q, x>  over a cone (optionally with linear
equality constraints Ax = b_eq) reduces to a projection-linear equation:

* unconstrained:  (Q - I) P_K(x) + x = -q, the form below with no rows
* with equalities, on the product of the cone with a free block for the
  multipliers:  ([[Q, A^T], [A, 0]] - I) P(x, lam) + (x, lam) = (-q, b_eq)

A root x of the reduced equation yields the KKT point x_bar = P_K(x) with
multiplier estimate mu = Q x_bar + q + A^T lam, and conversely any KKT
point embeds back into a root of the reduced equation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import newton
from .cones import Cone, FreeSpace, Product, _cone
from .exceptions import DimensionMismatchError, _finite, _matrix, _vector
from .operators import (
    AugmentedKkt,
    EquationForm,
    LinearOperator,
    ProjectionEquationProblem,
    _operator,
)


@dataclass(frozen=True, eq=False)
class QcpProblem:
    """Quadratic conic program data.  ``Q`` may be given as a matrix or as a
    scalar c, meaning c I; ``equality`` is an optional (A, b_eq) pair."""

    Q: LinearOperator
    q: np.ndarray
    cone: Cone
    equality: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        d = _cone(self.cone).ambient_dim
        object.__setattr__(self, "Q", _operator(self.Q, d, "quadratic operator"))
        q = _vector(self.q, d, "linear term")
        object.__setattr__(self, "q", _finite(q, "linear term"))
        if self.equality is not None:
            a = _matrix(self.equality[0], "equality matrix", d)
            if not a.shape[0]:
                raise DimensionMismatchError("equality matrix needs at least one row")
            b_eq = _vector(self.equality[1], a.shape[0], "equality right-hand side")
            b_eq = _finite(b_eq, "equality right-hand side")
            object.__setattr__(self, "equality", (a, b_eq))


@dataclass(eq=False)
class KktPoint:
    """Primal-dual candidate: x in the cone, equality multiplier lam, dual mu."""

    x: np.ndarray
    lam: np.ndarray | None
    mu: np.ndarray


def to_projection_equation(problem: QcpProblem) -> ProjectionEquationProblem:
    """Reduce the program to its projection-linear equation; a program
    without equality constraints has no multiplier rows."""
    if problem.equality is None:
        a, b_eq = np.empty((0, problem.cone.ambient_dim)), np.empty(0)
        cone = problem.cone
    else:
        a, b_eq = problem.equality
        cone = Product((problem.cone, FreeSpace(a.shape[0])))
    return ProjectionEquationProblem(
        cone=cone,
        T=AugmentedKkt(problem.Q, a),
        b=np.concatenate([-problem.q, b_eq]),
        form=EquationForm.PROJECTION_LINEAR,
    )


def solve_qcp(
    problem: QcpProblem, config: newton.NewtonConfig | None = None
) -> tuple[KktPoint, newton.SolveReport]:
    """Solve the reduced equation and recover the KKT point from its root.

    ``x`` is the cone part of the report's ``projected_solution``, the
    projection the solver already took at its last iterate; ``lam`` is the
    multiplier part of the root.  A run that does not converge still
    returns a KktPoint; the report's ``termination.converged`` says which.
    """
    reduced = to_projection_equation(problem)
    report = newton.solve(reduced, config)
    d = problem.cone.ambient_dim
    x = report.projected_solution[:d].copy()
    mu = problem.Q.apply(x) + problem.q
    lam = None
    if problem.equality is not None:
        a, _ = problem.equality
        lam = report.solution[d:].copy()
        mu += a.T @ lam
    return KktPoint(x=x, lam=lam, mu=mu), report


def kkt_components(problem: QcpProblem, point: KktPoint) -> dict[str, float]:
    """The four first-order-condition residuals, unnormalized."""
    x = np.asarray(point.x, dtype=float)
    mu = np.asarray(point.mu, dtype=float)
    cone = problem.cone
    out = {
        "primal_cone": float(np.linalg.norm(x - cone.project(x))),
        "dual_cone": float(np.linalg.norm(mu - cone.project_dual(mu))),
        "complementarity": float(abs(np.dot(mu, x))),
    }
    if problem.equality is not None:
        a, b_eq = problem.equality
        out["equality"] = float(np.linalg.norm(a @ x - b_eq))
    return out


def kkt_residual(problem: QcpProblem, point: KktPoint) -> float:
    """Largest of the first-order-condition residuals."""
    return max(kkt_components(problem, point).values())


def embed_kkt(problem: QcpProblem, point: KktPoint, tol: float = 1e-9) -> np.ndarray:
    """Map a KKT point back to a root of the reduced projection equation.

    Validates the first-order conditions at ``tol`` first (complementarity
    is normalized by 1 + |x||mu|); the returned vector is
    x - (Qx + q + A^T lam) joined with lam when equalities are present.
    """
    comps = kkt_components(problem, point)
    x = point.x
    mu = point.mu
    scale = 1.0 + np.linalg.norm(x) * np.linalg.norm(mu)
    violations = dict(comps)
    violations["complementarity"] = comps["complementarity"] / scale
    bad = {name: v for name, v in violations.items() if v > tol}
    if bad:
        detail = ", ".join(f"{k}={v:.3e}" for k, v in bad.items())
        raise ValueError(f"point violates the first-order conditions: {detail}")
    if problem.equality is None:
        return x - (problem.Q.apply(x) + problem.q)
    a, _ = problem.equality
    lam = point.lam if point.lam is not None else np.zeros(a.shape[0])
    top = x - (problem.Q.apply(x) + problem.q + a.T @ lam)
    return np.concatenate([top, lam])
