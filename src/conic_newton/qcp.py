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
from .cones import Cone, FreeSpace, Product
from .exceptions import DimensionMismatchError
from .operators import (
    AugmentedKkt,
    EquationForm,
    LinearOperator,
    ProjectionEquationProblem,
    as_operator,
)


@dataclass(frozen=True)
class QcpProblem:
    """Quadratic conic program data; ``equality`` is an optional (A, b_eq) pair."""

    Q: LinearOperator
    q: np.ndarray
    cone: Cone
    equality: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        object.__setattr__(self, "Q", as_operator(self.Q, dim=self.cone.ambient_dim))
        q = np.asarray(self.q, dtype=float)
        d = self.cone.ambient_dim
        if self.Q.dim != d:
            raise DimensionMismatchError(
                f"quadratic operator dimension {self.Q.dim} does not match cone "
                f"ambient dimension {d}"
            )
        if q.shape != (d,):
            raise DimensionMismatchError(
                f"linear term has shape {q.shape}, expected ({d},)"
            )
        if not np.all(np.isfinite(q)):
            raise ValueError("linear term contains non-finite entries")
        object.__setattr__(self, "q", q)
        if self.equality is not None:
            a = np.asarray(self.equality[0], dtype=float)
            b_eq = np.asarray(self.equality[1], dtype=float)
            if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b_eq))):
                raise ValueError("equality data contains non-finite entries")
            if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] != d:
                raise DimensionMismatchError(
                    f"equality matrix has shape {a.shape}, expected (m, {d}) with m >= 1"
                )
            if b_eq.shape != (a.shape[0],):
                raise DimensionMismatchError(
                    f"equality right-hand side has shape {b_eq.shape}, expected "
                    f"({a.shape[0]},)"
                )
            object.__setattr__(self, "equality", (a, b_eq))


@dataclass
class KktPoint:
    """Primal-dual candidate: x in the cone, equality multiplier lam, dual mu."""

    x: np.ndarray
    lam: np.ndarray | None
    mu: np.ndarray
    verified: bool = True


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
    multiplier part of the root.  A run that stops at the iteration limit still returns a KktPoint, but
    flagged unverified so callers can record the failure.
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
    verified = report.termination.converged
    return KktPoint(x=x, lam=lam, mu=mu, verified=verified), report


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
