"""Semi-smooth Newton iteration for projection equations.

Each step selects one generalized-derivative element V of the cone
projection at the current iterate and solves a dense linear system:

* point-linear form:       (V + T) x_next = b
* projection-linear form:  (T V + I) x_next = b

Because V(x) x equals the projection of x, the residual of either form at
the new iterate vanishes exactly when the derivative selection repeats, so
a repeated selection pattern (confirmed by a residual check) is a sound
stopping rule alongside the plain residual tolerance.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DimensionMismatchError, NumericalFailureError
from .operators import EquationForm, ProjectionEquationProblem

_MAX_CONDITION = 1e14
# The LU answer is taken without an SVD only when the probe estimate sits
# this far below _MAX_CONDITION.
_PROBE_MARGIN = 1e4
_PROBE_COLUMNS = 4
_PROBE_SEED = 0
_DIVERGENCE_FACTOR = 1e12
_LSTSQ_FAIL_LIMIT = 3


class Termination(str, enum.Enum):
    RESIDUAL_TOL = "residual-tol"
    PATTERN_REPEAT = "pattern-repeat"
    MAX_ITER = "max-iter"
    SINGULAR_SYSTEM = "singular-system"


@dataclass(frozen=True)
class NewtonConfig:
    """Solver knobs; ``x0 = None`` means the zero starting point."""

    tol: float = 1e-5
    max_iter: int = 200
    x0: np.ndarray | None = None
    use_pattern_stop: bool = True
    record_history: bool = False

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class SolveReport:
    solution: np.ndarray
    projected_solution: np.ndarray
    iterations: int
    residuals: list[float]
    termination: Termination
    wall_time_seconds: float
    ratio_estimates: list[float] | None = None
    iterates: list[np.ndarray] | None = None


def residual(problem: ProjectionEquationProblem, x: np.ndarray) -> float:
    """Euclidean norm of the equation residual at x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.cone.ambient_dim,):
        raise DimensionMismatchError(
            f"point has shape {x.shape}, ambient dimension is "
            f"{problem.cone.ambient_dim}"
        )
    projected = problem.cone.project(x)
    if problem.form is EquationForm.POINT_LINEAR:
        value = projected + problem.T.apply(x) - problem.b
    else:
        value = problem.T.apply(projected) + x - problem.b
    return float(np.linalg.norm(value))


def _newton_matrix(T_dense, element, form):
    if form is EquationForm.POINT_LINEAR:
        return element.materialize() + T_dense
    eye = np.eye(T_dense.shape[0])
    if element.diagonal is not None:
        # T @ Diag(v) + I bit for bit: each entry of the product sums one
        # term T_ij v_j and signed zeros, and adding I clears the zeros' sign
        return T_dense * element.diagonal + eye
    return T_dense @ element.materialize() + eye


def _newton_step(matrix, rhs, probe_norms):
    """Solve ``matrix x = rhs[:, 0]``; return x and whether lstsq produced it.

    ``rhs`` is ``[b | G]`` with fixed Gaussian probe columns G.  One LU
    solve gives the step and the condition estimate
    ``|M|_F max_j |M^-1 g_j| / |g_j|``, which is at most sqrt(d) times the
    2-norm condition number and falls short of it only when every probe
    misses the smallest singular direction.  When the estimate is within
    ``_PROBE_MARGIN`` of ``_MAX_CONDITION``, or the factorization fails, the
    exact rule decides: a values-only SVD, then least squares above
    ``_MAX_CONDITION``.
    """
    try:
        solved = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        solved = None
    else:
        growth = np.max(np.linalg.norm(solved[:, 1:], axis=0) / probe_norms)
        if np.linalg.norm(matrix) * growth < _MAX_CONDITION / _PROBE_MARGIN:
            return solved[:, 0], False
    b = rhs[:, 0]
    sigma = np.linalg.svd(matrix, compute_uv=False)
    if sigma[-1] <= 0.0 or sigma[0] > _MAX_CONDITION * sigma[-1]:
        return np.linalg.lstsq(matrix, b, rcond=None)[0], True
    if solved is None:
        return np.linalg.solve(matrix, b), False
    return solved[:, 0], False


def solve(problem: ProjectionEquationProblem, config: NewtonConfig | None = None) -> SolveReport:
    """Run the semi-smooth Newton iteration.

    The linear systems use LU with partial pivoting.  A step whose matrix
    has condition number above 1e14 falls back to a least-squares
    solution; three consecutive least-squares steps without residual
    reduction terminate with SINGULAR_SYSTEM.  Non-finite iterates,
    iterate norms above 1e12*(1+|b|), or a failed factorization raise
    NumericalFailureError.
    """
    if config is None:
        config = NewtonConfig()
    cone = problem.cone
    start = time.perf_counter()

    if config.x0 is None:
        x = np.zeros(cone.ambient_dim)
    else:
        x = np.asarray(config.x0, dtype=float)
        if x.shape != (cone.ambient_dim,):
            raise DimensionMismatchError(
                f"starting point has shape {x.shape}, ambient dimension is "
                f"{cone.ambient_dim}"
            )
        if not np.all(np.isfinite(x)):
            raise ValueError("starting point must be finite")
        x = x.copy()

    T_dense = problem.T.materialize()
    b = problem.b
    norm_b = float(np.linalg.norm(b))
    confirm_tol = max(config.tol, 1e-9 * (1.0 + norm_b))
    divergence_bound = _DIVERGENCE_FACTOR * (1.0 + norm_b)
    probes = np.random.default_rng(_PROBE_SEED).standard_normal(
        (cone.ambient_dim, _PROBE_COLUMNS)
    )
    rhs = np.column_stack([b, probes])
    probe_norms = np.linalg.norm(probes, axis=0)

    residuals = [residual(problem, x)]
    iterates = [x.copy()] if config.record_history else None
    iterations = 0
    termination = None

    if residuals[-1] <= config.tol:
        termination = Termination.RESIDUAL_TOL
    else:
        element = cone.jacobian_element(x)
        prev_key = element.pattern_key
        lstsq_fail_streak = 0
        for k in range(1, config.max_iter + 1):
            matrix = _newton_matrix(T_dense, element, problem.form)
            try:
                x_next, used_lstsq = _newton_step(matrix, rhs, probe_norms)
            except np.linalg.LinAlgError as exc:
                raise NumericalFailureError(
                    f"linear solve failed at iteration {k}: {exc}", iteration=k
                ) from exc
            if not np.all(np.isfinite(x_next)):
                raise NumericalFailureError(
                    f"non-finite iterate at iteration {k}", iteration=k
                )
            x = x_next
            iterations = k
            if np.linalg.norm(x) > divergence_bound:
                raise NumericalFailureError(
                    f"iterate norm exceeded divergence bound at iteration {k}",
                    iteration=k,
                )
            element = cone.jacobian_element(x)
            res = residual(problem, x)
            residuals.append(res)
            if config.record_history:
                iterates.append(x.copy())

            if used_lstsq:
                if res >= residuals[-2]:
                    lstsq_fail_streak += 1
                    if lstsq_fail_streak >= _LSTSQ_FAIL_LIMIT:
                        termination = Termination.SINGULAR_SYSTEM
                        break
                else:
                    lstsq_fail_streak = 0
            else:
                lstsq_fail_streak = 0

            if (
                config.use_pattern_stop
                and element.pattern_key == prev_key
                and res <= confirm_tol
            ):
                termination = Termination.PATTERN_REPEAT
                break
            if res <= config.tol:
                termination = Termination.RESIDUAL_TOL
                break
            prev_key = element.pattern_key
        else:
            termination = Termination.MAX_ITER

    elapsed = time.perf_counter() - start
    ratios = None
    if config.record_history:
        ratios = _error_ratios(iterates, iterates[-1])
    return SolveReport(
        solution=x,
        projected_solution=cone.project(x),
        iterations=iterations,
        residuals=residuals,
        termination=termination,
        wall_time_seconds=elapsed,
        ratio_estimates=ratios,
        iterates=iterates,
    )


def _error_ratios(iterates, reference):
    ratios = []
    errors = [float(np.linalg.norm(it - reference)) for it in iterates]
    for prev, curr in zip(errors, errors[1:]):
        if prev > 0.0:
            ratios.append(curr / prev)
    return ratios


def measure_ratios(
    problem: ProjectionEquationProblem,
    config: NewtonConfig,
    reference: np.ndarray,
) -> list[float]:
    """Per-step error contraction ratios against a verified root.

    The reference must satisfy the equation to residual 1e-10; ratios are
    |x_{k+1} - ref| / |x_k - ref| over the recorded iterate sequence.
    """
    reference = np.asarray(reference, dtype=float)
    ref_res = residual(problem, reference)
    if ref_res > 1e-10:
        raise ValueError(
            f"reference point is not a root (residual {ref_res:.3e} > 1e-10)"
        )
    report = solve(problem, replace(config, record_history=True))
    return _error_ratios(report.iterates, reference)
