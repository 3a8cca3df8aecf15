"""Semi-smooth Newton iteration for projection equations.

Each step selects one generalized-derivative element V of the cone
projection at the current iterate and solves a dense linear system:

* point-linear form:       (V + T) x_next = b
* projection-linear form:  (T V + I) x_next = b

Because V(x) x equals the projection of x, the residual of either form at
the new iterate vanishes exactly when the derivative selection repeats, so
a repeated selection pattern (confirmed by a residual check) is a sound
stopping rule alongside the plain residual tolerance.  A diagonal element
is fixed by its pattern, so the step from an iterate depends only on that
pattern: once a diagonal pattern recurs, the iteration repeats forever.
For any element the step depends only on the iterate, so an iterate met
again bit for bit repeats forever too.
"""

from __future__ import annotations

import enum
import functools
import time
from dataclasses import dataclass, replace

import numpy as np

from .cones import Diagonal, _diagonal
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
# Right-hand sides with max |b_i| in [2^-_SCALE_RANGE, 2^_SCALE_RANGE] are
# solved as given; any other is first scaled by a power of two (see solve).
_SCALE_RANGE = 128


class Termination(str, enum.Enum):
    RESIDUAL_TOL = "residual-tol"
    PATTERN_REPEAT = "pattern-repeat"
    MAX_ITER = "max-iter"
    PATTERN_CYCLE = "pattern-cycle"
    SINGULAR_SYSTEM = "singular-system"

    @property
    def converged(self) -> bool:
        """Whether the run ended at a root: the residual tolerance, or a
        repeated pattern confirmed by the residual."""
        return self in (Termination.RESIDUAL_TOL, Termination.PATTERN_REPEAT)


@dataclass(frozen=True)
class NewtonConfig:
    """Solver knobs; ``x0 = None`` means the zero starting point."""

    tol: float = 1e-5
    max_iter: int = 200
    x0: np.ndarray | None = None
    use_pattern_stop: bool = True
    record_history: bool = False

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
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
    iterates: list[np.ndarray] | None = None


def residual(
    problem: ProjectionEquationProblem,
    x: np.ndarray,
    *,
    projected: np.ndarray | None = None,
) -> float:
    """Euclidean norm of the equation residual at x.

    ``projected`` is P_K(x) when the caller has it already.  A right-hand
    side far from unit scale is handled as in :func:`solve`: the norm is
    taken at ``x / 2^k`` against ``b / 2^k`` and scaled back, capped at the
    largest double, so it overflows only if the residual itself does.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.cone.ambient_dim,):
        raise DimensionMismatchError(
            f"point has shape {x.shape}, ambient dimension is "
            f"{problem.cone.ambient_dim}"
        )
    shift = _scale_exponent(problem.b)
    if shift:
        problem = replace(problem, b=np.ldexp(problem.b, -shift))
        x = np.ldexp(x, -shift)
        if projected is not None:
            projected = np.ldexp(projected, -shift)
    if projected is None:
        projected = problem.cone.project(x)
    norm = _residual_norm(problem, x, projected)
    if shift:
        with np.errstate(over="ignore"):
            return min(float(np.ldexp(norm, shift)), np.finfo(float).max)
    return norm


def _residual_norm(problem, x, projected):
    """The residual norm at x, given ``projected`` = P_K(x)."""
    if problem.form is EquationForm.POINT_LINEAR:
        value = projected + problem.T.apply(x) - problem.b
    else:
        value = problem.T.apply(projected) + x - problem.b
    return float(np.linalg.norm(value))


def _scale_exponent(b):
    """0 when max |b_i| is zero or in the normal range, else the k with
    max |b_i| / 2^k in [1/2, 1)."""
    peak = float(np.max(np.abs(b), initial=0.0))
    if peak == 0.0 or 2.0**-_SCALE_RANGE <= peak <= 2.0**_SCALE_RANGE:
        return 0
    return int(np.frexp(peak)[1])


def _newton_matrix(T_dense, element, form, out=None):
    """``V + T`` or ``T V + I``, in a new array or in ``out``."""
    if form is EquationForm.POINT_LINEAR:
        return element.plus(T_dense, out=out)
    if isinstance(element, Diagonal):
        # T @ Diag(v) bit for bit: each entry of the product sums one term
        # T_ij v_j and signed zeros
        matrix = np.multiply(T_dense, element.diagonal, out=out)
    else:
        matrix = np.matmul(T_dense, element.materialize(), out=out)
    # + I in place: adding 0.0 clears the zeros' sign as adding I's zeros did
    matrix += 0.0
    _diagonal(matrix)[:] += 1.0
    return matrix


@functools.lru_cache(maxsize=32)
def _probes(d):
    """``(G, column norms of G)``: the fixed Gaussian probe columns for
    dimension d.  The arrays are read-only, so every solve of one dimension
    shares them."""
    probes = np.random.default_rng(_PROBE_SEED).standard_normal((d, _PROBE_COLUMNS))
    norms = np.linalg.norm(probes, axis=0)
    for table in (probes, norms):
        table.flags.writeable = False
    return probes, norms


def _probe_gate(matrix_norm, solved_probes, probe_norms):
    """Whether ``|M|_F max_j |M^-1 g_j| / |g_j|`` clears the LU-only gate.

    The estimate is at most sqrt(d) times the 2-norm condition number and
    falls short of it only when every probe misses the smallest singular
    direction; the gate sits ``_PROBE_MARGIN`` below ``_MAX_CONDITION``.
    """
    growth = np.max(np.linalg.norm(solved_probes, axis=0) / probe_norms)
    return matrix_norm * growth < _MAX_CONDITION / _PROBE_MARGIN


def _exact_rule(matrix, b, solved):
    """A values-only SVD decides: least squares above ``_MAX_CONDITION``,
    else the LU answer ``solved`` (a fresh solve when it is None)."""
    sigma = np.linalg.svd(matrix, compute_uv=False)
    if sigma[-1] <= 0.0 or sigma[0] > _MAX_CONDITION * sigma[-1]:
        return np.linalg.lstsq(matrix, b, rcond=None)[0], True
    if solved is None:
        return np.linalg.solve(matrix, b), False
    return solved, False


def _newton_step(matrix, rhs, probe_norms):
    """Solve ``matrix x = rhs[:, 0]``; return x and whether lstsq produced it.

    ``rhs`` is ``[b | G]`` with fixed Gaussian probe columns G.  One LU
    solve gives the step and the probe condition estimate.  When the
    estimate fails the gate, or the factorization fails, the exact rule
    decides.
    """
    try:
        solved = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        return _exact_rule(matrix, rhs[:, 0], None)
    if _probe_gate(np.linalg.norm(matrix), solved[:, 1:], probe_norms):
        return solved[:, 0], False
    return _exact_rule(matrix, rhs[:, 0], solved[:, 0])


def _active_set_step(T_dense, element, rhs, probe_norms, workspace=None):
    """The projection-linear step ``(T D + I) x = rhs[:, 0]`` for a diagonal D.

    With A the coordinates where D is nonzero and I the rest, the matrix is
    ``[[R, 0], [C, I]]`` after reordering, with ``R = I + T_AA D_A`` and
    ``C = T_IA D_A``.  One LU solve of R against ``[b_A | G_A]`` gives
    ``x_A``, and ``x_I = b_I - C x_A``.  The probe gate is that of the full
    matrix, with ``|M|_F^2 = |I| + |R|_F^2 + |C|_F^2``; a step that fails it
    takes the exact rule on the full matrix.  When the LU of R fails, R is
    exactly singular and the step is the minimum-norm least-squares
    solution of the full system, flagged as lstsq.  The full matrix goes
    into ``workspace()`` when that is given.
    """
    active = np.flatnonzero(element.diagonal)
    inactive = np.flatnonzero(element.diagonal == 0.0)
    weights = element.diagonal[active]
    # np.ix_ gathers R and C C-ordered, with no d x |A| array between them;
    # T[a][:, a] would be Fortran-ordered, and LAPACK rounds differently on
    # the other layout
    r = T_dense[np.ix_(active, active)]
    c = T_dense[np.ix_(inactive, active)]
    if not np.all(weights == 1.0):
        r *= weights
        c *= weights
    _diagonal(r)[:] += 1.0
    x = rhs.copy()
    try:
        x[active] = np.linalg.solve(r, rhs[active])
    except np.linalg.LinAlgError:
        x = rhs[:, 0].copy()
        x[active] = _min_norm_active_part(r, c, x[active], x[inactive])
        x[inactive] -= c @ x[active]
        return x, True
    x[inactive] -= c @ x[active]
    matrix_norm = np.sqrt(inactive.size + np.vdot(r, r) + np.vdot(c, c))
    if _probe_gate(matrix_norm, x[:, 1:], probe_norms):
        return x[:, 0], False
    out = None if workspace is None else workspace()
    matrix = _newton_matrix(T_dense, element, EquationForm.PROJECTION_LINEAR, out)
    return _exact_rule(matrix, rhs[:, 0], x[:, 0])


def _min_norm_active_part(r, c, b_active, b_inactive):
    """``x_A`` of the minimum-norm least-squares solution of
    ``[[R, 0], [C, I]] x = b``.

    The least-squares solutions are ``x_A = R^+ b_A + N z`` with N an
    orthonormal basis of null(R), and ``x_I = b_I - C x_A``, which zeroes the
    second block.  ``R^+ b_A`` is orthogonal to N, so the norm is least at
    the z that minimizes ``|z|^2 + |b_I - C R^+ b_A - CN z|^2``, that is
    ``z = (I + (CN)^T CN)^-1 (CN)^T (b_I - C R^+ b_A)``; least squares on
    the stacked ``[CN; I]`` gives it without squaring the condition number
    of CN.  In exact arithmetic x is ``lstsq(M, b)``.  Singular values of R
    up to ``eps |A| sigma_max(R)`` count as zero; gelsd on the full matrix
    measures its cut against ``sigma_max(M)`` instead.
    """
    u, sigma, vt = np.linalg.svd(r)
    rank = np.count_nonzero(sigma > np.finfo(float).eps * r.shape[0] * sigma[0])
    x_active = vt[:rank].T @ ((u[:, :rank].T @ b_active) / sigma[:rank])
    null = vt[rank:].T
    stacked = np.vstack([c @ null, np.eye(null.shape[1])])
    target = np.concatenate([b_inactive - c @ x_active, np.zeros(null.shape[1])])
    z = np.linalg.lstsq(stacked, target, rcond=None)[0]
    return x_active + null @ z


def solve(problem: ProjectionEquationProblem, config: NewtonConfig | None = None) -> SolveReport:
    """Run the semi-smooth Newton iteration.

    The linear systems use LU with partial pivoting; in the
    projection-linear form with a diagonal derivative element only the
    block of active coordinates is factored.  A step whose matrix has
    condition number above 1e14, or whose active block is exactly
    singular, falls back to a least-squares solution; three consecutive
    least-squares steps without residual reduction terminate with
    SINGULAR_SYSTEM.  Non-finite iterates,
    iterate norms above 1e12*(1+|b|), or a failed factorization raise
    NumericalFailureError.  When a diagonal derivative element (orthant,
    free and second-order interior or polar blocks) has a pattern already
    met since the last least-squares step, and no other stop fires, the
    run ends PATTERN_CYCLE: its iterates would repeat without end.  So
    does a run that meets an iterate again, bit for bit, since the last
    least-squares step, whatever its element.

    The dense Newton matrix of every step is assembled into one d x d
    array, made at the first dense assembly and reused; a run of
    active-set steps never makes it.

    Each iterate is linearized once (``Cone.linearize``): its projection
    gives the residual, its element the next step, and the last projection
    is the report's ``projected_solution``.

    A right-hand side far from unit scale (max |b_i| outside 2^-128 ..
    2^128) is solved as ``b / 2^k`` from ``x0 / 2^k``, with max |b_i| / 2^k
    in [1/2, 1), and the solution is ``2^k`` times the result: the
    projection is positively homogeneous and the derivative selection
    scale-free, so only the norms change, and ``|b|`` no longer overflows
    or underflows.  Residuals, stops and bounds are in the caller's units.
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

    shift = _scale_exponent(problem.b)
    if shift:
        problem = replace(problem, b=np.ldexp(problem.b, -shift))
        x = np.ldexp(x, -shift)

    def unscaled(norm):
        return float(np.ldexp(norm, shift)) if shift else norm

    T_dense = problem.T.materialize()
    b = problem.b
    # in the caller's units |b| and the bound can pass the largest double;
    # capped, no comparison against them reads inf <= inf
    largest = np.finfo(float).max
    norm_b = min(unscaled(np.linalg.norm(b)), largest)
    # relative to |b| alone: an absolute floor would lie above every
    # residual once |b| is far below 1, and confirm any repeated pattern
    confirm_tol = max(config.tol, 1e-9 * norm_b)
    divergence_bound = min(_DIVERGENCE_FACTOR * (1.0 + norm_b), largest)
    probes, probe_norms = _probes(cone.ambient_dim)
    rhs = np.column_stack([b, probes])
    # made at the first dense assembly, so active-set steps never make it
    workspace = functools.cache(lambda: np.empty(T_dense.shape))
    projection_linear = problem.form is EquationForm.PROJECTION_LINEAR

    projected, element = cone.linearize(x)
    residuals = [unscaled(residual(problem, x, projected=projected))]
    iterates = [np.ldexp(x, shift)] if config.record_history else None
    iterations = 0
    termination = None

    if residuals[-1] <= config.tol:
        termination = Termination.RESIDUAL_TOL
    else:
        prev_key = element.pattern_key
        # diagonal patterns, and iterates, met since the last least-squares
        # step
        seen = {prev_key} if isinstance(element, Diagonal) else set()
        visited = {x.tobytes()}
        lstsq_fail_streak = 0
        for k in range(1, config.max_iter + 1):
            try:
                if projection_linear and isinstance(element, Diagonal):
                    x_next, used_lstsq = _active_set_step(
                        T_dense, element, rhs, probe_norms, workspace
                    )
                else:
                    matrix = _newton_matrix(
                        T_dense, element, problem.form, workspace()
                    )
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
            if unscaled(np.linalg.norm(x)) > divergence_bound:
                raise NumericalFailureError(
                    f"iterate norm exceeded divergence bound at iteration {k}",
                    iteration=k,
                )
            projected, element = cone.linearize(x)
            res = unscaled(_residual_norm(problem, x, projected))
            residuals.append(res)
            if config.record_history:
                iterates.append(np.ldexp(x, shift))

            if used_lstsq:
                seen.clear()
                visited.clear()
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
            if isinstance(element, Diagonal):
                # the step from here repeats the one from the earlier visit,
                # so the iterates since then repeat without end; none of
                # them stopped, and none was a least-squares step
                if element.pattern_key in seen:
                    termination = Termination.PATTERN_CYCLE
                    break
                seen.add(element.pattern_key)
            # the step from an iterate depends on it alone, so an iterate
            # met again, bit for bit, repeats the same steps without end
            point = x.tobytes()
            if point in visited:
                termination = Termination.PATTERN_CYCLE
                break
            visited.add(point)
            prev_key = element.pattern_key
        else:
            termination = Termination.MAX_ITER

    elapsed = time.perf_counter() - start
    return SolveReport(
        solution=np.ldexp(x, shift),
        projected_solution=np.ldexp(projected, shift),
        iterations=iterations,
        residuals=residuals,
        termination=termination,
        wall_time_seconds=elapsed,
        iterates=iterates,
    )


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
    errors = [float(np.linalg.norm(it - reference)) for it in report.iterates]
    return [curr / prev for prev, curr in zip(errors, errors[1:]) if prev > 0.0]
