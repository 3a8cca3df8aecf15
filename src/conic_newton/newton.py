"""Semi-smooth Newton iteration for projection equations.

Each step selects one generalized-derivative element V of the projection at
the iterate and solves one dense system, as ``_newton_step`` picks by V's kind:

* point-linear form:       (V + T) x_next = b
* projection-linear form:  (T V + I) x_next = b

Because V(x) x equals the projection of x, the residual of either form at
the new iterate vanishes exactly when the derivative selection repeats and
fixes the element, as a diagonal element's pattern does.  So a repeated
diagonal pattern (confirmed by a residual check) is a sound stopping rule
beside the residual tolerance, and once one recurs the iteration repeats
forever.  The step from any iterate depends on it alone, so an iterate met
again bit for bit repeats forever too, and a run replays one step at a time.

One driver, ``_drive``, runs the iterations of ``solve`` and of the three
nearest-correlation solvers.  After each step the stops are tried in one
order: the solver's own (in ``solve``, SINGULAR_SYSTEM, then PATTERN_REPEAT),
RESIDUAL_TOL, then PATTERN_CYCLE; MAX_ITER ends a run at its iteration limit.
"""

from __future__ import annotations

import enum
import functools
import time
from dataclasses import dataclass, replace

import numpy as np

from .cones import _SAFE_NORM_MAX, _SAFE_NORM_MIN, _diagonal, _norm
from .exceptions import NumericalFailureError, _finite, _number, _size, _vector
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
# Rows of C per flat take in the active-set step.
_GATHER_ROWS = 64


class Termination(str, enum.Enum):
    RESIDUAL_TOL = "residual-tol"
    PATTERN_REPEAT = "pattern-repeat"
    MAX_ITER = "max-iter"
    PATTERN_CYCLE = "pattern-cycle"
    SINGULAR_SYSTEM = "singular-system"

    @property
    def converged(self) -> bool:
        """Whether the run ended at a root: the residual tolerance, or a
        repeated diagonal pattern confirmed by the residual."""
        return self in (Termination.RESIDUAL_TOL, Termination.PATTERN_REPEAT)


@dataclass(frozen=True)
class NewtonConfig:
    """The residual tolerance, the iteration limit and the starting point;
    ``x0 = None`` means the zero starting point."""

    tol: float = 1e-5
    max_iter: int = 200
    x0: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "tol", _number(self.tol, "tol"))
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        object.__setattr__(self, "max_iter", _size(self.max_iter, "max_iter"))


@dataclass(eq=False)
class SolveReport:
    """The last iterate and its projection, the steps taken, the residual of
    every iterate, the stop, and the wall time from building the first
    iterate.  A residual past the largest double is reported as the largest
    double."""

    solution: np.ndarray
    projected_solution: np.ndarray
    iterations: int
    residuals: list[float]
    termination: Termination
    wall_time_seconds: float


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
    x = _vector(x, problem.cone.ambient_dim, "point")
    shift = _scale_exponent(problem.b)
    if shift:
        problem = replace(problem, b=np.ldexp(problem.b, -shift))
        x = np.ldexp(x, -shift)
        if projected is not None:
            projected = np.ldexp(projected, -shift)
    if projected is None:
        projected = problem.cone.project(x)
    norm = _residual_norm(problem, x, projected)
    return min(float(_unscaled(norm, shift)), np.finfo(float).max) if shift else norm


def _residual_norm(problem, x, projected):
    """The residual norm at x, given ``projected`` = P_K(x)."""
    if problem.form is EquationForm.POINT_LINEAR:
        value = projected + problem.T.apply(x) - problem.b
    else:
        value = problem.T.apply(projected) + x - problem.b
    return _norm(value)


def _scale_exponent(b):
    """0 when max |b_i| is zero or in the normal range, else the k with
    max |b_i| / 2^k in [1/2, 1)."""
    peak = float(np.max(np.abs(b), initial=0.0))
    if peak == 0.0 or 2.0**-_SCALE_RANGE <= peak <= 2.0**_SCALE_RANGE:
        return 0
    return int(np.frexp(peak)[1])


def _unscaled(value, shift):
    """``value 2^shift``: a norm or point of a run on ``b / 2^shift`` in the
    caller's units, inf where it passes the largest double."""
    if not shift:
        return value
    with np.errstate(over="ignore"):
        return np.ldexp(value, shift)


def _newton_matrix(T_dense, element, form, out=None):
    """``V + T`` or ``T V + I``, in a new array or in ``out``."""
    if form is EquationForm.POINT_LINEAR:
        return element.plus(T_dense, out=out)
    matrix = np.matmul(T_dense, element.materialize(), out=out)
    # + I in place: adding 0.0 clears the zeros' sign as adding I's zeros did
    matrix += 0.0
    _diagonal(matrix)[:] += 1.0
    return matrix


@functools.lru_cache(maxsize=32)
def _probes(d):
    """The fixed Gaussian probe columns for dimension d, read-only, so every
    solve of one dimension shares them."""
    probes = np.random.default_rng(_PROBE_SEED).standard_normal((d, _PROBE_COLUMNS))
    probes.flags.writeable = False
    return probes


def _column_norms(a):
    """``np.linalg.norm(a, axis=0)`` by its own arithmetic, without its
    dispatch."""
    return np.sqrt(np.add.reduce(a * a, axis=0))


def _probe_gate(block, solved, rhs):
    """Whether ``|B|_F max_j |B^-1 g_j| / |g_j|`` clears the LU-only gate,
    with ``g_j`` the probe columns ``rhs[:, 1:]`` and ``solved = B^-1 rhs``.

    The estimate is at most sqrt(n) times the 2-norm condition number of B
    and falls short of it only when every probe misses the smallest singular
    direction; the gate sits ``_PROBE_MARGIN`` below ``_MAX_CONDITION``.  An
    empty block passes.
    """
    if not block.size:
        return True
    with np.errstate(over="ignore"):
        norms = _column_norms(solved[:, 1:])
    # a norm outside _norm's safe range may have squares that under- or
    # overflowed; only those columns are taken again
    for j, norm in enumerate(norms.tolist()):
        if not _SAFE_NORM_MIN <= norm <= _SAFE_NORM_MAX:
            norms[j] = _norm(solved[:, 1 + j])
    growth = np.max(norms / _column_norms(rhs[:, 1:]))
    return _norm(block) * growth < _MAX_CONDITION / _PROBE_MARGIN


def _block_step(block, rhs, coupling, rest):
    """``(y, z, lstsq)``: the first column of the solution of
    ``M [y; z] = [rhs; rest]`` with ``M = [[B, 0], [C, I]]``,
    ``B = block`` and ``C = coupling``, and whether least squares produced
    it.

    ``rhs`` is ``[b | G]`` on the rows of B, with fixed Gaussian probe
    columns G, and ``rest`` the same columns on the rows of C.  The full
    Newton matrix is the case with no rows in C.  The conditioning of the
    step is read from B, the one matrix factored: one LU solve of B against
    ``[b | G]`` gives y and the probe estimate, and ``z = rest - C y``.
    When the estimate fails the gate, or the factorization fails, one SVD of
    B decides: up to condition ``_MAX_CONDITION`` the LU answer stands;
    above it, or with no LU answer, the step is the minimum-norm
    least-squares solution of ``M``.

    ``det M = det B``, so M is singular exactly when B is.  With B well
    conditioned the step is backward stable for M however large C is:
    beside the LU's backward error in B, the substitution perturbs C by
    about ``n eps |C|`` and the identity block by ``eps``, entrywise, for B
    of order n (Higham 2002, ch. 13, on block LU).  So a large C sends no
    step to an SVD.
    """
    try:
        solved = np.linalg.solve(block, rhs)
    except np.linalg.LinAlgError:
        solved = None
    if solved is None or not _probe_gate(block, solved, rhs):
        svd = np.linalg.svd(block)
        sigma = svd[1]
        if solved is None or sigma[-1] <= 0.0 or sigma[0] > _MAX_CONDITION * sigma[-1]:
            y = _min_norm_active_part(svd, coupling, rhs[:, 0], rest[:, 0])
            return y, rest[:, 0] - coupling @ y, True
    # one product over every column: the first column alone (gemv) rounds
    # differently from this gemm and would change the iterates' last bits
    return solved[:, 0], (rest - coupling @ solved)[:, 0], False


def _newton_step(T_dense, element, form, rhs, workspace):
    """``(x, lstsq)`` as from ``_block_step``: the one dispatch on an
    element's kind.  A diagonal element in the projection-linear form takes
    the active-set step; any other step factors the whole Newton matrix,
    assembled in ``workspace()``."""
    if form is EquationForm.PROJECTION_LINEAR and hasattr(element, "diagonal"):
        return _active_set_step(T_dense, element, rhs)
    matrix = _newton_matrix(T_dense, element, form, workspace())
    x, _, lstsq = _block_step(matrix, rhs, np.empty((0, rhs.shape[0])), rhs[:0])
    return x, lstsq


def _active_set_step(T_dense, element, rhs):
    """The projection-linear step ``(T D + I) x = rhs[:, 0]`` for a diagonal D;
    return x and whether least squares produced it.

    With A the coordinates where D is nonzero and I the rest, the matrix is
    ``[[R, 0], [C, I]]`` after reordering, with ``R = I + T_AA D_A`` and
    ``C = T_IA D_A``, which ``_block_step`` solves with R the one block
    factored and gated; no d x d matrix is formed.  R and C are read from
    T in C order, through a flat view of a C-contiguous T or else a copy.
    """
    active = np.flatnonzero(element.diagonal)
    inactive = np.flatnonzero(element.diagonal == 0.0)
    weights = element.diagonal[active]
    # flat takes gather R and C C-ordered, with no d x |A| array between
    # them: T[a][:, a] would be Fortran-ordered, and LAPACK rounds
    # differently on the other layout.  C comes _GATHER_ROWS rows at a time,
    # so its flat indices take no more than a block of it; the indices are
    # in range, and mode="clip" writes into ``out`` without a buffer.
    flat = T_dense.reshape(-1)
    stride = T_dense.shape[1]
    r = flat.take(active[:, None] * stride + active)
    c = np.empty((inactive.size, active.size))
    for start in range(0, inactive.size, _GATHER_ROWS):
        rows = inactive[start:start + _GATHER_ROWS]
        flat.take(rows[:, None] * stride + active, out=c[start:start + _GATHER_ROWS],
                  mode="clip")
    if not np.all(weights == 1.0):
        r *= weights
        c *= weights
    _diagonal(r)[:] += 1.0
    x = np.empty(rhs.shape[0])
    x[active], x[inactive], lstsq = _block_step(r, rhs[active], c, rhs[inactive])
    return x, lstsq


def _min_norm_active_part(svd, c, b_active, b_inactive):
    """``x_A`` of the minimum-norm least-squares solution of
    ``[[R, 0], [C, I]] x = b``, given ``svd = (U, sigma, V^T)`` of R; C may
    have no rows, and x is then the minimum-norm least-squares solution of
    ``R x = b``.

    The least-squares solutions are ``x_A = R^+ b_A + N z`` with N an
    orthonormal basis of null(R), and ``x_I = b_I - C x_A``, which zeroes the
    second block.  ``R^+ b_A`` is orthogonal to N, so the norm is least at
    the z that minimizes ``|z|^2 + |b_I - C R^+ b_A - CN z|^2``, that is
    ``z = (I + (CN)^T CN)^-1 (CN)^T (b_I - C R^+ b_A)``; least squares on
    the stacked ``[CN; I]`` gives it without squaring the condition number
    of CN.  In exact arithmetic x is ``lstsq(M, b)``.  Singular values of R
    up to ``eps |A| sigma_max(R)`` count as zero, the cut of ``lstsq`` on R
    alone; on the full matrix it would be measured against
    ``sigma_max(M)`` instead.
    """
    u, sigma, vt = svd
    rank = np.count_nonzero(sigma > np.finfo(float).eps * sigma.size * sigma[0])
    x_active = vt[:rank].T @ ((u[:, :rank].T @ b_active) / sigma[:rank])
    if not c.shape[0]:
        # z = 0 is the least-squares solution of [0 rows; I] z = 0
        return x_active
    null = vt[rank:].T
    stacked = np.vstack([c @ null, np.eye(null.shape[1])])
    target = np.concatenate([b_inactive - c @ x_active, np.zeros(null.shape[1])])
    z = np.linalg.lstsq(stacked, target, rcond=None)[0]
    return x_active + null @ z


def solve(problem: ProjectionEquationProblem, config: NewtonConfig | None = None) -> SolveReport:
    """Run the semi-smooth Newton iteration.

    Each step factors one matrix by LU with partial pivoting and reads the
    step's conditioning from that matrix alone: the assembled ``V + T`` or
    ``T V + I``, or, in the projection-linear form with a diagonal
    derivative element, the active block ``R = I + T_AA D_A``, as
    ``_newton_step``, the one dispatch, picks (see ``_block_step``).  A
    probe estimate below 1e10 takes the LU answer; otherwise one SVD of the
    factored matrix keeps it up to condition number 1e14, and above that,
    or when the LU fails, the step is the minimum-norm least-squares
    solution of the whole system.  Non-finite iterates, iterate norms above
    1e12*(1+|b|), or a failed SVD raise NumericalFailureError.  Three
    consecutive least-squares steps without residual reduction end the run
    SINGULAR_SYSTEM.  A diagonal derivative element (orthant, free and
    second-order interior or polar blocks) with the previous iterate's
    pattern, at a residual within max(tol, 1e-9 |b|), ends it
    PATTERN_REPEAT.  A state met again since the last least-squares step
    ends it PATTERN_CYCLE (see ``_drive``): the state of an element its
    pattern fixes is its ``step_key``, which alone fixes the step; any
    other's is the iterate, bit for bit.

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

    if config.x0 is None:
        x = np.zeros(cone.ambient_dim)
    else:
        x = _finite(_vector(config.x0, cone.ambient_dim, "starting point"),
                    "starting point").copy()

    shift = _scale_exponent(problem.b)
    if shift:
        problem = replace(problem, b=np.ldexp(problem.b, -shift))
        x = np.ldexp(x, -shift)

    T_dense = problem.T.materialize()
    b = problem.b
    # in the caller's units |b| and the bound can pass the largest double;
    # capped, no comparison against them reads inf <= inf
    largest = np.finfo(float).max
    norm_b = min(float(_unscaled(np.linalg.norm(b), shift)), largest)
    # relative to |b| alone: an absolute floor would lie above every
    # residual once |b| is far below 1, and confirm any repeated pattern
    confirm_tol = max(config.tol, 1e-9 * norm_b)
    divergence_bound = min(_DIVERGENCE_FACTOR * (1.0 + norm_b), largest)
    rhs = np.column_stack([b, _probes(cone.ambient_dim)])
    workspace = functools.cache(lambda: np.empty(T_dense.shape))
    # a state is (x, P_K(x), element, residual)

    def first():
        projected, element = cone.linearize(x)
        return x, projected, element, residual(problem, x, projected=projected)

    def step(state):
        x, _, element, _ = state
        try:
            x, lstsq = _newton_step(T_dense, element, problem.form, rhs, workspace)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"linear solve failed: {exc}") from exc
        if not np.all(np.isfinite(x)):
            raise NumericalFailureError("non-finite iterate")
        if _unscaled(_norm(x), shift) > divergence_bound:
            raise NumericalFailureError("iterate norm exceeded divergence bound")
        projected, element = cone.linearize(x)
        res = _residual_norm(problem, x, projected)
        return (x, projected, element, res), lstsq

    def measure(state):
        # a step key fixes the step, and so does an iterate met again bit for bit
        x, _, element, res = state
        return res, x.tobytes() if element.step_key is None else element.step_key

    streak = 0  # least-squares steps in a row that did not lower the residual

    def stop(prev, state, lstsq, residuals):
        nonlocal streak
        streak = streak + 1 if lstsq and residuals[-1] >= residuals[-2] else 0
        if streak >= _LSTSQ_FAIL_LIMIT:
            return Termination.SINGULAR_SYSTEM
        key = state[2].step_key
        if key is not None and key == prev[2].step_key and residuals[-1] <= confirm_tol:
            return Termination.PATTERN_REPEAT
        return None

    return _drive(first, step, measure, lambda state: state[:2], config.tol,
                  config.max_iter, shift, stop)


def _drive(first, step, measure, answer, tol, max_iter, shift, stop=None):
    """Step from ``first()`` until a stop fires and report the run: the one
    iteration loop of every solver.

    ``step(state)`` is ``(next state, fresh)``; a fresh state (after a
    least-squares step or a restart) forgets the states met before it.
    ``measure(state)`` is ``(residual, key)``, equal keys meaning equal
    steps, and ``answer(state)`` is ``(solution, projected_solution)``, both
    in the run's units, the caller's over ``2^shift``.  ``tol`` and the
    report are in the caller's, each residual capped at the largest double.

    After each step ``stop(prev, state, fresh, residuals)``, when given,
    may return a Termination; then come RESIDUAL_TOL and PATTERN_CYCLE, for
    a key met since the last fresh state: the steps since would repeat
    without end.  A NumericalFailureError inside a step is tagged with its
    iteration, and a step that returns its input raises one.
    """
    start = time.perf_counter()
    largest = float(np.finfo(float).max)
    state = first()
    res, key = measure(state)
    residuals = [min(float(_unscaled(res, shift)), largest)]
    iterations = 0
    if residuals[-1] <= tol:
        termination = Termination.RESIDUAL_TOL
    else:
        seen = {key}
        for iterations in range(1, max_iter + 1):
            prev = state
            try:
                state, fresh = step(state)
            except NumericalFailureError as exc:
                if exc.iteration is None:
                    exc.iteration = iterations
                raise
            if state is prev:
                raise NumericalFailureError(
                    f"no step decreases the residual {residuals[-1]:.3g}",
                    iteration=iterations,
                )
            res, key = measure(state)
            residuals.append(min(float(_unscaled(res, shift)), largest))
            if fresh:
                seen.clear()
            termination = None if stop is None else stop(prev, state, fresh, residuals)
            if termination is not None:
                break
            if residuals[-1] <= tol:
                termination = Termination.RESIDUAL_TOL
                break
            if key in seen:
                termination = Termination.PATTERN_CYCLE
                break
            seen.add(key)
        else:
            termination = Termination.MAX_ITER
    solution, projected = answer(state)
    return SolveReport(
        solution=_unscaled(solution, shift),
        projected_solution=_unscaled(projected, shift),
        iterations=iterations,
        residuals=residuals,
        termination=termination,
        wall_time_seconds=time.perf_counter() - start,
    )
