"""Nearest correlation matrix solvers.

Given a symmetric G, find the positive semidefinite matrix with unit
diagonal closest to G in Frobenius norm.  The optimality system couples a
raw matrix X and a diagonal multiplier lambda:

    X + Diag(lambda) = G,        diag(P_psd(X)) = e.

X differs from G only on the diagonal: X = Ghat + Diag(d) with Ghat the
off-diagonal part of G, and lambda = diag(G) - d.  So the system reduces to
n equations in d,

    F(d) = diag(P_psd(Ghat + Diag(d))) - e = 0,

which is the gradient of Qi & Sun's (2006) convex dual
theta(d) = 1/2 |P_psd(Ghat + Diag(d))|_F^2 - e^T d.

``solve_ncm`` is their globalized semismooth Newton-CG method.  With
X = U Lam U^T and Omega the scaling matrix of the semidefinite projection
derivative, each step solves (J + eps I) h = -F by preconditioned conjugate
gradients, where J h = diag(U (Omega o U^T Diag(h) U) U^T), then halves the
step until theta falls by the Armijo rule or |F| falls by the same factor
(near a solution the decrease in theta is below its rounding error).  A
product with J touches only the rows of Omega belonging to the smaller of
the positive and nonpositive eigenvalue sets, and so costs
O(n^2 min(r, n - r)) for r positive eigenvalues; so does the diagonal of J,
the preconditioner.  The iteration starts from X = Ghat + I, and the
eigendecomposition of an accepted trial is the next iterate's.

``solve_ncm_diagonal`` is the recursion of the source paper.  Its step
matrix is V = U D U^T, D the 0/1 indicator of positive eigenvalues (the
cross block of Omega is dropped), and the new diagonal d solves
Diag(diag(V)) d = e - diag(V @ Ghat).  Entries of diag(V) within 1e-12 of
zero are handled by the diagonal pseudoinverse (their update component is
zero).  Only the two diagonals are needed, so V is never formed: they are
row sums over whichever of the positive or nonpositive eigenvectors is the
smaller set.  It converges only linearly.  A step that leaves the diagonal
unchanged without converging (X with no positive eigenvalue makes diag(V)
zero, so the step is a no-op) restarts the recursion once from
X = Ghat + I, whose trace n guarantees a positive eigenvalue.

A Dykstra-corrected alternating-projections solver is included as a
baseline for benchmarking.

Every solver returns a ``SolveReport`` whose ``solution`` is the root X and
whose ``projected_solution`` is P_psd(X), the nearest correlation matrix;
the multiplier is lambda = diag(G) - diag(solution).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .cones import _positive_count, _psd_omega, _psd_part
from .exceptions import DimensionMismatchError, NumericalFailureError
from .newton import SolveReport, Termination

_DIAG_PINV_TOL = 1e-12
# A step that moves the diagonal by at most this, relative to its size, and
# does not lower the residual has made no progress.
_STALL_TOL = 1e-12
# Newton-CG: the shift that keeps J + eps I definite, the Armijo constant,
# the cap on the forcing term of the CG stop test, and the most step halvings.
_REGULARIZATION = 1e-10
_ARMIJO = 1e-4
_MAX_FORCING = 1e-2
_MAX_HALVINGS = 50


@dataclass(frozen=True)
class NcmProblem:
    """Input matrix for the nearest-correlation problem, symmetrized on ingestion."""

    G: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.G, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got {g.shape}")
        # halves first: 0.5 * (g + g.T) overflows for entries near the largest double
        g = 0.5 * g + 0.5 * g.T
        if not np.all(np.isfinite(g)):
            raise ValueError("input matrix contains non-finite entries")
        object.__setattr__(self, "G", g)

    @property
    def n(self) -> int:
        return self.G.shape[0]


@dataclass
class NcmState:
    """One iterate X = Ghat + Diag(D_diag) of either Newton method.

    The off-diagonal of X always equals the off-diagonal of G.  ``eig``
    is ``np.linalg.eigh(X)``, taken when the state is built, so the
    residual evaluation and the following step share one factorization.
    """

    X: np.ndarray
    D_diag: np.ndarray
    Ghat: np.ndarray
    eig: tuple[np.ndarray, np.ndarray]
    residual: float


def _gradient(state: NcmState) -> np.ndarray:
    """F(d) = diag(P_psd(X)) - e, a row sum over the positive eigenvectors."""
    vals, vecs = state.eig
    first = vals.shape[0] - _positive_count(vals)
    upos = vecs[:, first:]
    return np.einsum("ij,j,ij->i", upos, vals[first:], upos) - 1.0


def _dual_objective(state: NcmState) -> float:
    """theta(d) = 1/2 |P_psd(X)|_F^2 - e^T d."""
    vals, _ = state.eig
    positive = np.maximum(vals, 0.0)
    return float(0.5 * (positive @ positive) - state.D_diag.sum())


def _newton_operator(vals: np.ndarray, vecs: np.ndarray):
    """The product h -> J h and the diagonal of J, for
    J h = diag(U (Omega o M) U^T), M = U^T Diag(h) U.

    Omega is 0 on the nonpositive-nonpositive block, so with r positive
    eigenvalues J h = rowsum(U_+ o (U W^T)), W = Omega_{+,:} o M_{+,:}, where
    the cross weights are doubled because both cross blocks contribute
    alike.  When 2r > n the same is done with the nonpositive rows of
    1 - Omega, since U ((1 - Omega) o M) U^T = Diag(h) - U (Omega o M) U^T.
    Either way only a min(r, n - r) x n block of Omega is formed, and the
    product and the diagonal cost O(n^2 min(r, n - r)).
    """
    n = vals.shape[0]
    r = _positive_count(vals)
    if 2 * r <= n:
        rows, cross = slice(n - r, n), slice(0, n - r)
        weight = _psd_omega(vals, rows)
        base, sign = 0.0, 1.0
    else:
        rows, cross = slice(0, n - r), slice(n - r, n)
        weight = 1.0 - _psd_omega(vals, rows)
        base, sign = 1.0, -1.0
    weight[:, cross] *= 2.0
    block = vecs[:, rows]
    squares = vecs * vecs
    diagonal = base + sign * np.einsum(
        "ij,ij->i", squares[:, rows], squares @ weight.T
    )

    def apply(h):
        inner = weight * (block.T @ (h[:, None] * vecs))
        return base * h + sign * np.einsum("ij,ij->i", block, vecs @ inner.T)

    return apply, diagonal


def _pcg(apply, precond, rhs, tol, max_iter):
    """Preconditioned conjugate gradients from zero, stopped at |rhs - A x| <= tol."""
    x = np.zeros_like(rhs)
    res = rhs.copy()
    z = res / precond
    p = z.copy()
    rz = res @ z
    for _ in range(max_iter):
        if np.linalg.norm(res) <= tol:
            break
        q = apply(p)
        curvature = p @ q
        if not curvature > 0.0:
            break
        step = rz / curvature
        x += step * p
        res -= step * q
        z = res / precond
        rz, rz_prev = res @ z, rz
        p = z + (rz / rz_prev) * p
    return x


def _state_with_diagonal(ghat: np.ndarray, d: np.ndarray) -> NcmState:
    """The iterate X = Ghat + Diag(d), its eigendecomposition and residual."""
    x = ghat + np.diag(d)
    state = NcmState(
        X=x, D_diag=d, Ghat=ghat, eig=np.linalg.eigh(x), residual=np.nan
    )
    state.residual = ncm_residual(state)
    return state


def _state_of(problem: NcmProblem, d: np.ndarray) -> NcmState:
    """The iterate X = Ghat + Diag(d) of ``problem``."""
    return _state_with_diagonal(problem.G - np.diag(np.diag(problem.G)), d)


def initial_state(problem: NcmProblem) -> NcmState:
    """Start at X = G, which pins the off-diagonal and zeroes the multiplier."""
    return _state_of(problem, np.diag(problem.G).copy())


def ncm_residual(state: NcmState) -> float:
    """|F(d)| = |diag(P_psd(X)) - e|.

    The multiplier block of the optimality system holds exactly by
    construction (lambda is defined as diag(G) - diag(X)), so this is the
    residual of the whole system.
    """
    return float(np.linalg.norm(_gradient(state)))


def ncm_step(state: NcmState) -> NcmState:
    """One globalized semismooth Newton-CG step on F(d) = 0.

    Solves (J + eps I) h = -F by conjugate gradients preconditioned with
    diag(J), to |res| <= min(1e-2, |F|^(1/2)) |F|, then tries d + alpha h
    for alpha = 1, 1/2, ... and takes the first trial whose theta falls
    strictly below the Armijo bound theta + sigma alpha F^T h, or whose |F|
    falls strictly below (1 - sigma alpha) |F|.  If none of 50 trials does,
    or alpha h no longer changes d, the iterate is returned unchanged.
    """
    norm = state.residual
    if norm == 0.0:
        return state
    grad = _gradient(state)
    apply, diagonal = _newton_operator(*state.eig)
    h = _pcg(
        lambda v: apply(v) + _REGULARIZATION * v,
        diagonal + _REGULARIZATION,
        -grad,
        min(_MAX_FORCING, np.sqrt(norm)) * norm,
        max_iter=grad.shape[0],
    )
    if not np.all(np.isfinite(h)):
        raise NumericalFailureError("non-finite Newton direction")
    slope = float(grad @ h)
    theta = _dual_objective(state)
    alpha = 1.0
    for _ in range(_MAX_HALVINGS):
        d = state.D_diag + alpha * h
        if np.array_equal(d, state.D_diag):
            break
        trial = _state_with_diagonal(state.Ghat, d)
        if (
            trial.residual < (1.0 - _ARMIJO * alpha) * norm
            or _dual_objective(trial) < theta + _ARMIJO * alpha * slope
        ):
            return trial
        alpha *= 0.5
    return state


def diagonal_step(state: NcmState) -> NcmState:
    """One step of the diagonal Newton recursion."""
    vals, vecs = state.eig
    diag_v, diag_vg = _step_diagonals(vals, vecs, state.Ghat)
    rhs = 1.0 - diag_vg
    usable = np.abs(diag_v) > _DIAG_PINV_TOL
    d_new = np.zeros_like(rhs)
    d_new[usable] = rhs[usable] / diag_v[usable]
    if not np.all(np.isfinite(d_new)):
        raise NumericalFailureError("non-finite diagonal update")
    new_state = _state_with_diagonal(state.Ghat, d_new)
    if not np.isfinite(new_state.residual):
        raise NumericalFailureError("non-finite residual after step")
    return new_state


def _step_diagonals(
    vals: np.ndarray, vecs: np.ndarray, ghat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """diag(V) and diag(V @ Ghat) for V = U_+ U_+^T, without forming V.

    Uses diag(U_+ U_+^T) = rowsum(U_+ o U_+) and, Ghat being symmetric,
    diag(U_+ U_+^T Ghat) = rowsum(U_+ o (Ghat U_+)).  When more than half
    the eigenvalues are positive, V = I - U_- U_-^T gives the same from the
    nonpositive eigenvectors U_-, using diag(Ghat) = 0.
    """
    n = vals.shape[0]
    r = _positive_count(vals)
    if 2 * r <= n:
        u = vecs[:, n - r:]
        return np.einsum("ij,ij->i", u, u), np.einsum("ij,ij->i", u, ghat @ u)
    u = vecs[:, :n - r]
    return 1.0 - np.einsum("ij,ij->i", u, u), -np.einsum("ij,ij->i", u, ghat @ u)


def _stalled(prev: NcmState, state: NcmState) -> bool:
    """Whether the step from ``prev`` to ``state`` made no progress.

    ``prev`` had a residual above the tolerance, so a stalled ``state`` has
    too.  Rounding can flip the sign of a zero eigenvalue between iterates, so an
    unchanged diagonal may differ in its last bits.
    """
    change = np.abs(state.D_diag - prev.D_diag).max()
    return bool(
        state.residual >= prev.residual
        and change <= _STALL_TOL * (1.0 + np.abs(prev.D_diag).max())
    )


def _check_tol(tol: float) -> None:
    """Reject a negative, NaN or infinite tolerance.  Zero asks for an exact
    root; a run that cannot reach it ends in ``NumericalFailureError``."""
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be nonnegative and finite, got {tol}")


def _iterate(
    problem: NcmProblem, d0: np.ndarray, step, tol: float, max_iter: int
) -> SolveReport:
    """Apply ``step`` from X = Ghat + Diag(d0) until the residual is at most
    ``tol``.

    A step that returns its input unchanged cannot make progress, which
    raises ``NumericalFailureError``.
    """
    _check_tol(tol)
    start = time.perf_counter()
    state = _state_of(problem, d0)
    residuals = [state.residual]
    iterations = 0
    termination = Termination.MAX_ITER
    if state.residual <= tol:
        termination = Termination.RESIDUAL_TOL
    else:
        for k in range(1, max_iter + 1):
            prev = state
            state = step(state)
            if state is prev:
                raise NumericalFailureError(
                    f"no step decreases the residual {state.residual:.3g}",
                    iteration=k,
                )
            residuals.append(state.residual)
            iterations = k
            if state.residual <= tol:
                termination = Termination.RESIDUAL_TOL
                break
    return SolveReport(
        solution=state.X,
        projected_solution=_psd_part(*state.eig),
        iterations=iterations,
        residuals=residuals,
        termination=termination,
        wall_time_seconds=time.perf_counter() - start,
    )


def solve_ncm(
    problem: NcmProblem, tol: float = 1e-5, max_iter: int = 200
) -> SolveReport:
    """Globalized semismooth Newton-CG (``ncm_step``) from X = Ghat + I."""
    return _iterate(problem, np.ones(problem.n), ncm_step, tol, max_iter)


def solve_ncm_diagonal(
    problem: NcmProblem, tol: float = 1e-5, max_iter: int = 200
) -> SolveReport:
    """Diagonal Newton recursion (``diagonal_step``) starting from X = G.

    The first step that leaves the diagonal unchanged (up to rounding) and
    the residual above ``tol`` is replaced by a restart from X = Ghat + I;
    a later one is kept.
    """
    restarted = False

    def step(state):
        nonlocal restarted
        new_state = diagonal_step(state)
        if not restarted and _stalled(state, new_state):
            restarted = True
            new_state = _state_with_diagonal(new_state.Ghat, np.ones(problem.n))
        return new_state

    return _iterate(problem, np.diag(problem.G).copy(), step, tol, max_iter)


def solve_ncm_baseline(
    problem: NcmProblem, tol: float = 1e-5, max_iter: int = 5000
) -> SolveReport:
    """Alternating projections between the unit-diagonal set and the
    semidefinite cone, with Dykstra's correction on the cone projection.

    Stops when the projected iterate's diagonal defect drops below tol,
    measured with the same residual as the Newton solver.  The report's
    ``solution`` is the last matrix projected onto the cone.
    """
    _check_tol(tol)
    start = time.perf_counter()
    diag_idx = np.arange(problem.n)

    r = problem.G.copy()
    x = _psd_part(*np.linalg.eigh(r))
    res = float(np.linalg.norm(np.diag(x) - 1.0))
    residuals = [res]
    iterations = 0
    termination = Termination.MAX_ITER
    if res <= tol:
        termination = Termination.RESIDUAL_TOL
    else:
        correction = x - r
        y = x.copy()
        y[diag_idx, diag_idx] = 1.0
        for k in range(1, max_iter + 1):
            r = y - correction
            x = _psd_part(*np.linalg.eigh(r))
            if not np.all(np.isfinite(x)):
                raise NumericalFailureError("non-finite iterate", iteration=k)
            res = float(np.linalg.norm(np.diag(x) - 1.0))
            residuals.append(res)
            iterations = k
            if res <= tol:
                termination = Termination.RESIDUAL_TOL
                break
            correction = x - r
            y = x.copy()
            y[diag_idx, diag_idx] = 1.0
    return SolveReport(
        solution=r,
        projected_solution=x,
        iterations=iterations,
        residuals=residuals,
        termination=termination,
        wall_time_seconds=time.perf_counter() - start,
    )
