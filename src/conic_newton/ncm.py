"""Nearest correlation matrix solvers.

Given a symmetric G, find the positive semidefinite matrix with unit
diagonal closest to G in Frobenius norm.  The optimality system couples a
raw matrix X and a diagonal multiplier lambda:

    X + Diag(lambda) = G,        diag(P_psd(X)) = e.

Since X differs from G only on the diagonal, a Newton step reduces to a
diagonal linear system.  With X = U Lam U^T, the step matrix is
V = U D U^T where D marks strictly positive eigenvalues, and the new
diagonal d solves  Diag(diag(V)) d = e - diag(V @ Ghat)  with Ghat the
off-diagonal part of G.  Entries of diag(V) within 1e-12 of zero are
handled by the diagonal pseudoinverse (their update component is zero).
Only the two diagonals are needed, so V is never formed: they are row sums
over whichever of the positive or nonpositive eigenvectors is the smaller
set (Qi & Sun 2006), which costs O(n^2 min(r, n - r)) for r positive
eigenvalues after the eigendecomposition.

A step that leaves the diagonal unchanged without converging (X with no
positive eigenvalue makes diag(V) zero, so the step is a no-op) restarts
the recursion once from X = Ghat + I, whose trace n guarantees a positive
eigenvalue.

A Dykstra-corrected alternating-projections solver is included as a
baseline for benchmarking.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatchError, NumericalFailureError
from .newton import Termination

_DIAG_PINV_TOL = 1e-12
# A step that moves the diagonal by at most this, relative to its size, and
# does not lower the residual has made no progress.
_STALL_TOL = 1e-12


@dataclass(frozen=True)
class NcmProblem:
    """Input matrix for the nearest-correlation problem, symmetrized on ingestion."""

    G: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.G, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got {g.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError("input matrix contains non-finite entries")
        object.__setattr__(self, "G", 0.5 * (g + g.T))

    @property
    def n(self) -> int:
        return self.G.shape[0]


@dataclass
class NcmState:
    """One iterate of the diagonal Newton recursion.

    The off-diagonal of X always equals the off-diagonal of G, and
    lambda = diag(G) - D_diag holds exactly by construction.  ``eig``
    caches the spectral decomposition of X so the residual evaluation and
    the following step share one factorization.
    """

    X: np.ndarray
    lam: np.ndarray
    D_diag: np.ndarray
    Ghat: np.ndarray
    residual: float
    eig: tuple[np.ndarray, np.ndarray] | None = None


@dataclass
class NcmReport:
    correlation_matrix: np.ndarray
    raw_root: np.ndarray
    lam: np.ndarray
    iterations: int
    residuals: list[float]
    wall_time_seconds: float
    termination: Termination


def _eigh_cached(state: NcmState) -> tuple[np.ndarray, np.ndarray]:
    if state.eig is None:
        vals, vecs = np.linalg.eigh(state.X)
        state.eig = (vals, vecs)
    return state.eig


def _positive_count(vals: np.ndarray) -> int:
    """Number of positive eigenvalues; ``eigh`` sorts them last."""
    return int(np.count_nonzero(vals > 0.0))


def _psd_part(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    first = vals.shape[0] - _positive_count(vals)
    upos = vecs[:, first:]
    out = (upos * vals[first:]) @ upos.T
    return 0.5 * (out + out.T)


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


def check_positive_diag(X: np.ndarray) -> bool:
    """Whether diag(X) > 0 componentwise (the step is then well defined)."""
    return bool(np.all(np.diag(np.asarray(X, dtype=float)) > 0.0))


def _state_with_diagonal(
    ghat: np.ndarray, diag_g: np.ndarray, d: np.ndarray
) -> NcmState:
    """The iterate X = Ghat + Diag(d), with lambda = diag(G) - d."""
    state = NcmState(
        X=ghat + np.diag(d),
        lam=diag_g - d,
        D_diag=d,
        Ghat=ghat,
        residual=np.nan,
    )
    state.residual = ncm_residual(state)
    return state


def initial_state(problem: NcmProblem) -> NcmState:
    """Start at X = G, which pins the off-diagonal and zeroes the multiplier."""
    g = problem.G
    d = np.diag(g).copy()
    return _state_with_diagonal(g - np.diag(d), d, d)


def ncm_residual(state: NcmState) -> float:
    """Norm of the unit-diagonal defect of the projected iterate.

    The multiplier block of the optimality system holds exactly by
    construction, so the residual reduces to |diag(P_psd(X)) - e|.
    """
    vals, vecs = _eigh_cached(state)
    diag_proj = np.einsum("ij,j,ij->i", vecs, np.maximum(vals, 0.0), vecs)
    return float(np.linalg.norm(diag_proj - 1.0))


def ncm_step(state: NcmState) -> NcmState:
    """One diagonal Newton step."""
    vals, vecs = _eigh_cached(state)
    diag_v, diag_vg = _step_diagonals(vals, vecs, state.Ghat)
    rhs = 1.0 - diag_vg
    usable = np.abs(diag_v) > _DIAG_PINV_TOL
    d_new = np.zeros_like(rhs)
    d_new[usable] = rhs[usable] / diag_v[usable]
    if not np.all(np.isfinite(d_new)):
        raise NumericalFailureError("non-finite diagonal update")
    new_state = _state_with_diagonal(state.Ghat, state.D_diag + state.lam, d_new)
    if not np.isfinite(new_state.residual):
        raise NumericalFailureError("non-finite residual after step")
    return new_state


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


def solve_ncm(
    problem: NcmProblem, tol: float = 1e-5, max_iter: int = 200
) -> NcmReport:
    """Diagonal Newton recursion starting from X = G.

    The first step that leaves the diagonal unchanged (up to rounding) and
    the residual above ``tol`` is replaced by a restart from X = Ghat + I;
    a later one is kept.
    """
    start = time.perf_counter()
    state = initial_state(problem)
    residuals = [state.residual]
    iterations = 0
    restarted = False
    termination = Termination.MAX_ITER
    if state.residual <= tol:
        termination = Termination.RESIDUAL_TOL
    else:
        for k in range(1, max_iter + 1):
            prev = state
            state = ncm_step(state)
            if not restarted and _stalled(prev, state):
                restarted = True
                state = _state_with_diagonal(
                    state.Ghat, state.D_diag + state.lam, np.ones(problem.n)
                )
            residuals.append(state.residual)
            iterations = k
            if state.residual <= tol:
                termination = Termination.RESIDUAL_TOL
                break
    vals, vecs = _eigh_cached(state)
    return NcmReport(
        correlation_matrix=_psd_part(vals, vecs),
        raw_root=state.X.copy(),
        lam=state.lam.copy(),
        iterations=iterations,
        residuals=residuals,
        wall_time_seconds=time.perf_counter() - start,
        termination=termination,
    )


def solve_ncm_baseline(
    problem: NcmProblem, tol: float = 1e-5, max_iter: int = 5000
) -> NcmReport:
    """Alternating projections between the unit-diagonal set and the
    semidefinite cone, with Dykstra's correction on the cone projection.

    Stops when the projected iterate's diagonal defect drops below tol,
    measured with the same residual as the Newton solver.
    """
    start = time.perf_counter()
    g = problem.G
    diag_idx = np.arange(problem.n)

    r = g.copy()
    vals, vecs = np.linalg.eigh(r)
    x = _psd_part(vals, vecs)
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
            vals, vecs = np.linalg.eigh(r)
            x = _psd_part(vals, vecs)
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
    return NcmReport(
        correlation_matrix=x,
        raw_root=r.copy(),
        lam=np.diag(g) - np.diag(r),
        iterations=iterations,
        residuals=residuals,
        wall_time_seconds=time.perf_counter() - start,
        termination=termination,
    )
