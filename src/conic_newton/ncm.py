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

``solve_ncm_baseline``, kept for benchmarking, is Higham's (2002)
Dykstra-corrected alternating projections between the semidefinite cone
and the unit-diagonal set.  That set is affine, so the Dykstra correction
on it cancels and each iteration changes only the diagonal,
d <- d - F(d): the unit-step gradient method on theta (Malick 2004).  It
converges linearly.

All three solvers share one ``NcmState`` and, through ``_iterate``, the
iteration driver of ``newton.solve``: each iterate is factored once, the
tolerance is checked on ``ncm_residual``, and a diagonal met again bit for
bit ends the run PATTERN_CYCLE.  ``_iterate`` scales an off-diagonal beyond
2^128 down by a power of two, with the diagonal target alike; the report is
in the caller's units.

Every solver returns a ``SolveReport`` whose ``solution`` is the root X and
whose ``projected_solution`` is P_psd(X), the nearest correlation matrix;
the multiplier is lambda = diag(G) - diag(solution).

One registry, read by the CLI and ``bench``, names the three solvers: a
canonical name, the alias that ``--method`` offers, and the default
iteration cap, which is the solver's own ``max_iter`` default;
``run_solver`` runs a solver by its canonical name.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from .cones import _norm, _positive_count, _psd_omega, _psd_part
from .exceptions import NumericalFailureError, _matrix, _number, _size
from .newton import SolveReport, _drive, _scale_exponent

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


@dataclass(frozen=True, eq=False)
class NcmProblem:
    """Input matrix for the nearest-correlation problem, symmetrized on ingestion."""

    G: np.ndarray

    def __post_init__(self):
        g = _matrix(self.G, "input matrix")
        # halves first: 0.5 * (g + g.T) overflows for entries near the largest double
        object.__setattr__(self, "G", 0.5 * g + 0.5 * g.T)

    @property
    def n(self) -> int:
        return self.G.shape[0]


@dataclass(eq=False)
class NcmState:
    """One iterate X = Ghat + Diag(D_diag) of any of the solvers.

    The off-diagonal of X always equals the off-diagonal of G.  ``eig``
    is ``np.linalg.eigh(X)``, taken when the state is built, so the
    residual evaluation and the following step share one factorization.
    ``target`` is the value of e's entries: 1, or 2^-k for a problem that
    the iteration driver scales down by 2^k.
    """

    X: np.ndarray
    D_diag: np.ndarray
    Ghat: np.ndarray
    eig: tuple[np.ndarray, np.ndarray]
    residual: float
    target: float = 1.0


def _gradient(state: NcmState) -> np.ndarray:
    """F(d) = diag(P_psd(X)) - e, a row sum over the positive eigenvectors."""
    vals, vecs = state.eig
    first = vals.shape[0] - _positive_count(vals)
    upos = vecs[:, first:]
    return np.einsum("ij,j,ij->i", upos, vals[first:], upos) - state.target


def _dual_objective(state: NcmState) -> float:
    """theta(d) = 1/2 |P_psd(X)|_F^2 - e^T d."""
    vals, _ = state.eig
    positive = np.maximum(vals, 0.0)
    return float(0.5 * (positive @ positive) - state.target * state.D_diag.sum())


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


def _state_with_diagonal(ghat: np.ndarray, d: np.ndarray, target: float) -> NcmState:
    """The iterate X = Ghat + Diag(d) for the diagonal target ``target``,
    its eigendecomposition and residual."""
    x = ghat + np.diag(d)
    state = NcmState(
        X=x, D_diag=d, Ghat=ghat, eig=np.linalg.eigh(x), residual=np.nan,
        target=target,
    )
    state.residual = ncm_residual(state)
    return state


def ncm_residual(state: NcmState) -> float:
    """|F(d)| = |diag(P_psd(X)) - e|.

    The multiplier block of the optimality system holds exactly by
    construction (lambda is defined as diag(G) - diag(X)), so this is the
    residual of the whole system.  The norm is :func:`cones._norm`'s, read
    at any scale.
    """
    return _norm(_gradient(state))


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
        min(_MAX_FORCING, np.sqrt(norm / state.target)) * norm,
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
        trial = _state_with_diagonal(state.Ghat, d, state.target)
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
    rhs = state.target - diag_vg
    usable = np.abs(diag_v) > _DIAG_PINV_TOL
    d_new = np.zeros_like(rhs)
    d_new[usable] = rhs[usable] / diag_v[usable]
    if not np.all(np.isfinite(d_new)):
        raise NumericalFailureError("non-finite diagonal update")
    new_state = _state_with_diagonal(state.Ghat, d_new, state.target)
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


def _gradient_step(state: NcmState) -> NcmState:
    """One unit gradient step on theta, d <- d - F(d)."""
    d = state.D_diag - _gradient(state)
    if not np.all(np.isfinite(d)):
        raise NumericalFailureError("non-finite iterate")
    return _state_with_diagonal(state.Ghat, d, state.target)


def _stalled(prev: NcmState, state: NcmState) -> bool:
    """Whether the step from ``prev`` to ``state`` made no progress.

    ``prev`` had a residual above the tolerance, so a stalled ``state`` has
    too.  Rounding can flip the sign of a zero eigenvalue between iterates, so an
    unchanged diagonal may differ in its last bits.
    """
    change = np.abs(state.D_diag - prev.D_diag).max()
    return bool(
        state.residual >= prev.residual
        and change <= _STALL_TOL * (prev.target + np.abs(prev.D_diag).max())
    )


def _iterate(
    problem: NcmProblem, d0: np.ndarray, step, tol: float, max_iter: int,
    restart: bool = False,
) -> SolveReport:
    """Apply ``step`` from X = Ghat + Diag(d0), on ``newton._drive``, until
    the residual is at most ``tol``.

    The iterates never hold diag(G), and the problem is homogeneous in Ghat
    and the diagonal target e together.  So a Ghat whose largest entry lies
    beyond 2^128 is solved as Ghat 2^-k with target e 2^-k, 2^-k bringing
    that entry into [1/2, 1); any other G is solved as given (k = 0).
    Residuals and ``tol`` are in the caller's units.

    ``restart`` replaces the first step that makes no progress
    (``_stalled``) by a restart from X = Ghat + I, after which only the
    diagonals met since count as a cycle.  A step that returns its input
    unchanged raises ``NumericalFailureError``; so does a failure inside a
    step, which carries the iteration it happened in.

    A ``tol`` that is not a nonnegative, finite real number and a
    ``max_iter`` that is not an integer of at least 1 raise ``ValueError``.
    Zero tol asks for an exact root; a run that cannot reach it ends in
    ``NumericalFailureError``.
    """
    tol = _number(tol, "tol")
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be nonnegative and finite, got {tol}")
    max_iter = _size(max_iter, "max_iter")
    ghat = problem.G - np.diag(np.diag(problem.G))
    # e's entries are 1, so (Ghat, e) is never scaled up
    shift = max(_scale_exponent(ghat), 0)
    if shift:
        ghat, d0 = np.ldexp(ghat, -shift), np.ldexp(d0, -shift)
    target = 2.0**-shift

    def advance(state):
        nonlocal restart
        new = step(state)
        if restart and _stalled(state, new):
            restart = False
            return _state_with_diagonal(ghat, np.full(problem.n, target), target), True
        return new, False

    return _drive(
        lambda: _state_with_diagonal(ghat, d0, target), advance,
        lambda state: (state.residual, state.D_diag.tobytes()),
        lambda state: (state.X, _psd_part(*state.eig)), tol, max_iter, shift,
    )


def solve_ncm(
    problem: NcmProblem, tol: float = 1e-5, max_iter: int = 200
) -> SolveReport:
    """Globalized semismooth Newton-CG (``ncm_step``) from X = Ghat + I."""
    return _iterate(problem, np.ones(problem.n), ncm_step, tol, max_iter)


def solve_ncm_diagonal(
    problem: NcmProblem, tol: float = 1e-5, max_iter: int = 200
) -> SolveReport:
    """Diagonal Newton recursion (``diagonal_step``) starting from X = G,
    restarted once from X = Ghat + I if a step makes no progress."""
    return _iterate(
        problem, np.diag(problem.G).copy(), diagonal_step, tol, max_iter, restart=True
    )


def solve_ncm_baseline(
    problem: NcmProblem, tol: float = 1e-5, max_iter: int = 5000
) -> SolveReport:
    """Alternating projections (``_gradient_step``) starting from X = G.

    The unit-step gradient method on the dual theta, d <- d - F(d), which
    is Dykstra-corrected alternating projections between the semidefinite
    cone and the unit-diagonal set: that set is affine, so the correction
    on it cancels and only the diagonal moves.  The report's ``solution``
    is the last matrix projected onto the cone.
    """
    return _iterate(problem, np.diag(problem.G).copy(), _gradient_step, tol, max_iter)


SOLVER_NEWTON = "semi-smooth-newton-ncm"
SOLVER_DIAGONAL = "diagonal-newton-ncm"
SOLVER_BASELINE = "alternating-projections"


def _signature_cap(solver) -> int:
    """The ``max_iter`` default in the signature of ``solver``."""
    return inspect.signature(solver).parameters["max_iter"].default


# The solver registry: canonical name -> (alias, solver, default iteration
# cap), the cap read from the solver's signature.  The solver is held by its
# name in this module, so that run_solver calls whatever the module binds to
# that name when it runs.
_SOLVERS = {
    canonical: (alias, solver.__name__, _signature_cap(solver))
    for canonical, alias, solver in (
        (SOLVER_NEWTON, "newton", solve_ncm),
        (SOLVER_DIAGONAL, "diagonal", solve_ncm_diagonal),
        (SOLVER_BASELINE, "baseline", solve_ncm_baseline),
    )
}


def canonical_solver(name: str) -> str:
    """The canonical name of the solver named ``name``, or aliased by it."""
    for canonical, (alias, _, _) in _SOLVERS.items():
        if name in (canonical, alias):
            return canonical
    raise ValueError(f"unknown solver {name!r}")


def default_max_iter(name: str) -> int:
    """Iteration cap of the canonical solver ``name`` when none is given."""
    return _SOLVERS[name][2]


def run_solver(name: str, problem: NcmProblem, tol: float, max_iter=None) -> SolveReport:
    """Run the canonical solver ``name``; ``max_iter=None`` takes its default."""
    _, solver, cap = _SOLVERS[name]
    if max_iter is None:
        max_iter = cap
    return globals()[solver](problem, tol=tol, max_iter=max_iter)
