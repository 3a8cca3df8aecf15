"""Convergence analysis: the guarantees the sufficient conditions promise,
and the contraction ratios a run measures.

The analyzer checks sufficient conditions for existence, uniqueness, and
Q-linear convergence of the semi-smooth Newton iteration and predicts the
contraction ratio when one is available.  For the plain equation form the
conditions are phrased in terms of the inverse norm of T (strict branch:
norm(T^-1) < 1/2; positive definite branch: norm(T^-1) < 1).  For the
quadratic-program form they are phrased in terms of norm(Q - I), and the
positive definite branch needs Q - I positive definite.

``measure_ratios`` is the measured side of the same rates: the error
contraction of each step of a run against a verified root.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import _finite
from .newton import NewtonConfig, residual, solve
from .operators import (
    AugmentedKkt,
    DenseOperator,
    EquationForm,
    LinearOperator,
    ProjectionEquationProblem,
    ScaledIdentity,
)


class Guarantee(str, enum.Enum):
    NONE = "none"
    EXISTENCE_UNIQUENESS = "existence-uniqueness"
    Q_LINEAR = "q-linear"


@dataclass(frozen=True)
class GuaranteeReport:
    """What the sufficient conditions promise for a given operator.

    ``norm_T_inv`` holds norm(T^-1) when analyzing the plain form and
    norm(Q - I) when analyzing the quadratic-program form; it is the
    contraction modulus that the guarantee branches compare against.
    ``is_positive_definite`` is that of T in the plain form and of Q - I in
    the quadratic-program form; ``invertible`` is that of T, or of Q.
    """

    invertible: bool
    norm_T_inv: float | None
    is_positive_definite: bool
    guarantee: Guarantee
    predicted_ratio: float | None = None

    def summary(self) -> str:
        norm = "n/a" if self.norm_T_inv is None else f"{self.norm_T_inv:.6g}"
        if self.guarantee is Guarantee.Q_LINEAR:
            tail = f"q-linear convergence, ratio <= {self.predicted_ratio:.6g}"
        elif self.guarantee is Guarantee.EXISTENCE_UNIQUENESS:
            tail = "unique solution exists (no rate guarantee)"
        else:
            tail = "no guarantee"
        return (
            f"invertible={self.invertible} positive_definite="
            f"{self.is_positive_definite} contraction_norm={norm}: {tail}"
        )


_SINGULARITY_RTOL = 1e-14
_EPS = float(np.finfo(float).eps)


def _dense_facts(matrix: np.ndarray):
    """(invertible, norm_inverse, positive_definite, norm, rounding) for a
    dense matrix, where ``rounding`` bounds the error of each computed
    singular value."""
    sigma = np.linalg.svd(_finite(matrix, "analyzed operator"), compute_uv=False)
    sig_max = float(sigma[0]) if sigma.size else 0.0
    sig_min = float(sigma[-1]) if sigma.size else 0.0
    invertible = sig_min > _SINGULARITY_RTOL * max(1.0, sig_max)
    norm_inv = (1.0 / sig_min) if invertible else None
    # halves first: 0.5 * (matrix + matrix.T) overflows for entries near the
    # largest double, and equals this bit for bit wherever it does not
    sym = 0.5 * matrix + 0.5 * matrix.T
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    positive_definite = min_eig > 1e-10 * (1.0 + sig_max)
    # |computed sigma_i - sigma_i| <= p(d) eps sigma_max for a backward
    # stable SVD; p(d) = d, the dimension, is taken for the modest p
    rounding = max(matrix.shape, default=0) * _EPS * sig_max
    return invertible, norm_inv, positive_definite, sig_max, rounding


def analyze(problem: ProjectionEquationProblem) -> GuaranteeReport:
    """Convergence guarantees for the problem's projection equation, any cone K.

    The point-linear form P_K(x) + Tx = b is read through T; the
    projection-linear form T P_K(x) + x = b through Q = T + I.  A
    projection-linear operator that is a zero-row ``AugmentedKkt`` is read
    through its own ``quadratic``, so a ``ScaledIdentity`` Q is analyzed
    exactly, without a densified copy.
    """
    T = problem.T
    if problem.form is EquationForm.POINT_LINEAR:
        return _analyze_point_linear(T)
    if isinstance(T, AugmentedKkt) and T.constraint.shape[0] == 0:
        return _analyze_projection_linear(T.quadratic)
    return _analyze_projection_linear(DenseOperator(T.materialize() + np.eye(T.dim)))


def _analyze_point_linear(T: LinearOperator) -> GuaranteeReport:
    """Convergence guarantees for P_K(x) + Tx = b, any cone K.

    Branches, in order: positive definite T with norm(T^-1) < 1 gives a
    q-linear ratio of norm(T^-1); norm(T^-1) < 1/2 gives a q-linear ratio
    of norm(T^-1)/(1 - norm(T^-1)); norm(T^-1) < 1 gives existence and
    uniqueness only; otherwise nothing is claimed.  For a dense T each test
    is passed by the largest norm(T^-1) that the computed singular values
    allow, 1 / (sigma_min - rounding), not by the computed 1 / sigma_min.
    """
    if isinstance(T, ScaledIdentity):
        c = float(T.scale)
        invertible = c != 0.0
        norm_inv = 1.0 / abs(c) if invertible else None
        positive_definite = c > 0.0
        return _guarantee_from_modulus(invertible, norm_inv, positive_definite)
    invertible, norm_inv, positive_definite, _, rounding = _dense_facts(T.materialize())
    upper = None
    if invertible:
        # 1 / (sigma_min - rounding), with sigma_min = 1 / norm_inv
        shrink = 1.0 - rounding * norm_inv
        upper = norm_inv / shrink if shrink > 0.0 else np.inf
    return _guarantee_from_modulus(invertible, norm_inv, positive_definite, upper)


def _guarantee_from_modulus(invertible, norm_inv, positive_definite, upper=None):
    """The report for a computed contraction modulus ``norm_inv``; each
    branch is granted only when ``upper``, the largest the exact modulus can
    be, is below the branch's threshold.

    ``upper`` defaults to ``norm_inv``: a scalar operator's modulus is one
    correctly rounded operation, which is monotone, and the thresholds 1 and
    1/2 are doubles, so a computed modulus below one has an exact one below
    it too.
    """
    upper = norm_inv if upper is None else upper
    guarantee = Guarantee.NONE
    ratio = None
    if norm_inv is not None:
        if positive_definite and upper < 1.0:
            guarantee, ratio = Guarantee.Q_LINEAR, norm_inv
        elif upper < 0.5:
            guarantee, ratio = Guarantee.Q_LINEAR, norm_inv / (1.0 - norm_inv)
        elif upper < 1.0:
            guarantee = Guarantee.EXISTENCE_UNIQUENESS
    return GuaranteeReport(
        invertible=invertible,
        norm_T_inv=norm_inv,
        is_positive_definite=positive_definite,
        guarantee=guarantee,
        predicted_ratio=ratio,
    )


def _analyze_projection_linear(Q: LinearOperator) -> GuaranteeReport:
    """Convergence guarantees for the form T P_K(x) + x = b with T = Q - I.

    Mirrors :func:`_analyze_point_linear` with norm(Q - I) in place of
    norm(T^-1), and with the definiteness of Q - I in place of that of T:
    the form is P_K(x) + (Q - I)^-1 x = (Q - I)^-1 b rearranged, so the
    positive definite branch needs Q - I positive definite, not Q.  Where
    that grants nothing, invertible Q with norm(Q^-1 - I) < 1 still gives
    existence and uniqueness.  For a dense Q each branch is tested at
    norm(Q - I) plus the singular values' rounding bound.
    """
    if isinstance(Q, ScaledIdentity):
        c = float(Q.scale)
        dev = abs(c - 1.0)
        invertible = c != 0.0
        positive_definite = c > 1.0
        inv_dev = abs(1.0 / c - 1.0) if invertible else None
        upper = None
    else:
        mat = Q.materialize()
        eye = np.eye(mat.shape[0])
        invertible = _dense_facts(mat)[0]
        _, _, positive_definite, dev, rounding = _dense_facts(mat - eye)
        upper = dev + rounding
        inv_dev = None
        if invertible:
            inv_dev = float(np.linalg.norm(np.linalg.inv(mat) - eye, 2))

    report = _guarantee_from_modulus(invertible, dev, positive_definite, upper)
    if report.guarantee is Guarantee.NONE and inv_dev is not None and inv_dev < 1.0:
        report = replace(report, guarantee=Guarantee.EXISTENCE_UNIQUENESS)
    return report


def _replayed_iterates(problem, config, report):
    """The iterates of ``report``, the run of ``solve(problem, config)``,
    rebuilt by one-step solves: a step depends on its iterate alone.  Raises
    ``ValueError`` unless the last is ``report.solution`` bit for bit."""
    start = np.zeros(problem.cone.ambient_dim) if config.x0 is None else config.x0
    iterates = [np.asarray(start, dtype=float)]
    for _ in range(report.iterations):
        step = solve(problem, replace(config, x0=iterates[-1], max_iter=1))
        iterates.append(step.solution)
    if iterates[-1].tobytes() != report.solution.tobytes():
        raise ValueError("the replayed iterates do not end at the report's solution")
    return iterates


def measure_ratios(
    problem: ProjectionEquationProblem,
    config: NewtonConfig,
    reference: np.ndarray,
) -> list[float]:
    """Per-step error contraction ratios against a verified root.

    The reference must satisfy the equation to residual 1e-10; ratios are
    |x_{k+1} - ref| / |x_k - ref| over the iterates of ``solve(problem,
    config)``, replayed one step at a time from its starting point.
    """
    reference = np.asarray(reference, dtype=float)
    ref_res = residual(problem, reference)
    if ref_res > 1e-10:
        raise ValueError(
            f"reference point is not a root (residual {ref_res:.3e} > 1e-10)"
        )
    iterates = _replayed_iterates(problem, config, solve(problem, config))
    errors = [float(np.linalg.norm(it - reference)) for it in iterates]
    return [curr / prev for prev, curr in zip(errors, errors[1:]) if prev > 0.0]
