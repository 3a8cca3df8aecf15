"""Linear operators on the ambient space, problem containers, convergence analysis.

The analyzer checks sufficient conditions for existence, uniqueness, and
Q-linear convergence of the semi-smooth Newton iteration and predicts the
contraction ratio when one is available.  For the plain equation form the
conditions are phrased in terms of the inverse norm of T (strict branch:
norm(T^-1) < 1/2; positive definite branch: norm(T^-1) < 1).  For the
quadratic-program form they are phrased in terms of norm(Q - I), and the
positive definite branch needs Q - I positive definite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .cones import Cone, _diagonal
from .exceptions import DimensionMismatchError


class LinearOperator:
    """Square linear map with explicit apply and densification.

    ``materialize`` may return a read-only array that shares memory with
    the operator; a caller that writes to it copies it first.
    """

    dim: int

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def materialize(self) -> np.ndarray:
        raise NotImplementedError

    def _checked(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatchError(
                f"operator of dimension {self.dim} got vector of shape {x.shape}"
            )
        return x


@dataclass(frozen=True)
class DenseOperator(LinearOperator):
    """Arbitrary square matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("operator matrix contains non-finite entries")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x):
        return self.matrix @ self._checked(x)

    def materialize(self):
        """A read-only view of ``matrix``: no copy."""
        view = self.matrix.view()
        view.flags.writeable = False
        return view


@dataclass(frozen=True)
class ScaledIdentity(LinearOperator):
    """c times the identity."""

    scale: float
    dim: int

    def __post_init__(self):
        if not np.isfinite(self.scale):
            raise ValueError(f"identity scale must be finite, got {self.scale}")

    def apply(self, x):
        return self.scale * self._checked(x)

    def materialize(self):
        return self.scale * np.eye(self.dim)


@dataclass(frozen=True)
class AugmentedKkt(LinearOperator):
    """Block operator [[Q, A^T], [A, 0]] - I on the primal-multiplier space.

    Applied to (x, lam) it returns (Qx + A^T lam - x, Ax - lam) blockwise.
    With no rows (``constraint`` of shape (0, d)) it is Q - I.
    """

    quadratic: LinearOperator
    constraint: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.constraint, dtype=float)
        if a.ndim != 2:
            raise DimensionMismatchError("constraint matrix must be 2-D")
        if a.shape[1] != self.quadratic.dim:
            raise DimensionMismatchError(
                f"constraint has {a.shape[1]} columns, operator dimension is "
                f"{self.quadratic.dim}"
            )
        if not np.all(np.isfinite(a)):
            raise ValueError("constraint matrix contains non-finite entries")
        object.__setattr__(self, "constraint", a)

    @property
    def dim(self) -> int:
        return self.quadratic.dim + self.constraint.shape[0]

    def _split(self, z):
        d = self.quadratic.dim
        return z[:d], z[d:]

    def apply(self, z):
        z = self._checked(z)
        x, lam = self._split(z)
        top = self.quadratic.apply(x) + self.constraint.T @ lam - x
        bottom = self.constraint @ x - lam
        return np.concatenate([top, bottom])

    def materialize(self):
        d = self.quadratic.dim
        m = self.constraint.shape[0]
        out = np.empty((d + m, d + m))
        out[:d, :d] = self.quadratic.materialize()
        _diagonal(out[:d, :d])[:] -= 1.0
        out[:d, d:] = self.constraint.T
        out[d:, :d] = self.constraint
        # -I, with the -0.0 that negating I puts off its diagonal
        out[d:, d:] = -0.0
        _diagonal(out[d:, d:])[:] = -1.0
        return out


def as_operator(value, dim: int | None = None) -> LinearOperator:
    """Coerce a matrix or scalar into a LinearOperator."""
    if isinstance(value, LinearOperator):
        return value
    if np.isscalar(value):
        if dim is None:
            raise ValueError("scalar operator needs an explicit dimension")
        return ScaledIdentity(float(value), dim)
    return DenseOperator(np.asarray(value, dtype=float))


class EquationForm(str, enum.Enum):
    """Which side of the projection equation carries the linear operator.

    POINT_LINEAR:       P_K(x) + T x = b
    PROJECTION_LINEAR:  T P_K(x) + x = b
    """

    POINT_LINEAR = "point-linear"
    PROJECTION_LINEAR = "projection-linear"


@dataclass(frozen=True)
class ProjectionEquationProblem:
    """A projection equation over a cone: operator, right-hand side, form."""

    cone: Cone
    T: LinearOperator
    b: np.ndarray
    form: EquationForm = EquationForm.POINT_LINEAR

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        if b.shape != (self.cone.ambient_dim,):
            raise DimensionMismatchError(
                f"right-hand side has shape {b.shape}, cone ambient dimension is "
                f"{self.cone.ambient_dim}"
            )
        if self.T.dim != self.cone.ambient_dim:
            raise DimensionMismatchError(
                f"operator dimension {self.T.dim} does not match cone ambient "
                f"dimension {self.cone.ambient_dim}"
            )
        if not np.all(np.isfinite(b)):
            raise ValueError("right-hand side contains non-finite entries")
        object.__setattr__(self, "b", b)


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


def _dense_facts(matrix: np.ndarray):
    """(invertible, norm_inverse, positive_definite, norm) for a dense matrix."""
    if not np.all(np.isfinite(matrix)):
        raise ValueError("analysis requires finite operator entries")
    sigma = np.linalg.svd(matrix, compute_uv=False)
    sig_max = float(sigma[0]) if sigma.size else 0.0
    sig_min = float(sigma[-1]) if sigma.size else 0.0
    invertible = sig_min > _SINGULARITY_RTOL * max(1.0, sig_max)
    norm_inv = (1.0 / sig_min) if invertible else None
    sym = 0.5 * (matrix + matrix.T)
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    positive_definite = min_eig > 1e-10 * (1.0 + sig_max)
    return invertible, norm_inv, positive_definite, sig_max


def analyze(T: LinearOperator) -> GuaranteeReport:
    """Convergence guarantees for P_K(x) + Tx = b, any cone K.

    Branches, in order: positive definite T with norm(T^-1) < 1 gives a
    q-linear ratio of norm(T^-1); norm(T^-1) < 1/2 gives a q-linear ratio
    of norm(T^-1)/(1 - norm(T^-1)); norm(T^-1) < 1 gives existence and
    uniqueness only; otherwise nothing is claimed.
    """
    if isinstance(T, ScaledIdentity):
        c = float(T.scale)
        invertible = c != 0.0
        norm_inv = 1.0 / abs(c) if invertible else None
        positive_definite = c > 0.0
    else:
        invertible, norm_inv, positive_definite, _ = _dense_facts(T.materialize())
    return _guarantee_from_modulus(invertible, norm_inv, positive_definite)


def _guarantee_from_modulus(invertible, norm_inv, positive_definite):
    guarantee = Guarantee.NONE
    ratio = None
    if norm_inv is not None:
        if positive_definite and norm_inv < 1.0:
            guarantee, ratio = Guarantee.Q_LINEAR, norm_inv
        elif norm_inv < 0.5:
            guarantee, ratio = Guarantee.Q_LINEAR, norm_inv / (1.0 - norm_inv)
        elif norm_inv < 1.0:
            guarantee = Guarantee.EXISTENCE_UNIQUENESS
    return GuaranteeReport(
        invertible=invertible,
        norm_T_inv=norm_inv,
        is_positive_definite=positive_definite,
        guarantee=guarantee,
        predicted_ratio=ratio,
    )


def analyze_qcp_operator(Q: LinearOperator) -> GuaranteeReport:
    """Convergence guarantees for the form T P_K(x) + x = b with T = Q - I.

    Mirrors :func:`analyze` with norm(Q - I) in place of norm(T^-1), and
    with the definiteness of Q - I in place of that of T: the form is
    P_K(x) + (Q - I)^-1 x = (Q - I)^-1 b rearranged, so the positive
    definite branch needs Q - I positive definite, not Q.  Where that grants
    nothing, invertible Q with norm(Q^-1 - I) < 1 still gives existence and
    uniqueness.
    """
    if isinstance(Q, ScaledIdentity):
        c = float(Q.scale)
        dev = abs(c - 1.0)
        invertible = c != 0.0
        positive_definite = c > 1.0
        inv_dev = abs(1.0 / c - 1.0) if invertible else None
    else:
        mat = Q.materialize()
        eye = np.eye(mat.shape[0])
        invertible, _, _, _ = _dense_facts(mat)
        _, _, positive_definite, dev = _dense_facts(mat - eye)
        inv_dev = None
        if invertible:
            inv_dev = float(np.linalg.norm(np.linalg.inv(mat) - eye, 2))

    report = _guarantee_from_modulus(invertible, dev, positive_definite)
    if report.guarantee is Guarantee.NONE and inv_dev is not None and inv_dev < 1.0:
        report = replace(report, guarantee=Guarantee.EXISTENCE_UNIQUENESS)
    return report


def analyze_problem(problem: ProjectionEquationProblem) -> GuaranteeReport:
    """Dispatch to the analyzer matching the problem's equation form."""
    if problem.form is EquationForm.POINT_LINEAR:
        return analyze(problem.T)
    if isinstance(problem.T, AugmentedKkt) and problem.T.constraint.shape[0] == 0:
        return analyze_qcp_operator(problem.T.quadratic)
    q_dense = problem.T.materialize() + np.eye(problem.T.dim)
    return analyze_qcp_operator(DenseOperator(q_dense))

