"""Linear operators on the ambient space and the projection-equation problem.

An operator applies itself to a vector and densifies itself (``apply`` and
``materialize``); ``ProjectionEquationProblem`` holds a cone, an operator,
a right-hand side and the form of the equation.  The convergence analysis
of a problem is in ``analysis``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .cones import Cone, _diagonal
from .exceptions import DimensionMismatchError


class LinearOperator:
    """Square linear map with explicit apply and densification.

    ``materialize`` returns a C-ordered array, which may be read-only and
    share memory with the operator; a caller that writes to it copies it
    first.  The Newton steps read it in that order, so the answers do not
    depend on how the caller laid out its matrix.
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
    """Arbitrary square matrix, held in C order: a matrix in another layout
    is copied once, when the operator is built."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float, order="C")
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
        if not self.constraint.shape[0]:
            # Q - I: the empty A^T lam adds +0.0, which clears -0.0 in Qx
            return (self.quadratic.apply(z) + 0.0) - z
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
