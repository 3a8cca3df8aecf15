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

from .cones import Cone, _cone, _diagonal, _Frozen
from .exceptions import DimensionMismatchError, _finite, _matrix, _number, _size, _vector


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
        return _vector(x, self.dim, "operator")


class DenseOperator(_Frozen, LinearOperator):
    """Arbitrary square matrix, held in C order: a matrix in another layout
    is copied once, when the operator is built."""

    __match_args__ = ("matrix",)
    # holds an array: compared and hashed by identity
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, matrix: np.ndarray):
        self._init(matrix=_matrix(matrix, "operator matrix"))

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


class ScaledIdentity(_Frozen, LinearOperator):
    """c times the identity."""

    __match_args__ = ("scale", "dim")

    def __init__(self, scale: float, dim: int):
        self._init(
            scale=_finite(_number(scale, "identity scale"), "identity scale"),
            dim=_size(dim, "operator dimension"),
        )

    def apply(self, x):
        return self.scale * self._checked(x)

    def materialize(self):
        return self.scale * np.eye(self.dim)


class AugmentedKkt(_Frozen, LinearOperator):
    """Block operator [[Q, A^T], [A, 0]] - I on the primal-multiplier space.

    Applied to (x, lam) it returns (Qx + A^T lam - x, Ax - lam) blockwise.
    With no rows (``constraint`` of shape (0, d)) it is Q - I.
    """

    __match_args__ = ("quadratic", "constraint")
    # holds an array: compared and hashed by identity
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, quadratic: LinearOperator, constraint: np.ndarray):
        self._init(
            quadratic=quadratic,
            constraint=_matrix(constraint, "constraint matrix", quadratic.dim),
        )

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


def _operator(value, dim, what) -> LinearOperator:
    """``value`` as an operator of dimension ``dim``: a number c is
    ``ScaledIdentity(c, dim)``, an array a ``DenseOperator``, and an
    operator is taken as it is."""
    if np.isscalar(value):
        value = ScaledIdentity(value, dim)
    elif not isinstance(value, LinearOperator):
        value = DenseOperator(value)
    if value.dim != dim:
        raise DimensionMismatchError(
            f"{what} has dimension {value.dim}, cone ambient dimension is {dim}"
        )
    return value


class EquationForm(str, enum.Enum):
    """Which side of the projection equation carries the linear operator.

    POINT_LINEAR:       P_K(x) + T x = b
    PROJECTION_LINEAR:  T P_K(x) + x = b
    """

    POINT_LINEAR = "point-linear"
    PROJECTION_LINEAR = "projection-linear"


@dataclass(frozen=True, eq=False)
class ProjectionEquationProblem:
    """A projection equation over a cone: operator, right-hand side, form.
    ``T`` may be given as a number c, meaning c I, or as a matrix."""

    cone: Cone
    T: LinearOperator
    b: np.ndarray
    form: EquationForm = EquationForm.POINT_LINEAR

    def __post_init__(self):
        d = _cone(self.cone).ambient_dim
        b = _finite(_vector(self.b, d, "right-hand side"), "right-hand side")
        object.__setattr__(self, "T", _operator(self.T, d, "operator"))
        object.__setattr__(self, "b", b)

