"""Exception types shared across the package, and the one argument rule.

Every constructor and entry point checks its arguments with the private
helpers below, so a bad argument raises a ``ValueError`` when it is given,
in the same words wherever it is given: ``_size`` (an integer >= 1),
``_number``, ``_vector`` and ``_matrix`` (a real number, a real vector of
the expected length, a finite real matrix, nonempty and square or with the
expected columns; a wrong shape raises ``DimensionMismatchError``) and
``_finite`` (no NaN or infinite entry).  ``what`` names the argument and is
formatted only when a check fails, so passing an object (a cone names
itself by its repr) costs nothing on the hot path, where a float64 vector
and a C-ordered float64 matrix pass with no copy.
"""

import operator

import numpy as np

_FLOAT = np.dtype(float)


class DimensionMismatchError(ValueError):
    """An input vector or matrix has the wrong shape for the target object."""


class NumericalFailureError(RuntimeError):
    """A solve produced non-finite values or diverged.

    Carries the iteration index at which the failure was detected.
    """

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


def _size(n, what) -> int:
    """``n`` as an ``int`` of at least 1; a float, a string or a smaller
    integer raises ``ValueError``."""
    try:
        size = operator.index(n)
    except TypeError:
        size = 0
    if size < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {n!r}")
    return size


def _real(value, what, noun) -> np.ndarray:
    """``value`` as a float array, a float64 one as it is; any dtype but bool,
    integer or float raises ``ValueError`` (where numpy would drop an
    imaginary part, or raise ``TypeError`` on ``None`` or an object)."""
    array = np.asarray(value)
    if array.dtype is not _FLOAT:
        if array.dtype.kind not in "biuf":
            raise ValueError(f"{what}: expected a real {noun}, got {array.dtype}")
        array = array.astype(float)
    return array


def _number(value, what) -> float:
    """``value`` as a ``float``."""
    number = _real(value, what, "number")
    if number.ndim:
        raise ValueError(f"{what}: expected a real number, got shape {number.shape}")
    return float(number)


def _vector(value, length, what) -> np.ndarray:
    """``value`` as a float vector of shape ``(length,)``; a float64 vector
    is returned as it is, with no copy."""
    vector = _real(value, what, "vector")
    if vector.shape != (length,):
        raise DimensionMismatchError(
            f"{what}: expected a vector of length {length}, got shape {vector.shape}"
        )
    return vector


def _matrix(value, what, columns=None) -> np.ndarray:
    """``value`` as a finite, C-ordered float matrix (a C-ordered float64 one
    as it is): nonempty and square, or with ``columns`` columns if given."""
    matrix = np.asarray(_real(value, what, "matrix"), order="C")
    shape, square = matrix.shape, columns is None
    if len(shape) != 2 or not (0 < shape[0] == shape[1] if square else shape[1] == columns):
        wanted = "a nonempty square matrix" if square else f"a matrix with {columns} columns"
        raise DimensionMismatchError(f"{what}: expected {wanted}, got shape {shape}")
    return _finite(matrix, what)


def _finite(array, what):
    """``array``, unless it has a NaN or infinite entry."""
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{what} contains non-finite entries")
    return array
