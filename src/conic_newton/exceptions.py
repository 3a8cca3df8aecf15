"""Exception types shared across the package, and the one argument rule.

Every constructor and entry point checks its arguments with the three
private helpers below, so a bad argument raises a ``ValueError`` when it is
given, in the same words wherever it is given:

* ``_size``: a count or dimension that is not an integer of at least 1;
* ``_vector``: a vector of the wrong shape (``DimensionMismatchError``, a
  ``ValueError``), or a complex one;
* ``_finite``: an array or number with a NaN or infinite entry.

``what`` names the argument in the message and is formatted only when a
check fails, so passing an object (a cone names itself by its repr) costs
nothing on the hot path.
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


def _vector(value, length, what) -> np.ndarray:
    """``value`` as a float vector of shape ``(length,)``; a float64 vector
    is returned as it is, with no copy."""
    vector = np.asarray(value)
    if vector.dtype is not _FLOAT:
        if vector.dtype.kind == "c":
            raise ValueError(f"{what}: expected a real vector, got {vector.dtype}")
        vector = vector.astype(float)
    if vector.shape != (length,):
        raise DimensionMismatchError(
            f"{what}: expected a vector of length {length}, got shape {vector.shape}"
        )
    return vector


def _finite(array, what):
    """``array``, unless it has a NaN or infinite entry."""
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{what} contains non-finite entries")
    return array
