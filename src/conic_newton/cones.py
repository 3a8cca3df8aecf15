"""Closed convex cones: exact projections, dual projections, derivative elements.

Every cone lives in a flat real coordinate space of dimension ``ambient_dim``.
The positive semidefinite cone is represented through scaled symmetric
vectorization (off-diagonal entries multiplied by sqrt(2)), so the Euclidean
inner product of coordinate vectors equals the trace inner product of the
underlying symmetric matrices and a single vector type serves every cone.

Each cone also selects one concrete element of the generalized derivative of
its projection map at any point, with deterministic tie rules at kinks:

* orthant: a coordinate is active iff it is strictly positive;
* second-order cone: interior/polar branches use strict inequalities, the
  boundary branch applies whenever the tail is nonzero, and the origin maps
  to the identity;
* semidefinite cone: zero eigenvalues count as nonpositive.

Semidefinite code, here and in the NCM solvers, takes ``np.linalg.eigh``
output as it comes, eigenvalues ascending.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import FrozenInstanceError

import numpy as np

from .exceptions import DimensionMismatchError, _size, _vector

_SQRT2 = float(np.sqrt(2.0))
_SAFE_NORM_MIN, _SAFE_NORM_MAX = 2.0**-500, 2.0**500


def _norm(values) -> float:
    """Euclidean (Frobenius) norm at any scale: ``np.linalg.norm``'s bits
    inside [2^-500, 2^500], else, as the squares may have under- or
    overflowed, taken again over the peak entry when it is finite and
    nonzero."""
    flat = np.ravel(values, order="K")
    with np.errstate(over="ignore"):
        norm = float(np.sqrt(flat @ flat))
    if not _SAFE_NORM_MIN <= norm <= _SAFE_NORM_MAX:
        peak = float(np.max(np.abs(flat), initial=0.0))
        if 0.0 < peak < np.inf:
            norm = peak * _norm(flat / peak)
    return norm


def svec(matrix: np.ndarray) -> np.ndarray:
    """Scaled upper-triangular vectorization of a symmetric matrix.

    Off-diagonal entries are multiplied by sqrt(2) so that
    ``svec(A) @ svec(B) == trace(A @ B)`` for symmetric A, B.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise DimensionMismatchError(f"expected a square matrix, got {matrix.shape}")
    rows, cols, scale = _svec_table(n)
    out = matrix[rows, cols]
    out *= scale
    return out


def smat(vector: np.ndarray) -> np.ndarray:
    """Inverse of :func:`svec`."""
    vector = np.asarray(vector, dtype=float)
    m = vector.shape[0]
    n = int(round((np.sqrt(8.0 * m + 1.0) - 1.0) / 2.0))
    if n * (n + 1) // 2 != m:
        raise DimensionMismatchError(f"length {m} is not a triangular number")
    rows, cols, scale = _svec_table(n)
    vals = vector / scale
    out = np.zeros((n, n))
    out[rows, cols] = vals
    out[cols, rows] = vals
    return out


@functools.lru_cache(maxsize=8)
def _svec_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, scale)`` for matrix order n: the upper-triangle
    positions in svec order and their svec scale (sqrt(2) off the diagonal,
    1 on it; scaling by 1 is exact).  The arrays are read-only, so every
    call for one order shares them."""
    rows, cols = np.triu_indices(n)
    scale = np.where(rows == cols, 1.0, _SQRT2)
    for table in (rows, cols, scale):
        table.flags.writeable = False
    return rows, cols, scale


def _diagonal(matrix: np.ndarray) -> np.ndarray:
    """Writeable view of the main diagonal of a square array or view."""
    return np.einsum("ii->i", matrix)


class JacobianElement:
    """One element of the generalized derivative of a cone projection.

    ``pattern_key`` is a hashable signature of the selection branch that
    produced the element (orthant activity set, second-order cone region,
    eigenvalue sign pattern).  Two elements with equal keys came from the
    same branch.  ``step_key`` is the ``pattern_key`` when the pattern alone
    fixes the element, as it fixes a :class:`Diagonal` element's diagonal,
    and ``None`` otherwise: two elements of one cone with equal non-``None``
    step keys are equal, which is what the repeat-pattern stopping rule
    relies on.

    Each kind holds the structure its cone gives it: :class:`Diagonal`,
    :class:`SocBoundary`, :class:`Spectral`, or :class:`Block` for a
    product with a part that is not diagonal.
    """

    pattern_key: object
    step_key: object = None
    size: int

    def apply(self, vector: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def plus(self, base: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``base + V`` for a size x size ``base``, in a new array or in
        ``out``, which must not overlap ``base``.

        Bit for bit the result is V's entries added into ``base + 0.0``, so
        no zero in it is negative.  Each kind writes its own structure in the
        order that needs no second size x size array.
        """
        raise NotImplementedError

    def materialize(self) -> np.ndarray:
        """Dense size x size matrix of the element."""
        return self.plus(np.zeros((self.size, self.size)))

    def _checked(self, vector: np.ndarray) -> np.ndarray:
        return _vector(vector, self.size, "element")


class Diagonal(JacobianElement):
    """A diagonal element: orthant, free space, second-order cone interior,
    polar and origin, and any product of these."""

    def __init__(self, pattern_key, diagonal: np.ndarray):
        self.pattern_key = self.step_key = pattern_key
        self.diagonal = np.asarray(diagonal, dtype=float)
        self.size = self.diagonal.size

    def apply(self, vector):
        return self.diagonal * self._checked(vector)

    def plus(self, base, out=None):
        out = np.add(base, 0.0, out=out)
        _diagonal(out)[:] += self.diagonal
        return out


class SocBoundary(JacobianElement):
    """``[[1, w^T], [w, a I - c w w^T]] / 2`` at a second-order cone point
    off both the cone and its polar, with ``w`` the unit tail."""

    pattern_key = ("soc", "boundary")

    def __init__(self, w: np.ndarray, a: float, c: float):
        self.w, self.a, self.c = w, a, c
        self.size = w.size + 1

    def apply(self, vector):
        vector = self._checked(vector)
        w, a, c = self.w, self.a, self.c
        wv = w @ vector[1:]
        out = np.empty(self.size)
        out[0] = 0.5 * (vector[0] + wv)
        out[1:] = 0.5 * ((vector[0] - c * wv) * w + a * vector[1:])
        return out

    def plus(self, base, out=None):
        # the rank-1 term, row 0 and column 0 are written into the result
        # and base is added onto them, so no second array is made; -p + t
        # rounds as t - p, and adding 0.0 clears the sign of a zero that
        # base + 0.0 would have cleared
        if out is None:
            out = np.empty_like(base)
        w = self.w
        out[0, 0] = 0.5
        out[0, 1:] = out[1:, 0] = 0.5 * w
        np.multiply.outer(-0.5 * self.c * w, w, out=out[1:, 1:])
        out += base
        out += 0.0
        _diagonal(out)[1:] += 0.5 * self.a
        return out


class Spectral(JacobianElement):
    """``H -> U (omega o U^T H U) U^T`` in svec coordinates, from the
    eigenvectors ``u`` and the scaling matrix ``omega`` of :func:`_psd_omega`."""

    def __init__(self, pattern_key, u: np.ndarray, omega: np.ndarray):
        self.pattern_key, self.u, self.omega = pattern_key, u, omega
        self.size = u.shape[0] * (u.shape[0] + 1) // 2

    def apply(self, vector):
        u = self.u
        out = u @ (self.omega * (u.T @ smat(self._checked(vector)) @ u)) @ u.T
        return svec(0.5 * (out + out.T))

    def materialize(self, out=None):
        """Dense size x size matrix of the element, in a new array or in
        ``out``."""
        return _psd_jacobian_matrix(self.u, self.omega, out)

    def plus(self, base, out=None):
        # base is added onto the product written in place; the product's
        # zeros are +0.0 (its sums start from +0.0), so the sum has no
        # negative zero
        out = self.materialize(out)
        out += base
        return out


class Block(JacobianElement):
    """Block-diagonal element of a product with a part that is not diagonal;
    part i acts on coordinates ``offsets[i]:offsets[i + 1]``."""

    def __init__(self, pattern_key, parts: tuple[JacobianElement, ...], offsets):
        self.pattern_key, self.parts, self.offsets = pattern_key, parts, offsets
        self.size = int(offsets[-1])

    def _slices(self):
        return map(slice, self.offsets[:-1], self.offsets[1:])

    def apply(self, vector):
        vector = self._checked(vector)
        return np.concatenate(
            [part.apply(vector[s]) for part, s in zip(self.parts, self._slices())]
        )

    def plus(self, base, out=None):
        # base + 0.0 everywhere, then each diagonal block from its part
        out = np.add(base, 0.0, out=out)
        for part, s in zip(self.parts, self._slices()):
            part.plus(base[s, s], out=out[s, s])
        return out


class Cone:
    """Base class for closed convex cones over flat coordinates."""

    @property
    def ambient_dim(self) -> int:
        raise NotImplementedError

    def project(self, x: np.ndarray) -> np.ndarray:
        """Nearest point of the cone in the Euclidean coordinate norm."""
        raise NotImplementedError

    def jacobian_element(self, x: np.ndarray) -> JacobianElement:
        """Deterministically selected generalized-derivative element at x."""
        raise NotImplementedError

    def linearize(self, x: np.ndarray) -> tuple[np.ndarray, JacobianElement]:
        """``(project(x), jacobian_element(x))``; a cone whose two share
        work (one eigendecomposition) computes it once."""
        return self.project(x), self.jacobian_element(x)

    def project_dual(self, x: np.ndarray) -> np.ndarray:
        """Projection onto the dual cone.

        Uses the Moreau identity P_dual(x) = x + P(-x), valid for every
        closed convex cone, so no per-cone case analysis is needed.
        """
        x = self._checked(x)
        return x + self.project(-x)

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        """Membership test: distance to the cone within tol*(1 + |x|)."""
        x = self._checked(x)
        return _norm(x - self.project(x)) <= tol * (1.0 + _norm(x))

    def _checked(self, x: np.ndarray) -> np.ndarray:
        return _vector(x, self.ambient_dim, self)


def _cone(value, what="cone") -> Cone:
    """``value``, unless it is not a ``Cone``: then ``ValueError``."""
    if not isinstance(value, Cone):
        raise ValueError(f"{what} must be a Cone, got {value!r}")
    return value


class _Frozen:
    """Base of the package's cones and operators: an immutable value.

    ``__init__`` checks the arguments and stores each field once, through
    ``_init``; assigning or deleting an attribute afterwards raises
    ``FrozenInstanceError``.  The fields, named in ``__match_args__``, give
    the repr, ``Name(field=value, ...)``, and equality and hashing: two
    objects of one class are equal when their fields are.  A class whose
    fields hold arrays compares by identity instead.  Copies and pickles
    restore ``__dict__`` directly, so they need nothing more.
    """

    __match_args__: tuple[str, ...] = ()

    def _init(self, **fields):
        self.__dict__.update(fields)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__match_args__, self._fields())
        )
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())


class _SizedCone(_Frozen, Cone):
    """A cone of order ``n``, an integer of at least 1; its ambient
    dimension is ``n`` unless the subclass says otherwise."""

    __match_args__ = ("n",)

    def __init__(self, n: int):
        self._init(n=_size(n, "cone dimension"))

    @property
    def ambient_dim(self) -> int:
        return self.n


class Orthant(_SizedCone):
    """Nonnegative orthant in R^n."""

    def project(self, x):
        x = self._checked(x)
        return np.maximum(x, 0.0)

    def jacobian_element(self, x):
        x = self._checked(x)
        active = x > 0.0
        return Diagonal(("orthant", active.tobytes()), active.astype(float))


class SecondOrder(_SizedCone):
    """Second-order (Lorentz) cone {(t, u) in R^n : |u| <= t}."""

    def project(self, x):
        x = self._checked(x)
        head, tail = x[0], x[1:]
        tail_norm = _norm(tail)
        if tail_norm <= head:
            return x.copy()
        if tail_norm <= -head:
            return np.zeros_like(x)
        scale = (head + tail_norm) / 2.0
        out = np.empty_like(x)
        out[0] = scale
        out[1:] = (scale / tail_norm) * tail
        return out

    def jacobian_element(self, x):
        x = self._checked(x)
        head, tail = x[0], x[1:]
        tail_norm = _norm(tail)
        if tail_norm < head:
            return Diagonal(("soc", "interior"), np.ones(self.n))
        if tail_norm < -head:
            return Diagonal(("soc", "polar"), np.zeros(self.n))
        if tail_norm == 0.0:
            # origin: identity is a valid limit element from the interior
            return Diagonal(("soc", "interior"), np.ones(self.n))
        return SocBoundary(
            tail / tail_norm, (head + tail_norm) / tail_norm, head / tail_norm
        )


class PsdCone(_SizedCone):
    """Positive semidefinite n x n matrices in scaled-vectorized coordinates."""

    @property
    def ambient_dim(self) -> int:
        return self.n * (self.n + 1) // 2

    def project(self, x):
        return svec(_psd_part(*self._decompose(x)))

    def jacobian_element(self, x):
        return self._element(*self._decompose(x))

    def linearize(self, x):
        lam, u = self._decompose(x)
        return svec(_psd_part(lam, u)), self._element(lam, u)

    def _decompose(self, x):
        """``np.linalg.eigh`` of the matrix: eigenvalues ascending."""
        return np.linalg.eigh(smat(self._checked(x)))

    def _element(self, lam, u):
        signs = tuple(1 if v > 0.0 else -1 for v in lam)
        return Spectral(("psd", signs), u, _psd_omega(lam))


def _positive_count(vals: np.ndarray) -> int:
    """Number of positive eigenvalues; ``eigh`` sorts them last."""
    return int(np.count_nonzero(vals > 0.0))


def _psd_part(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """P_psd(U Diag(vals) U^T) from ``eigh`` output: only the columns of
    the positive eigenvalues are multiplied."""
    first = vals.shape[0] - _positive_count(vals)
    upos = vecs[:, first:]
    out = (upos * vals[first:]) @ upos.T
    return 0.5 * (out + out.T)


def _psd_jacobian_matrix(
    u: np.ndarray, omega: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Dense derivative element H -> U (omega o U^T H U) U^T in svec coordinates.

    The svec images of u_i u_i^T and (u_i u_j^T + u_j u_i^T)/sqrt(2), i < j,
    are the orthonormal columns of a d x d matrix Q, and each is an
    eigenvector of the map with eigenvalue omega_ij in [0, 1].  So the
    element is B B^T with B = Q diag(sqrt(omega[triu])), and only the
    columns with omega_ij > 0 (a pair with a positive eigenvalue) are
    formed: none at a point with no positive eigenvalue.  Entry
    ((p, q), (i, j)) of Q is s_pq s_ij (u_pi u_qj + u_pj u_qi) / 2, with
    s = sqrt(2) off the diagonal and 1 on it.

    ``B B^T`` is written into ``out`` when given (zeros when no column is
    kept); the product is the same bytes, and bitwise symmetric, either way.
    """
    rows, cols, scale = _svec_table(u.shape[0])
    weights = omega[rows, cols]
    keep = weights > 0.0
    i, j = rows[keep], cols[keep]
    left = scale[:, None] * u[rows]  # left[(p, q), i] = s_pq u_pi
    right = u[cols]  # right[(p, q), j] = u_qj
    basis = left[:, i]
    basis *= right[:, j]
    cross = left[:, j]
    cross *= right[:, i]
    basis += cross
    basis *= 0.5 * scale[keep] * np.sqrt(weights[keep])
    return np.matmul(basis, basis.T, out=out)


def _psd_omega(lam: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Scaling matrix for the semidefinite projection derivative.

    Entries: 1 where both eigenvalues are positive, 0 where both are
    nonpositive, lam_p / (lam_p - lam_q) across the sign split, with lam_p
    the positive one.  Only the rows ``rows`` (a slice or mask into
    ``lam``) are formed.
    """
    pos = lam > 0.0
    pos_rows = pos[rows, None]
    lam_rows = lam[rows, None]
    omega = (pos_rows & pos).astype(float)
    # across the split lam_p is the larger eigenvalue, and lam_p - lam_q is
    # |lam_row - lam_col| bit for bit, since fl(b - a) = -fl(a - b)
    gap = lam_rows - lam
    np.abs(gap, out=gap)
    np.divide(np.maximum(lam_rows, lam), gap, out=omega, where=pos_rows != pos)
    return omega


class FreeSpace(_SizedCone):
    """Whole space R^n; projects as the identity, dual cone is {0}."""

    def project(self, x):
        return self._checked(x).copy()

    def jacobian_element(self, x):
        self._checked(x)
        return Diagonal(("free",), np.ones(self.n))


class Product(_Frozen, Cone):
    """Cartesian product of cones over concatenated coordinates."""

    __match_args__ = ("parts",)

    def __init__(self, parts: tuple[Cone, ...]):
        parts = tuple(parts)
        if not parts:
            raise ValueError("product cone needs at least one factor")
        sizes = (_cone(p, "product part").ambient_dim for p in parts)
        # part i owns coordinates _offsets[i]:_offsets[i + 1]
        self._init(parts=parts, _offsets=tuple(itertools.accumulate(sizes, initial=0)))

    @property
    def ambient_dim(self) -> int:
        return self._offsets[-1]

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        x = self._checked(x)
        return [x[a:b] for a, b in zip(self._offsets, self._offsets[1:])]

    def project(self, x):
        return np.concatenate(
            [p.project(piece) for p, piece in zip(self.parts, self.split(x))]
        )

    def jacobian_element(self, x):
        return self._element(
            [p.jacobian_element(piece) for p, piece in zip(self.parts, self.split(x))]
        )

    def linearize(self, x):
        pairs = [p.linearize(piece) for p, piece in zip(self.parts, self.split(x))]
        return (
            np.concatenate([projected for projected, _ in pairs]),
            self._element([element for _, element in pairs]),
        )

    def _element(self, elements):
        key = ("product", tuple(el.pattern_key for el in elements))
        if all(isinstance(el, Diagonal) for el in elements):
            return Diagonal(key, np.concatenate([el.diagonal for el in elements]))
        return Block(key, tuple(elements), self._offsets)

