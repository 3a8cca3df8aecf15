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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import DimensionMismatchError

_SQRT2 = float(np.sqrt(2.0))


def svec(matrix: np.ndarray) -> np.ndarray:
    """Scaled upper-triangular vectorization of a symmetric matrix.

    Off-diagonal entries are multiplied by sqrt(2) so that
    ``svec(A) @ svec(B) == trace(A @ B)`` for symmetric A, B.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise DimensionMismatchError(f"expected a square matrix, got {matrix.shape}")
    rows, cols = np.triu_indices(n)
    out = matrix[rows, cols].copy()
    out[rows != cols] *= _SQRT2
    return out


def smat(vector: np.ndarray) -> np.ndarray:
    """Inverse of :func:`svec`."""
    vector = np.asarray(vector, dtype=float)
    m = vector.shape[0]
    n = int(round((np.sqrt(8.0 * m + 1.0) - 1.0) / 2.0))
    if n * (n + 1) // 2 != m:
        raise DimensionMismatchError(f"length {m} is not a triangular number")
    rows, cols = np.triu_indices(n)
    vals = vector.copy()
    vals[rows != cols] /= _SQRT2
    out = np.zeros((n, n))
    out[rows, cols] = vals
    out[cols, rows] = vals
    return out


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues sorted descending."""

    eigvals: np.ndarray
    eigvecs: np.ndarray  # columns aligned with eigvals

    def reconstruct(self) -> np.ndarray:
        return (self.eigvecs * self.eigvals) @ self.eigvecs.T


def spectral_decomposition(matrix: np.ndarray) -> SpectralDecomposition:
    vals, vecs = np.linalg.eigh(matrix)
    return SpectralDecomposition(vals[::-1].copy(), vecs[:, ::-1].copy())


class JacobianElement:
    """One element of the generalized derivative of a cone projection.

    ``pattern_key`` is a hashable signature of the selection branch that
    produced the element (orthant activity set, second-order cone region,
    eigenvalue sign pattern).  Two elements with equal keys came from the
    same branch, which is what the repeat-pattern stopping rule compares;
    for a diagonal element the key also fixes the diagonal.

    The element holds its ``diagonal`` when it is diagonal, or else an apply
    function together with ``add_fn``, which adds the dense matrix into a
    given square array in place, or ``build_fn``, which forms the dense
    matrix in closed form on the first :meth:`materialize` call.
    ``diagonal`` is None for an element that is not diagonal.
    """

    def __init__(
        self,
        cone: "Cone",
        pattern_key,
        apply_fn: Callable[[np.ndarray], np.ndarray] | None = None,
        build_fn: Callable[[], np.ndarray] | None = None,
        add_fn: Callable[[np.ndarray], np.ndarray] | None = None,
        diagonal: np.ndarray | None = None,
    ):
        if diagonal is None and (apply_fn is None or (build_fn is None and add_fn is None)):
            raise ValueError(
                "need a diagonal, or an apply function and a builder or an adder"
            )
        self.cone = cone
        self.pattern_key = pattern_key
        self._matrix = None
        self._apply_fn = apply_fn
        self._build_fn = build_fn
        self._add_fn = add_fn
        self.diagonal = None if diagonal is None else np.asarray(diagonal, dtype=float)

    def apply(self, vector: np.ndarray) -> np.ndarray:
        vector = self.cone._checked(vector)
        if self.diagonal is not None:
            return self.diagonal * vector
        return self._apply_fn(vector)

    def materialize(self) -> np.ndarray:
        """Dense ambient_dim x ambient_dim matrix of the element (cached)."""
        if self._matrix is None:
            if self.diagonal is not None:
                self._matrix = np.diag(self.diagonal)
            elif self._build_fn is not None:
                self._matrix = self._build_fn()
            else:
                d = self.cone.ambient_dim
                self._matrix = self._add_fn(np.zeros((d, d)))
        return self._matrix

    def add_to(self, out: np.ndarray) -> np.ndarray:
        """Add the element into the square array ``out`` in place; return it."""
        if self.diagonal is not None:
            idx = np.arange(self.diagonal.size)
            out[idx, idx] += self.diagonal
        elif self._add_fn is not None:
            self._add_fn(out)
        else:
            out += self.materialize()
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
        gap = np.linalg.norm(x - self.project(x))
        return bool(gap <= tol * (1.0 + np.linalg.norm(x)))

    def _checked(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.ambient_dim,):
            raise DimensionMismatchError(
                f"{self!r} expects vectors of length {self.ambient_dim}, "
                f"got shape {x.shape}"
            )
        return x


@dataclass(frozen=True)
class Orthant(Cone):
    """Nonnegative orthant in R^n."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("orthant needs dimension >= 1")

    @property
    def ambient_dim(self) -> int:
        return self.n

    def project(self, x):
        x = self._checked(x)
        return np.maximum(x, 0.0)

    def jacobian_element(self, x):
        x = self._checked(x)
        active = x > 0.0
        return JacobianElement(
            self, pattern_key=("orthant", active.tobytes()),
            diagonal=active.astype(float),
        )


@dataclass(frozen=True)
class SecondOrder(Cone):
    """Second-order (Lorentz) cone {(t, u) in R^n : |u| <= t}."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("second-order cone needs dimension >= 1")

    @property
    def ambient_dim(self) -> int:
        return self.n

    def project(self, x):
        x = self._checked(x)
        head, tail = x[0], x[1:]
        tail_norm = np.linalg.norm(tail)
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
        tail_norm = np.linalg.norm(tail)
        if tail_norm < head:
            return JacobianElement(self, ("soc", "interior"), diagonal=np.ones(self.n))
        if tail_norm < -head:
            return JacobianElement(self, ("soc", "polar"), diagonal=np.zeros(self.n))
        if tail_norm == 0.0:
            # origin: identity is a valid limit element from the interior
            return JacobianElement(self, ("soc", "interior"), diagonal=np.ones(self.n))
        # V = [[1, w^T], [w, a I - c w w^T]] / 2 with w the unit tail
        w = tail / tail_norm
        a = (head + tail_norm) / tail_norm
        c = head / tail_norm

        def apply_fn(vector):
            wv = w @ vector[1:]
            out = np.empty(self.n)
            out[0] = 0.5 * (vector[0] + wv)
            out[1:] = 0.5 * ((vector[0] - c * wv) * w + a * vector[1:])
            return out

        def add_fn(out):
            half_w = 0.5 * w
            out[0, 0] += 0.5
            out[0, 1:] += half_w
            out[1:, 0] += half_w
            out[1:, 1:] -= (0.5 * c * w)[:, None] * w
            idx = np.arange(1, self.n)
            out[idx, idx] += 0.5 * a
            return out

        return JacobianElement(
            self, ("soc", "boundary"), apply_fn=apply_fn, add_fn=add_fn
        )


@dataclass(frozen=True)
class PsdCone(Cone):
    """Positive semidefinite n x n matrices in scaled-vectorized coordinates."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("semidefinite cone needs matrix order >= 1")

    @property
    def ambient_dim(self) -> int:
        return self.n * (self.n + 1) // 2

    def project(self, x):
        return _psd_projection(self._decompose(x))

    def jacobian_element(self, x):
        return self._element(self._decompose(x))

    def linearize(self, x):
        dec = self._decompose(x)
        return _psd_projection(dec), self._element(dec)

    def _decompose(self, x):
        return spectral_decomposition(smat(self._checked(x)))

    def _element(self, dec):
        lam = dec.eigvals
        u = dec.eigvecs
        omega = _psd_omega(lam)
        signs = tuple(1 if v > 0.0 else -1 for v in lam)

        def apply_fn(vector):
            h = smat(vector)
            inner = u.T @ h @ u
            out = u @ (omega * inner) @ u.T
            return svec(0.5 * (out + out.T))

        return JacobianElement(
            self, ("psd", signs), apply_fn=apply_fn,
            build_fn=lambda: _psd_jacobian_matrix(u, omega),
        )


def _psd_projection(dec: SpectralDecomposition) -> np.ndarray:
    clipped = np.maximum(dec.eigvals, 0.0)
    mat = (dec.eigvecs * clipped) @ dec.eigvecs.T
    return svec(0.5 * (mat + mat.T))


def _psd_jacobian_matrix(u: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Dense derivative element H -> U (omega o U^T H U) U^T in svec coordinates.

    The svec images of u_i u_i^T and (u_i u_j^T + u_j u_i^T)/sqrt(2), i < j,
    are the orthonormal columns of a d x d matrix Q, and each is an
    eigenvector of the map with eigenvalue omega_ij in [0, 1].  So the
    element is B B^T with B = Q diag(sqrt(omega[triu])), and only the
    columns with omega_ij > 0 (a pair with a positive eigenvalue) are
    formed: none at a point with no positive eigenvalue.  Entry
    ((p, q), (i, j)) of Q is s_pq s_ij (u_pi u_qj + u_pj u_qi) / 2, with
    s = sqrt(2) off the diagonal and 1 on it.
    """
    n = u.shape[0]
    rows, cols = np.triu_indices(n)
    weights = omega[rows, cols]
    keep = weights > 0.0
    i, j = rows[keep], cols[keep]
    scale = np.where(rows == cols, 1.0, _SQRT2)
    left = scale[:, None] * u[rows]  # left[(p, q), i] = s_pq u_pi
    right = u[cols]  # right[(p, q), j] = u_qj
    basis = left[:, i] * right[:, j] + left[:, j] * right[:, i]
    basis *= 0.5 * scale[keep] * np.sqrt(weights[keep])
    return basis @ basis.T


def _psd_omega(lam: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Scaling matrix for the semidefinite projection derivative.

    Entries: 1 where both eigenvalues are positive, 0 where both are
    nonpositive, lam_p / (lam_p - lam_q) across the sign split, with lam_p
    the positive one.  Only the rows ``rows`` (a slice or mask into
    ``lam``) are formed.
    """
    pos = lam > 0.0
    pos_rows = pos[rows]
    lam_rows = lam[rows]
    omega = np.zeros((lam_rows.shape[0], lam.shape[0]))
    omega[np.ix_(pos_rows, pos)] = 1.0
    if pos_rows.any() and not pos.all():
        lp = lam_rows[pos_rows]
        ln = lam[~pos]
        omega[np.ix_(pos_rows, ~pos)] = lp[:, None] / (lp[:, None] - ln[None, :])
    if pos.any() and not pos_rows.all():
        lp = lam[pos]
        ln = lam_rows[~pos_rows]
        omega[np.ix_(~pos_rows, pos)] = (lp[:, None] / (lp[:, None] - ln[None, :])).T
    return omega


@dataclass(frozen=True)
class FreeSpace(Cone):
    """Whole space R^n; projects as the identity, dual cone is {0}."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("free block needs dimension >= 1")

    @property
    def ambient_dim(self) -> int:
        return self.n

    def project(self, x):
        return self._checked(x).copy()

    def jacobian_element(self, x):
        self._checked(x)
        return JacobianElement(self, ("free",), diagonal=np.ones(self.n))


@dataclass(frozen=True)
class Product(Cone):
    """Cartesian product of cones over concatenated coordinates."""

    parts: tuple[Cone, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("product cone needs at least one factor")

    @property
    def ambient_dim(self) -> int:
        return sum(p.ambient_dim for p in self.parts)

    def _offsets(self):
        sizes = [p.ambient_dim for p in self.parts]
        return np.concatenate([[0], np.cumsum(sizes)])

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        x = self._checked(x)
        off = self._offsets()
        return [x[off[i]:off[i + 1]] for i in range(len(self.parts))]

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
        if all(el.diagonal is not None for el in elements):
            return JacobianElement(
                self, key, diagonal=np.concatenate([el.diagonal for el in elements])
            )
        off = self._offsets()

        def apply_fn(vector):
            return np.concatenate(
                [
                    el.apply(vector[off[i]:off[i + 1]])
                    for i, el in enumerate(elements)
                ]
            )

        def add_fn(out):
            for i, el in enumerate(elements):
                el.add_to(out[off[i]:off[i + 1], off[i]:off[i + 1]])
            return out

        return JacobianElement(self, key, apply_fn=apply_fn, add_fn=add_fn)


def project(cone: Cone, x: np.ndarray) -> np.ndarray:
    return cone.project(x)


def project_dual(cone: Cone, x: np.ndarray) -> np.ndarray:
    return cone.project_dual(x)


def jacobian_element(cone: Cone, x: np.ndarray) -> JacobianElement:
    return cone.jacobian_element(x)


def membership(cone: Cone, x: np.ndarray, tol: float = 1e-9) -> bool:
    return cone.contains(x, tol)
