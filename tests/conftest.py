"""Shared generators for randomized tests."""

import numpy as np
import pytest
from hypothesis import settings

from conic_newton import Orthant, Product, PsdCone, SecondOrder, smat, svec

# One profile for every property test: no per-example deadline (first calls
# pay numpy's warm-up), and the same examples on every run.
settings.register_profile("conic-newton", deadline=None, derandomize=True)
settings.load_profile("conic-newton")

CONE_CASES = [
    pytest.param(Orthant(6), id="orthant"),
    pytest.param(SecondOrder(5), id="soc"),
    pytest.param(PsdCone(4), id="psd"),
    pytest.param(Product((Orthant(2), SecondOrder(3), PsdCone(2))), id="product"),
]

# NCM inputs on which the plain diagonal recursion reaches a step that
# changes nothing before it converges.
STALLING_NCM_INPUTS = [
    pytest.param(np.zeros((3, 3)), id="zero"),
    pytest.param(-np.eye(3), id="minus-identity"),
    pytest.param(np.array([[-5.0]]), id="negative-scalar"),
    pytest.param(np.diag([2.0, -1.0]), id="mixed-diagonal"),
]

# An input whose nearest correlation matrix has rank 1: the diagonal
# recursion shrinks its residual only about 2% per step near the solution.
RANK_DEFICIENT_NCM_INPUT = np.array(
    [[1.0, 1.987, -0.536], [1.987, 1.0, -1.939], [-0.536, -1.939, 1.0]]
)


def random_point(cone, rng, scale=2.0):
    return scale * rng.standard_normal(cone.ambient_dim)


def random_symmetric(rng, n, scale=1.0):
    w = rng.standard_normal((n, n))
    return scale * 0.5 * (w + w.T)


def interior_point(cone, rng):
    """A point strictly inside the cone."""
    if isinstance(cone, Orthant):
        return rng.uniform(0.5, 2.0, cone.ambient_dim)
    if isinstance(cone, SecondOrder):
        x = rng.standard_normal(cone.ambient_dim)
        x[0] = np.linalg.norm(x[1:]) + 1.0
        return x
    if isinstance(cone, PsdCone):
        b = rng.standard_normal((cone.n, cone.n))
        return svec(b @ b.T + 0.5 * np.eye(cone.n))
    return np.concatenate([interior_point(part, rng) for part in cone.parts])


def is_well_separated(cone, x, margin=0.1):
    """Whether x sits away from the projection's nondifferentiability set."""
    if isinstance(cone, Orthant):
        return bool(np.all(np.abs(x) > margin))
    if isinstance(cone, SecondOrder):
        return abs(np.linalg.norm(x[1:]) - abs(x[0])) > margin
    if isinstance(cone, PsdCone):
        return bool(np.all(np.abs(np.linalg.eigvalsh(smat(x))) > margin))
    return all(
        is_well_separated(part, piece, margin)
        for part, piece in zip(cone.parts, cone.split(x))
    )


def well_separated_point(cone, rng, margin=0.1):
    while True:
        x = random_point(cone, rng)
        if is_well_separated(cone, x, margin):
            return x
