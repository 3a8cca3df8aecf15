"""Projections, dual projections, derivative elements, and their invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conic_newton import (
    DimensionMismatchError,
    FreeSpace,
    Orthant,
    Product,
    PsdCone,
    SecondOrder,
    smat,
    svec,
)
from conic_newton.cones import (
    Block,
    Diagonal,
    SocBoundary,
    Spectral,
    _psd_jacobian_matrix,
    _psd_omega,
    _psd_part,
    _svec_table,
)
from conftest import CONE_CASES, random_point, random_symmetric


def column_reference(element):
    """Dense matrix of an element built one basis vector at a time by apply."""
    return np.column_stack([element.apply(e) for e in np.eye(element.size)])


def assert_kind(cone, x, element):
    """The element has the kind its cone's region gives: Spectral on the
    semidefinite cone, SocBoundary off the second-order cone's interior,
    polar and origin, Block for a product with such a part, and Diagonal
    everywhere else."""
    if isinstance(cone, Product):
        pieces = cone.split(x)
        parts = [p.jacobian_element(piece) for p, piece in zip(cone.parts, pieces)]
        for part, piece, el in zip(cone.parts, pieces, parts):
            assert_kind(part, piece, el)
        if all(isinstance(el, Diagonal) for el in parts):
            assert isinstance(element, Diagonal)
        else:
            assert isinstance(element, Block)
            assert [type(el) for el in element.parts] == [type(el) for el in parts]
    elif isinstance(cone, PsdCone):
        assert isinstance(element, Spectral)
    elif isinstance(cone, SecondOrder):
        tail_norm = np.linalg.norm(x[1:])
        on_boundary = tail_norm > 0.0 and -tail_norm <= x[0] <= tail_norm
        assert isinstance(element, SocBoundary if on_boundary else Diagonal)
    else:
        assert isinstance(element, Diagonal)
    assert element.size == cone.ambient_dim


def psd_kink_points(n, rng):
    """Points of PsdCone(n) with zero and repeated eigenvalues, and the origin."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.choice([-1.5, 0.0, 2.0], size=n)
    return [svec((q * lam) @ q.T), np.zeros(n * (n + 1) // 2)]


def mixed_product_kink_points(rng):
    """Kinks of every factor of MIXED_PRODUCT: zero orthant coordinates,
    repeated and zero eigenvalues, the second-order cone boundary and origin."""
    psd = psd_kink_points(3, rng)
    return [
        np.concatenate([[0.0, 1.0, -1.0], psd[0], [5.0, 3.0, 4.0, 0.0], [1.0, -2.0]]),
        np.concatenate([[0.0, 0.0, 0.0], psd[1], np.zeros(4), [0.0, 3.0]]),
    ]


MIXED_PRODUCT = Product((Orthant(3), PsdCone(3), SecondOrder(4), FreeSpace(2)))


# Coordinates with the orthant kinks 0.0 and -0.0 drawn often.
KINKED_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-3.0, 3.0)
)


@st.composite
def coordinate_points(draw, cone_type, max_n):
    """An Orthant or FreeSpace of order up to max_n with a point."""
    n = draw(st.integers(1, max_n))
    x = np.array(draw(st.lists(KINKED_FLOATS, min_size=n, max_size=n)))
    return cone_type(n), x


@st.composite
def soc_points(draw):
    """Random points, and points on the boundary |u| = +-t and at the origin."""
    n = draw(st.integers(1, 5))
    x = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    where = draw(st.sampled_from(["random", "boundary", "polar-boundary", "origin"]))
    if where == "origin":
        x[:] = 0.0
    elif where != "random":
        x[0] = np.linalg.norm(x[1:]) * (1.0 if where == "boundary" else -1.0)
    return SecondOrder(n), x


@st.composite
def psd_points(draw):
    """svec of Q diag(lam) Q^T with eigenvalues that repeat and hit zero."""
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.array(draw(st.lists(
        st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-3.0, 3.0)),
        min_size=n, max_size=n,
    )))
    return PsdCone(n), svec((q * lam) @ q.T)


BLOCK_POINTS = st.one_of(
    coordinate_points(Orthant, 5), coordinate_points(FreeSpace, 3),
    soc_points(), psd_points(),
)


@st.composite
def cone_points(draw):
    """A cone of any type, or a product of up to three, with a point."""
    blocks = draw(st.lists(BLOCK_POINTS, min_size=1, max_size=3))
    if len(blocks) == 1 and draw(st.booleans()):
        return blocks[0]
    return (Product(tuple(c for c, _ in blocks)),
            np.concatenate([x for _, x in blocks]))


class TestInvariantProperties:
    """The invariants every cone's projection and derivative element keep."""

    @settings(max_examples=200)
    @given(cone_points())
    def test_element_reproduces_projection(self, case):
        cone, x = case
        el = cone.jacobian_element(x)
        scale = 1e-12 * (1.0 + np.linalg.norm(x))
        np.testing.assert_allclose(el.apply(x), cone.project(x), rtol=0, atol=scale)
        np.testing.assert_allclose(
            el.materialize() @ x, cone.project(x), rtol=0, atol=scale
        )

    @settings(max_examples=200)
    @given(cone_points())
    def test_element_norm_at_most_one(self, case):
        cone, x = case
        mat = cone.jacobian_element(x).materialize()
        assert np.linalg.norm(mat, 2) <= 1.0 + 1e-12

    @settings(max_examples=200)
    @given(cone_points())
    def test_moreau_decomposition(self, case):
        cone, x = case
        p = cone.project(x)
        pd = cone.project_dual(-x)
        np.testing.assert_allclose(
            x, p - pd, rtol=0, atol=1e-12 * (1.0 + np.linalg.norm(x))
        )
        assert abs(np.dot(p, pd)) <= 1e-12 * (1.0 + np.dot(x, x))


class TestVectorization:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5, 9):
            a = random_symmetric(rng, n)
            back = smat(svec(a))
            np.testing.assert_allclose(back, a, rtol=0, atol=1e-15 * (1 + np.abs(a).max()))

    def test_inner_product_matches_trace(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = random_symmetric(rng, 6)
            b = random_symmetric(rng, 6)
            np.testing.assert_allclose(svec(a) @ svec(b), np.trace(a @ b), rtol=1e-12)

    def test_rejects_bad_lengths(self):
        with pytest.raises(DimensionMismatchError):
            smat(np.zeros(4))  # not a triangular number

    @pytest.mark.parametrize("n", [1, 4])
    def test_index_table_is_shared_and_read_only(self, n):
        table = _svec_table(n)
        assert _svec_table(n) is table
        for array in table:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        # the results are fresh arrays, not views of the table
        a = random_symmetric(np.random.default_rng(2), n)
        v = svec(a)
        v[:] = np.nan
        m = smat(svec(a))
        m[:] = np.nan
        assert not np.isnan(svec(a)).any() and not np.isnan(smat(svec(a))).any()

    def test_matches_masked_scaling_bit_for_bit(self):
        # off-diagonal entries times sqrt(2), the diagonal untouched: -0.0,
        # inf and nan included
        a = random_symmetric(np.random.default_rng(3), 5)
        a[0, 0] = a[1, 2] = a[2, 1] = -0.0
        a[3, 3] = np.inf
        a[0, 4] = a[4, 0] = np.nan
        rows, cols = np.triu_indices(5)
        off = rows != cols
        expected = a[rows, cols].copy()
        expected[off] *= np.sqrt(2.0)
        assert svec(a).tobytes() == expected.tobytes()
        back = expected.copy()
        back[off] /= np.sqrt(2.0)
        m = np.zeros((5, 5))
        m[rows, cols] = back
        m[cols, rows] = back
        assert smat(expected).tobytes() == m.tobytes()


class TestPsdPart:
    def test_matches_clipped_reconstruction(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = random_symmetric(rng, 7, scale=3.0)
            vals, vecs = np.linalg.eigh(a)
            np.testing.assert_allclose(vecs.T @ vecs, np.eye(7), atol=1e-10)
            part = _psd_part(vals, vecs)
            clipped = (vecs * np.maximum(vals, 0.0)) @ vecs.T
            err = np.linalg.norm(part - clipped)
            assert err <= 1e-12 * (1 + np.linalg.norm(a))
            np.testing.assert_array_equal(part, part.T)
            assert np.linalg.eigvalsh(part)[0] >= -1e-12 * (1 + np.linalg.norm(a))


class TestProjection:
    def test_orthant_clamps(self):
        np.testing.assert_array_equal(
            Orthant(3).project([1.0, -2.0, 0.0]), [1.0, 0.0, 0.0]
        )

    def test_soc_closed_form(self):
        np.testing.assert_allclose(
            SecondOrder(3).project([0.0, 3.0, 4.0]), [2.5, 1.5, 2.0]
        )

    def test_soc_against_sampled_minimization(self):
        # crude independent oracle: the projection must beat a dense sample
        # of cone points at minimizing the distance to x
        cone = SecondOrder(3)
        x = np.array([0.0, 3.0, 4.0])
        p = cone.project(x)
        best = np.inf
        for t in np.linspace(0.0, 10.0, 101):
            for phi in np.linspace(0.0, 2 * np.pi, 181):
                y = np.array([t, t * np.cos(phi), t * np.sin(phi)])
                best = min(best, np.linalg.norm(y - x))
        assert np.linalg.norm(p - x) <= best + 1e-6
        assert cone.contains(p, tol=1e-9)

    def test_soc_polar_and_interior(self):
        cone = SecondOrder(3)
        np.testing.assert_array_equal(cone.project([5.0, 1.0, 1.0]), [5.0, 1.0, 1.0])
        np.testing.assert_array_equal(cone.project([-5.0, 1.0, 1.0]), [0.0, 0.0, 0.0])

    def test_psd_eigenvalue_clamp(self):
        out = smat(PsdCone(2).project(svec(np.diag([1.0, -1.0]))))
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_free_space_is_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(FreeSpace(3).project(x), x)

    def test_product_is_componentwise(self):
        cone = Product((Orthant(2), FreeSpace(1)))
        np.testing.assert_array_equal(
            cone.project([-1.0, 2.0, -3.0]), [0.0, 2.0, -3.0]
        )

    @pytest.mark.parametrize("cone", CONE_CASES)
    def test_idempotent_and_member(self, cone):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = random_point(cone, rng)
            p = cone.project(x)
            assert cone.contains(p, tol=1e-9)
            np.testing.assert_allclose(cone.project(p), p, atol=1e-12 * (1 + np.abs(p).max()))

    @pytest.mark.parametrize("cone", CONE_CASES)
    def test_nonexpansive(self, cone):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = random_point(cone, rng)
            y = random_point(cone, rng)
            lhs = np.linalg.norm(cone.project(x) - cone.project(y))
            assert lhs <= np.linalg.norm(x - y) * (1 + 1e-12) + 1e-14

    @pytest.mark.parametrize("cone", CONE_CASES)
    def test_positively_homogeneous(self, cone):
        rng = np.random.default_rng(5)
        for t in (0.0, 0.5, 1.0, 3.7):
            x = random_point(cone, rng)
            np.testing.assert_allclose(
                cone.project(t * x), t * cone.project(x), atol=1e-10
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Orthant(3).project([1.0, 2.0])
        with pytest.raises(DimensionMismatchError):
            PsdCone(2).jacobian_element(np.zeros(4))


class TestDualProjection:
    def test_orthant_self_dual(self):
        np.testing.assert_array_equal(Orthant(2).project_dual([-1.0, 2.0]), [0.0, 2.0])

    def test_psd_self_dual(self):
        out = smat(PsdCone(2).project_dual(svec(np.diag([-3.0, 1.0]))))
        np.testing.assert_allclose(out, np.diag([0.0, 1.0]), atol=1e-12)

    def test_soc_moreau_arithmetic(self):
        cone = SecondOrder(3)
        x = np.array([0.0, 3.0, 4.0])
        np.testing.assert_allclose(cone.project_dual(-x), [2.5, -1.5, -2.0])

    def test_free_space_dual_is_origin(self):
        np.testing.assert_array_equal(
            FreeSpace(3).project_dual([1.0, -2.0, 3.0]), np.zeros(3)
        )

    @pytest.mark.parametrize("cone", CONE_CASES)
    def test_moreau_identities(self, cone):
        rng = np.random.default_rng(6)
        for _ in range(30):
            x = random_point(cone, rng)
            p = cone.project(x)
            pd = cone.project_dual(-x)
            np.testing.assert_allclose(x, p - pd, atol=1e-9 * (1 + np.abs(x).max()))
            assert abs(np.dot(p, pd)) <= 1e-9 * (1 + np.linalg.norm(p) * np.linalg.norm(pd))


class TestMembership:
    def test_origin(self):
        assert Orthant(2).contains([0.0, 0.0], tol=0.0)

    def test_slightly_indefinite_matrix(self):
        assert not PsdCone(2).contains(svec(np.diag([1.0, -1e-3])), tol=1e-9)

    def test_soc_boundary(self):
        assert SecondOrder(3).contains([5.0, 3.0, 4.0], tol=1e-9)


class TestJacobianElement:
    def test_orthant_activity(self):
        el = Orthant(2).jacobian_element([1.0, -2.0])
        np.testing.assert_array_equal(el.materialize(), np.diag([1.0, 0.0]))
        np.testing.assert_array_equal(el.apply([1.0, -2.0]), [1.0, 0.0])

    def test_soc_boundary_block(self):
        el = SecondOrder(3).jacobian_element([0.0, 3.0, 4.0])
        expected = np.array([[0.5, 0.3, 0.4], [0.3, 0.5, 0.0], [0.4, 0.0, 0.5]])
        np.testing.assert_allclose(el.materialize(), expected, atol=1e-15)
        np.testing.assert_allclose(el.apply([0.0, 3.0, 4.0]), [2.5, 1.5, 2.0])

    def test_soc_origin_uses_identity(self):
        el = SecondOrder(3).jacobian_element(np.zeros(3))
        np.testing.assert_array_equal(el.materialize(), np.eye(3))

    def test_psd_scaling_matrix(self):
        x = svec(np.diag([3.0, -1.0]))
        el = PsdCone(2).jacobian_element(x)
        np.testing.assert_allclose(smat(el.apply(x)), np.diag([3.0, 0.0]), atol=1e-12)
        # scaling entries: positive pair -> 1, cross pair -> 3/4, negative -> 0
        mat = el.materialize()
        applied = smat(mat @ svec(np.array([[0.0, 1.0], [1.0, 0.0]])))
        np.testing.assert_allclose(applied, 0.75 * np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-12)

    def test_pattern_keys_discriminate_regions(self):
        cone = SecondOrder(3)
        assert cone.jacobian_element([5.0, 1.0, 0.0]).pattern_key == ("soc", "interior")
        assert cone.jacobian_element([-5.0, 1.0, 0.0]).pattern_key == ("soc", "polar")
        assert cone.jacobian_element([0.0, 3.0, 4.0]).pattern_key == ("soc", "boundary")
        o = Orthant(2)
        assert o.jacobian_element([1.0, -1.0]).pattern_key == o.jacobian_element([2.0, -9.0]).pattern_key
        assert o.jacobian_element([1.0, 1.0]).pattern_key != o.jacobian_element([1.0, -1.0]).pattern_key

    def test_zero_coordinate_counts_inactive(self):
        el = Orthant(3).jacobian_element([0.0, 1.0, -1.0])
        np.testing.assert_array_equal(np.diag(el.materialize()), [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("cone", CONE_CASES)
    def test_reproduces_projection_at_base_point(self, cone):
        rng = np.random.default_rng(7)
        for _ in range(40):
            x = random_point(cone, rng)
            el = cone.jacobian_element(x)
            np.testing.assert_allclose(
                el.apply(x), cone.project(x), atol=1e-8 * (1 + np.linalg.norm(x))
            )

    @pytest.mark.parametrize("cone", CONE_CASES)
    def test_symmetry_and_spectrum(self, cone):
        rng = np.random.default_rng(8)
        for _ in range(40):
            x = random_point(cone, rng)
            mat = cone.jacobian_element(x).materialize()
            assert np.abs(mat - mat.T).max() <= 1e-10
            eigs = np.linalg.eigvalsh(mat)
            assert eigs[0] >= -1e-8
            assert eigs[-1] <= 1 + 1e-8
            assert np.linalg.norm(mat, 2) <= 1 + 1e-8

    @pytest.mark.parametrize("cone", CONE_CASES)
    def test_linearization_bound(self, cone):
        rng = np.random.default_rng(9)
        for _ in range(40):
            x = random_point(cone, rng)
            y = random_point(cone, rng)
            el = cone.jacobian_element(x)
            lhs = np.linalg.norm(cone.project(y) - cone.project(x) - el.apply(y - x))
            assert lhs <= (1 + 1e-8) * np.linalg.norm(y - x)

    @pytest.mark.parametrize("cone, kinks", [
        *[pytest.param(PsdCone(n), lambda rng, n=n: psd_kink_points(n, rng),
                       id=f"psd{n}") for n in (1, 2, 3, 7, 20)],
        pytest.param(MIXED_PRODUCT, mixed_product_kink_points, id="product"),
    ])
    def test_closed_form_matches_column_reference(self, cone, kinks):
        rng = np.random.default_rng(10)
        points = [random_point(cone, rng) for _ in range(5)] + kinks(rng)
        for x in points:
            reference = column_reference(cone.jacobian_element(x))
            mat = cone.jacobian_element(x).materialize()
            np.testing.assert_allclose(mat, reference, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                mat @ x, cone.project(x), rtol=0, atol=1e-12 * (1 + np.linalg.norm(x))
            )
            assert np.linalg.norm(mat, 2) <= 1 + 1e-12

    def test_product_blocks(self):
        cone = Product((Orthant(2), FreeSpace(2)))
        el = cone.jacobian_element([1.0, -1.0, 5.0, -5.0])
        expected = np.diag([1.0, 0.0, 1.0, 1.0])
        np.testing.assert_array_equal(el.materialize(), expected)
        assert el.pattern_key[0] == "product"


class TestConeMethods:
    def test_project_dual_element_and_contains(self):
        cone = Orthant(3)
        x = np.array([1.0, -2.0, 0.0])
        np.testing.assert_array_equal(cone.project(x), [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(cone.project_dual(x), [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(
            cone.jacobian_element(x).materialize(), np.diag([1.0, 0.0, 0.0])
        )
        assert cone.contains(np.array([1.0, 0.0, 2.0]), tol=0.0)
        assert not cone.contains(x, tol=1e-9)


def linearize_kink_cases():
    """(cone, x) at kinks of every cone: zero and repeated eigenvalues, the
    second-order cone boundary, polar boundary and origin, and -0.0."""
    rng = np.random.default_rng(30)
    cases = [(PsdCone(n), x) for n in (1, 3, 5) for x in psd_kink_points(n, rng)]
    cases += [(MIXED_PRODUCT, x) for x in mixed_product_kink_points(rng)]
    cases += [
        (SecondOrder(3), np.array([5.0, 3.0, 4.0])),
        (SecondOrder(3), np.array([-5.0, 3.0, 4.0])),
        (SecondOrder(3), np.zeros(3)),
        (SecondOrder(3), np.array([-0.0, 0.0, -0.0])),
        (Orthant(4), np.array([0.0, -0.0, 1.0, -1.0])),
        (FreeSpace(2), np.array([-0.0, 1.0])),
        (Product((PsdCone(2), Orthant(2))), np.array([0.0, 0.0, 0.0, -0.0, 0.0])),
    ]
    return cases


def assert_same_linearization(cone, x):
    projected, element = cone.linearize(x)
    reference = cone.jacobian_element(x)
    assert projected.tobytes() == cone.project(x).tobytes()
    assert element.pattern_key == reference.pattern_key
    assert type(element) is type(reference)
    assert_kind(cone, x, element)
    assert element.materialize().tobytes() == reference.materialize().tobytes()


def signed_zero_matrix(rng, d):
    """A random d x d matrix with some entries -0.0 and 0.0."""
    t = rng.standard_normal((d, d))
    t[rng.random((d, d)) < 0.2] = -0.0
    t[rng.random((d, d)) < 0.1] = 0.0
    return t


class TestLinearize:
    @pytest.mark.parametrize(
        "cone, x", linearize_kink_cases(),
        ids=[f"{type(c).__name__}-{i}" for i, (c, _) in enumerate(linearize_kink_cases())],
    )
    def test_matches_project_and_element_at_kinks(self, cone, x):
        assert_same_linearization(cone, x)

    @settings(max_examples=200)
    @given(cone_points())
    def test_matches_project_and_element(self, case):
        assert_same_linearization(*case)


def added_in_place(element, out):
    """The element's entries added into ``out`` in place, kind by kind: the
    entrywise assembly that ``JacobianElement.plus`` must equal bit for bit."""
    if isinstance(element, Block):
        for part, a, b in zip(element.parts, element.offsets, element.offsets[1:]):
            added_in_place(part, out[a:b, a:b])
    elif isinstance(element, SocBoundary):
        w = element.w
        out[0, 0] += 0.5
        out[0, 1:] += 0.5 * w
        out[1:, 0] += 0.5 * w
        out[1:, 1:] -= (0.5 * element.c * w)[:, None] * w
        idx = np.arange(1, element.size)
        out[idx, idx] += 0.5 * element.a
    elif isinstance(element, Spectral):
        out += element.materialize()
    else:
        idx = np.arange(element.size)
        out[idx, idx] += element.diagonal
    return out


def plus_kink_cases():
    """(label, cone, x) at the kinks of every element kind: SOC boundary
    points with zero and -0.0 tail entries, a zero head (c = 0) and the
    polar boundary (a = 0); PSD points with zero and repeated eigenvalues;
    products with SOC and PSD parts; orthant and free coordinates at 0.0
    and -0.0."""
    soc = [
        [5.0, 3.0, 4.0, 0.0, -0.0],
        [-5.0, 3.0, -0.0, 4.0, 0.0],
        [0.0, 3.0, 4.0, 0.0, -0.0],
        [-0.0, -0.0, 2.0, -0.0, 0.0],
        [1.0, 3.0, -4.0, 1e-300, -1e-300],
    ]
    cases = [(f"soc-{i}", SecondOrder(5), np.array(x)) for i, x in enumerate(soc)]
    cases += [(f"psd-{i}", c, x) for i, (c, x) in enumerate(linearize_kink_cases())
              if isinstance(c, PsdCone)]
    mixed = mixed_product_kink_points(np.random.default_rng(31))
    cases += [(f"block-{i}", MIXED_PRODUCT, x) for i, x in enumerate(mixed)]
    cases += [
        ("block-soc-psd", Product((SecondOrder(3), PsdCone(2))),
         np.array([0.0, 3.0, -0.0, 1.0, -0.0, 0.0])),
        ("orthant", Orthant(5), np.array([0.0, -0.0, 1.0, -1.0, 2.0])),
        ("free", FreeSpace(2), np.array([-0.0, 1.0])),
    ]
    return cases


class TestAddTo:
    """``JacobianElement.plus``: the element added to a matrix."""

    @settings(max_examples=200)
    @given(cone_points(), st.integers(0, 2**16))
    def test_matches_materialized_sum(self, case, seed):
        cone, x = case
        element = cone.jacobian_element(x)
        t = signed_zero_matrix(np.random.default_rng(seed), cone.ambient_dim)
        reference = element.materialize() + t
        out = element.plus(t)
        assert_kind(cone, x, element)
        assert out.tobytes() == added_in_place(element, t + 0.0).tobytes()
        if isinstance(element, Diagonal):
            assert out.tobytes() == reference.tobytes()
        else:
            gap = np.linalg.norm(out - reference)
            assert gap <= 1e-15 * np.linalg.norm(reference)

    @pytest.mark.parametrize(
        "cone, x", [c[1:] for c in plus_kink_cases()], ids=[c[0] for c in plus_kink_cases()]
    )
    def test_equals_in_place_sum_at_kinks(self, cone, x):
        # byte for byte, zeros' signs included: no entry is -0.0, as in T + 0.0
        element = cone.jacobian_element(x)
        t = signed_zero_matrix(np.random.default_rng(33), cone.ambient_dim)
        t[0, :] = -0.0
        t[:, -1] = -0.0
        before = t.tobytes()
        out = element.plus(t)
        assert t.tobytes() == before
        assert out.tobytes() == added_in_place(element, t + 0.0).tobytes()
        assert not np.signbit(out[out == 0.0]).any()

    @pytest.mark.parametrize(
        "cone, x",
        [c[1:] for c in plus_kink_cases()]
        + [(PsdCone(3), -svec(np.eye(3))), (PsdCone(3), np.zeros(6))],
        ids=[c[0] for c in plus_kink_cases()] + ["psd-negative", "psd-zero"],
    )
    def test_writes_every_entry_of_a_dirty_out(self, cone, x):
        # NaN and -0.0 left in ``out`` must not reach the result
        element = cone.jacobian_element(x)
        t = signed_zero_matrix(np.random.default_rng(35), cone.ambient_dim)
        dirty = np.full_like(t, np.nan)
        dirty[::2] = -0.0
        out = element.plus(t, out=dirty)
        assert out is dirty
        assert out.tobytes() == element.plus(t).tobytes()

    def test_dirty_out_cases_include_a_point_with_no_positive_eigenvalue(self):
        for x in (-svec(np.eye(3)), np.zeros(6)):
            element = PsdCone(3).jacobian_element(x)
            assert isinstance(element, Spectral)
            assert not element.omega.any()

    def test_kink_cases_cover_every_kind(self):
        kinds = {type(c.jacobian_element(x)) for _, c, x in plus_kink_cases()}
        assert kinds == {Diagonal, SocBoundary, Spectral, Block}
        blocks = [c.jacobian_element(x) for _, c, x in plus_kink_cases()
                  if isinstance(c, Product)]
        part_kinds = {type(p) for el in blocks if isinstance(el, Block) for p in el.parts}
        assert {SocBoundary, Spectral} <= part_kinds

    @pytest.mark.parametrize("x", [[5.0, 1.0, 0.0], [-5.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
                             ids=["interior", "polar", "origin"])
    def test_soc_interior_and_polar_are_diagonal(self, x):
        element = SecondOrder(3).jacobian_element(x)
        assert isinstance(element, Diagonal)
        np.testing.assert_array_equal(element.diagonal, np.full(3, float(x[0] >= 0.0)))

    @settings(max_examples=200)
    @given(soc_points(), st.integers(0, 2**16))
    def test_soc_apply_matches_materialized_product(self, case, seed):
        cone, x = case
        element = cone.jacobian_element(x)
        v = np.random.default_rng(seed).standard_normal(cone.ambient_dim)
        np.testing.assert_allclose(
            element.apply(v), element.materialize() @ v,
            rtol=0, atol=1e-14 * (1.0 + np.linalg.norm(v)),
        )


def full_column_psd_matrix(u, omega):
    """B B^T with every column of B, including those of weight omega_ij = 0."""
    n = u.shape[0]
    rows, cols = np.triu_indices(n)
    scale = np.where(rows == cols, 1.0, np.sqrt(2.0))
    products = (
        (scale[:, None] * u[rows])[:, :, None] * u[cols][:, None, :]
    ).reshape(rows.size, n * n)
    basis = products[:, rows * n + cols] + products[:, cols * n + rows]
    basis *= 0.5 * scale * np.sqrt(omega[rows, cols])
    return basis @ basis.T


class TestReducedPsdBuilder:
    @pytest.mark.parametrize("positive", [0, 3, 6], ids=["r=0", "mixed", "r=n"])
    def test_matches_full_column_builder(self, positive):
        rng = np.random.default_rng(32)
        n = 6
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        # descending, with a zero eigenvalue whenever one is nonpositive
        lam = np.concatenate([rng.uniform(0.5, 2.0, positive),
                              [0.0] * (positive < n),
                              -rng.uniform(0.5, 2.0, max(n - positive - 1, 0))])
        omega = _psd_omega(lam)
        reduced = _psd_jacobian_matrix(q, omega)
        full = full_column_psd_matrix(q, omega)
        if positive == 0:
            assert not reduced.any()
        elif positive == n:
            assert reduced.tobytes() == full.tobytes()
        else:
            np.testing.assert_allclose(reduced, full, rtol=0, atol=1e-15)
