"""Quadratic conic programming reduction, KKT recovery, and round trips."""

from dataclasses import replace

import numpy as np
import pytest

from conic_newton import (
    AugmentedKkt,
    EquationForm,
    KktPoint,
    NewtonConfig,
    Orthant,
    Product,
    PsdCone,
    QcpProblem,
    ScaledIdentity,
    SecondOrder,
    Termination,
    analyze,
    residual,
    smat,
    solve_qcp,
    svec,
)
from conic_newton.analysis import _analyze_projection_linear
from conic_newton.qcp import embed_kkt, kkt_residual, to_projection_equation
from conftest import CONE_CASES, interior_point, random_point, random_symmetric


def random_qcp(cone, seed, with_equality, deviation=0.5):
    """Positive definite Q within ``deviation`` of the identity, random q,
    and (optionally) equality constraints feasible at a strict interior point."""
    rng = np.random.default_rng(seed)
    d = cone.ambient_dim
    w = random_symmetric(rng, d)
    w /= np.linalg.norm(w, 2)
    q_mat = np.eye(d) + deviation * w
    q_vec = rng.standard_normal(d)
    strict = interior_point(cone, rng)
    equality = None
    if with_equality:
        m = int(rng.integers(1, 3))
        a = rng.standard_normal((m, d))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        equality = (a, a @ strict)
    return QcpProblem(Q=q_mat, q=q_vec, cone=cone, equality=equality), strict


class TestReduction:
    def test_unconstrained_operator_and_rhs(self):
        p = QcpProblem(Q=2.0, q=np.array([-2.0, 1.0]), cone=Orthant(2))
        pe = to_projection_equation(p)
        assert pe.form is EquationForm.PROJECTION_LINEAR
        np.testing.assert_array_equal(pe.T.materialize(), np.eye(2))
        np.testing.assert_array_equal(pe.b, [2.0, -1.0])

    def test_unconstrained_is_the_kkt_operator_with_no_rows(self, monkeypatch):
        p = QcpProblem(Q=2.0, q=np.array([-2.0, 1.0]), cone=Orthant(2))
        pe = to_projection_equation(p)
        assert isinstance(pe.T, AugmentedKkt)
        assert pe.T.quadratic is p.Q
        assert pe.T.constraint.shape == (0, 2)
        assert pe.cone is p.cone
        # the analysis reads Q's own operator, not a densified copy
        def densified(self):
            raise AssertionError("the analysis densified Q")

        monkeypatch.setattr(ScaledIdentity, "materialize", densified)
        monkeypatch.setattr(AugmentedKkt, "materialize", densified)
        assert analyze(pe) == _analyze_projection_linear(p.Q)

    def test_unit_quadratic_with_equality_matches_diagonal_iteration(self):
        # Q = I zeroes the quadratic block, leaving only the multiplier term
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = QcpProblem(Q=1.0, q=np.zeros(2), cone=Orthant(2), equality=(a, np.ones(2)))
        mat = to_projection_equation(p).T.materialize()
        np.testing.assert_array_equal(mat[:2, :2], np.zeros((2, 2)))
        np.testing.assert_array_equal(mat[:2, 2:], a.T)

    def test_augmented_materialization(self):
        p = QcpProblem(
            Q=np.diag([2.0, 3.0]),
            q=np.zeros(2),
            cone=Orthant(2),
            equality=(np.array([[1.0, 1.0]]), np.array([1.0])),
        )
        pe = to_projection_equation(p)
        expected = np.array([[1.0, 0.0, 1.0], [0.0, 2.0, 1.0], [1.0, 1.0, -1.0]])
        np.testing.assert_array_equal(pe.T.materialize(), expected)
        np.testing.assert_array_equal(pe.b, [0.0, 0.0, 1.0])


class TestSolveQcp:
    def test_hand_example(self):
        p = QcpProblem(Q=2.0, q=np.array([-2.0, 1.0]), cone=Orthant(2))
        kkt, report = solve_qcp(p, NewtonConfig(tol=1e-10))
        np.testing.assert_allclose(report.solution, [1.0, -1.0])
        np.testing.assert_allclose(kkt.x, [1.0, 0.0])
        np.testing.assert_allclose(kkt.mu, [0.0, 1.0])
        assert abs(np.dot(kkt.mu, kkt.x)) <= 1e-12
        assert kkt.verified

    def test_orthant_projection_problem(self):
        # Q = I, q = -g solves the least-squares projection onto the orthant
        g = np.array([2.0, -1.0, 0.5, -0.25])
        p = QcpProblem(Q=1.0, q=-g, cone=Orthant(4))
        kkt, _ = solve_qcp(p, NewtonConfig(tol=1e-10))
        np.testing.assert_allclose(kkt.x, np.maximum(g, 0.0), atol=1e-9)

    def test_small_ncm_instance(self):
        g = np.array([[1.0, 2.0], [2.0, 1.0]])
        a = np.zeros((2, 3))
        rows, cols = np.triu_indices(2)
        for j in range(2):
            a[j, int(np.flatnonzero((rows == j) & (cols == j))[0])] = 1.0
        p = QcpProblem(
            Q=1.0, q=-svec(g), cone=PsdCone(2), equality=(a, np.ones(2))
        )
        kkt, report = solve_qcp(p, NewtonConfig(tol=1e-10))
        np.testing.assert_allclose(smat(kkt.x), np.ones((2, 2)), atol=1e-9)
        np.testing.assert_allclose(kkt.lam, [1.0, 1.0], atol=1e-9)

    @pytest.mark.parametrize("with_equality", [False, True], ids=["plain", "equality"])
    def test_one_eigh_per_iterate(self, monkeypatch, with_equality):
        # the KKT point reuses the last iterate's projection
        problem, _ = random_qcp(PsdCone(3), 30, with_equality)
        eigh = np.linalg.eigh
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        kkt, report = solve_qcp(problem, NewtonConfig(tol=1e-10))
        assert kkt.verified
        assert report.iterations >= 2
        assert len(calls) == report.iterations + 1

    @pytest.mark.parametrize("with_equality", [False, True], ids=["plain", "equality"])
    def test_kkt_point_at_a_far_scale(self, with_equality):
        # q 2^600 with tol 2^600 runs the steps of the unit program, scaled;
        # projecting the root again in the caller's units overflowed here
        problem, _ = random_qcp(SecondOrder(5), 31, with_equality)
        config = NewtonConfig(tol=1e-10)
        base, _ = solve_qcp(problem, config)
        equality = problem.equality
        if equality is not None:
            equality = (equality[0], np.ldexp(equality[1], 600))
        scaled = QcpProblem(problem.Q, np.ldexp(problem.q, 600), problem.cone, equality)
        kkt, _ = solve_qcp(scaled, replace(config, tol=np.ldexp(1e-10, 600)))
        assert base.verified and kkt.verified
        assert kkt.x.tobytes() == np.ldexp(base.x, 600).tobytes()

    def test_max_iter_flags_unverified(self):
        p = QcpProblem(Q=2.0, q=np.array([-2.0, 1.0]), cone=Orthant(2))
        kkt, report = solve_qcp(p, NewtonConfig(max_iter=1, tol=1e-14))
        assert report.termination is Termination.MAX_ITER
        assert not kkt.verified


class TestEmbed:
    def test_direct_formula(self):
        p = QcpProblem(Q=2.0, q=np.array([-2.0, 1.0]), cone=Orthant(2))
        k = KktPoint(x=np.array([1.0, 0.0]), lam=None, mu=np.array([0.0, 1.0]))
        np.testing.assert_allclose(embed_kkt(p, k), [1.0, -1.0])

    def test_interior_point_with_zero_multiplier_maps_to_itself(self):
        # mu = 0 forces Qx + q = 0, so the embedding is x itself
        q_mat = np.diag([2.0, 4.0])
        x = np.array([1.0, 2.0])
        p = QcpProblem(Q=q_mat, q=-(q_mat @ x), cone=Orthant(2))
        k = KktPoint(x=x, lam=None, mu=np.zeros(2))
        np.testing.assert_allclose(embed_kkt(p, k), x)

    def test_psd_sign_bookkeeping(self):
        p = QcpProblem(
            Q=1.0, q=-svec(np.diag([1.0, -1.0])), cone=PsdCone(2)
        )
        x = svec(np.diag([1.0, 0.0]))
        k = KktPoint(x=x, lam=None, mu=x - svec(np.diag([1.0, -1.0])))
        root = embed_kkt(p, k)
        np.testing.assert_allclose(smat(root), np.diag([1.0, -1.0]), atol=1e-12)
        assert residual(to_projection_equation(p), root) <= 1e-8

    def test_rejects_invalid_point(self):
        p = QcpProblem(Q=2.0, q=np.array([-2.0, 1.0]), cone=Orthant(2))
        bad = KktPoint(x=np.array([1.0, 0.0]), lam=None, mu=np.array([5.0, 5.0]))
        with pytest.raises(ValueError):
            embed_kkt(p, bad)


class TestKktResidual:
    def test_exact_point_is_zero(self):
        p = QcpProblem(Q=2.0, q=np.array([-2.0, 1.0]), cone=Orthant(2))
        k = KktPoint(x=np.array([1.0, 0.0]), lam=None, mu=np.array([0.0, 1.0]))
        assert kkt_residual(p, k) <= 1e-12

    def test_dual_cone_violation(self):
        p = QcpProblem(Q=1.0, q=np.zeros(2), cone=Orthant(2))
        k = KktPoint(x=np.array([1.0, 0.0]), lam=None, mu=np.array([0.0, -1.0]))
        assert kkt_residual(p, k) == pytest.approx(1.0)

    def test_complementarity_violation(self):
        p = QcpProblem(Q=1.0, q=np.zeros(2), cone=Orthant(2))
        k = KktPoint(x=np.array([1.0, 0.0]), lam=None, mu=np.array([1.0, 0.0]))
        assert kkt_residual(p, k) == pytest.approx(1.0)


class TestRoundTrip:
    @pytest.mark.parametrize("cone", CONE_CASES)
    @pytest.mark.parametrize("with_equality", [False, True])
    def test_solve_then_embed(self, cone, with_equality):
        for i in range(10):
            p, strict = random_qcp(cone, seed=[29, i, with_equality], with_equality=with_equality)
            m = p.equality[0].shape[0] if p.equality else 0
            x0 = np.concatenate([strict, np.zeros(m)]) if with_equality else strict
            kkt, report = solve_qcp(
                p, NewtonConfig(tol=1e-11, max_iter=300, x0=x0)
            )
            assert report.termination.converged
            assert report.residuals[-1] <= 1e-11
            assert kkt_residual(p, kkt) <= 1e-8
            root = embed_kkt(p, kkt)
            assert residual(to_projection_equation(p), root) <= 1e-8

    def test_projecting_constructed_root_gives_kkt(self):
        rng = np.random.default_rng(32)
        cone = SecondOrder(5)
        w = random_symmetric(rng, 5)
        q_mat = np.eye(5) + 0.4 * w / np.linalg.norm(w, 2)
        x_raw = random_point(cone, rng)
        # choose q so that x_raw is a root of the reduced equation
        q_vec = -(q_mat - np.eye(5)) @ cone.project(x_raw) - x_raw
        p = QcpProblem(Q=q_mat, q=q_vec, cone=cone)
        assert residual(to_projection_equation(p), x_raw) <= 1e-10
        k = KktPoint(
            x=cone.project(x_raw),
            lam=None,
            mu=q_mat @ cone.project(x_raw) + q_vec,
        )
        assert kkt_residual(p, k) <= 1e-8


class TestInvertibilityLemma:
    @pytest.mark.parametrize("cone", CONE_CASES)
    def test_shifted_composition_is_invertible(self, cone):
        # for positive definite Q, (Q - I)V(x) + I stays invertible
        rng = np.random.default_rng(33)
        d = cone.ambient_dim
        for _ in range(20):
            b = rng.standard_normal((d, d))
            q_mat = b @ b.T / d + 0.1 * np.eye(d)
            x = random_point(cone, rng)
            v = cone.jacobian_element(x).materialize()
            composed = (q_mat - np.eye(d)) @ v + np.eye(d)
            smallest = np.linalg.svd(composed, compute_uv=False)[-1]
            assert smallest > 1e-10
