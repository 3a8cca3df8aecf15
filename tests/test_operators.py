"""Linear operator forms and the convergence-guarantee analyzer."""

import numpy as np
import pytest

from conic_newton import (
    AugmentedKkt,
    DenseOperator,
    DimensionMismatchError,
    EquationForm,
    Guarantee,
    NewtonConfig,
    Orthant,
    ProjectionEquationProblem,
    PsdCone,
    QcpProblem,
    ScaledIdentity,
    SecondOrder,
    analyze,
    analyze_problem,
    analyze_qcp_operator,
    measure_ratios,
    solve,
    solve_qcp,
    to_projection_equation,
)


def shifted(q):
    """Q - I for a dense Q: the reduced operator of a program with no
    equality rows."""
    q = np.asarray(q, dtype=float)
    return AugmentedKkt(DenseOperator(q), np.empty((0, q.shape[0])))


class TestApply:
    def test_scaled_identity(self):
        np.testing.assert_array_equal(
            ScaledIdentity(3.0, 2).apply([1.0, 2.0]), [3.0, 6.0]
        )

    def test_dense(self):
        op = DenseOperator([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(op.apply([1.0, 2.0]), [2.0, 1.0])

    def test_augmented_blockwise(self):
        op = AugmentedKkt(ScaledIdentity(1.0, 2), np.array([[1.0, 0.0]]))
        out = op.apply(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(out, [3.0, 0.0, -2.0])

    def test_shifted_dense(self):
        op = shifted(np.diag([2.0, 3.0]))
        np.testing.assert_array_equal(op.apply([1.0, 1.0]), [1.0, 2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ScaledIdentity(1.0, 3).apply([1.0, 2.0])

    @pytest.mark.parametrize(
        "op",
        [
            ScaledIdentity(-1.7, 4),
            DenseOperator(np.arange(16.0).reshape(4, 4)),
            shifted(np.arange(16.0).reshape(4, 4) / 7.0),
            AugmentedKkt(
                DenseOperator(np.array([[2.0, 0.5], [0.1, 3.0]])),
                np.array([[1.0, 2.0], [0.0, -1.0]]),
            ),
        ],
    )
    def test_apply_and_adjoint_match_dense(self, op):
        rng = np.random.default_rng(10)
        dense = op.materialize()
        for _ in range(10):
            x = rng.standard_normal(op.dim)
            np.testing.assert_allclose(op.apply(x), dense @ x, atol=1e-10)


def read_only(matrix):
    matrix = np.array(matrix, dtype=float)
    matrix.flags.writeable = False
    return matrix


class TestMaterialize:
    def test_dense_is_a_read_only_view(self):
        matrix = np.arange(9.0).reshape(3, 3)
        op = DenseOperator(matrix)
        view = op.materialize()
        assert np.shares_memory(view, op.matrix)
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0] = 1.0
        assert op.matrix.flags.writeable
        assert view.tobytes() == matrix.tobytes()

    @pytest.mark.parametrize(
        "quadratic",
        [DenseOperator, lambda q: shifted(q + 1.0), lambda q: ScaledIdentity(-0.5, 5)],
        ids=["dense", "shifted", "scaled-identity"],
    )
    def test_shifted_and_augmented_equal_the_eye_formulas_bit_for_bit(self, quadratic):
        # zeros' signs included: -0.0 in Q, and the -0.0 off the diagonal of -I
        rng = np.random.default_rng(11)
        q = rng.standard_normal((5, 5))
        q[0, :] = -0.0
        q[:, 1] = 0.0
        assert shifted(q).materialize().tobytes() == (q - np.eye(5)).tobytes()
        a = rng.standard_normal((2, 5))
        a[0, 0] = -0.0
        op = AugmentedKkt(quadratic(q), a)
        reference = np.zeros((7, 7))
        reference[:5, :5] = op.quadratic.materialize() - np.eye(5)
        reference[:5, 5:] = a.T
        reference[5:, :5] = a
        reference[5:, 5:] = -np.eye(2)
        assert op.materialize().tobytes() == reference.tobytes()

    def test_read_only_operator_passes_every_caller(self):
        # nothing downstream of materialize writes to the operator's matrix
        rng = np.random.default_rng(12)
        a = rng.standard_normal((6, 6))
        t = read_only(a @ a.T / 6 + np.eye(6))
        b = rng.standard_normal(6)
        config = NewtonConfig(tol=1e-10)
        for form in EquationForm:
            problem = ProjectionEquationProblem(Orthant(6), DenseOperator(t), b, form)
            assert solve(problem, config).residuals[-1] <= 1e-10
            analyze_problem(problem)
        analyze(DenseOperator(t))
        analyze_qcp_operator(DenseOperator(t))
        for equality in (None, (read_only(rng.standard_normal((2, 6))), np.ones(2))):
            qcp = QcpProblem(Q=DenseOperator(t), q=b, cone=Orthant(6), equality=equality)
            kkt, _ = solve_qcp(qcp, config)
            assert kkt.verified
        assert t.tobytes() == read_only(a @ a.T / 6 + np.eye(6)).tobytes()


class TestAnalyze:
    def test_acceptance_quadruple(self):
        r1 = analyze(ScaledIdentity(3.0, 4))
        assert r1.guarantee is Guarantee.Q_LINEAR
        assert r1.predicted_ratio == pytest.approx(1.0 / 3.0, abs=0)
        r2 = analyze(ScaledIdentity(2.0, 4))
        assert r2.guarantee is Guarantee.Q_LINEAR
        assert r2.predicted_ratio == 0.5
        r3 = analyze(DenseOperator(np.diag([2.0, -2.0])))
        assert r3.guarantee is Guarantee.EXISTENCE_UNIQUENESS
        assert r3.norm_T_inv == pytest.approx(0.5, rel=1e-14)
        assert not r3.is_positive_definite
        r4 = analyze(ScaledIdentity(0.5, 3))
        assert r4.guarantee is Guarantee.NONE
        assert r4.norm_T_inv == 2.0

    def test_strict_branch_without_definiteness(self):
        # an orthogonal-but-indefinite operator with small inverse norm
        mat = 3.0 * np.array([[0.0, 1.0], [1.0, 0.0]])
        report = analyze(DenseOperator(mat))
        assert not report.is_positive_definite
        assert report.norm_T_inv == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert report.guarantee is Guarantee.Q_LINEAR
        assert report.predicted_ratio == pytest.approx(0.5, rel=1e-12)

    def test_singular_operator(self):
        report = analyze(DenseOperator(np.zeros((3, 3))))
        assert not report.invertible
        assert report.norm_T_inv is None
        assert report.guarantee is Guarantee.NONE

    def test_scale_consistency_exact(self):
        for c in (0.3, -2.0, 7.5):
            assert analyze(ScaledIdentity(c, 5)).norm_T_inv == 1.0 / abs(c)

    def test_materialization_consistency(self):
        ops = [
            ScaledIdentity(3.0, 4),
            shifted(np.diag([2.5, 0.3])),
            AugmentedKkt(ScaledIdentity(2.0, 2), np.array([[1.0, 1.0]])),
        ]
        for op in ops:
            structured = analyze(op)
            densified = analyze(DenseOperator(op.materialize()))
            assert structured.guarantee is densified.guarantee
            if structured.predicted_ratio is None:
                assert densified.predicted_ratio is None
            else:
                assert densified.predicted_ratio == pytest.approx(
                    structured.predicted_ratio, rel=1e-12
                )

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DenseOperator(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("scale", [np.nan, np.inf])
    def test_scaled_identity_rejects_non_finite(self, scale):
        with pytest.raises(ValueError, match="finite"):
            ScaledIdentity(scale, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_shifted_dense_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            shifted(np.array([[bad, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_augmented_kkt_rejects_non_finite_constraint(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            AugmentedKkt(ScaledIdentity(1.0, 2), np.array([[bad, 1.0]]))


class TestAnalyzeQcpOperator:
    def test_scaled_pd(self):
        report = analyze_qcp_operator(ScaledIdentity(1.5, 3))
        assert report.guarantee is Guarantee.Q_LINEAR
        assert report.predicted_ratio == 0.5

    def test_identity(self):
        report = analyze_qcp_operator(ScaledIdentity(1.0, 3))
        assert report.guarantee is Guarantee.Q_LINEAR
        assert report.predicted_ratio == 0.0

    def test_far_from_identity(self):
        report = analyze_qcp_operator(DenseOperator(np.diag([3.0, 0.2])))
        assert report.norm_T_inv == pytest.approx(2.0, rel=1e-14)
        assert report.guarantee is Guarantee.NONE

    def test_inverse_deviation_branch(self):
        # Q = diag(3, 2): dev = 2, but Q^-1 deviates by only 2/3 < 1
        report = analyze_qcp_operator(DenseOperator(np.diag([3.0, 2.0])))
        assert report.guarantee is Guarantee.EXISTENCE_UNIQUENESS

    @pytest.mark.parametrize(
        "op",
        [
            pytest.param(ScaledIdentity(1.5, 3), id="1.5I"),
            pytest.param(ScaledIdentity(1.0, 3), id="I"),
            # dev = 2; only |Q^-1 - I| = 2/3 < 1 grants existence
            pytest.param(ScaledIdentity(3.0, 2), id="3I"),
            pytest.param(ScaledIdentity(0.4, 2), id="0.4I"),
            pytest.param(ScaledIdentity(0.0, 2), id="0I"),
            pytest.param(ScaledIdentity(-1.0, 2), id="-I"),
            pytest.param(DenseOperator(np.diag([3.0, 0.2])), id="diag(3,0.2)"),
            pytest.param(DenseOperator(np.diag([3.0, 2.0])), id="diag(3,2)"),
            pytest.param(DenseOperator(np.diag([1.2, 0.9])), id="diag(1.2,0.9)"),
            pytest.param(DenseOperator(np.array([[1.0, 0.8], [-0.8, 1.0]])), id="I+skew"),
            pytest.param(DenseOperator(np.diag([1.0, 0.0])), id="singular"),
        ],
    )
    def test_matches_the_branch_rules(self, op):
        # the rules of the docstring, stated in full: positive definite
        # Q - I with dev < 1 gives ratio dev; dev < 1/2 gives dev / (1 - dev);
        # dev < 1 or invertible Q with |Q^-1 - I| < 1 gives existence only
        mat = op.materialize()
        eye = np.eye(mat.shape[0])
        dev = float(np.linalg.norm(mat - eye, 2))
        report = analyze_qcp_operator(op)
        inv_dev = None
        if report.invertible:
            inv_dev = float(np.linalg.norm(np.linalg.inv(mat) - eye, 2))
        guarantee, ratio = Guarantee.NONE, None
        if report.is_positive_definite and dev < 1.0:
            guarantee, ratio = Guarantee.Q_LINEAR, dev
        elif dev < 0.5:
            guarantee, ratio = Guarantee.Q_LINEAR, dev / (1.0 - dev)
        elif dev < 1.0 or (inv_dev is not None and inv_dev < 1.0):
            guarantee = Guarantee.EXISTENCE_UNIQUENESS
        assert report.guarantee is guarantee
        assert report.predicted_ratio == pytest.approx(ratio, rel=1e-14, abs=0)
        assert report.norm_T_inv == pytest.approx(dev, rel=1e-14)


class TestAnalyzeProblem:
    def test_point_linear_uses_plain_analyzer(self):
        problem = ProjectionEquationProblem(
            Orthant(2), ScaledIdentity(3.0, 2), np.zeros(2)
        )
        report = analyze_problem(problem)
        assert report.predicted_ratio == pytest.approx(1.0 / 3.0)

    def test_projection_linear_uses_qcp_analyzer(self):
        problem = ProjectionEquationProblem(
            Orthant(2),
            shifted(1.5 * np.eye(2)),
            np.zeros(2),
            form=EquationForm.PROJECTION_LINEAR,
        )
        report = analyze_problem(problem)
        assert report.guarantee is Guarantee.Q_LINEAR
        assert report.predicted_ratio == pytest.approx(0.5, rel=1e-12)


def planted_root(form, kind, spectrum, seed):
    """A projection equation with a known root w, and w.

    The program has Q = U diag(lam) U^T, lam uniform on ``spectrum``, and
    q = (x - w) - Qx with x = P_K(w), so w solves its reduced equation
    (Q - I) P_K(w) + w = -q.  "point-linear" is the same equation in the
    other form, P_K(w) + (Q - I)^-1 w = (Q - I)^-1 (-q); "scaled" keeps Q
    as the operator lam_0 I.
    """
    rng = np.random.default_rng([31, seed])
    cone = {"orthant": Orthant, "soc": SecondOrder, "psd": PsdCone}[kind](
        int(rng.integers(2, 4 if kind == "psd" else 8))
    )
    d = cone.ambient_dim
    u, _ = np.linalg.qr(rng.standard_normal((d, d)))
    lam = rng.uniform(*spectrum, d)
    w = rng.standard_normal(d)
    x = cone.project(w)
    if form == "point-linear":
        t = (u / (lam - 1.0)) @ u.T
        return ProjectionEquationProblem(cone, DenseOperator(t), x + t @ w), w
    if form == "scaled":
        q_op = ScaledIdentity(lam[0], d)
    else:
        q_op = DenseOperator((u * lam) @ u.T)
    program = QcpProblem(Q=q_op, q=(x - w) - q_op.apply(x), cone=cone)
    return to_projection_equation(program), w


class TestGuaranteesHold:
    @pytest.mark.parametrize("spectrum", [(1e-3, 1.0), (1.001, 1.999)],
                             ids=["below-1", "above-1"])
    @pytest.mark.parametrize("kind", ["orthant", "soc", "psd"])
    @pytest.mark.parametrize("form", ["point-linear", "projection-linear", "scaled"])
    def test_q_linear_claims_bound_every_ratio(self, form, kind, spectrum):
        # a spectrum below 1 leaves Q positive definite but Q - I negative
        # definite, so only the |Q - I| < 1/2 branch may claim a rate there;
        # the draws are fixed, 30 per case
        claims = 0
        for seed in range(30):
            problem, root = planted_root(form, kind, spectrum, seed)
            report = analyze_problem(problem)
            if report.guarantee is not Guarantee.Q_LINEAR:
                continue
            claims += 1
            config = NewtonConfig(tol=1e-11, use_pattern_stop=False)
            ratios = measure_ratios(problem, config, root)
            assert max(ratios, default=0.0) <= report.predicted_ratio + 1e-9, seed
        assert claims > 0


class TestProblemContainer:
    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatchError):
            ProjectionEquationProblem(Orthant(2), ScaledIdentity(1.0, 3), np.zeros(2))
        with pytest.raises(DimensionMismatchError):
            ProjectionEquationProblem(Orthant(2), ScaledIdentity(1.0, 2), np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_rhs(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            ProjectionEquationProblem(
                Orthant(2), ScaledIdentity(1.0, 2), np.array([bad, 1.0])
            )
