"""Nearest-correlation solvers: Newton-CG, the diagonal Newton recursion and the baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conic_newton import (
    KktPoint,
    NcmProblem,
    NewtonConfig,
    NumericalFailureError,
    PsdCone,
    QcpProblem,
    Termination,
    diagonal_step,
    kkt_residual,
    ncm_residual,
    ncm_step,
    solve_ncm,
    solve_ncm_baseline,
    solve_ncm_diagonal,
    solve_qcp,
    smat,
    svec,
)
from conic_newton.bench import ExperimentConfig, generate
from conic_newton.cones import _psd_omega, _psd_part
from conic_newton.ncm import (
    _dual_objective,
    _gradient,
    _newton_operator,
    _state_of,
    initial_state,
)
from conftest import RANK_DEFICIENT_NCM_INPUT, STALLING_NCM_INPUTS, random_symmetric


# Square matrices of order 1 to 6 with entries in [-3, 3].
SMALL_SYMMETRIC = st.integers(1, 6).flatmap(
    lambda n: arrays(np.float64, (n, n), elements=st.floats(-3.0, 3.0))
)


def assert_correlation_output(report, tol):
    """Symmetric PSD output, with a unit diagonal if the report converged."""
    c = report.projected_solution
    np.testing.assert_array_equal(c, c.T)
    assert np.linalg.eigvalsh(c)[0] >= -1e-12 * max(1.0, np.abs(c).max())
    if report.termination is Termination.RESIDUAL_TOL:
        # the residual sums the same eigenpairs in another order
        assert np.linalg.norm(np.diag(c) - 1.0) <= tol + 1e-14


def step_matrix_reference(x):
    """The dense step matrix U D U^T, D the 0/1 indicator of positive eigenvalues."""
    vals, vecs = np.linalg.eigh(x)
    return (vecs * (vals > 0.0)) @ vecs.T


def diag_extraction_matrix(n):
    rows, cols = np.triu_indices(n)
    a = np.zeros((n, n * (n + 1) // 2))
    for j in range(n):
        a[j, int(np.flatnonzero((rows == j) & (cols == j))[0])] = 1.0
    return a


def dense_step_reference(state):
    """The diagonal Newton update with the step matrix formed densely."""
    v = step_matrix_reference(state.X)
    diag_v = np.diag(v)
    rhs = 1.0 - np.diag(v @ state.Ghat)
    usable = np.abs(diag_v) > 1e-12
    d = np.zeros_like(rhs)
    d[usable] = rhs[usable] / diag_v[usable]
    return d


def ncm_as_qcp(g):
    n = g.shape[0]
    return QcpProblem(
        Q=1.0,
        q=-svec(g),
        cone=PsdCone(n),
        equality=(diag_extraction_matrix(n), np.ones(n)),
    )


class TestStep:
    def test_identity_is_fixed_point(self):
        state = initial_state(NcmProblem(np.eye(4)))
        assert state.residual == 0.0
        nxt = ncm_step(state)
        np.testing.assert_allclose(nxt.X, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(nxt.D_diag, np.ones(4))

    def test_hand_computed_two_by_two(self):
        g = np.array([[1.0, 2.0], [2.0, 1.0]])
        state = initial_state(NcmProblem(g))
        nxt = diagonal_step(state)
        np.testing.assert_allclose(nxt.X, np.array([[0.0, 2.0], [2.0, 0.0]]), atol=1e-12)
        np.testing.assert_allclose(np.diag(g) - nxt.D_diag, [1.0, 1.0], atol=1e-12)
        assert nxt.residual <= 1e-12

    def test_pseudoinverse_zeroes_dead_coordinates(self):
        # a state whose step matrix has a zero diagonal entry leaves that
        # coordinate's update at zero instead of dividing by zero
        g = np.diag([1.0, -1.0])
        state = initial_state(NcmProblem(g))
        v = step_matrix_reference(state.X)
        assert abs(v[1, 1]) <= 1e-12
        nxt = diagonal_step(state)
        assert nxt.D_diag[1] == 0.0
        assert np.all(np.isfinite(nxt.X))

    @pytest.mark.parametrize("shift", [-0.5, 0.5], ids=["few-positive", "many-positive"])
    @pytest.mark.parametrize("n", [7, 30, 61])
    def test_matches_dense_step_matrix(self, n, shift):
        # shift -0.5 leaves at most half the eigenvalues positive, +0.5 more
        # than half, so both ways of forming the diagonals are compared
        rng = np.random.default_rng(44 + n)
        g = random_symmetric(rng, n, scale=1.0 / np.sqrt(n)) + shift * np.eye(n)
        state = initial_state(NcmProblem(g))
        positive = int(np.count_nonzero(np.linalg.eigvalsh(state.X) > 0.0))
        assert (2 * positive <= n) == (shift < 0)
        reference = dense_step_reference(state)
        d = diagonal_step(state).D_diag
        assert np.abs(d - reference).max() <= 1e-12 * (1.0 + np.abs(reference).max())


def dense_newton_matrix(vals, vecs):
    """J with J h = diag(U (Omega o U^T Diag(h) U) U^T), column by column."""
    omega = _psd_omega(vals)
    n = vals.shape[0]
    return np.column_stack(
        [np.diag(vecs @ (omega * (vecs.T @ np.diag(e) @ vecs)) @ vecs.T) for e in np.eye(n)]
    )


# Spectra of order 8: r positive eigenvalues on either side of n/2, and a zero
# eigenvalue, which counts as nonpositive.
SPECTRA = [
    pytest.param(-np.linspace(0.5, 3.0, 8), id="r=0"),
    pytest.param(np.array([-3.0, -2.0, -1.5, -1.0, -0.5, 0.7, 1.5, 2.5]), id="2r<=n"),
    pytest.param(np.array([-2.0, -0.5, 0.1, 0.3, 1.0, 1.2, 2.0, 4.0]), id="2r>n"),
    pytest.param(np.linspace(0.5, 3.0, 8), id="r=n"),
    pytest.param(np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]), id="zero-few"),
    pytest.param(np.array([-2.0, 0.0, 0.5, 0.6, 1.0, 1.5, 2.0, 3.0]), id="zero-many"),
]


class TestNewtonOperator:
    @pytest.mark.parametrize("vals", SPECTRA)
    def test_product_matches_dense(self, vals):
        rng = np.random.default_rng(45)
        vecs, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        apply, _ = _newton_operator(vals, vecs)
        reference = dense_newton_matrix(vals, vecs)
        for _ in range(3):
            h = rng.standard_normal(8)
            expected = reference @ h
            got = apply(h)
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("vals", SPECTRA)
    def test_preconditioner_is_the_diagonal(self, vals):
        rng = np.random.default_rng(46)
        vecs, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        _, diagonal = _newton_operator(vals, vecs)
        expected = np.diag(dense_newton_matrix(vals, vecs))
        assert np.abs(diagonal - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())

    @pytest.mark.parametrize("shift", [-0.5, 0.0, 0.5])
    def test_gradient_of_the_dual(self, shift):
        # F(d) = diag(P_psd(Ghat + Diag d)) - e is the gradient of theta
        rng = np.random.default_rng(47)
        problem = NcmProblem(random_symmetric(rng, 7))
        d = shift + rng.uniform(-0.5, 0.5, 7)
        grad = _gradient(_state_of(problem, d))
        step = 1e-6
        central = np.array([
            (_dual_objective(_state_of(problem, d + step * e))
             - _dual_objective(_state_of(problem, d - step * e))) / (2.0 * step)
            for e in np.eye(7)
        ])
        assert np.abs(grad - central).max() <= 1e-7


class TestNewtonCg:
    def test_rank_deficient_solution(self):
        problem = NcmProblem(RANK_DEFICIENT_NCM_INPUT)
        report = solve_ncm(problem, tol=1e-8)
        assert report.termination is Termination.RESIDUAL_TOL
        assert report.iterations <= 6
        baseline = solve_ncm_baseline(problem, tol=1e-8)
        assert baseline.termination is Termination.RESIDUAL_TOL
        diff = np.abs(report.projected_solution - baseline.projected_solution).max()
        assert diff <= 1e-6

    def test_agrees_with_baseline_at_tight_tolerance(self):
        cfg = ExperimentConfig("E57", n=20, seed=6, replicates=3)
        for rep in range(3):
            problem = generate(cfg, rep)
            report = solve_ncm(problem, tol=1e-8)
            baseline = solve_ncm_baseline(problem, tol=1e-8)
            assert report.termination is Termination.RESIDUAL_TOL
            assert baseline.termination is Termination.RESIDUAL_TOL
            diff = np.abs(report.projected_solution - baseline.projected_solution).max()
            assert diff <= 1e-6, rep

    def test_one_eigendecomposition_per_iterate(self, monkeypatch):
        # every full step is accepted here, so each iterate costs one eigh:
        # the accepted trial's factorization is reused by the next step
        calls = []
        original = np.linalg.eigh

        def counting_eigh(a):
            calls.append(a.shape)
            return original(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        problem = generate(ExperimentConfig("E56", n=40, seed=8, replicates=1), 0)
        report = solve_ncm(problem, tol=1e-8)
        assert report.termination is Termination.RESIDUAL_TOL
        assert len(calls) == report.iterations + 1

    def test_starts_from_unit_diagonal(self):
        g = np.array([[4.0, 0.5], [0.5, -3.0]])
        report = solve_ncm(NcmProblem(g), tol=1e-12)
        # X = Ghat + I is already a correlation matrix
        assert report.iterations == 0
        lam = np.diag(g) - np.diag(report.solution)
        np.testing.assert_allclose(lam, [3.0, -4.0], atol=1e-15)

    def test_no_decrease_below_rounding_raises(self):
        problem = generate(ExperimentConfig("E57", n=30, seed=9, replicates=1), 0)
        with pytest.raises(NumericalFailureError, match="no step decreases"):
            solve_ncm(problem, tol=0.0)


class TestResidual:
    def test_identity(self):
        assert ncm_residual(initial_state(NcmProblem(np.eye(3)))) == 0.0

    def test_off_diagonal_root(self):
        g = np.array([[0.0, 2.0], [2.0, 0.0]])
        state = initial_state(NcmProblem(g))
        # diag(G)=0 so X = G itself; its projection is the all-ones matrix
        assert state.residual <= 1e-12

    def test_scaled_identity(self):
        state = initial_state(NcmProblem(np.diag([4.0, 4.0])))
        assert state.residual == pytest.approx(3.0 * np.sqrt(2.0))


class TestSolve:
    @pytest.mark.parametrize(
        "solver", [solve_ncm, solve_ncm_diagonal, solve_ncm_baseline],
        ids=["newton", "diagonal", "baseline"],
    )
    @pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
    def test_invalid_tol_raises(self, solver, tol):
        with pytest.raises(ValueError, match="tol"):
            solver(NcmProblem(np.array([[1.0]])), tol=tol)

    def test_identity_converges_immediately(self):
        report = solve_ncm(NcmProblem(np.eye(5)))
        assert report.iterations == 0
        np.testing.assert_array_equal(report.projected_solution, np.eye(5))

    def test_two_by_two(self):
        g = np.array([[1.0, 2.0], [2.0, 1.0]])
        report = solve_ncm(NcmProblem(g), tol=1e-8)
        np.testing.assert_allclose(report.projected_solution, np.ones((2, 2)), atol=1e-8)
        lam = np.diag(g) - np.diag(report.solution)
        np.testing.assert_allclose(lam, [1.0, 1.0], atol=1e-8)
        assert report.iterations <= 2

    def test_seeded_regression_anchor(self):
        problem = generate(
            ExperimentConfig("E55", n=50, alpha=0.01, seed=0, replicates=1), 0
        )
        report = solve_ncm(problem, tol=1e-5)
        assert report.termination is Termination.RESIDUAL_TOL
        assert report.iterations <= 25
        assert np.abs(np.diag(report.projected_solution) - 1.0).max() <= 1e-5
        assert np.linalg.eigvalsh(report.projected_solution)[0] >= -1e-8

    @pytest.mark.parametrize("g", STALLING_NCM_INPUTS)
    def test_zero_progress_restarts(self, g):
        for solver in (solve_ncm, solve_ncm_diagonal):
            report = solver(NcmProblem(g))
            assert report.termination is Termination.RESIDUAL_TOL, solver.__name__
            assert report.iterations <= 2, solver.__name__
            np.testing.assert_allclose(
                report.projected_solution, np.eye(g.shape[0]), atol=1e-12
            )

    @settings(max_examples=60)
    @given(SMALL_SYMMETRIC)
    def test_output_is_a_correlation_matrix(self, g):
        tol = 1e-8
        report = solve_ncm(NcmProblem(g), tol=tol)
        assert report.termination is Termination.RESIDUAL_TOL
        assert_correlation_output(report, tol)

    @settings(max_examples=60)
    @given(SMALL_SYMMETRIC)
    def test_diagonal_output_is_a_correlation_matrix(self, g):
        # The diagonal recursion can converge only linearly on inputs whose
        # nearest correlation matrix is rank deficient and end MAX_ITER;
        # its output is still the PSD part of the last iterate, but its
        # diagonal is not yet unit.
        tol = 1e-8
        report = solve_ncm_diagonal(NcmProblem(g), tol=tol)
        assert report.termination in (Termination.RESIDUAL_TOL, Termination.MAX_ITER)
        assert_correlation_output(report, tol)

    def test_off_diagonal_pinned_and_multiplier_identity(self):
        rng = np.random.default_rng(40)
        g = random_symmetric(rng, 8, scale=2.0)
        problem = NcmProblem(g)
        state = initial_state(problem)
        off_mask = ~np.eye(8, dtype=bool)
        for _ in range(5):
            state = ncm_step(state)
            np.testing.assert_array_equal(state.X[off_mask], problem.G[off_mask])
            # so lambda = diag(G) - D_diag is diag(G) - diag(X) exactly
            np.testing.assert_array_equal(np.diag(state.X), state.D_diag)

    def test_report_invariants(self):
        rng = np.random.default_rng(41)
        g = random_symmetric(rng, 10)
        np.fill_diagonal(g, 1.0)
        report = solve_ncm(NcmProblem(g), tol=1e-7)
        assert report.termination is Termination.RESIDUAL_TOL
        assert np.linalg.eigvalsh(report.projected_solution)[0] >= -1e-8
        assert np.abs(np.diag(report.projected_solution) - 1.0).max() <= 1e-6
        # the raw root and multiplier solve the optimality system
        lam = np.diag(NcmProblem(g).G) - np.diag(report.solution)
        np.testing.assert_allclose(
            report.solution + np.diag(lam), NcmProblem(g).G, atol=1e-12
        )

    def test_kkt_residual_of_solution(self):
        rng = np.random.default_rng(42)
        g = random_symmetric(rng, 6)
        np.fill_diagonal(g, 1.0)
        problem = NcmProblem(g)
        report = solve_ncm(problem, tol=1e-8)
        qcp_problem = ncm_as_qcp(problem.G)
        lam = np.diag(problem.G) - np.diag(report.solution)
        point = KktPoint(
            x=svec(report.projected_solution),
            lam=lam,
            mu=svec(report.projected_solution - problem.G + np.diag(lam)),
        )
        assert kkt_residual(qcp_problem, point) <= 10 * 1e-8 + 1e-10


NCM_SOLVERS = [
    pytest.param(solve_ncm, id="newton-cg"),
    pytest.param(solve_ncm_diagonal, id="diagonal"),
    pytest.param(solve_ncm_baseline, id="baseline"),
]


def report_contract_inputs():
    inputs = [RANK_DEFICIENT_NCM_INPUT] + [p.values[0] for p in STALLING_NCM_INPUTS]
    for experiment in ("E56", "E57"):
        cfg = ExperimentConfig(experiment, n=20, seed=12, replicates=2)
        inputs += [generate(cfg, rep).G for rep in range(2)]
    return inputs


class TestReportContract:
    @pytest.mark.parametrize("solver", NCM_SOLVERS)
    def test_projected_solution_is_the_psd_part_of_the_solution(self, solver):
        for g in report_contract_inputs():
            report = solver(NcmProblem(g), tol=1e-8)
            np.testing.assert_array_equal(
                report.projected_solution, _psd_part(*np.linalg.eigh(report.solution))
            )

    @pytest.mark.parametrize("solver", NCM_SOLVERS[:2])
    def test_newton_solution_keeps_the_off_diagonal_of_g(self, solver):
        for g in report_contract_inputs():
            problem = NcmProblem(g)
            report = solver(problem, tol=1e-8)
            off = ~np.eye(problem.n, dtype=bool)
            np.testing.assert_array_equal(report.solution[off], problem.G[off])


class TestProblem:
    def test_frozen(self):
        problem = NcmProblem(np.eye(2))
        with pytest.raises(AttributeError):
            problem.G = np.zeros((2, 2))

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
    def test_entries_near_the_largest_double_stay_finite(self):
        g = np.array([[1.0, 1e308], [1e308, 1.0]])
        problem = NcmProblem(g)
        np.testing.assert_array_equal(problem.G, g)
        for solver in (solve_ncm, solve_ncm_diagonal, solve_ncm_baseline):
            try:
                report = solver(problem)
            except NumericalFailureError:
                continue
            assert isinstance(report.termination, Termination)

    def test_non_finite_symmetric_part_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            NcmProblem(np.array([[1.0, np.inf], [0.0, 1.0]]))


class TestBaseline:
    def test_identity(self):
        report = solve_ncm_baseline(NcmProblem(np.eye(4)))
        assert report.iterations == 0
        np.testing.assert_array_equal(report.projected_solution, np.eye(4))

    def test_two_by_two(self):
        report = solve_ncm_baseline(
            NcmProblem(np.array([[1.0, 2.0], [2.0, 1.0]])), tol=1e-8
        )
        np.testing.assert_allclose(report.projected_solution, np.ones((2, 2)), atol=1e-6)

    def test_agreement_with_newton(self):
        cfg = ExperimentConfig("E56", n=30, seed=5, replicates=20)
        for rep in range(20):
            problem = generate(cfg, rep)
            newton_report = solve_ncm(problem, tol=1e-7)
            baseline_report = solve_ncm_baseline(problem, tol=1e-7)
            assert newton_report.termination is Termination.RESIDUAL_TOL
            assert baseline_report.termination is Termination.RESIDUAL_TOL
            diff = np.linalg.norm(
                newton_report.projected_solution - baseline_report.projected_solution
            )
            assert diff <= 1e-3


class TestPositiveDiagonal:
    def test_identity(self):
        assert np.all(np.diag(np.eye(3)) > 0)
        np.testing.assert_allclose(
            np.diag(step_matrix_reference(np.eye(3))), np.ones(3)
        )

    def test_indefinite_with_positive_diagonal(self):
        x = np.array([[1.0, 3.0], [3.0, 1.0]])
        assert np.all(np.diag(x) > 0)
        np.testing.assert_allclose(
            step_matrix_reference(x), 0.5 * np.ones((2, 2)), atol=1e-12
        )

    def test_negative_diagonal_rejected(self):
        assert not np.all(np.diag(np.diag([-1.0, 1.0])) > 0)

    def test_positive_diag_implies_positive_step_diag(self):
        rng = np.random.default_rng(43)
        found = 0
        while found < 50:
            x = random_symmetric(rng, 6, scale=2.0)
            if not np.all(np.diag(x) > 0):
                continue
            found += 1
            assert np.all(np.diag(step_matrix_reference(x)) > 1e-12)


class TestGenericPathEquivalence:
    @pytest.mark.parametrize("n,seed", [(5, 1), (10, 2), (20, 3)])
    def test_matches_quadratic_program_solution(self, n, seed):
        problem = generate(ExperimentConfig("E56", n=n, seed=seed, replicates=1), 0)
        newton_report = solve_ncm(problem, tol=1e-9, max_iter=300)
        kkt, report = solve_qcp(
            ncm_as_qcp(problem.G), NewtonConfig(tol=1e-9, max_iter=300)
        )
        assert report.termination in (
            Termination.RESIDUAL_TOL,
            Termination.PATTERN_REPEAT,
        )
        diff = np.linalg.norm(smat(kkt.x) - newton_report.projected_solution)
        assert diff <= 1e-6
