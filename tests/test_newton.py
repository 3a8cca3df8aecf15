"""The semi-smooth Newton iteration: residuals, stopping rules, convergence."""

import collections
import json
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conic_newton import (
    DenseOperator,
    EquationForm,
    FreeSpace,
    LinearOperator,
    NewtonConfig,
    NumericalFailureError,
    Orthant,
    ProjectionEquationProblem,
    Product,
    PsdCone,
    QcpProblem,
    ScaledIdentity,
    SecondOrder,
    Termination,
    analyze,
    Guarantee,
    residual,
    solve,
    solve_qcp,
)
import conic_newton.newton as newton_module
from conic_newton.cli import main
from conic_newton.matrixio import write_matrix, write_vector
from conic_newton.cones import Block, Diagonal, _norm
from conic_newton.newton import (
    _PROBE_COLUMNS,
    _active_set_step,
    _block_step,
    _min_norm_active_part,
    _newton_matrix,
    _probe_gate,
    _scale_exponent,
)
from conic_newton.analysis import _replayed_iterates, measure_ratios
from conftest import CONE_CASES, point_linear, random_point


def orthant_problem():
    return ProjectionEquationProblem(
        Orthant(2), ScaledIdentity(2.0, 2), np.array([3.0, -2.0])
    )


class TestResidual:
    def test_at_root(self):
        assert residual(orthant_problem(), np.array([1.0, -1.0])) == 0.0

    def test_at_origin(self):
        assert residual(orthant_problem(), np.zeros(2)) == pytest.approx(np.sqrt(13.0))

    def test_constructed_root_is_zero(self):
        rng = np.random.default_rng(11)
        for cone in (Orthant(4), SecondOrder(4)):
            x_hat = random_point(cone, rng)
            b = cone.project(x_hat) + 3.0 * x_hat
            problem = ProjectionEquationProblem(cone, ScaledIdentity(3.0, 4), b)
            assert residual(problem, x_hat) <= 1e-12 * (1 + np.linalg.norm(b))


class TestSolve:
    @pytest.mark.parametrize(
        "kwargs",
        [{"tol": -1.0}, {"tol": 0.0}, {"tol": np.nan}, {"tol": np.inf},
         {"max_iter": 0}],
        ids=["tol-negative", "tol-zero", "tol-nan", "tol-inf", "max-iter-zero"],
    )
    def test_config_rejects_invalid_values(self, kwargs):
        with pytest.raises(ValueError):
            NewtonConfig(**kwargs)

    def test_two_step_orthant_example(self):
        report = solve(orthant_problem(), NewtonConfig())
        np.testing.assert_allclose(report.solution, [1.0, -1.0])
        np.testing.assert_allclose(report.projected_solution, [1.0, 0.0])
        assert report.iterations == 2
        assert report.residuals[-1] == 0.0

    def test_pattern_repeat_on_nonnegative_rhs(self):
        rng = np.random.default_rng(12)
        b = rng.uniform(0.5, 2.0, 6)
        problem = ProjectionEquationProblem(Orthant(6), ScaledIdentity(2.0, 6), b)
        report = solve(problem, NewtonConfig(x0=b))
        assert report.termination is Termination.PATTERN_REPEAT
        np.testing.assert_allclose(report.solution, b / 3.0)

    def test_constructed_root_recovered(self):
        rng = np.random.default_rng(13)
        cone = SecondOrder(3)
        x_hat = random_point(cone, rng)
        b = cone.project(x_hat) + 3.0 * x_hat
        problem = ProjectionEquationProblem(cone, ScaledIdentity(3.0, 3), b)
        report = solve(problem, NewtonConfig(tol=1e-12))
        assert np.linalg.norm(report.solution - x_hat) <= 1e-8

    def test_starting_at_root_takes_no_steps(self):
        problem = orthant_problem()
        report = solve(problem, NewtonConfig(x0=np.array([1.0, -1.0])))
        assert report.iterations == 0
        assert report.termination is Termination.RESIDUAL_TOL

    def test_max_iter_reported(self):
        report = solve(orthant_problem(), NewtonConfig(max_iter=1))
        assert report.termination is Termination.MAX_ITER
        assert report.iterations == 1

    def test_divergence_raises(self):
        # near-singular 1x1 system: the first step explodes past the bound
        problem = ProjectionEquationProblem(
            Orthant(1), DenseOperator([[-1.0 + 1e-13]]), np.array([1.0])
        )
        with pytest.raises(NumericalFailureError) as exc_info:
            solve(problem, NewtonConfig(x0=np.array([2.0])))
        assert exc_info.value.iteration == 1

    def test_singular_system_termination(self):
        # max(x, 0) = -1 has no solution and a singular Newton matrix
        problem = ProjectionEquationProblem(
            Orthant(1), DenseOperator([[0.0]]), np.array([-1.0])
        )
        report = solve(problem, NewtonConfig())
        assert report.termination is Termination.SINGULAR_SYSTEM

    def test_pattern_stop_soundness(self):
        rng = np.random.default_rng(14)
        for cone in (Orthant(5), SecondOrder(5)):
            for _ in range(20):
                b = random_point(cone, rng)
                problem = ProjectionEquationProblem(cone, ScaledIdentity(3.0, 5), b)
                report = solve(problem, NewtonConfig())
                if report.termination is Termination.PATTERN_REPEAT:
                    bound = max(1e-5, 1e-9 * (1 + np.linalg.norm(b)))
                    assert report.residuals[-1] <= bound

    def test_repeated_boundary_pattern_is_no_stop(self):
        # a second-order boundary element varies within one pattern, so a
        # repeat of it proves nothing: this run repeated one at iteration 4,
        # residual 4.3e-5 > tol, and used to end PATTERN_REPEAT there
        T = np.array([[2.64, 1.28, -0.2], [1.28, 3.13, -0.26], [-0.2, -0.26, 1.4]])
        b = np.array([-36491.0, -15236.0, 24238.0])
        problem = ProjectionEquationProblem(SecondOrder(3), DenseOperator(T), b)
        report = solve(problem, NewtonConfig())
        assert report.termination is Termination.RESIDUAL_TOL
        assert report.iterations == 5
        assert report.residuals[-2] > 1e-5
        assert report.residuals[-1] <= 1e-11

    def test_fixed_point_consistency(self):
        rng = np.random.default_rng(15)
        for cone in (Orthant(4), SecondOrder(4)):
            b = random_point(cone, rng)
            problem = ProjectionEquationProblem(cone, ScaledIdentity(2.0, 4), b)
            report = solve(problem, NewtonConfig(tol=1e-9))
            x = report.solution
            lhs = report.projected_solution + 2.0 * x
            np.testing.assert_allclose(lhs, b, atol=1e-8 * (1 + np.linalg.norm(b)))

    @pytest.mark.parametrize("cone", CONE_CASES)
    def test_limit_point_property(self, cone):
        rng = np.random.default_rng(16)
        d = cone.ambient_dim
        b = random_point(cone, rng)
        problem = ProjectionEquationProblem(cone, ScaledIdentity(2.0, d), b)
        config = NewtonConfig(tol=1e-14, max_iter=300)
        report = solve(problem, config)
        iterates = _replayed_iterates(problem, config, report)
        steps = [np.linalg.norm(b_ - a_) for a_, b_ in zip(iterates, iterates[1:])]
        if steps and steps[-1] < 1e-12:
            assert report.residuals[-1] <= 1e-8 * (1 + np.linalg.norm(b))

    def test_failed_factorization_raises_numerical_failure(self):
        class NanOperator(LinearOperator):
            dim = 2

            def apply(self, x):
                return np.full(2, np.nan)

            def materialize(self):
                return np.full((2, 2), np.nan)

        problem = ProjectionEquationProblem(Orthant(2), NanOperator(), np.ones(2))
        with pytest.raises(NumericalFailureError) as exc_info:
            solve(problem, NewtonConfig())
        assert exc_info.value.iteration == 1
        assert isinstance(exc_info.value.__cause__, np.linalg.LinAlgError)

    def test_failure_in_a_later_step_carries_its_iteration(self, monkeypatch):
        # the second linear solve fails; the driver tags the failure
        calls = []

        def failing_second_step(matrix, *args):
            calls.append(matrix)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("Singular matrix")
            return _block_step(matrix, *args)

        monkeypatch.setattr(newton_module, "_block_step", failing_second_step)
        with pytest.raises(NumericalFailureError) as exc_info:
            solve(orthant_problem(), NewtonConfig())
        assert exc_info.value.iteration == 2
        assert isinstance(exc_info.value.__cause__, np.linalg.LinAlgError)

    def test_replay_rebuilds_every_iterate(self):
        problem, config = orthant_problem(), NewtonConfig()
        report = solve(problem, config)
        iterates = _replayed_iterates(problem, config, report)
        assert len(iterates) == report.iterations + 1
        assert iterates[-1].tobytes() == report.solution.tobytes()
        # a report of another run does not replay
        other = replace(report, solution=report.solution + 1.0)
        with pytest.raises(ValueError, match="replayed"):
            _replayed_iterates(problem, config, other)


def test_converged_terminations():
    # the one definition the CLI exit code, solve_qcp and bench share
    assert {t for t in Termination if t.converged} == {
        Termination.RESIDUAL_TOL, Termination.PATTERN_REPEAT
    }


class TestNewtonMatrix:
    def test_diagonal_element_matches_gemm_bit_for_bit(self):
        cone = Product((Orthant(5), FreeSpace(3), Orthant(4)))
        rng = np.random.default_rng(12)
        t_dense = rng.standard_normal((12, 12))
        t_dense[0, :] = -1.0  # negative entries make signed zeros in the gemm
        x = rng.standard_normal(12)
        x[[0, 2, 8, 9]] = 0.0  # orthant kinks
        x[[1, 10]] = -0.0
        element = cone.jacobian_element(x)
        assert isinstance(element, Diagonal)
        matrix = _newton_matrix(t_dense, element, EquationForm.PROJECTION_LINEAR)
        reference = t_dense @ element.materialize() + np.eye(12)
        assert matrix.tobytes() == reference.tobytes()

    def test_non_diagonal_part_keeps_dense_element(self):
        cone = Product((Orthant(2), SecondOrder(3)))
        element = cone.jacobian_element(np.array([1.0, -1.0, 0.5, 2.0, 0.0]))
        assert isinstance(element, Block)

    @pytest.mark.parametrize(
        "cone, x",
        [(SecondOrder(4), np.array([0.0, 3.0, -0.0, 4.0])),
         (PsdCone(3), np.array([2.0, 0.0, -0.0, 0.0, 0.0, -1.0])),
         (Product((Orthant(2), SecondOrder(3), PsdCone(2))),
          np.array([0.0, -0.0, -1.0, 0.0, 1.0, 1.0, -0.0, 0.0])),
         (Product((Orthant(3), FreeSpace(2))), np.array([0.0, -0.0, 1.0, 0.0, -0.0]))],
        ids=["soc", "psd", "block", "diagonal"],
    )
    def test_projection_linear_matches_dense_formula_bit_for_bit(self, cone, x):
        # I added in place equals T @ V + I, zeros' signs included
        d = cone.ambient_dim
        t_dense = np.random.default_rng(14).standard_normal((d, d))
        t_dense[0, :] = -0.0
        t_dense[:, 1] = -0.0
        element = cone.jacobian_element(x)
        matrix = _newton_matrix(t_dense, element, EquationForm.PROJECTION_LINEAR)
        assert matrix.tobytes() == (t_dense @ element.materialize() + np.eye(d)).tobytes()


class TestWorkspace:
    @pytest.mark.parametrize("cone", [Orthant(300), SecondOrder(300)],
                             ids=["orthant", "soc"])
    def test_solve_allocates_one_newton_matrix(self, cone):
        # T is not copied and every step assembles into one d x d array;
        # without the workspace the peak is about 3 d^2 doubles
        d = cone.ambient_dim
        rng = np.random.default_rng(40)
        a = rng.standard_normal((d, d))
        problem = ProjectionEquationProblem(
            cone, DenseOperator(a @ a.T / d + np.eye(d)), 3.0 * rng.standard_normal(d)
        )
        tracemalloc.start()
        try:
            report = solve(problem, NewtonConfig(tol=1e-8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.iterations >= 3
        assert peak < 1.6 * d * d * 8

    @pytest.mark.parametrize(
        "cone, form",
        [(SecondOrder(4), EquationForm.PROJECTION_LINEAR),
         (PsdCone(2), EquationForm.PROJECTION_LINEAR),
         (PsdCone(2), EquationForm.POINT_LINEAR)],
        ids=["soc-projection", "psd-projection", "psd-point"],
    )
    def test_newton_matrix_into_a_dirty_out(self, cone, form):
        rng = np.random.default_rng(41)
        d = cone.ambient_dim
        t_dense = rng.standard_normal((d, d))
        t_dense[0, :] = -0.0
        element = cone.jacobian_element(rng.standard_normal(d))
        dirty = np.full((d, d), np.nan)
        out = _newton_matrix(t_dense, element, form, dirty)
        assert out is dirty
        assert out.tobytes() == _newton_matrix(t_dense, element, form).tobytes()


def active_set_cases():
    """(label, diagonal element) pairs: every mask shape the reduced step sees."""
    rng = np.random.default_rng(20)
    x_mixed = rng.standard_normal(10)
    x_kinks = rng.standard_normal(10)
    x_kinks[[0, 3, 7]] = 0.0
    x_kinks[[1, 4]] = -0.0
    return [
        ("empty", Orthant(10).jacobian_element(-np.abs(x_mixed))),
        ("full", Orthant(10).jacobian_element(np.abs(x_mixed) + 0.1)),
        ("mixed", Orthant(10).jacobian_element(x_mixed)),
        ("product-kinks",
         Product((Orthant(7), FreeSpace(3))).jacobian_element(x_kinks)),
    ]


def step_rhs(b):
    probes = np.random.default_rng(21).standard_normal((b.size, _PROBE_COLUMNS))
    return np.column_stack([b, probes])


def ix_active_set_step(t_dense, element, rhs):
    """The active-set step with boolean ``np.ix_`` gathers and an indexed
    diagonal: the formulas the integer-gather step must equal bit for bit.
    The gate and the SVD read R alone."""
    active = element.diagonal != 0.0
    weights = element.diagonal[active]
    r = t_dense[np.ix_(active, active)]
    c = t_dense[np.ix_(~active, active)]
    if not np.all(weights == 1.0):
        r *= weights
        c *= weights
    r[np.diag_indices_from(r)] += 1.0
    x = rhs.copy()
    try:
        x[active] = np.linalg.solve(r, rhs[active])
        lu = True
    except np.linalg.LinAlgError:
        lu = False
    if not (lu and _probe_gate(r, x[active], rhs[active])):
        svd = np.linalg.svd(r)
        if not lu or svd[1][-1] <= 0.0 or svd[1][0] > 1e14 * svd[1][-1]:
            x = rhs[:, 0].copy()
            x[active] = _min_norm_active_part(svd, c, x[active], x[~active])
            x[~active] -= c @ x[active]
            return x, True
    x[~active] -= c @ x[active]
    return x[:, 0], False


def ix_gather_cases():
    """``active_set_cases`` plus the first step of a program with 20
    equality rows, large enough that LAPACK's rounding depends on the
    layout of R and C."""
    start = Product((Orthant(40), FreeSpace(20))).jacobian_element(np.zeros(60))
    return active_set_cases() + [("constrained-start", start)]


class TestActiveSetStep:
    @pytest.mark.parametrize(
        "element", [c[1] for c in ix_gather_cases()],
        ids=[c[0] for c in ix_gather_cases()],
    )
    @pytest.mark.parametrize("singular", [False, True], ids=["regular", "singular"])
    def test_equals_ix_gathers_bit_for_bit(self, element, singular):
        rng = np.random.default_rng(24)
        d = element.diagonal.size
        weighted = Diagonal(element.pattern_key, element.diagonal * rng.uniform(0.5, 1.0, d))
        t_dense = rng.standard_normal((d, d)) / np.sqrt(d)
        if singular:
            # R = 0 on the active block, as at the start of a constrained program
            active = np.flatnonzero(element.diagonal)
            t_dense[np.ix_(active, active)] = 0.0
            t_dense[active, active] = -1.0
        rhs = step_rhs(rng.standard_normal(d))
        for el in (element, weighted):
            x, used_lstsq = _active_set_step(t_dense, el, rhs)
            x_ref, used_ref = ix_active_set_step(t_dense, el, rhs)
            assert x.tobytes() == x_ref.tobytes()
            assert used_lstsq == used_ref

    @pytest.mark.parametrize(
        "element", [c[1] for c in active_set_cases()],
        ids=[c[0] for c in active_set_cases()],
    )
    def test_matches_full_solve(self, element):
        rng = np.random.default_rng(22)
        d = element.diagonal.size
        t_dense = rng.standard_normal((d, d)) / np.sqrt(d)
        b = rng.standard_normal(d)
        rhs = step_rhs(b)
        x, used_lstsq = _active_set_step(t_dense, element, rhs)
        reference = np.linalg.solve(t_dense * element.diagonal + np.eye(d), b)
        assert not used_lstsq
        assert np.linalg.norm(x - reference) <= 1e-12 * np.linalg.norm(reference)

    @pytest.mark.parametrize(
        "zero_block", [False, True], ids=["zero-row", "zero-block"]
    )
    def test_singular_block_matches_full_lstsq(self, zero_block):
        # R = I + T_AA D_A with an exactly zero row, or R = 0 as at the
        # start of an equality-constrained program
        rng = np.random.default_rng(23)
        element = active_set_cases()[2][1]
        d = element.diagonal.size
        active = np.flatnonzero(element.diagonal)
        t_dense = rng.standard_normal((d, d)) / np.sqrt(d)
        rows = active if zero_block else active[:1]
        t_dense[np.ix_(rows, active)] = 0.0
        t_dense[rows, rows] = -1.0
        b = rng.standard_normal(d)
        rhs = step_rhs(b)
        x, used_lstsq = _active_set_step(t_dense, element, rhs)
        matrix = t_dense * element.diagonal + np.eye(d)
        reference = np.linalg.lstsq(matrix, b, rcond=None)[0]
        assert used_lstsq
        assert np.linalg.norm(x - reference) <= 1e-12 * np.linalg.norm(reference)

    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8),
        st.floats(0.0, 8.0), st.floats(0.0, 12.0),
    )
    def test_block_substitution_is_backward_stable(
        self, seed, k, m, log_condition, log_ratio
    ):
        # R = I + T_AA D_A of condition number up to 1e8 and |C|_F / |R|_F
        # log-uniform in [1, 1e12]: the full matrix's condition number grows
        # with |C|, yet the step reads R alone, takes no SVD, and solves the
        # full system with a normwise backward error at rounding level
        rng = np.random.default_rng(seed)
        d = k + m
        u = np.linalg.qr(rng.standard_normal((k, k)))[0]
        v = np.linalg.qr(rng.standard_normal((k, k)))[0]
        r = (u * np.logspace(0.0, -log_condition, k)) @ v.T
        weights = rng.uniform(0.5, 1.0, k)
        c = rng.standard_normal((m, k))
        c *= 10.0**log_ratio * _norm(r) / _norm(c)
        t = rng.standard_normal((d, d))
        t[:k, :k] = (r - np.eye(k)) / weights
        t[k:, :k] = c / weights
        order = rng.permutation(d)
        t = t[np.ix_(order, order)]
        diagonal = np.concatenate([weights, np.zeros(m)])[order]
        element = Diagonal("mixed", diagonal)
        b = rng.standard_normal(d)
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            x, used_lstsq = _active_set_step(t, element, step_rhs(b))
        assert svd.call_count == 0
        assert not used_lstsq
        matrix = t * diagonal + np.eye(d)
        eps = np.finfo(float).eps
        assert _norm(matrix @ x - b) <= 10 * d * eps * (
            _norm(matrix) * _norm(x) + _norm(b)
        )

    def test_gathers_make_no_d_by_active_array(self):
        # R (|A| x |A|) and C (|I| x |A|) together hold d x |A| doubles; no
        # d x |A| array of the columns of T is gathered before them
        d, k = 400, 200
        rng = np.random.default_rng(25)
        x = rng.standard_normal(d)
        x[:k] = np.abs(x[:k]) + 0.1
        x[k:] = -np.abs(x[k:]) - 0.1
        element = Orthant(d).jacobian_element(x)
        a = rng.standard_normal((d, d))
        t_dense = a @ a.T / d + np.eye(d)
        rhs = step_rhs(rng.standard_normal(d))
        tracemalloc.start()
        try:
            _, used_lstsq = _active_set_step(t_dense, element, rhs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not used_lstsq
        assert peak < 1.5 * d * k * 8


class LinalgCalls(dict):
    """Call counts by function name; ``shapes`` holds each call's matrix shape."""

    def __init__(self, names):
        super().__init__({name: 0 for name in names})
        self.shapes = {name: [] for name in names}


@pytest.fixture()
def linalg_calls(monkeypatch):
    counts = LinalgCalls(("svd", "lstsq"))
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            counts.shapes[_name].append(np.shape(args[0]))
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


class TestConditioningGate:
    @pytest.mark.parametrize(
        "cone", [Orthant(40), SecondOrder(40), PsdCone(6)], ids=["orthant", "soc", "psd"]
    )
    def test_well_conditioned_solve_runs_no_svd(self, cone, linalg_calls):
        rng = np.random.default_rng(19)
        d = cone.ambient_dim
        a = rng.standard_normal((d, d))
        T = DenseOperator(a @ a.T / d + np.eye(d))
        b = 3.0 * rng.standard_normal(d)
        report = solve(ProjectionEquationProblem(cone, T, b), NewtonConfig(tol=1e-10))
        assert report.termination in (Termination.RESIDUAL_TOL, Termination.PATTERN_REPEAT)
        assert report.iterations >= 2
        assert linalg_calls == {"svd": 0, "lstsq": 0}

    def test_grey_band_takes_svd_then_lu(self, linalg_calls):
        # condition 1e12: above the probe gate, below the 1e14 lstsq threshold
        t = np.diag([1.0, 1.0, 1e-12, 1e-12])
        root = -np.ones(4)
        problem = ProjectionEquationProblem(Orthant(4), DenseOperator(t), t @ root)
        report = solve(problem, NewtonConfig())
        assert linalg_calls == {"svd": 1, "lstsq": 0}
        np.testing.assert_array_equal(report.solution, root)

    def test_above_threshold_takes_lstsq(self, linalg_calls):
        t = np.diag([1.0, 1.0, 1e-16, 1e-16])
        problem = ProjectionEquationProblem(Orthant(4), DenseOperator(t), -np.diag(t))
        report = solve(problem, NewtonConfig())
        assert linalg_calls == {"svd": 1, "lstsq": 0}
        np.testing.assert_allclose(report.solution, [-1.0, -1.0, 0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize(
        "block, svd_shapes",
        [("ill-conditioned-r", [(4, 4)]), ("large-c", [])],
        ids=["ill-conditioned-r", "large-c"],
    )
    def test_projection_linear_grey_band_reads_r(
        self, block, svd_shapes, linalg_calls
    ):
        # the full 6 x 6 matrix has condition about 1e12, from R = I + T_AA
        # or from C = T_IA with R = I; only the first is R's own, and only it
        # takes an SVD, of the 4 x 4 active block.  With R = I the
        # substitution x_I = b_I - C x_A is backward stable however large C is
        rng = np.random.default_rng(24)
        t = 0.1 * rng.standard_normal((6, 6))
        if block == "ill-conditioned-r":
            t[:4, :4] = np.diag([1.0, 1.0, -1.0 + 1e-12, -1.0 + 1e-12])
        else:
            t[:4, :4] = 0.0
            t[4:, :4] *= 1e7
        root = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0])
        b = t @ np.maximum(root, 0.0) + root
        problem = ProjectionEquationProblem(
            Orthant(6), DenseOperator(t), b, form=EquationForm.PROJECTION_LINEAR
        )
        report = solve(problem, NewtonConfig(x0=2.0 * root))
        assert linalg_calls.shapes == {"svd": svd_shapes, "lstsq": []}
        np.testing.assert_allclose(report.solution, root, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("scale", [1.0, 2.0**1000, 2.0**-900],
                             ids=["1", "2^1000", "2^-900"])
    def test_gate_reads_the_probes_at_any_scale(self, scale):
        # condition number 1.5e20 at every scale: the solved probes are
        # near 1e-285 at 2^1000, whose squares underflow, and near 1e287 at
        # 2^-900, whose squares overflow; a gate that read their norms as 0
        # would take the LU answer
        m = scale * np.array([[1.0, 0.0, 0.5], [0.0, 1e-20, 0.0], [0.5, 0.0, 1.0]])
        rhs = np.column_stack([[1.0, 2.0, 3.0], newton_module._probes(3)])
        assert _block_step(m, rhs, np.empty((0, 3)), rhs[:0])[2]

    @pytest.mark.parametrize("scale", [1.0, 2.0**1000], ids=["1", "2^1000"])
    def test_active_set_gate_reads_the_probes_at_any_scale(self, scale):
        # T D + I with D = I is scale [[1, 1], [1, 1 + 2^-52]] exactly, of
        # condition number 1.6e16
        t = scale * np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-52]]) - np.eye(2)
        rhs = np.column_stack([[1.0, 2.0], newton_module._probes(2)])
        element = Diagonal("all-active", np.ones(2))
        assert _active_set_step(t, element, rhs)[1]

    def test_equality_program_makes_no_full_size_least_squares(self, linalg_calls):
        # from x0 = 0 the active block is the m x m zero block of the
        # multipliers: the step takes an m x m SVD and least squares in m
        # unknowns instead of either at the full size d + m
        rng = np.random.default_rng(25)
        d, m = 30, 5
        a = rng.standard_normal((d, d))
        q_mat = a @ a.T / d + 0.5 * np.eye(d)
        eq = rng.standard_normal((m, d))
        problem = QcpProblem(
            Q=DenseOperator(q_mat), q=rng.standard_normal(d), cone=Orthant(d),
            equality=(eq, eq @ np.abs(rng.standard_normal(d))),
        )
        kkt, report = solve_qcp(problem, NewtonConfig(tol=1e-10))
        assert report.termination in (
            Termination.RESIDUAL_TOL, Termination.PATTERN_REPEAT
        )
        assert kkt.verified
        assert linalg_calls["svd"] >= 1
        assert all(max(shape) <= m for shape in linalg_calls.shapes["svd"])
        assert all(shape[1] <= m for shape in linalg_calls.shapes["lstsq"])


class TestMeasureRatios:
    def test_rejects_non_root_reference(self):
        with pytest.raises(ValueError):
            measure_ratios(orthant_problem(), NewtonConfig(), np.array([5.0, 5.0]))

    def test_reference_start_gives_empty_list(self):
        problem = orthant_problem()
        ratios = measure_ratios(
            problem, NewtonConfig(x0=np.array([1.0, -1.0])), np.array([1.0, -1.0])
        )
        assert ratios == []

    @pytest.mark.parametrize("c", [2.0, 3.0])
    def test_ratios_below_contraction_bound(self, c):
        rng = np.random.default_rng(17)
        cone = Orthant(5)
        for _ in range(20):
            x_hat = random_point(cone, rng)
            b = cone.project(x_hat) + c * x_hat
            problem = ProjectionEquationProblem(cone, ScaledIdentity(c, 5), b)
            ratios = measure_ratios(problem, NewtonConfig(tol=1e-9), x_hat)
            assert all(r <= 1.0 / c + 0.05 for r in ratios)

    def test_guarantee_conformance_against_analyzer(self):
        rng = np.random.default_rng(18)
        cone = SecondOrder(4)
        T = ScaledIdentity(2.0, 4)
        report = analyze(point_linear(T))
        assert report.guarantee is Guarantee.Q_LINEAR
        for _ in range(20):
            x_hat = random_point(cone, rng)
            b = cone.project(x_hat) + T.apply(x_hat)
            problem = ProjectionEquationProblem(cone, T, b)
            ratios = measure_ratios(problem, NewtonConfig(tol=1e-10), x_hat)
            assert all(r <= report.predicted_ratio + 0.05 for r in ratios)


SUCCESS = (Termination.RESIDUAL_TOL, Termination.PATTERN_REPEAT)


def overflow_cases(count):
    """Random Orthant/SOC problems, d = 2..7, with T scaled by 10^-300..10^300
    and b by 10^150..10^200, where squaring an entry of b overflows."""
    rng = np.random.default_rng(5)
    for _ in range(count):
        d = int(rng.integers(2, 8))
        cone = Orthant(d) if rng.random() < 0.5 else SecondOrder(d)
        T = rng.standard_normal((d, d)) * 10.0 ** rng.uniform(-300, 300)
        b = rng.standard_normal(d) * 10.0 ** rng.uniform(150, 200)
        form = (
            EquationForm.POINT_LINEAR
            if rng.random() < 0.5
            else EquationForm.PROJECTION_LINEAR
        )
        yield ProjectionEquationProblem(cone, DenseOperator(T), b, form)


def scale_safe_norm(v):
    peak = np.max(np.abs(v))
    return float(peak * np.linalg.norm(v / peak)) if peak > 0.0 else 0.0


def scale_safe_residual(problem, x):
    """The residual norm at x, evaluated at x / 2^k against b / 2^k by
    homogeneity and then rescaled, so it overflows only if the residual does."""
    k = int(np.frexp(max(np.max(np.abs(problem.b)), np.max(np.abs(x))))[1])
    xs, bs = np.ldexp(x, -k), np.ldexp(problem.b, -k)
    if problem.form is EquationForm.POINT_LINEAR:
        value = problem.cone.project(xs) + problem.T.apply(xs) - bs
    else:
        value = problem.T.apply(problem.cone.project(xs)) + xs - bs
    return float(np.ldexp(scale_safe_norm(value), k))


def assert_claim_holds(problem, report, tol):
    """A success claim holds for the returned solution; any report is finite."""
    assert isinstance(report.termination, Termination)
    assert np.all(np.isfinite(report.solution))
    # a residual past the largest double is reported as the largest double
    assert np.all(np.isfinite(report.residuals))
    if report.termination in SUCCESS:
        assert np.isfinite(report.residuals[-1])
        bound = tol
        if report.termination is Termination.PATTERN_REPEAT:
            # the stop that a diagonal element's fixed pattern justifies, at
            # the scale of the run (b / 2^k): far from it the second-order
            # cone's norms under- or overflow and select another element
            scaled = np.ldexp(report.solution, -_scale_exponent(problem.b))
            assert isinstance(problem.cone.jacobian_element(scaled), Diagonal)
            bound = max(tol, 1e-9 * (1.0 + scale_safe_norm(problem.b)))
        assert scale_safe_residual(problem, report.solution) <= 1.01 * bound


@st.composite
def scaled_problems(draw):
    """Products of up to three cones, T random, with a zero column or
    negative semidefinite, scaled by 10^-300..10^300, b by 10^-200..10^200."""
    makers = {
        "orthant": lambda: Orthant(draw(st.integers(1, 3))),
        "soc": lambda: SecondOrder(draw(st.integers(2, 4))),
        "psd": lambda: PsdCone(2),
    }
    kinds = draw(st.lists(st.sampled_from(sorted(makers)), min_size=1, max_size=3))
    parts = tuple(makers[kind]() for kind in kinds)
    cone = parts[0] if len(parts) == 1 else Product(parts)
    d = cone.ambient_dim
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((d, d))
    t_class = draw(st.sampled_from(["random", "zero-column", "negative-semidefinite"]))
    if t_class == "zero-column":
        a[:, draw(st.integers(0, d - 1))] = 0.0
    elif t_class == "negative-semidefinite":
        a = -a @ a.T
    T = a * 10.0 ** draw(st.integers(-300, 300))
    b = rng.standard_normal(d) * 10.0 ** draw(st.integers(-200, 200))
    form = draw(st.sampled_from(list(EquationForm)))
    return ProjectionEquationProblem(cone, DenseOperator(T), b, form)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
class TestScaleSafety:
    def test_overflowing_rhs_claims_no_false_success(self):
        # Before b was rescaled, |b| overflowed to inf here, so every
        # repeated pattern "confirmed": 49 of these 400 reported
        # PATTERN_REPEAT, 48 of them with a last residual of inf, at true
        # residuals of 6.6e153 and more.
        config = NewtonConfig(max_iter=50)
        for problem in overflow_cases(400):
            try:
                report = solve(problem, config)
            except NumericalFailureError:
                continue
            assert_claim_holds(problem, report, config.tol)

    @settings(max_examples=150)
    @given(scaled_problems())
    def test_success_claims_hold_at_any_scale(self, problem):
        config = NewtonConfig(max_iter=50)
        try:
            report = solve(problem, config)
        except NumericalFailureError:
            return
        assert_claim_holds(problem, report, config.tol)

    @pytest.mark.parametrize("power", [600, -600])
    def test_scaled_rhs_gives_the_scaled_run(self, power):
        # b 2^p with tol 2^p runs the same steps as b with tol, scaled
        rng = np.random.default_rng(17)
        cone = Product((Orthant(3), SecondOrder(4)))
        a = rng.standard_normal((7, 7))
        T = DenseOperator(a @ a.T / 7 + np.eye(7))
        b = 3.0 * rng.standard_normal(7)
        base = solve(
            ProjectionEquationProblem(cone, T, b),
            NewtonConfig(tol=1e-10),
        )
        scaled = solve(
            ProjectionEquationProblem(cone, T, np.ldexp(b, power)),
            NewtonConfig(tol=np.ldexp(1e-10, power)),
        )
        assert base.termination is Termination.RESIDUAL_TOL
        assert scaled.iterations == base.iterations
        assert scaled.solution.tobytes() == np.ldexp(base.solution, power).tobytes()
        assert (
            scaled.projected_solution.tobytes()
            == np.ldexp(base.projected_solution, power).tobytes()
        )
        assert scaled.residuals == [np.ldexp(r, power) for r in base.residuals]

    @pytest.mark.parametrize(
        "scale", [1.0, 1e-12, np.ldexp(1.0, -600)], ids=["1", "1e-12", "2^-600"]
    )
    def test_pattern_stop_is_scale_free(self, scale):
        # b s with tol s stops where b with tol stops.  An absolute floor of
        # 1e-9 on the repeated-pattern confirmation once stopped both small
        # scales at iteration 2, at a relative residual of 1.8e-3; 1e-12 is
        # inside the range where b is solved as given.
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 5))
        T = DenseOperator(a @ a.T / 5 + 0.5 * np.eye(5))
        b = 3.0 * rng.standard_normal(5)
        base = solve(
            ProjectionEquationProblem(SecondOrder(5), T, b), NewtonConfig(tol=1e-10)
        )
        scaled = solve(
            ProjectionEquationProblem(SecondOrder(5), T, b * scale),
            NewtonConfig(tol=1e-10 * scale),
        )
        assert base.iterations == 4
        assert scaled.iterations == base.iterations
        assert scaled.termination is base.termination
        if scale == np.ldexp(1.0, -600):
            assert scaled.residuals == [np.ldexp(r, -600) for r in base.residuals]

    def test_newton_matrix_norm_past_the_largest_double(self, linalg_calls):
        # |V + T|_F overflows as a sum of squares at T ~ 1e301; the probe
        # gate read it as inf and took an SVD, with warnings, on both steps
        T = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]]) * 1e301
        b = np.array([3.0, -2.0, 5.0]) * 1e301
        problem = ProjectionEquationProblem(Orthant(3), DenseOperator(T), b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve(problem)
        assert linalg_calls == {"svd": 0, "lstsq": 0}
        assert report.termination is Termination.PATTERN_REPEAT
        assert report.iterations == 2
        assert_claim_holds(problem, report, NewtonConfig().tol)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["b2", "b-2"])
    def test_active_set_path_past_the_largest_double(self, sign):
        # projection-linear, so every step takes the active-set path, whose
        # gate norm sqrt(|I| + vdot(r, r) + vdot(c, c)) and the residual
        # overflowed in dot with a warning.  Only b is rescaled, so T D + I
        # keeps a condition number near |T|; read on the full matrix that
        # sent every step to least squares and the run ended singular at
        # iterations 6 and 5.  R = I + T_AA D_A, the block factored, is well
        # conditioned, and the run reaches the root's pattern.
        T = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]]) * 1e301
        b = np.array([3.0, 2.0 * sign, 5.0]) * 1e301
        problem = ProjectionEquationProblem(
            Orthant(3), DenseOperator(T), b, EquationForm.PROJECTION_LINEAR
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve(problem)
        assert report.termination is Termination.PATTERN_REPEAT
        assert report.iterations == (3 if sign > 0 else 2)
        assert_claim_holds(problem, report, NewtonConfig().tol)

    def test_divergence_check_past_the_largest_double(self):
        # T ~ 1e-300 puts the first iterate near 1e300, whose norm overflowed
        # as a sum of squares: the check warned "overflow encountered in dot"
        # before it raised
        problem = ProjectionEquationProblem(
            Orthant(2), DenseOperator(1e-300 * np.eye(2)), np.array([-1.0, -0.5])
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError, match="divergence bound"):
                solve(problem)

    def test_cli_exit_code_on_overflowing_rhs(self, tmp_path):
        # case 8 of the fuzz: T ~ 1e-35, so the root has norm ~1e190 and the
        # iteration trips the divergence bound; it used to exit 0
        problem = list(overflow_cases(9))[8]
        assert problem.form is EquationForm.POINT_LINEAR
        t_path, b_path = tmp_path / "T.mtx", tmp_path / "b.mtx"
        write_matrix(t_path, problem.T.matrix)
        write_vector(b_path, problem.b)
        code = main([
            "solve-pe", "--cone", f"orthant:{problem.cone.ambient_dim}",
            "--T", str(t_path), "--b", str(b_path),
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 3


def cycle_fuzz_cases(count=3000):
    """Random problems on Orthant(d) (even trials) and SecondOrder(d) (odd
    trials), d = 2..6, forms in alternating pairs (point-linear first), T and
    b standard normal.  441 of the 1,500 orthant runs used to stop only at
    the iteration limit, every one after revisiting a pattern by iteration
    12."""
    rng = np.random.default_rng(7)
    for trial in range(count):
        d = int(rng.integers(2, 7))
        cone = Orthant(d) if trial % 2 == 0 else SecondOrder(d)
        form = (
            EquationForm.POINT_LINEAR
            if trial // 2 % 2 == 0
            else EquationForm.PROJECTION_LINEAR
        )
        t = rng.standard_normal((d, d))
        b = rng.standard_normal(d)
        yield ProjectionEquationProblem(cone, DenseOperator(t), b, form)


def assert_real_cycle(problem, config, report):
    """The last iterate repeats an earlier one: its diagonal pattern, or, when
    its element is not diagonal, the iterate itself bit for bit.  One more
    step from it lands exactly on that earlier iterate's successor."""
    cone = problem.cone
    iterates = _replayed_iterates(problem, config, report)
    if isinstance(cone.jacobian_element(report.solution), Diagonal):
        marks = [cone.jacobian_element(x).pattern_key for x in iterates]
    else:
        marks = [x.tobytes() for x in iterates]
    earlier = marks.index(marks[-1])
    assert earlier < len(marks) - 1
    step = solve(problem, NewtonConfig(tol=1e-8, x0=report.solution, max_iter=1))
    assert step.solution.tobytes() == iterates[earlier + 1].tobytes()


class TestPatternCycle:
    def test_orthant_stalls_end_as_cycles(self):
        config = NewtonConfig(tol=1e-8)
        ends = {}
        for problem in cycle_fuzz_cases():
            report = solve(problem, config)
            kind = type(problem.cone).__name__
            ends.setdefault((kind, report.termination), []).append(report.iterations)
            if report.termination is Termination.PATTERN_CYCLE:
                assert_real_cycle(problem, config, report)
        assert len(ends[("Orthant", Termination.PATTERN_CYCLE)]) == 441
        assert max(ends[("Orthant", Termination.PATTERN_CYCLE)]) <= 12
        assert len(ends[("Orthant", Termination.PATTERN_REPEAT)]) == 1059
        assert ("Orthant", Termination.MAX_ITER) not in ends

    def test_soc_stalls_that_revisit_an_iterate_end_as_cycles(self):
        # a boundary element is not fixed by its pattern, so these stalls
        # end only when an iterate comes back bit for bit; 136 of the 210
        # runs that went to the iteration limit do
        config = NewtonConfig(tol=1e-8)
        ends = collections.Counter()
        for problem in cycle_fuzz_cases():
            if not isinstance(problem.cone, SecondOrder):
                continue
            report = solve(problem, config)
            last = problem.cone.jacobian_element(report.solution)
            ends[report.termination, type(last).__name__] += 1
            if report.termination is Termination.PATTERN_CYCLE:
                assert_real_cycle(problem, config, report)
        assert ends[Termination.PATTERN_CYCLE, "SocBoundary"] == 136
        assert ends[Termination.PATTERN_CYCLE, "Diagonal"] == 252
        assert sum(n for (end, _), n in ends.items() if end is Termination.MAX_ITER) == 74
        assert sum(ends.values()) == 1500

    def test_cycle_is_not_cut_short_of_a_singular_stop(self):
        # every step is least squares from the same pattern: the streak of
        # three without progress ends it, not the cycle rule
        problem = ProjectionEquationProblem(
            Orthant(1), DenseOperator([[0.0]]), np.array([-1.0])
        )
        report = solve(problem, NewtonConfig())
        assert report.termination is Termination.SINGULAR_SYSTEM
        assert report.iterations == 3

    def test_cli_exit_code(self, tmp_path):
        problem = next(
            p for p in cycle_fuzz_cases()
            if isinstance(p.cone, Orthant) and p.form is EquationForm.POINT_LINEAR
            and solve(p, NewtonConfig(tol=1e-8)).termination
            is Termination.PATTERN_CYCLE
        )
        t_path, b_path = tmp_path / "T.mtx", tmp_path / "b.mtx"
        write_matrix(t_path, problem.T.matrix)
        write_vector(b_path, problem.b)
        out = tmp_path / "r.json"
        code = main([
            "solve-pe", "--cone", f"orthant:{problem.cone.ambient_dim}",
            "--T", str(t_path), "--b", str(b_path), "--tol", "1e-8",
            "--out", str(out),
        ])
        assert code == 2
        assert json.loads(out.read_text())["termination"] == "pattern-cycle"

    def test_qcp_cycle_is_unverified(self):
        problem = QcpProblem(
            Q=DenseOperator([[-0.8, -1.1], [-1.1, 0.7]]),
            q=np.array([0.5, -1.6]), cone=Orthant(2),
        )
        kkt, report = solve_qcp(problem, NewtonConfig(tol=1e-8))
        assert report.termination is Termination.PATTERN_CYCLE
        assert not kkt.verified


class TestOneLinearizationPerIterate:
    @pytest.mark.parametrize("start", ["zero", "random"])
    def test_psd_solve_makes_one_eigh_per_iterate(self, start, monkeypatch):
        rng = np.random.default_rng(33)
        cone = PsdCone(5)
        d = cone.ambient_dim
        a = rng.standard_normal((d, d))
        x0 = None if start == "zero" else rng.standard_normal(d)
        problem = ProjectionEquationProblem(
            cone, DenseOperator(a @ a.T / d + np.eye(d)), 3.0 * rng.standard_normal(d)
        )
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(
            np.linalg, "eigh", lambda *args: calls.append(args) or eigh(*args)
        )
        report = solve(problem, NewtonConfig(tol=1e-10, x0=x0))
        assert report.iterations >= 2
        assert len(calls) == report.iterations + 1
        assert report.projected_solution.tobytes() == cone.project(report.solution).tobytes()


class TestScaleSafeResidual:
    def test_matches_the_report_on_an_overflowing_rhs(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        problem = ProjectionEquationProblem(
            Orthant(4), DenseOperator(a @ a.T + np.eye(4)),
            rng.standard_normal(4) * 1e200,
        )
        report = solve(problem)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = residual(problem, report.solution)
        assert np.isfinite(value)
        assert value == report.residuals[-1]

    def test_caps_at_the_largest_double(self):
        problem = ProjectionEquationProblem(
            Orthant(2), ScaledIdentity(1.0, 2), np.array([1e308, -1e308])
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = residual(problem, np.array([-1e308, 1e308]))
        assert value == np.finfo(float).max

    @pytest.mark.parametrize("form", list(EquationForm))
    def test_bit_identical_in_normal_range(self, form):
        rng = np.random.default_rng(35)
        cone = Product((Orthant(3), SecondOrder(4), PsdCone(2)))
        d = cone.ambient_dim
        t = rng.standard_normal((d, d))
        for scale in (1e-30, 1.0, 1e30):
            problem = ProjectionEquationProblem(
                cone, DenseOperator(t), scale * rng.standard_normal(d), form
            )
            x = scale * rng.standard_normal(d)
            projected = cone.project(x)
            if form is EquationForm.POINT_LINEAR:
                value = projected + t @ x - problem.b
            else:
                value = t @ projected + x - problem.b
            expected = float(np.linalg.norm(value))
            assert residual(problem, x) == expected
            assert residual(problem, x, projected=projected) == expected
