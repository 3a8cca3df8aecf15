"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conic_newton import (
    DenseOperator,
    Guarantee,
    NcmProblem,
    NewtonConfig,
    Orthant,
    Product,
    PsdCone,
    QcpProblem,
    ScaledIdentity,
    SecondOrder,
    Termination,
    analyze,
    embed_kkt,
    kkt_residual,
    measure_ratios,
    residual,
    smat,
    solve_ncm,
    solve_ncm_baseline,
    solve_qcp,
    svec,
    to_projection_equation,
)
from conic_newton.bench import ExperimentConfig, generate, profile, run_suite
from conic_newton.qcp import KktPoint, ProjectionEquationProblem
from conftest import interior_point, random_point, random_symmetric, well_separated_point

JACOBIAN_CONES = [
    ("orthant", Orthant(6)),
    ("soc", SecondOrder(5)),
    ("psd", PsdCone(8)),
    ("product", Product((Orthant(3), SecondOrder(3), PsdCone(3)))),
]

FD_CONES = [
    ("orthant", Orthant(5)),
    ("soc", SecondOrder(4)),
    ("psd", PsdCone(4)),
    ("product", Product((Orthant(2), SecondOrder(3), PsdCone(2)))),
]


@contextmanager
def criterion(name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE PASS: {name} ({elapsed:.1f}s, budget {budget_seconds}s)")
    assert elapsed < budget_seconds


def test_jacobian_invariant_suite():
    with criterion("jacobian invariants (1000 points per cone kind)", 60):
        for idx, (name, cone) in enumerate(JACOBIAN_CONES):
            rng = np.random.default_rng([101, idx])
            for _ in range(1000):
                x = random_point(cone, rng)
                element = cone.jacobian_element(x)
                mat = element.materialize()
                # operator norm at most one
                assert np.linalg.norm(mat, 2) <= 1 + 1e-8, name
                # reproduces the projection at the base point
                gap = np.linalg.norm(element.apply(x) - cone.project(x))
                assert gap <= 1e-8 * (1 + np.linalg.norm(x)), name
                # spectrum inside [0, 1]
                eigs = np.linalg.eigvalsh(mat)
                assert eigs[0] >= -1e-8 and eigs[-1] <= 1 + 1e-8, name
                # linearization defect bounded by the displacement
                y = random_point(cone, rng)
                defect = np.linalg.norm(
                    cone.project(y) - cone.project(x) - element.apply(y - x)
                )
                assert defect <= (1 + 1e-8) * np.linalg.norm(y - x), name


def test_finite_difference_oracle():
    with criterion("finite-difference derivative oracle (200 points per cone)", 60):
        step = 1e-6
        for idx, (name, cone) in enumerate(FD_CONES):
            rng = np.random.default_rng([102, idx])
            d = cone.ambient_dim
            for _ in range(200):
                x = well_separated_point(cone, rng)
                mat = cone.jacobian_element(x).materialize()
                fd = np.empty((d, d))
                for k in range(d):
                    e = np.zeros(d)
                    e[k] = step
                    fd[:, k] = (cone.project(x + e) - cone.project(x - e)) / (2 * step)
                assert np.abs(mat - fd).max() <= 1e-4, name


def test_convergence_rate_conformance():
    with criterion("q-linear rate bound on 100 problems per cone and scale", 120):
        for idx, (name, cone) in enumerate(FD_CONES):
            d = cone.ambient_dim
            for c in (2.0, 3.0, 5.0):
                bound = 1.0 / c + 0.05
                operator = ScaledIdentity(c, d)
                for i in range(100):
                    rng = np.random.default_rng([103, idx, int(c), i])
                    root = random_point(cone, rng)
                    b = cone.project(root) + c * root
                    problem = ProjectionEquationProblem(cone, operator, b)
                    ratios = measure_ratios(problem, NewtonConfig(tol=1e-9), root)
                    assert all(r <= bound for r in ratios), (name, c, i)


def _random_qcp(cone, seed, with_equality):
    rng = np.random.default_rng(seed)
    d = cone.ambient_dim
    w = random_symmetric(rng, d)
    w /= np.linalg.norm(w, 2)
    q_mat = np.eye(d) + 0.5 * w
    q_vec = rng.standard_normal(d)
    strict = interior_point(cone, rng)
    equality = None
    if with_equality:
        m = int(rng.integers(1, 3))
        a = rng.standard_normal((m, d))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        equality = (a, a @ strict)
    return QcpProblem(Q=q_mat, q=q_vec, cone=cone, equality=equality), strict


def test_kkt_round_trip():
    cones = [
        ("orthant", Orthant(8)),
        ("soc", SecondOrder(6)),
        ("psd", PsdCone(4)),
        ("product", Product((Orthant(3), SecondOrder(3), PsdCone(2)))),
    ]
    with criterion("KKT round trip on 100 programs per cone", 120):
        for idx, (name, cone) in enumerate(cones):
            for i in range(100):
                with_equality = i >= 50
                problem, strict = _random_qcp(cone, [7, idx, i], with_equality)
                m = problem.equality[0].shape[0] if problem.equality else 0
                x0 = np.concatenate([strict, np.zeros(m)]) if with_equality else strict
                point, report = solve_qcp(
                    problem,
                    NewtonConfig(tol=1e-11, max_iter=300, use_pattern_stop=False, x0=x0),
                )
                assert report.termination is Termination.RESIDUAL_TOL, (name, i)
                assert kkt_residual(problem, point) <= 1e-6, (name, i)
                root = embed_kkt(problem, point)
                back = residual(to_projection_equation(problem), root)
                assert back <= 1e-6, (name, i)


def test_ncm_correctness_oracle():
    with criterion("newton vs alternating projections on 50 instances", 120):
        n = 30
        rows, cols = np.triu_indices(n)
        a = np.zeros((n, n * (n + 1) // 2))
        for j in range(n):
            a[j, int(np.flatnonzero((rows == j) & (cols == j))[0])] = 1.0
        cfg = ExperimentConfig("E56", n=n, seed=5, replicates=50)
        for rep in range(50):
            problem = generate(cfg, rep)
            newton_report = solve_ncm(problem, tol=1e-7)
            baseline_report = solve_ncm_baseline(problem, tol=1e-7)
            assert newton_report.termination is Termination.RESIDUAL_TOL, rep
            assert baseline_report.termination is Termination.RESIDUAL_TOL, rep
            diff = np.linalg.norm(
                newton_report.projected_solution - baseline_report.projected_solution
            )
            assert diff <= 1e-3, rep
            qcp_problem = QcpProblem(
                Q=1.0, q=-svec(problem.G), cone=PsdCone(n), equality=(a, np.ones(n))
            )
            lam = np.diag(problem.G) - np.diag(newton_report.solution)
            point = KktPoint(
                x=svec(newton_report.projected_solution),
                lam=lam,
                mu=svec(
                    newton_report.projected_solution
                    - problem.G
                    + np.diag(lam)
                ),
            )
            assert kkt_residual(qcp_problem, point) <= 1e-5, rep


def test_two_by_two_closed_form():
    with criterion("2x2 off-diagonal clamp closed form", 1):
        for g in (-3.0, -1.0, 0.0, 0.5, 1.0, 2.0):
            matrix = np.array([[1.0, g], [g, 1.0]])
            report = solve_ncm(NcmProblem(matrix), tol=1e-10)
            expected = float(np.clip(g, -1.0, 1.0))
            assert abs(report.projected_solution[0, 1] - expected) <= 1e-8, g


def test_desk_scale_experiment_regression():
    with criterion("scaled random-experiment convergence", 600):
        cfg = ExperimentConfig("E58", n=400, alpha=0.001, ell=200, seed=0, replicates=10)
        for rep in range(10):
            report = solve_ncm(generate(cfg, rep), tol=1e-5)
            assert report.termination is Termination.RESIDUAL_TOL, rep
            assert report.iterations <= 40, rep
        settings = [
            ("E55", 0.01),
            ("E55", 0.1),
            ("E56", None),
            ("E57", None),
        ]
        for experiment, alpha in settings:
            cfg = ExperimentConfig(experiment, n=200, alpha=alpha, seed=0, replicates=10)
            converged = 0
            for rep in range(10):
                report = solve_ncm(generate(cfg, rep), tol=1e-5, max_iter=100)
                if report.termination is Termination.RESIDUAL_TOL:
                    converged += 1
            assert converged >= 9, (experiment, alpha, converged)


def test_profile_pipeline():
    with criterion("performance-profile pipeline", 60):
        hand_start = time.perf_counter()
        times = np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 1.0]])
        table = profile(times, tau_grid=[1.0, 2.0])
        np.testing.assert_array_equal(table.rho[:, 0], [2.0 / 3.0, 2.0 / 3.0])
        assert time.perf_counter() - hand_start < 1.0
        # scaled suite with both solvers
        suite = run_suite(
            [ExperimentConfig("E56", n=40, seed=17, replicates=3)],
            ["newton", "baseline"],
            tol=1e-5,
        )
        assert np.all(np.diff(suite.rho, axis=1) >= 0.0)
        solved_fraction = np.isfinite(suite.times).sum(axis=0) / suite.times.shape[0]
        np.testing.assert_allclose(suite.rho[:, -1], solved_fraction)


def test_guarantee_analyzer():
    with criterion("guarantee analyzer fixed quadruple", 1):
        report = analyze(ScaledIdentity(3.0, 4))
        assert report.guarantee is Guarantee.Q_LINEAR
        assert report.predicted_ratio == 1.0 / 3.0
        report = analyze(ScaledIdentity(2.0, 4))
        assert report.guarantee is Guarantee.Q_LINEAR
        assert report.predicted_ratio == 0.5
        report = analyze(DenseOperator(np.diag([2.0, -2.0])))
        assert report.guarantee is Guarantee.EXISTENCE_UNIQUENESS
        report = analyze(ScaledIdentity(0.5, 4))
        assert report.guarantee is Guarantee.NONE
