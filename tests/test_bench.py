"""Instance generators, timing harness, and performance profiles."""

import numpy as np
import pytest

from conic_newton.bench import (
    ExperimentConfig,
    generate,
    profile,
    random_correlation_matrix,
    run_suite,
    summarize,
    write_profile_csv,
    write_raw_csv,
)
from conic_newton.ncm import (
    SOLVER_BASELINE,
    SOLVER_DIAGONAL,
    SOLVER_NEWTON,
    canonical_solver,
    solve_ncm,
)
from conic_newton.newton import Termination


class TestConfigValidation:
    def test_alpha_required_for_perturbed_experiments(self):
        with pytest.raises(ValueError):
            ExperimentConfig("E55", n=10)
        with pytest.raises(ValueError):
            ExperimentConfig("E56", n=10, alpha=0.1)

    def test_ell_bounds(self):
        with pytest.raises(ValueError):
            ExperimentConfig("E58", n=10, alpha=0.0, ell=11)
        with pytest.raises(ValueError):
            ExperimentConfig("E56", n=10, ell=2)

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            ExperimentConfig("E99", n=10)


class TestGenerate:
    def test_unit_diagonal_and_range(self):
        cfg = ExperimentConfig("E56", n=4, seed=3, replicates=1)
        g = generate(cfg, 0).G
        np.testing.assert_array_equal(np.diag(g), np.ones(4))
        off = g[~np.eye(4, dtype=bool)]
        assert np.all(off >= -1.0) and np.all(off <= 1.0)

    def test_e57_range(self):
        cfg = ExperimentConfig("E57", n=6, seed=4, replicates=1)
        g = generate(cfg, 0).G
        np.testing.assert_array_equal(np.diag(g), np.ones(6))
        off = g[~np.eye(6, dtype=bool)]
        assert np.all(off >= 0.0) and np.all(off <= 2.0)

    def test_e58_block_structure(self):
        cfg = ExperimentConfig("E58", n=4, alpha=0.0, ell=2, seed=5, replicates=1)
        g = generate(cfg, 0).G
        # factor ell/(1-ell) = -2 for ell=2
        assert g[0, 1] == pytest.approx(-2.0)
        assert g[1, 0] == pytest.approx(-2.0)
        np.testing.assert_array_equal(g[2:, :2], np.zeros((2, 2)))
        assert np.all(np.abs(np.diag(g)) <= 20000.0)

    def test_e55_composition(self):
        cfg = ExperimentConfig("E55", n=8, alpha=0.0, seed=6, replicates=1)
        g = generate(cfg, 0).G
        # alpha = 0 leaves a plain correlation matrix
        np.testing.assert_allclose(np.diag(g), np.ones(8))
        assert np.linalg.eigvalsh(g)[0] >= -1e-10

    def test_determinism(self):
        cfg = ExperimentConfig("E58", n=6, alpha=0.01, ell=3, seed=7, replicates=2)
        first = generate(cfg, 1).G
        second = generate(cfg, 1).G
        np.testing.assert_array_equal(first, second)
        other_rep = generate(cfg, 0).G
        assert not np.array_equal(first, other_rep)

    def test_symmetry(self):
        for exp, kwargs in (
            ("E55", {"alpha": 0.3}),
            ("E56", {}),
            ("E57", {}),
            ("E58", {"alpha": 0.5, "ell": 4}),
        ):
            cfg = ExperimentConfig(exp, n=8, seed=8, replicates=1, **kwargs)
            g = generate(cfg, 0).G
            np.testing.assert_array_equal(g, g.T)


class TestRandomCorrelationMatrix:
    def test_one_by_one(self):
        np.testing.assert_array_equal(random_correlation_matrix(1, 0), [[1.0]])

    def test_contract(self):
        for n, seed in ((3, 0), (10, 1), (40, 2)):
            c = random_correlation_matrix(n, seed)
            np.testing.assert_array_equal(np.diag(c), np.ones(n))
            assert np.linalg.eigvalsh(c)[0] >= -1e-10
            assert np.trace(c) == pytest.approx(n, abs=1e-9)

    def test_determinism(self):
        a = random_correlation_matrix(12, 9)
        b = random_correlation_matrix(12, 9)
        np.testing.assert_array_equal(a, b)


class TestProfile:
    def test_two_solvers_single_problem(self):
        table = profile(np.array([[1.0, 2.0]]), tau_grid=[1.0, 2.0])
        np.testing.assert_array_equal(table.rho[:, 0], [1.0, 0.0])
        np.testing.assert_array_equal(table.rho[:, 1], [1.0, 1.0])

    def test_hand_example(self):
        times = np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 1.0]])
        table = profile(times, tau_grid=[1.0, 2.0])
        np.testing.assert_allclose(table.rho[:, 0], [2.0 / 3.0, 2.0 / 3.0])
        np.testing.assert_allclose(table.rho[:, 1], [1.0, 1.0])

    def test_all_failures_contribute_nothing(self):
        times = np.array([[np.inf, np.inf], [1.0, 2.0]])
        table = profile(times, tau_grid=[1.0, 2.0, 10.0])
        np.testing.assert_allclose(table.rho[0], [0.5, 0.5, 0.5])
        np.testing.assert_allclose(table.rho[1], [0.0, 0.5, 0.5])

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(50)
        times = rng.uniform(0.1, 5.0, size=(20, 3))
        times[rng.random((20, 3)) < 0.1] = np.inf
        table = profile(times)
        assert np.all(table.rho >= 0.0) and np.all(table.rho <= 1.0)
        assert np.all(np.diff(table.rho, axis=1) >= 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            profile(np.zeros((0, 2)))


class TestRunSuite:
    def test_suite_and_outputs(self, tmp_path):
        configs = [ExperimentConfig("E56", n=15, seed=11, replicates=3)]
        table = run_suite(configs, ["newton", "baseline"], tol=1e-5)
        assert table.solver_names == [SOLVER_NEWTON, SOLVER_BASELINE]
        assert table.times.shape == (3, 2)
        assert len(table.raw) == 6
        # ratio-1 column: some solver attains the best time on each problem
        finite_rows = np.isfinite(table.times).any(axis=1)
        assert finite_rows.all()
        write_raw_csv(table, tmp_path / "raw.csv")
        write_profile_csv(table, tmp_path / "profile.csv")
        raw_lines = (tmp_path / "raw.csv").read_text().splitlines()
        assert raw_lines[0] == (
            "experiment,n,alpha,seed,replicate,solver,time_seconds,iterations,converged"
        )
        assert len(raw_lines) == 7
        profile_lines = (tmp_path / "profile.csv").read_text().splitlines()
        assert profile_lines[0] == f"tau,{SOLVER_NEWTON},{SOLVER_BASELINE}"

    def test_failures_recorded_as_infinite(self, monkeypatch):
        # a one-iteration cap forces the newton solver to miss the tolerance
        import conic_newton.ncm as ncm_mod

        configs = [ExperimentConfig("E56", n=12, seed=12, replicates=2)]
        monkeypatch.setitem(ncm_mod._SOLVERS, SOLVER_NEWTON, ("newton", "solve_ncm", 1))
        table = run_suite(configs, ["newton"], tol=1e-12)
        assert np.isinf(table.times).all()
        assert all(not rec.converged for rec in table.raw)

    def test_numerical_failure_recorded_as_infinite(self):
        # no step can lower the residual below rounding, which raises
        configs = [ExperimentConfig("E57", n=30, seed=9, replicates=1)]
        table = run_suite(configs, ["newton"], tol=0.0)
        assert np.isinf(table.times).all()
        assert not table.raw[0].converged
        assert table.raw[0].iterations >= 1

    def test_unknown_solver(self):
        with pytest.raises(ValueError):
            run_suite([ExperimentConfig("E56", n=5, seed=0, replicates=1)], ["nope"])

    def test_summary_rows(self):
        configs = [ExperimentConfig("E56", n=12, seed=13, replicates=2)]
        table = run_suite(configs, ["newton"], tol=1e-5)
        rows = summarize(table)
        assert len(rows) == 1
        assert rows[0]["solver"] == SOLVER_NEWTON
        assert rows[0]["total"] == 2

    def test_alpha_zero_is_fixed_point_regime(self):
        cfg = ExperimentConfig("E55", n=50, alpha=0.0, seed=14, replicates=3)
        for rep in range(3):
            report = solve_ncm(generate(cfg, rep), tol=1e-5)
            assert report.termination is Termination.RESIDUAL_TOL
            assert report.iterations <= 2


class TestSolverNames:
    def test_aliases(self):
        assert canonical_solver("newton") == SOLVER_NEWTON
        assert canonical_solver("diagonal") == SOLVER_DIAGONAL
        assert canonical_solver(SOLVER_BASELINE) == SOLVER_BASELINE
        with pytest.raises(ValueError):
            canonical_solver("gradient-descent")
