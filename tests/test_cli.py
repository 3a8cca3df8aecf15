"""Command-line behavior: exit codes, report files, benchmark outputs."""

import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conic_newton import bench, cli, ncm
from conic_newton.cli import main
from conic_newton.exceptions import NumericalFailureError
from conic_newton.matrixio import read_matrix, write_matrix
from conftest import RANK_DEFICIENT_NCM_INPUT, STALLING_NCM_INPUTS, write_vector


@pytest.fixture()
def pe_files(tmp_path):
    t_path = tmp_path / "T.mtx"
    b_path = tmp_path / "b.mtx"
    write_matrix(t_path, 2.0 * np.eye(2))
    write_vector(b_path, np.array([3.0, -2.0]))
    return t_path, b_path


SHARED_REPORT_KEYS = [
    "schema_version", "solver", "config", "termination", "iterations",
    "residuals", "wall_time_seconds",
]


def test_reports_open_with_the_shared_keys(tmp_path, pe_files):
    t_path, b_path = pe_files
    pe_out = tmp_path / "pe.json"
    main(["solve-pe", "--cone", "orthant:2", "--T", str(t_path),
          "--b", str(b_path), "--out", str(pe_out)])
    g_path = tmp_path / "g.csv"
    g_path.write_text("1,0.5\n0.5,1\n")
    ncm_out = tmp_path / "ncm.json"
    main(["ncm", "--input", str(g_path), "--out-matrix", str(tmp_path / "c.mtx"),
          "--out-report", str(ncm_out)])
    assert list(json.loads(pe_out.read_text())) == SHARED_REPORT_KEYS + [
        "guarantee", "solution", "projected_solution",
    ]
    assert list(json.loads(ncm_out.read_text())) == SHARED_REPORT_KEYS + [
        "lambda", "matrix_path",
    ]


class TestSolvePe:
    def test_happy_path(self, tmp_path, pe_files, capsys):
        t_path, b_path = pe_files
        out = tmp_path / "report.json"
        code = main([
            "solve-pe", "--cone", "orthant:2", "--T", str(t_path),
            "--b", str(b_path), "--out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "q-linear" in captured.err  # guarantee summary on stderr
        report = json.loads(out.read_text())
        assert report["schema_version"] == 2
        np.testing.assert_allclose(report["solution"], [1.0, -1.0])
        np.testing.assert_allclose(report["projected_solution"], [1.0, 0.0])
        assert report["termination"] in ("residual-tol", "pattern-repeat")
        assert report["guarantee"]["predicted_ratio"] == 0.5

    def test_max_iter_exit_code(self, tmp_path, pe_files):
        t_path, b_path = pe_files
        code = main([
            "solve-pe", "--cone", "orthant:2", "--T", str(t_path),
            "--b", str(b_path), "--max-iter", "1",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2

    def test_linalg_error_is_a_numerical_failure(
        self, tmp_path, pe_files, monkeypatch, capsys
    ):
        # LinAlgError is a ValueError, yet it is no input error
        def failing_solve(problem, config):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli, "solve", failing_solve)
        t_path, b_path = pe_files
        code = main([
            "solve-pe", "--cone", "orthant:2", "--T", str(t_path),
            "--b", str(b_path), "--out", str(tmp_path / "r.json"),
        ])
        assert code == 3
        assert "numerical failure: SVD did not converge" in capsys.readouterr().err

    def test_malformed_matrix_names_line(self, tmp_path, pe_files, capsys):
        _, b_path = pe_files
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\noops\n4.0\n")
        code = main([
            "solve-pe", "--cone", "orthant:2", "--T", str(bad),
            "--b", str(b_path), "--out", str(tmp_path / "r.json"),
        ])
        assert code == 1
        assert ":4:" in capsys.readouterr().err

    def test_dimension_mismatch_is_input_error(self, tmp_path, pe_files):
        t_path, b_path = pe_files
        code = main([
            "solve-pe", "--cone", "orthant:3", "--T", str(t_path),
            "--b", str(b_path), "--out", str(tmp_path / "r.json"),
        ])
        assert code == 1

    def test_nan_rhs_is_input_error(self, tmp_path, pe_files, capsys):
        t_path, _ = pe_files
        b_path = tmp_path / "b_nan.mtx"
        write_vector(b_path, np.array([np.nan, 1.0]))
        code = main([
            "solve-pe", "--cone", "orthant:2", "--T", str(t_path),
            "--b", str(b_path), "--out", str(tmp_path / "r.json"),
        ])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err

    def test_infinite_tol_is_input_error(self, tmp_path, capsys):
        t_path = tmp_path / "T.mtx"
        b_path = tmp_path / "b.mtx"
        write_matrix(t_path, np.array([[2.0]]))
        write_vector(b_path, np.array([5.0]))
        out = tmp_path / "r.json"
        code = main([
            "solve-pe", "--cone", "orthant:1", "--T", str(t_path),
            "--b", str(b_path), "--tol", "inf", "--out", str(out),
        ])
        assert code == 1
        assert "tol" in capsys.readouterr().err
        assert not out.exists()

    def test_psd_cone_with_x0(self, tmp_path):
        # psd:2 works on scaled-vectorized coordinates of length 3
        t_path = tmp_path / "T.mtx"
        b_path = tmp_path / "b.mtx"
        x0_path = tmp_path / "x0.mtx"
        write_matrix(t_path, 3.0 * np.eye(3))
        write_vector(b_path, np.array([4.0, 0.0, 1.0]))
        write_vector(x0_path, np.array([1.0, 0.0, 1.0]))
        out = tmp_path / "r.json"
        code = main([
            "solve-pe", "--cone", "psd:2", "--T", str(t_path), "--b", str(b_path),
            "--x0", str(x0_path), "--tol", "1e-9", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["iterations"] >= 1

    def test_report_replays(self, tmp_path, pe_files):
        t_path, b_path = pe_files
        out = tmp_path / "report.json"
        main([
            "solve-pe", "--cone", "orthant:2", "--T", str(t_path),
            "--b", str(b_path), "--out", str(out),
        ])
        report = json.loads(out.read_text())
        out2 = tmp_path / "replay.json"
        code = main([
            "solve-pe", "--cone", report["config"]["cone"],
            "--T", report["config"]["T"], "--b", report["config"]["b"],
            "--tol", str(report["config"]["tol"]),
            "--max-iter", str(report["config"]["max_iter"]),
            "--out", str(out2),
        ])
        assert code == 0
        replay = json.loads(out2.read_text())
        assert replay["termination"] == report["termination"]
        assert replay["solution"] == report["solution"]


class TestOutputPathsCheckedFirst:
    """solve-pe and ncm find a bad output path before they read or solve,
    and a run that fails leaves no file behind."""

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("the solver ran")

    @pytest.mark.parametrize("bad", ["missing/r.json", "dir"], ids=["missing-dir", "is-dir"])
    def test_ncm_report_path(self, tmp_path, monkeypatch, capsys, bad):
        monkeypatch.setattr(ncm, "run_solver", self.refuse)
        (tmp_path / "dir").mkdir()
        g_path = tmp_path / "g.csv"
        g_path.write_text("1,0.5\n0.5,1\n")
        code = main([
            "ncm", "--input", str(g_path), "--out-matrix", str(tmp_path / "c2.mtx"),
            "--out-report", str(tmp_path / bad),
        ])
        assert code == 1
        assert capsys.readouterr().err.count("error:") == 1
        assert not (tmp_path / "c2.mtx").exists()

    def test_ncm_matrix_path_under_a_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(ncm, "run_solver", self.refuse)
        (tmp_path / "file").write_text("")
        g_path = tmp_path / "g.csv"
        g_path.write_text("1,0.5\n0.5,1\n")
        code = main([
            "ncm", "--input", str(g_path),
            "--out-matrix", str(tmp_path / "file" / "c.mtx"),
            "--out-report", str(tmp_path / "r.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err.count("error:") == 1
        assert not (tmp_path / "r.json").exists()

    def test_solve_pe_out_path(self, tmp_path, pe_files, monkeypatch, capsys):
        monkeypatch.setattr(cli, "solve", self.refuse)
        t_path, b_path = pe_files
        code = main([
            "solve-pe", "--cone", "orthant:2", "--T", str(t_path), "--b", str(b_path),
            "--out", str(tmp_path / "missing" / "r.json"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "q-linear" not in err  # nothing read or analyzed
        assert not (tmp_path / "missing").exists()

    def test_numerical_failure_leaves_no_file(self, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise NumericalFailureError("no step decreases the residual")

        monkeypatch.setattr(ncm, "run_solver", failing)
        g_path = tmp_path / "g.csv"
        g_path.write_text("1,0.5\n0.5,1\n")
        code = main([
            "ncm", "--input", str(g_path), "--out-matrix", str(tmp_path / "c.mtx"),
            "--out-report", str(tmp_path / "r.json"),
        ])
        assert code == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.csv"]


class TestNcmCommand:
    def test_newton_method(self, tmp_path):
        g_path = tmp_path / "g.mtx"
        write_matrix(g_path, np.array([[1.0, 2.0], [2.0, 1.0]]))
        out_matrix = tmp_path / "corr.mtx"
        out_report = tmp_path / "r.json"
        code = main([
            "ncm", "--input", str(g_path), "--tol", "1e-8",
            "--out-matrix", str(out_matrix), "--out-report", str(out_report),
        ])
        assert code == 0
        from conic_newton.matrixio import read_matrix

        result = read_matrix(out_matrix)
        np.testing.assert_allclose(result, np.ones((2, 2)), atol=1e-8)
        report = json.loads(out_report.read_text())
        np.testing.assert_allclose(report["lambda"], [1.0, 1.0], atol=1e-8)

    def test_lambda_is_the_diagonal_gap_of_the_root(self, tmp_path):
        # the reported multiplier is diag(G) - diag(X) for the root X, to the
        # bit; carrying lambda beside X through the iteration drifted by ulps
        from conic_newton import NcmProblem, solve_ncm
        from conic_newton.bench import ExperimentConfig, generate
        from conic_newton.matrixio import read_matrix

        g = generate(ExperimentConfig("E57", n=60, seed=0, replicates=1), 0).G
        g_path = tmp_path / "g.mtx"
        write_matrix(g_path, g)
        out_report = tmp_path / "r.json"
        code = main([
            "ncm", "--input", str(g_path),
            "--out-matrix", str(tmp_path / "c.mtx"), "--out-report", str(out_report),
        ])
        assert code == 0
        problem = NcmProblem(read_matrix(g_path))
        expected = np.diag(problem.G) - np.diag(solve_ncm(problem).solution)
        lam = np.array(json.loads(out_report.read_text())["lambda"])
        np.testing.assert_array_equal(lam, expected)

    def test_identity_zero_iterations(self, tmp_path):
        g_path = tmp_path / "g.mtx"
        write_matrix(g_path, np.eye(3))
        out_report = tmp_path / "r.json"
        code = main([
            "ncm", "--input", str(g_path),
            "--out-matrix", str(tmp_path / "c.mtx"), "--out-report", str(out_report),
        ])
        assert code == 0
        assert json.loads(out_report.read_text())["iterations"] == 0

    def test_methods_agree(self, tmp_path):
        rng = np.random.default_rng(70)
        g = rng.uniform(-1.0, 1.0, (6, 6))
        g = 0.5 * (g + g.T)
        np.fill_diagonal(g, 1.0)
        g_path = tmp_path / "g.mtx"
        write_matrix(g_path, g)
        outputs = {}
        for method in ("newton", "diagonal", "baseline"):
            out_matrix = tmp_path / f"{method}.mtx"
            code = main([
                "ncm", "--input", str(g_path), "--method", method,
                "--tol", "1e-7", "--out-matrix", str(out_matrix),
                "--out-report", str(tmp_path / f"{method}.json"),
            ])
            assert code == 0
            from conic_newton.matrixio import read_matrix

            outputs[method] = read_matrix(out_matrix)
        for method in ("newton", "diagonal"):
            diff = np.linalg.norm(outputs[method] - outputs["baseline"])
            assert diff <= 1e-3, method

    def test_canonical_method_name_writes_the_alias_bytes(self, tmp_path):
        # --method takes bench --solvers' names: a canonical name or an alias
        g_path = tmp_path / "g.mtx"
        write_matrix(g_path, RANK_DEFICIENT_NCM_INPUT)
        written = {}
        for method in ("baseline", "alternating-projections"):
            out_matrix, out_report = tmp_path / f"{method}.mtx", tmp_path / f"{method}.json"
            code = main([
                "ncm", "--input", str(g_path), "--method", method,
                "--out-matrix", str(out_matrix), "--out-report", str(out_report),
            ])
            assert code == 0
            assert json.loads(out_report.read_text())["solver"] == method
            written[method] = out_matrix.read_bytes()
        assert written["alternating-projections"] == written["baseline"]

    def test_unknown_method_fails_before_the_input_is_read(self, tmp_path, capsys):
        code = main([
            "ncm", "--input", str(tmp_path / "missing.mtx"), "--method", "simplex",
            "--out-matrix", str(tmp_path / "c.mtx"),
            "--out-report", str(tmp_path / "r.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: unknown solver 'simplex'\n"

    def test_rank_deficient_converges(self, tmp_path):
        g_path = tmp_path / "g.mtx"
        write_matrix(g_path, RANK_DEFICIENT_NCM_INPUT)
        out_report = tmp_path / "r.json"
        code = main([
            "ncm", "--input", str(g_path), "--tol", "1e-8",
            "--out-matrix", str(tmp_path / "c.mtx"), "--out-report", str(out_report),
        ])
        assert code == 0
        report = json.loads(out_report.read_text())
        assert report["termination"] == "residual-tol"
        assert report["iterations"] <= 6

    def test_unreachable_tolerance_is_a_numerical_failure(self, tmp_path, capsys):
        rng = np.random.default_rng(71)
        g = rng.uniform(0.0, 2.0, (30, 30))
        g = 0.5 * (g + g.T)
        np.fill_diagonal(g, 1.0)
        g_path = tmp_path / "g.mtx"
        write_matrix(g_path, g)
        code = main([
            "ncm", "--input", str(g_path), "--tol", "0",
            "--out-matrix", str(tmp_path / "c.mtx"),
            "--out-report", str(tmp_path / "r.json"),
        ])
        assert code == 3
        assert "no step decreases" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["newton", "diagonal", "baseline"])
    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_invalid_tol_is_input_error(self, tmp_path, capsys, method, tol):
        g_path = tmp_path / "g.mtx"
        write_matrix(g_path, np.array([[1.0]]))
        out_report = tmp_path / "r.json"
        code = main([
            "ncm", "--input", str(g_path), "--tol", tol, "--method", method,
            "--out-matrix", str(tmp_path / "c.mtx"), "--out-report", str(out_report),
        ])
        assert code == 1
        assert "error: tol must be" in capsys.readouterr().err
        assert not out_report.exists()

    @pytest.mark.parametrize("method", ["newton", "diagonal", "baseline"])
    @pytest.mark.parametrize("max_iter", ["0", "-3"])
    def test_invalid_max_iter_is_input_error(self, tmp_path, capsys, method, max_iter):
        g_path = tmp_path / "g.mtx"
        write_matrix(g_path, np.array([[1.0, 2.0], [2.0, 1.0]]))
        out_report = tmp_path / "r.json"
        code = main([
            "ncm", "--input", str(g_path), "--max-iter", max_iter, "--method", method,
            "--out-matrix", str(tmp_path / "c.mtx"), "--out-report", str(out_report),
        ])
        assert code == 1
        assert "error: max_iter must be" in capsys.readouterr().err
        assert not out_report.exists()

    @pytest.mark.parametrize("g", STALLING_NCM_INPUTS)
    def test_no_positive_eigenvalue_converges(self, tmp_path, g):
        g_path = tmp_path / "g.mtx"
        write_matrix(g_path, g)
        out_report = tmp_path / "r.json"
        code = main([
            "ncm", "--input", str(g_path),
            "--out-matrix", str(tmp_path / "c.mtx"), "--out-report", str(out_report),
        ])
        assert code == 0
        report = json.loads(out_report.read_text())
        assert report["termination"] == "residual-tol"
        assert report["iterations"] <= 2

    def test_asymmetric_input_warns(self, tmp_path, capsys):
        g_path = tmp_path / "g.csv"
        g_path.write_text("1.0,0.9\n0.1,1.0\n")
        code = main([
            "ncm", "--input", str(g_path),
            "--out-matrix", str(tmp_path / "c.mtx"),
            "--out-report", str(tmp_path / "r.json"),
        ])
        assert code == 0
        assert "asymmetric" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_asymmetric_input_warns_at_any_scale(self, tmp_path, capsys):
        g_path = tmp_path / "g.mtx"
        write_matrix(g_path, np.array([[1.0, 1e200], [-1e200, 1.0]]))
        code = main([
            "ncm", "--input", str(g_path),
            "--out-matrix", str(tmp_path / "c.mtx"),
            "--out-report", str(tmp_path / "r.json"),
        ])
        assert code == 0
        assert "asymmetric" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
    def test_entries_near_the_largest_double_are_not_called_non_finite(
        self, tmp_path, capsys
    ):
        g_path = tmp_path / "g.mtx"
        write_matrix(g_path, np.array([[1.0, 1e308], [1e308, 1.0]]))
        code = main([
            "ncm", "--input", str(g_path),
            "--out-matrix", str(tmp_path / "c.mtx"),
            "--out-report", str(tmp_path / "r.json"),
        ])
        assert code in (0, 2, 3)
        assert "non-finite" not in capsys.readouterr().err

    def test_diagonal_near_the_largest_double_solves(self, tmp_path):
        # diag(G) never enters the answer; the diagonal method starts from
        # X = G, and its first residual is finite
        g_path = tmp_path / "g.csv"
        g_path.write_text("1e308,0.5\n0.5,1e308\n")
        out_matrix, out_report = tmp_path / "c.mtx", tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "ncm", "--input", str(g_path), "--tol", "1e-10", "--method", "diagonal",
                "--out-matrix", str(out_matrix), "--out-report", str(out_report),
            ])
        assert code == 0
        report = json.loads(out_report.read_text())
        assert np.all(np.isfinite(report["residuals"]))
        np.testing.assert_allclose(
            read_matrix(out_matrix), [[1.0, 0.5], [0.5, 1.0]], atol=1e-10
        )

    def test_off_diagonal_near_the_largest_double_fails_cleanly(self, tmp_path, capsys):
        # no iterate holds the answer (see test_ncm); the failure is classified
        g_path = tmp_path / "g.csv"
        g_path.write_text("1,1e308\n1e308,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "ncm", "--input", str(g_path), "--out-matrix", str(tmp_path / "c.mtx"),
                "--out-report", str(tmp_path / "r.json"),
            ])
        assert code == 3
        err = capsys.readouterr().err
        assert "failure at iteration 3: no step decreases the residual 1.41" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.csv"]

    def test_non_finite_entry_is_an_input_error_without_a_warning(self, tmp_path, capsys):
        g_path = tmp_path / "g.csv"
        g_path.write_text("1,1e400\n1e400,1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                "ncm", "--input", str(g_path), "--out-matrix", str(tmp_path / "c.mtx"),
                "--out-report", str(tmp_path / "r.json"),
            ])
        assert code == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == "error: input matrix contains non-finite entries\n"

    def test_missing_file(self, tmp_path):
        code = main([
            "ncm", "--input", str(tmp_path / "nope.mtx"),
            "--out-matrix", str(tmp_path / "c.mtx"),
            "--out-report", str(tmp_path / "r.json"),
        ])
        assert code == 1

    def test_negative_coordinate_size_is_an_input_error(self, tmp_path, capsys):
        g_path = tmp_path / "neg.mtx"
        g_path.write_text("%%MatrixMarket matrix coordinate real symmetric\n-1 -1 0\n")
        code = main([
            "ncm", "--input", str(g_path), "--out-matrix", str(tmp_path / "c.mtx"),
            "--out-report", str(tmp_path / "r.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {g_path}:2: negative size in '-1 -1 0'\n"
        )


class TestBenchCommand:
    def test_deterministic_raw_csv(self, tmp_path, capsys):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            code = main([
                "bench", "--experiment", "5.6", "--n", "12", "--replicates", "2",
                "--seed", "7", "--solvers", "newton,baseline",
                "--out-dir", str(d),
            ])
            assert code == 0
        tables = []
        for d in dirs:
            lines = (d / "raw.csv").read_text().splitlines()
            # drop the time column (index 7)
            tables.append(
                [",".join(c for i, c in enumerate(l.split(",")) if i != 7) for l in lines]
            )
        assert tables[0] == tables[1]
        stdout = capsys.readouterr().out
        assert "semi-smooth-newton-ncm" in stdout

    def test_default_solvers(self, tmp_path):
        code = main([
            "bench", "--experiment", "5.6", "--n", "10", "--replicates", "1",
            "--seed", "4", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        header = (tmp_path / "profile.csv").read_text().splitlines()[0]
        assert header == (
            "tau,semi-smooth-newton-ncm,diagonal-newton-ncm,alternating-projections"
        )

    def test_single_solver_degenerate_profile(self, tmp_path):
        code = main([
            "bench", "--experiment", "5.5", "--alpha", "0", "--n", "20",
            "--replicates", "2", "--seed", "3", "--solvers", "newton",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "profile.csv").read_text().splitlines()
        assert lines[0] == "tau,semi-smooth-newton-ncm"
        for line in lines[1:]:
            assert float(line.split(",")[1]) == 1.0

    def test_fixed_point_regime(self, tmp_path):
        code = main([
            "bench", "--experiment", "5.5", "--alpha", "0", "--n", "30",
            "--replicates", "3", "--seed", "5", "--solvers", "newton",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "raw.csv").read_text().splitlines()[1:]
        for line in lines:
            cells = line.split(",")
            assert int(cells[8]) <= 2  # iterations
            assert cells[9] == "1"  # converged

    def test_invalid_parameters(self, tmp_path):
        common = ["bench", "--n", "10", "--seed", "1", "--replicates", "1",
                  "--solvers", "newton", "--out-dir", str(tmp_path)]
        for extra in (
            ["--experiment", "5.8", "--alpha", "0.001", "--ell", "99"],
            ["--experiment", "5.6", "--tol", "nan"],
            ["--experiment", "5.6", "--n", ","],
            ["--experiment", "5.6", "--solvers", ""],
            # E56 takes neither alpha nor ell, so a given one fails the run
            ["--experiment", "5.6", "--alpha", "7"],
            ["--experiment", "5.6", "--ell", "3"],
            ["--experiment", "5.6", "--ell", "n/2"],
            ["--experiment", "5.5", "--alpha", ","],
        ):
            code = main(common + extra)
            assert code == 1, extra
        assert not (tmp_path / "raw.csv").exists()

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_tol_fails_before_the_directory_and_the_warm_up(
        self, tmp_path, monkeypatch, capsys, tol
    ):
        def solver(*args, **kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(bench, "run_solver", solver)
        out_dir = tmp_path / "bt"
        code = main([
            "bench", "--experiment", "5.6", "--n", "8", "--replicates", "1",
            "--tol", tol, "--out-dir", str(out_dir),
        ])
        assert code == 1
        assert not out_dir.exists()
        assert capsys.readouterr().err.startswith(
            "error: tol must be nonnegative and finite"
        )

    def test_ell_defaults_to_half_of_n(self, tmp_path, monkeypatch):
        ells = []
        real_suite = bench.run_suite

        def suite(configs, *args, **kwargs):
            ells.append([config.ell for config in configs])
            return real_suite(configs, *args, **kwargs)

        monkeypatch.setattr(bench, "run_suite", suite)
        common = ["bench", "--experiment", "5.8", "--n", "6,8", "--alpha", "0.001",
                  "--replicates", "1", "--solvers", "newton"]
        for name, extra in (("default", []), ("literal", ["--ell", "n/2"]),
                            ("given", ["--ell", "2"])):
            assert main(common + extra + ["--out-dir", str(tmp_path / name)]) == 0
        assert ells == [[3, 4], [3, 4], [2, 2]]

    def test_raw_csv_keeps_ell(self, tmp_path):
        code = main([
            "bench", "--experiment", "5.8", "--n", "6", "--ell", "2", "--replicates", "1",
            "--solvers", "newton", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        header, row = (tmp_path / "raw.csv").read_text().splitlines()
        assert header.split(",")[2:4] == ["alpha", "ell"]
        assert row.split(",")[3] == "2"

    def test_summary_rows_follow_the_run_order(self, tmp_path, capsys):
        code = main([
            "bench", "--experiment", "5.5", "--alpha", "5,10", "--n", "6",
            "--replicates", "1", "--solvers", "newton,baseline", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(row[2], row[3]) for row in rows] == [
            ("5", "semi-smooth-newton-ncm"), ("5", "alternating-projections"),
            ("10", "semi-smooth-newton-ncm"), ("10", "alternating-projections"),
        ]
        raw = (tmp_path / "raw.csv").read_text().splitlines()[1:]
        assert [(cells[2], cells[6]) for cells in (line.split(",") for line in raw)] == [
            ("5", "semi-smooth-newton-ncm"), ("5", "alternating-projections"),
            ("10", "semi-smooth-newton-ncm"), ("10", "alternating-projections"),
        ]

    def test_out_dir_that_cannot_be_made_fails_before_the_suite(
        self, tmp_path, monkeypatch, capsys
    ):
        def suite(*args, **kwargs):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(bench, "run_suite", suite)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main([
            "bench", "--experiment", "5.6", "--n", "10", "--replicates", "1",
            "--solvers", "newton", "--out-dir", str(blocker / "x"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_seed_default_is_zero_and_ignores_env(self, tmp_path, monkeypatch):
        """``--seed`` is the one seed knob: without it the seed is 0, even
        with the old ``$CONIC_NEWTON_SEED`` set."""
        monkeypatch.setenv("CONIC_NEWTON_SEED", "123")
        d1 = tmp_path / "env"
        code = main([
            "bench", "--experiment", "5.6", "--n", "10", "--replicates", "1",
            "--solvers", "newton", "--out-dir", str(d1),
        ])
        assert code == 0
        line = (d1 / "raw.csv").read_text().splitlines()[1]
        assert line.split(",")[4] == "0"  # seed


# Files the property writes: tiny well-formed ones, and malformed ones.
CLI_FILES = {
    "matrix": "2,1\n1,2\n",
    "huge-matrix": "1,1e308\n1e308,1\n",
    "vector": "1\n-1\n",
    "huge-vector": "1e308\n-1\n",
    "empty": "",
    "ragged": "1,2\n3\n",
    "zero-by-zero": "%%MatrixMarket matrix array real general\n0 0\n",
    "non-numeric": "1,x\nx,1\n",
    "nan": "nan,1\n1,nan\n",
    "vector3": "1\n-1\n2\n",
    "nan-vector": "nan\n1\n",
}
MALFORMED_FILES = ["empty", "ragged", "zero-by-zero", "non-numeric", "nan"]
OUTPUT_OPTIONS = ("--out", "--out-matrix", "--out-report", "--out-dir")
PATH_OPTIONS = ("--T", "--b", "--input", "--x0") + OUTPUT_OPTIONS


def drawn(valid, invalid=()):
    """An option value with whether it is valid input."""
    values = st.sampled_from(valid).map(lambda v: (v, True))
    if invalid:
        values |= st.sampled_from(invalid).map(lambda v: (v, False))
    return values


# Option values; the invalid ones are input errors that the CLI must catch
# ("simplex" for --method or --solvers), or values argparse cannot convert or
# does not offer ("abc", "1.5" for an integer, "5.9" for --experiment).  An
# invalid output path lies under a directory that does not exist, or under or
# at a regular file.  Sizes stay tiny, so bench runs no real suite.
CLI_OPTIONS = {
    "solve-pe": {
        "--cone": drawn(["orthant:2", "soc:2"],
                        ["orthant:0", "soc:-1", "psd:x", "cube:2", "orthant", "psd:2"]),
        "--T": drawn(["matrix", "huge-matrix"], MALFORMED_FILES),
        "--b": drawn(["vector", "huge-vector"], MALFORMED_FILES),
        "--tol": drawn(["1e-8"], ["0", "-1", "nan", "inf", "abc"]),
        "--max-iter": drawn(["5"], ["0", "-3", "x", "1.5"]),
        "--x0": drawn(["zero", "vector"], ["vector3", "nan-vector"]),
        "--out": drawn(["r.json"], ["missing/r.json"]),
    },
    "ncm": {
        "--input": drawn(["matrix", "huge-matrix"], MALFORMED_FILES),
        "--tol": drawn(["1e-6", "0"], ["-1", "nan", "inf", "abc"]),
        "--max-iter": drawn(["50"], ["0", "-3", "x"]),
        "--method": drawn(["newton", "diagonal", "baseline"], ["simplex"]),
        "--out-matrix": drawn(["c.mtx"], ["missing/c.mtx"]),
        "--out-report": drawn(["r.json"], ["missing/r.json"]),
    },
    "bench": {
        "--experiment": drawn(["5.5", "5.6", "5.7", "5.8"], ["5.9"]),
        "--n": drawn(["2"], ["0", "-2", "x", "", ","]),
        "--replicates": drawn(["1"], ["0", "-1", "x"]),
        "--tol": drawn(["1e-6"], ["-1", "nan", "inf", "abc"]),
        "--solvers": drawn(["newton", "diagonal", "baseline"], ["", "simplex"]),
        "--out-dir": drawn(["bench", "new/bench"], ["matrix", "matrix/bench"]),
    },
}

CLI_CASES = st.sampled_from(sorted(CLI_OPTIONS)).flatmap(
    lambda command: st.tuples(st.just(command), st.fixed_dictionaries(CLI_OPTIONS[command]))
)


def run_cli(tmp, command, options):
    """Exit code and stderr of one in-process CLI run in directory ``tmp``."""
    argv = [command] + (["--seed", "1"] if command == "bench" else [])
    for flag, (value, _) in options.items():
        if flag in PATH_OPTIONS and value != "zero":
            value = os.path.join(tmp, value)
        argv += [flag, value]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error that argparse reports
            code = exc.code
    return code, err.getvalue()


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [["ncm", "--input", "m.mtx", "--tol", "abc"],
         ["solve-pe", "--cone", "orthant:2", "--T", "t", "--b", "b", "--max-iter", "x"],
         ["bench", "--experiment", "5.6", "--replicates", "x"],
         ["ncm"], ["simplex"], []],
        ids=["tol", "max-iter", "replicates", "missing-option", "unknown-command", "empty"],
    )
    def test_exit_as_input_errors(self, argv, capsys):
        # exit 2 means an iteration limit, so argparse's own code is not used
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["ncm", "--help"], ["--version"]])
    def test_help_and_version_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 0
        assert capsys.readouterr().out


def case(command, changed):
    """A property case: each option at a valid value, except those in
    ``changed``."""
    valid = {
        "solve-pe": {"--cone": "orthant:2", "--T": "matrix", "--b": "vector",
                     "--tol": "1e-8", "--max-iter": "5", "--x0": "zero",
                     "--out": "r.json"},
        "ncm": {"--input": "matrix", "--tol": "1e-6", "--max-iter": "50",
                "--method": "newton", "--out-matrix": "c.mtx", "--out-report": "r.json"},
        "bench": {"--experiment": "5.6", "--n": "2", "--replicates": "1",
                  "--tol": "1e-6", "--solvers": "newton", "--out-dir": "bench"},
    }[command]
    return command, {flag: changed.get(flag, (value, True)) for flag, value in valid.items()}


class TestCliProperty:
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
    @settings(max_examples=80, deadline=None)
    @given(CLI_CASES)
    @example(case("ncm", {"--max-iter": ("0", False)}))
    @example(case("bench", {"--n": ("", False)}))
    @example(case("ncm", {"--input": ("zero-by-zero", False)}))
    @example(case("ncm", {"--tol": ("abc", False)}))
    @example(case("solve-pe", {"--x0": ("vector3", False)}))
    @example(case("solve-pe", {"--x0": ("nan-vector", False)}))
    @example(case("solve-pe", {"--out": ("missing/r.json", False)}))
    @example(case("ncm", {"--out-matrix": ("missing/c.mtx", False)}))
    @example(case("ncm", {"--out-report": ("missing/r.json", False)}))
    @example(case("bench", {"--out-dir": ("matrix", False)}))
    @example(case("bench", {"--out-dir": ("matrix/bench", False)}))
    def test_every_input_has_a_documented_exit(self, case):
        # an input error exits 1; a well-formed input solves, hits a limit or
        # fails numerically (0, 2, 3); nothing but argparse's exit on a usage
        # error raises out of main.  Every command checks its output paths
        # (or makes its directory) before it solves, so a bad one exits 1.
        command, options = case
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in CLI_FILES.items():
                with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                    fh.write(text)
            code, err = run_cli(tmp, command, options)
        assert "Traceback" not in err
        if code == 1:
            assert err.count("error:") == 1, err
        inputs_valid = all(
            valid for flag, (_, valid) in options.items() if flag not in OUTPUT_OPTIONS
        )
        outputs_valid = all(
            valid for flag, (_, valid) in options.items() if flag in OUTPUT_OPTIONS
        )
        if inputs_valid and outputs_valid:
            assert code in (0, 2, 3), (code, err)
        else:
            assert code == 1, (code, err)
