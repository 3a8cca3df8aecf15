"""The package's public surface."""

import contextlib
import dataclasses
import importlib
import importlib.util
import io
import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import conic_newton
import conic_newton as cn
from conic_newton.exceptions import _matrix, _vector

ROOT = Path(__file__).resolve().parents[1]

# modules that load only when a call first needs them
LAZY_MODULES = ("analysis", "bench", "cli", "matrixio", "ncm")

PUBLIC_NAMES = {
    "AugmentedKkt", "Cone", "DenseOperator", "DimensionMismatchError",
    "EquationForm", "FreeSpace", "Guarantee", "KktPoint", "LinearOperator",
    "NcmProblem", "NewtonConfig", "NumericalFailureError", "Orthant",
    "Product", "ProjectionEquationProblem", "PsdCone", "QcpProblem",
    "ScaledIdentity", "SecondOrder", "SolveReport", "Termination", "analyze",
    "residual", "smat", "solve", "solve_ncm", "solve_ncm_baseline",
    "solve_ncm_diagonal", "solve_qcp", "svec",
}

# names the package no longer exports, at the module that holds them
MODULE_NAMES = [
    ("cones", "JacobianElement"),
    ("analysis", "GuaranteeReport"),
    ("ncm", "NcmState"),
    ("ncm", "diagonal_step"),
    ("ncm", "ncm_step"),
    ("ncm", "ncm_residual"),
    ("qcp", "embed_kkt"),
    ("qcp", "kkt_residual"),
    ("qcp", "to_projection_equation"),
    ("analysis", "measure_ratios"),
]


def test_all_has_no_duplicates():
    names = conic_newton.__all__
    assert len(set(names)) == len(names)


def test_all_is_the_public_surface():
    assert set(conic_newton.__all__) == PUBLIC_NAMES
    assert len(conic_newton.__all__) == 30


@pytest.mark.parametrize("module, name", MODULE_NAMES,
                         ids=[f"{m}.{n}" for m, n in MODULE_NAMES])
def test_internal_name_resolves_at_its_module(module, name):
    assert name not in conic_newton.__all__
    mod = importlib.import_module(f"conic_newton.{module}")
    assert getattr(mod, name).__module__ == mod.__name__


@pytest.mark.parametrize("name", ["analyze_problem", "analyze_qcp_operator", "as_operator"])
def test_folded_helpers_are_gone(name):
    assert not hasattr(conic_newton, name)
    assert not hasattr(importlib.import_module("conic_newton.operators"), name)


def test_readme_quick_tour_runs():
    """The README's quick tour runs against the package as it is and prints
    the projected solution it documents."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert "[1. 0.]" in out.getvalue().splitlines()


_B2 = np.array([3.0, -2.0])
_A12 = np.array([[1.0, 1.0]])


def _pe(T=2.0, b=_B2):
    return cn.ProjectionEquationProblem(cn.Orthant(2), T, b)


# (id, call, exception, message fragment): each call breaks the argument
# rule and raises a ValueError when it is made, never later and never raw
ARGUMENT_CASES = [
    ("orthant-float-n", lambda: cn.Orthant(2.5), ValueError, "cone dimension"),
    ("free-string-n", lambda: cn.FreeSpace("3"), ValueError, "cone dimension"),
    ("psd-float-n", lambda: cn.PsdCone(1.5), ValueError, "cone dimension"),
    ("identity-float-dim", lambda: cn.ScaledIdentity(1.0, 2.5), ValueError,
     "operator dimension"),
    ("solve-float-max-iter", lambda: cn.solve(_pe(), cn.NewtonConfig(max_iter=2.5)),
     ValueError, "max_iter"),
    ("ncm-float-max-iter", lambda: cn.solve_ncm(cn.NcmProblem(np.eye(2)), max_iter=2.5),
     ValueError, "max_iter"),
    ("pe-matrix-of-wrong-order", lambda: _pe(T=np.eye(3)), cn.DimensionMismatchError,
     "operator has dimension 3"),
    ("pe-complex-rhs", lambda: _pe(b=_B2 + 1j), ValueError, "real vector"),
    ("qcp-complex-linear-term", lambda: cn.QcpProblem(2.0, _B2 + 0j, cn.Orthant(2)),
     ValueError, "real vector"),
    ("solve-complex-start", lambda: cn.solve(_pe(), cn.NewtonConfig(x0=_B2 + 1j)),
     ValueError, "real vector"),
    ("project-complex-point", lambda: cn.Orthant(2).project(_B2 + 1j), ValueError,
     "real vector"),
    ("residual-complex-point", lambda: cn.residual(_pe(), _B2 + 1j), ValueError,
     "real vector"),
    ("experiment-nan-alpha",
     lambda: cn.bench.ExperimentConfig("E55", n=5, alpha=float("nan")), ValueError,
     "alpha contains non-finite entries"),
    ("experiment-float-n", lambda: cn.bench.ExperimentConfig("E56", n=2.5), ValueError,
     "n must be"),
    ("experiment-float-ell",
     lambda: cn.bench.ExperimentConfig("E58", n=4, alpha=0.1, ell=2.5), ValueError,
     "ell must be"),
    ("correlation-float-n", lambda: cn.bench.random_correlation_matrix(2.5, 0),
     ValueError, "n must be"),
    # matrices: one rule and one wording for T, Q, A and G
    ("dense-complex-matrix", lambda: cn.DenseOperator(np.eye(2) + 1j), ValueError,
     "operator matrix: expected a real matrix"),
    ("ncm-complex-matrix", lambda: cn.NcmProblem(np.eye(2) + 1j), ValueError,
     "input matrix: expected a real matrix"),
    ("kkt-complex-constraint",
     lambda: cn.AugmentedKkt(cn.ScaledIdentity(1.0, 2), _A12 + 1j), ValueError,
     "constraint matrix: expected a real matrix"),
    ("qcp-complex-equality",
     lambda: cn.QcpProblem(2.0, _B2, cn.Orthant(2), equality=(_A12 + 1j, [1.0])),
     ValueError, "equality matrix: expected a real matrix"),
    ("identity-complex-scale", lambda: cn.ScaledIdentity(1j, 2), ValueError,
     "identity scale: expected a real number"),
    ("ncm-infinities-facing", lambda: cn.NcmProblem([[1, np.inf], [-np.inf, 1]]),
     ValueError, "input matrix contains non-finite entries"),
    ("dense-vector", lambda: cn.DenseOperator(np.ones(3)), cn.DimensionMismatchError,
     r"operator matrix: expected a nonempty square matrix, got shape \(3,\)"),
    ("ncm-non-square", lambda: cn.NcmProblem(np.ones((2, 3))), cn.DimensionMismatchError,
     r"input matrix: expected a nonempty square matrix, got shape \(2, 3\)"),
    ("kkt-wrong-columns",
     lambda: cn.AugmentedKkt(cn.ScaledIdentity(1.0, 2), np.ones((1, 3))),
     cn.DimensionMismatchError, "constraint matrix: expected a matrix with 2 columns"),
    ("qcp-equality-wrong-columns",
     lambda: cn.QcpProblem(2.0, _B2, cn.Orthant(2), equality=(np.ones((1, 3)), [1.0])),
     cn.DimensionMismatchError, "equality matrix: expected a matrix with 2 columns"),
    ("qcp-equality-no-rows",
     lambda: cn.QcpProblem(2.0, _B2, cn.Orthant(2), equality=(np.ones((0, 2)), [])),
     cn.DimensionMismatchError, "equality matrix needs at least one row"),
    # arguments of the wrong kind
    ("pe-array-for-cone", lambda: cn.ProjectionEquationProblem(np.eye(2), 2.0, _B2),
     ValueError, "cone must be a Cone"),
    ("qcp-array-for-cone", lambda: cn.QcpProblem(2.0, _B2, np.eye(2)), ValueError,
     "cone must be a Cone"),
    ("product-number-part", lambda: cn.Product((cn.Orthant(2), 3)), ValueError,
     "product part must be a Cone"),
    ("config-string-tol", lambda: cn.NewtonConfig(tol="a"), ValueError,
     "tol: expected a real number"),
    ("config-none-tol", lambda: cn.NewtonConfig(tol=None), ValueError,
     "tol: expected a real number"),
    ("config-vector-tol", lambda: cn.NewtonConfig(tol=[1e-5, 1e-6]), ValueError,
     "tol: expected a real number"),
    ("ncm-string-tol", lambda: cn.solve_ncm(cn.NcmProblem(np.eye(2)), tol="a"),
     ValueError, "tol: expected a real number"),
    ("ncm-none-tol", lambda: cn.solve_ncm(cn.NcmProblem(np.eye(2)), tol=None),
     ValueError, "tol: expected a real number"),
    ("experiment-string-alpha",
     lambda: cn.bench.ExperimentConfig("E55", n=5, alpha="a"), ValueError,
     "alpha: expected a real number"),
]


@pytest.mark.parametrize("call, error, fragment", [case[1:] for case in ARGUMENT_CASES],
                         ids=[case[0] for case in ARGUMENT_CASES])
def test_a_bad_argument_raises_a_value_error_where_it_is_given(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


def test_an_operator_is_given_as_a_number_an_array_or_an_operator():
    """``ProjectionEquationProblem`` and ``QcpProblem`` read ``T`` and ``Q``
    by one rule, and the three forms of one operator solve alike."""
    forms = (2.0, 2.0 * np.eye(2), cn.DenseOperator(2.0 * np.eye(2)))
    for T in forms:
        problem = _pe(T=T)
        assert isinstance(problem.T, cn.LinearOperator)
        report = cn.solve(problem, cn.NewtonConfig(tol=1e-8))
        assert report.projected_solution.tolist() == [1.0, 0.0]
        assert isinstance(cn.QcpProblem(T, _B2, cn.Orthant(2)).Q, cn.LinearOperator)
    assert isinstance(_pe(T=forms[0]).T, cn.ScaledIdentity)
    assert isinstance(_pe(T=forms[1]).T, cn.DenseOperator)
    assert _pe(T=forms[2]).T is forms[2]


def test_a_float_vector_passes_the_rule_uncopied_and_unnamed():
    """The checks on the hot path copy no float64 vector and no C-ordered
    float64 matrix, and format their ``what`` only when they fail."""

    class Unprintable:
        def __str__(self):
            raise AssertionError("what was formatted")

        __repr__ = __str__

    x = np.zeros(3)
    assert _vector(x, 3, Unprintable()) is x
    m = np.zeros((3, 3))
    assert _matrix(m, Unprintable()) is m
    assert _matrix(m, Unprintable(), 3) is m


def _records():
    """One of each record that holds an array, with the name of that array."""
    problem = _pe()
    kkt, report = cn.solve_qcp(cn.QcpProblem(2.0, _B2, cn.Orthant(2), (_A12, [1.0])))
    g = np.eye(2)
    ncm = importlib.import_module("conic_newton.ncm")
    state = ncm.NcmState(g, np.zeros(2), g, np.linalg.eigh(g), 0.0)
    return [
        (problem, "b"), (report, "solution"), (kkt, "x"), (state, "D_diag"),
        (cn.QcpProblem(2.0, _B2, cn.Orthant(2)), "q"), (cn.NcmProblem(g), "G"),
    ]


def test_array_records_compare_by_identity():
    """``==`` on a record that holds an array is identity, where comparing
    the arrays raised numpy's "truth value ... ambiguous"; ``NewtonConfig``
    keeps its value equality."""
    for record, name in _records():
        twin = dataclasses.replace(record, **{name: getattr(record, name).copy()})
        assert record == record and not record != record
        assert (record == twin) is False and record != twin, type(record).__name__
        assert len({record, twin}) == 2
    assert cn.NewtonConfig(tol=1e-6, max_iter=3) == cn.NewtonConfig(1e-6, 3)


def test_cli_import_builds_only_the_records_as_dataclasses():
    """Cones and operators are plain classes, so importing the CLI generates
    dataclass code only for the five records whose dataclass API is public
    (``replace``, ``asdict``): the rest of the modules load lazily."""
    out = run_fresh("""
        import dataclasses, json
        built, dataclass = [], dataclasses.dataclass

        def counted(cls=None, /, **options):
            def build(cls):
                built.append(f"{cls.__module__}.{cls.__qualname__}")
                return dataclass(cls, **options)
            return build if cls is None else build(cls)

        dataclasses.dataclass = counted
        import conic_newton.cli
        print(json.dumps([name for name in built if name.startswith("conic_newton.")]))
    """)
    assert sorted(json.loads(out)) == [
        "conic_newton.newton.NewtonConfig",
        "conic_newton.newton.SolveReport",
        "conic_newton.operators.ProjectionEquationProblem",
        "conic_newton.qcp.KktPoint",
        "conic_newton.qcp.QcpProblem",
    ]


def test_every_exported_name_resolves():
    missing = [name for name in conic_newton.__all__ if not hasattr(conic_newton, name)]
    assert missing == []


def test_benchmark_boundaries_exist():
    """Every method and function the benchmark tracer wraps is still there,
    so a rename fails here instead of leaving a traced run with no calls."""
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name, module, base, method in tracer.METHODS:
        mod = importlib.import_module(f"conic_newton.{module}")
        base_cls = getattr(mod, base, None)
        assert isinstance(base_cls, type), name
        owners = [cls for cls in vars(mod).values()
                  if isinstance(cls, type) and issubclass(cls, base_cls)
                  and method in vars(cls)]
        assert owners, name
    for name, module, func in tracer.FUNCTIONS:
        mod = importlib.import_module(f"conic_newton.{module}")
        assert callable(getattr(mod, func, None)), name



def run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports the package from
    this checkout's ``src/``, and return what it prints."""
    setup = f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n"
    result = subprocess.run([sys.executable, "-c", setup + textwrap.dedent(code)],
                            capture_output=True, text=True, check=True)
    return result.stdout


def loaded_by(tmp_path, code):
    """The ``conic_newton`` modules loaded after ``code`` runs in a fresh
    interpreter, in ``tmp_path``, with ``main`` the CLI's entry point."""
    out = run_fresh(f"""
        import json, os
        os.chdir({str(tmp_path)!r})
        from conic_newton.cli import main
        {code}
        print(json.dumps(sorted(sys.modules)))
    """)
    return {name.removeprefix("conic_newton.") for name in json.loads(out)
            if name.startswith("conic_newton.")}


def test_cli_import_loads_no_ncm_bench_or_matrixio():
    """Neither ``import conic_newton`` nor ``import conic_newton.cli``
    loads a lazy module other than ``cli``."""
    out = run_fresh("""
        import json
        import conic_newton
        print(json.dumps(sorted(sys.modules)))
        import conic_newton.cli
        print(json.dumps(sorted(sys.modules)))
    """)
    package, cli = (set(json.loads(line)) for line in out.splitlines())
    assert "conic_newton.cli" in cli - package
    for loaded in (package, cli):
        assert not {f"conic_newton.{name}"
                    for name in ("analysis", "bench", "matrixio", "ncm")} & loaded


def test_ncm_command_loads_no_bench_or_analysis(tmp_path):
    (tmp_path / "g.csv").write_text("1,0.5\n0.5,1\n")
    loaded = loaded_by(tmp_path, 'assert main(["ncm", "--input", "g.csv"]) == 0')
    assert {"ncm", "matrixio"} <= loaded
    assert not {"bench", "analysis"} & loaded


def test_solve_pe_command_loads_no_bench_or_ncm(tmp_path):
    (tmp_path / "t.csv").write_text("2,0\n0,2\n")
    (tmp_path / "b.csv").write_text("3\n-2\n")
    loaded = loaded_by(tmp_path, 'assert main(["solve-pe", "--cone", "orthant:2", '
                                 '"--T", "t.csv", "--b", "b.csv"]) == 0')
    assert "analysis" in loaded
    assert not {"bench", "ncm"} & loaded


def test_lazy_names_resolve_in_a_fresh_interpreter():
    """In an interpreter that has loaded no lazy module yet, every export
    resolves through ``from conic_newton import`` and as an attribute, each
    lazy submodule as an attribute, ``dir`` covers them all, and an unknown
    name still raises ``AttributeError``."""
    out = run_fresh(f"""
        import types
        import conic_newton as cn
        for name in cn.__all__:
            namespace = {{}}
            exec(f"from conic_newton import {{name}}", namespace)
            assert namespace[name] is getattr(cn, name), name
        for module in {LAZY_MODULES!r}:
            assert getattr(cn, module) is sys.modules["conic_newton." + module], module
            assert isinstance(getattr(cn, module), types.ModuleType), module
        assert set(cn.__all__) | set({LAZY_MODULES!r}) <= set(dir(cn))
        try:
            cn.no_such_name
        except AttributeError as exc:
            print(exc)
    """)
    assert out == "module 'conic_newton' has no attribute 'no_such_name'\n"


@pytest.mark.parametrize("name", ["NcmProblem", "solve_ncm", "solve_ncm_baseline",
                                  "solve_ncm_diagonal"])
def test_lazy_export_is_the_ncm_object(name):
    ncm = importlib.import_module("conic_newton.ncm")
    assert getattr(conic_newton, name) is getattr(ncm, name)


@pytest.mark.parametrize("name", ["Guarantee", "analyze"])
def test_lazy_export_is_the_analysis_object(name):
    analysis = importlib.import_module("conic_newton.analysis")
    assert getattr(conic_newton, name) is getattr(analysis, name)
