"""The package's public surface."""

import contextlib
import importlib
import importlib.util
import io
import re
from pathlib import Path

import pytest

import conic_newton

ROOT = Path(__file__).resolve().parents[1]

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
    ("operators", "GuaranteeReport"),
    ("ncm", "NcmState"),
    ("ncm", "diagonal_step"),
    ("ncm", "ncm_step"),
    ("ncm", "ncm_residual"),
    ("qcp", "embed_kkt"),
    ("qcp", "kkt_residual"),
    ("qcp", "to_projection_equation"),
    ("newton", "measure_ratios"),
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
