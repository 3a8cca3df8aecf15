"""The package's public surface."""

import importlib
import importlib.util
from pathlib import Path

import conic_newton


def test_all_has_no_duplicates():
    names = conic_newton.__all__
    assert len(set(names)) == len(names)


def test_every_exported_name_resolves():
    missing = [name for name in conic_newton.__all__ if not hasattr(conic_newton, name)]
    assert missing == []


def test_benchmark_boundaries_exist():
    """Every method and function the benchmark tracer wraps is still there,
    so a rename fails here instead of leaving a traced run with no calls."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
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
