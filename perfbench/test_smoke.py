"""Smoke test of the benchmark itself, at tiny instance sizes.

    python3 -m pytest perfbench/test_smoke.py

Each run goes through ``run.main`` in its own interpreter, as the benchmark
command does, so thread pinning, fresh imports and patched names never reach
the test process.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from workloads import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]

_TINY_MAIN = ("import sys; sys.path.insert(0, sys.argv.pop(1)); import run; "
              "sys.exit(run.main(sys.argv[1:], tiny=True))")


def bench(workload, trace, root=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, "-c", _TINY_MAIN, str(root / "perfbench"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_spec_matches_the_workloads():
    assert NAMES == list(workloads())


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics(workload):
    result = result_of(bench(workload, 0))
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat(workload):
    first, second = (result_of(bench(workload, 1)) for _ in range(2))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in (first, second):
        assert units(result) == expected
        assert result["metrics"]["failed_frac"]["value"] == 0
    exact = [name for name, unit in expected.items()
             if unit != "s" and name != "trace.overhead"]
    assert {n: first["metrics"][n]["value"] for n in exact} == {
        n: second["metrics"][n]["value"] for n in exact}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("newton", 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_checks_reject_wrong_answers():
    newton = workloads(tiny=True)["newton"]
    inputs = newton.make(None, 5, 0, None)
    assert inputs["kind"] == "orthant"
    assert not newton.check(inputs, SimpleNamespace(solution=np.zeros_like(inputs["b"])))

    inputs = newton.make(None, 5, 4, None)
    assert inputs["kind"] == "qcp-eq"
    point = SimpleNamespace(x=-np.ones(inputs["n"]), lam=np.zeros(newton.rows))
    assert not newton.check(inputs, (point, None))
