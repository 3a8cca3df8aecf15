"""Benchmark of conic-newton, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
``src/``.  Each run is a closed loop with one client: an operation starts
when the previous one has been checked.  Inputs come from ``--seed`` and are
made outside the timer; every operation gets fresh ones.

``--trace 0`` runs operations for ``--seconds`` (at least ``MIN_OPS`` of them,
always whole size cycles) and reports the end-to-end metrics, with every
timing rescaled by a reference kernel timed next to it (``Reference``).
``--trace 1`` runs a fixed number of operations, alternately untraced and
with every layer boundary wrapped, and reports per-layer metrics per traced
operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  An operation that raises, exits non-zero or fails
its check counts as failed.
"""

import os

# Pin BLAS and OpenMP before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracer import BOUNDARIES, Tracer  # noqa: E402
from workloads import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "conic_newton"

MIN_OPS = 100  # op_s.p90 then has at least ten samples above it
# Index ranges of the inputs, so that no two operations of a run share any.
SETUP_BASE, UNTRACED_BASE, TRACED_BASE = 10 ** 6, 2 * 10 ** 6, 3 * 10 ** 6

END_TO_END = {
    "op_s.p50": "s",
    "op_s.p90": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{b}.{kind}": unit for b in BOUNDARIES
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "newton.iterations": "count",
    "ncm.iterations": "count",
    "newton.iter_s": "s",
    "linalg.solve.n_mean": "count",
    "linalg.gflop_computed": "GFLOP",
    "newton.lstsq.share": "ratio",
    "cones.active_share": "ratio",
    "trace.overhead": "ratio",
    "machine.ref_s": "s",
    "failed_frac": "ratio",
}

_FAILED = object()


def import_package():
    """Import the package afresh from ``src/`` (the set-up a user pays)."""
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    cn = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    return cn


class Runner:
    """Runs and checks operations of one workload, counting failures."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0

    def op(self, cn, index, call, tracer=None):
        """Make the inputs of ``index``, time ``call(inputs)``, check the output.

        With a ``tracer``, the call runs inside one traced operation; the
        wrappers are installed and removed outside the timed region.
        """
        inputs = self.workload.make(cn, self.seed, index, self.workdir)
        span = contextlib.nullcontext() if tracer is None else tracer.op()
        try:
            if tracer is not None:
                tracer.install(cn)
            start = time.perf_counter()
            try:
                with span:
                    output = call(inputs)
            except (Exception, SystemExit):
                traceback.print_exc(file=sys.stderr)
                output = _FAILED
            elapsed = time.perf_counter() - start
            ok = output is not _FAILED and self._check(inputs, output)
        finally:
            if tracer is not None:
                tracer.uninstall()
            self.workload.discard(inputs)
        self.attempted += 1
        self.failed += not ok
        return elapsed, inputs, output

    def _check(self, inputs, output):
        try:
            return bool(self.workload.check(inputs, output))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return False


def environment(args):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


class Reference:
    """A fixed kernel that does not use the package, timed next to each call.

    The host's speed drifts by 30% and more over tens of seconds, and most
    of the drift is shared by this kernel and the operations: a dense SVD
    and a loop of small numpy operations, the two kinds of work the
    operations do.  ``rescale`` divides each timed call by the median of the nearest
    ``2 WINDOW + 1`` kernel times and multiplies by ``NOMINAL_S``, so a
    timing reads as seconds on a host running the kernel in ``NOMINAL_S``.
    """

    NOMINAL_S = 0.0125  # the kernel's median on the 2-vCPU Xeon VM of README.md
    WINDOW = 2

    def __init__(self):
        rng = np.random.default_rng(0)
        self._dense = rng.standard_normal((220, 220))
        self._small = rng.standard_normal((16, 16))
        self.times = []

    def measure(self):
        """Run the kernel once and record its time."""
        start = time.perf_counter()
        np.linalg.svd(self._dense)
        b = self._small
        for _ in range(150):
            c = b @ b.T
            b = (c - c.mean()) / (abs(float(c[0, 0])) + 1.0) + self._small
        self.times.append(time.perf_counter() - start)

    def rescale(self, raw):
        """``raw[i]`` was timed just before the ``i``-th kernel run."""
        w = self.WINDOW
        return [t * self.NOMINAL_S / statistics.median(self.times[max(0, i - w):i + w + 1])
                for i, t in enumerate(raw)]


def untraced(runner, cn, seconds):
    """End-to-end metrics of a closed loop running for ``seconds``.

    Each size cycle starts with a set-up: a fresh import of the package and
    its first operation.  The later operations use that import.  Set-ups are
    spread over the whole run, so their median sees the same machine as the
    operations do.  Every set-up and operation is followed by one run of the
    reference kernel, and all timings are rescaled by it.
    """
    workload = runner.workload
    reference = Reference()
    raw, is_setup = [], []

    def fresh_import_and_run(inputs):
        return workload.run(import_package(), inputs)

    def run(inputs):
        return workload.run(cn, inputs)

    def timed(index, call, setup):
        raw.append(runner.op(cn, index, call)[0])
        is_setup.append(setup)
        reference.measure()

    deadline = time.perf_counter() + seconds
    index = 0
    while (index % workload.cycle or index < MIN_OPS
           or time.perf_counter() < deadline):
        if index % workload.cycle == 0:
            timed(SETUP_BASE + index, fresh_import_and_run, True)
            cn = sys.modules[PACKAGE]
        timed(index, run, False)
        index += 1

    scaled = reference.rescale(raw)
    setup = [t for t, s in zip(scaled, is_setup) if s]
    times = [t for t, s in zip(scaled, is_setup) if not s]
    return {
        "op_s.p50": statistics.median(times),
        "op_s.p90": statistics.quantiles(times, n=10)[-1],
        "ops_per_s": len(times) / sum(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(runner, cn, seconds):
    """Per-layer metrics over a fixed list of operations.

    The list length depends only on the workload and ``seconds``, so exact
    counts repeat between runs with one seed.
    """
    workload = runner.workload
    cycles = max(1, round(seconds / 2.0 / (workload.nominal_s * workload.cycle)))
    count = cycles * workload.cycle

    tracer = Tracer()
    reference = Reference()

    def run(inputs):
        return workload.run(cn, inputs)

    # Untraced and traced operations alternate, so a change in machine load
    # during the run reaches both sides of trace.overhead alike.
    plain, times, positive, orthant = [], [], 0, 0
    for j in range(count):
        plain.append(runner.op(cn, UNTRACED_BASE + j, run)[0])
        elapsed, inputs, output = runner.op(cn, TRACED_BASE + j, run, tracer)
        times.append(elapsed)
        reference.measure()
        if output is not _FAILED:
            pos, total = workload.orthant_counts(inputs, output)
            positive += pos
            orthant += total

    missing = [b for b in workload.requires if tracer.calls[b] == 0]
    if missing:
        raise SystemExit(f"error: traced run recorded no calls at {', '.join(missing)}; "
                         "a wrapper is not where the caller looks the name up")

    calls = tracer.calls
    metrics = {}
    for b in BOUNDARIES:
        metrics[f"{b}.calls"] = calls[b] / count
        metrics[f"{b}.self_s"] = tracer.self_s[b] / count
    iterations = tracer.newton_iterations
    metrics.update({
        "newton.iterations": iterations / count,
        "ncm.iterations": tracer.ncm_iterations / count,
        "newton.iter_s": tracer.newton_s / iterations if iterations else 0.0,
        "linalg.solve.n_mean": (tracer.solve_orders / calls["linalg.solve"]
                                if calls["linalg.solve"] else 0.0),
        "linalg.gflop_computed": tracer.flops / count / 1e9,
        "newton.lstsq.share": tracer.newton_lstsq / iterations if iterations else 0.0,
        "cones.active_share": positive / orthant if orthant else 0.0,
        "trace.overhead": statistics.median(times) / statistics.median(plain) - 1.0,
        "machine.ref_s": statistics.median(reference.times),
    })
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, tiny=False):
    """Run one workload; ``tiny`` shrinks the instances (smoke test only)."""
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {SRC / PACKAGE}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(json.dumps({"env": environment(args)}), flush=True)

    workload = workloads(tiny)[args.workload]
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        cn = import_package()
        if not Path(cn.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"error: imported {cn.__file__}, not the checkout's source",
                  file=sys.stderr)
            return 2
        runner = Runner(workload, args.seed, str(workdir))
        if args.trace:
            values, units = traced(runner, cn, args.seconds), PER_LAYER
            values["failed_frac"] = runner.failed / runner.attempted
        else:
            values, units = untraced(runner, cn, args.seconds), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass

    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
