"""Command-line interface.

Subcommands:

* ``solve-pe``: solve a projection equation P_K(x) + Tx = b from files.
* ``ncm``: nearest correlation matrix for a matrix read from a file.
* ``bench``: run a benchmark suite and emit raw.csv plus profile.csv.

Exit codes: 0 converged (residual tolerance or repeated-pattern stop),
1 input error, 2 iteration limit or pattern cycle, 3 numerical failure
(numpy's ``LinAlgError`` included) or singular system.  Input errors include
a path that cannot be read or written, a ``--x0`` of the wrong length or with
non-finite entries, and an unknown solver name: ``ncm --method`` takes the
names of ``bench --solvers``, canonical or alias, and is checked first.
``solve-pe`` and ``ncm`` check their output paths before they read or solve
anything, and ``bench`` checks its arguments, ``--tol`` included, before it
makes its output directory, so a bad argument leaves no directory and a bad
output path costs no solve.  A usage error that argparse catches (an unknown
option, a missing one, or a value it cannot convert, such as ``--tol abc``)
is an input error too, so it exits 1 rather than argparse's 2.

Each command imports the ``analysis``, ``bench``, ``matrixio`` and ``ncm``
names it uses when it runs, so loading the CLI loads none of those modules:
``solve-pe`` loads ``analysis`` and ``matrixio``, ``ncm`` loads ``ncm`` and
``matrixio``, and only ``bench`` loads ``bench``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .cones import Cone, Orthant, PsdCone, SecondOrder
from .exceptions import NumericalFailureError
from .newton import NewtonConfig, Termination, solve
from .operators import DenseOperator, ProjectionEquationProblem

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MAX_ITER = 2
EXIT_NUMERICAL = 3

_EXPERIMENT_NAMES = {"5.5": "E55", "5.6": "E56", "5.7": "E57", "5.8": "E58"}


def _parse_cone(spec: str) -> Cone:
    kind, _, size = spec.partition(":")
    if not size.removeprefix("-").isdecimal():
        raise ValueError(f"malformed cone spec {spec!r}, expected kind:n")
    n = int(size)
    if kind == "orthant":
        return Orthant(n)
    if kind == "soc":
        return SecondOrder(n)
    if kind == "psd":
        return PsdCone(n)
    raise ValueError(f"unknown cone kind {kind!r} (use orthant, soc, or psd)")


def _termination_exit(termination: Termination) -> int:
    if termination.converged:
        return EXIT_OK
    if termination in (Termination.MAX_ITER, Termination.PATTERN_CYCLE):
        return EXIT_MAX_ITER
    return EXIT_NUMERICAL


def _check_writable(path) -> None:
    """Raise ``OSError`` unless ``path`` can be opened for writing: its
    directory exists and is writable, and it is not a directory.  Nothing is
    created, so a run that fails later leaves no file behind."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise IsADirectoryError(f"cannot write {path!r}: it is a directory")
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"cannot write {path!r}: no directory {directory!r}")
    if not os.access(directory, os.W_OK) or (
        os.path.exists(path) and not os.access(path, os.W_OK)
    ):
        raise PermissionError(f"cannot write {path!r}: permission denied")


def _write_report(path, solver, config, report, extra) -> None:
    """Write a command's JSON report: the keys every command shares, in
    order, then the command's own ``extra`` keys."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "solver": solver,
        "config": config,
        "termination": report.termination.value,
        "iterations": report.iterations,
        "residuals": report.residuals,
        "wall_time_seconds": report.wall_time_seconds,
        **extra,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def cmd_solve_pe(args) -> int:
    from .analysis import analyze
    from .matrixio import read_matrix, read_vector

    _check_writable(args.out)
    cone = _parse_cone(args.cone)
    t_matrix = read_matrix(args.T)
    b = read_vector(args.b)
    x0 = None if args.x0 == "zero" else read_vector(args.x0)
    problem = ProjectionEquationProblem(cone=cone, T=DenseOperator(t_matrix), b=b)
    config = NewtonConfig(tol=args.tol, max_iter=args.max_iter, x0=x0)

    guarantee = analyze(problem)
    print(guarantee.summary(), file=sys.stderr)
    report = solve(problem, config)

    config_keys = {
        "cone": args.cone,
        "tol": args.tol,
        "max_iter": args.max_iter,
        "x0": args.x0,
        "T": os.fspath(args.T),
        "b": os.fspath(args.b),
    }
    _write_report(args.out, "semi-smooth-newton", config_keys, report, {
        "guarantee": dataclasses.asdict(guarantee),
        "solution": report.solution.tolist(),
        "projected_solution": report.projected_solution.tolist(),
    })
    return _termination_exit(report.termination)


def cmd_ncm(args) -> int:
    from .matrixio import read_matrix, warn_if_asymmetric, write_matrix
    from .ncm import NcmProblem, canonical_solver, default_max_iter, run_solver

    name = canonical_solver(args.method)
    _check_writable(args.out_matrix)
    _check_writable(args.out_report)
    # NcmProblem checks the matrix before the warning reads it
    raw = read_matrix(args.input)
    problem = NcmProblem(raw)
    warn_if_asymmetric(raw, lambda msg: print(f"warning: {msg}", file=sys.stderr))

    max_iter = args.max_iter if args.max_iter is not None else default_max_iter(name)
    report = run_solver(name, problem, args.tol, max_iter)

    write_matrix(args.out_matrix, report.projected_solution)
    config_keys = {
        "input": os.fspath(args.input),
        "tol": args.tol,
        "max_iter": max_iter,
        "method": args.method,
    }
    _write_report(args.out_report, args.method, config_keys, report, {
        "lambda": (np.diag(problem.G) - np.diag(report.solution)).tolist(),
        "matrix_path": os.fspath(args.out_matrix),
    })
    return _termination_exit(report.termination)


def _parse_list(text, kind):
    return [kind(part) for part in str(text).split(",") if part != ""]


def cmd_bench(args) -> int:
    from .bench import (
        ExperimentConfig,
        run_suite,
        summarize,
        write_profile_csv,
        write_raw_csv,
    )
    from .ncm import _tolerance, canonical_solver

    _tolerance(args.tol)
    experiment = _EXPERIMENT_NAMES[args.experiment]
    default_n = "200,400" if experiment == "E58" else "100,200,300"
    ns = _parse_list(args.n if args.n is not None else default_n, int)
    solvers = [canonical_solver(s) for s in _parse_list(args.solvers, str)]
    # ExperimentConfig rejects a given --alpha or --ell that the experiment lacks
    if args.alpha is None:
        alphas = {"E55": [0.01, 0.1, 1.0, 10.0], "E58": [0.001]}.get(experiment, [None])
    else:
        alphas = _parse_list(args.alpha, float)
    if not ns or not solvers or not alphas:
        raise ValueError("--n, --solvers and --alpha each need at least one entry")
    ell = "n/2" if args.ell is None and experiment == "E58" else args.ell
    configs = [
        ExperimentConfig(
            experiment=experiment, n=n, alpha=alpha,
            ell=None if ell is None else n // 2 if ell == "n/2" else int(ell),
            seed=args.seed, replicates=args.replicates,
        )
        for n in ns for alpha in alphas
    ]

    # made after every argument is checked and before the suite runs, so a
    # bad argument makes no directory and a directory that cannot be made
    # costs no solves
    os.makedirs(args.out_dir, exist_ok=True)
    table = run_suite(configs, solvers, tol=args.tol)
    write_raw_csv(table, os.path.join(args.out_dir, "raw.csv"))
    write_profile_csv(table, os.path.join(args.out_dir, "profile.csv"))

    print(f"{'experiment':<11}{'n':>6}  {'alpha':>8}  {'solver':<26}"
          f"{'mean_time_s':>12}{'mean_iters':>12}  converged")
    for row in summarize(table):
        alpha = "-" if row["alpha"] is None else f"{row['alpha']:g}"
        print(
            f"{row['experiment']:<11}{row['n']:>6}  {alpha:>8}  "
            f"{row['solver']:<26}{row['mean_time_seconds']:>12.4f}"
            f"{row['mean_iterations']:>12.1f}  {row['converged']}/{row['total']}"
        )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit ``EXIT_INPUT``; the
    subcommand parsers are of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="conic-newton",
        description="Semi-smooth Newton solver for conic projection equations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("solve-pe", help="solve P_K(x) + Tx = b from files")
    pe.add_argument("--cone", required=True, help="cone spec, e.g. orthant:3, soc:4, psd:2")
    pe.add_argument("--T", required=True, help="matrix file for the linear operator")
    pe.add_argument("--b", required=True, help="vector file for the right-hand side")
    pe.add_argument("--tol", type=float, default=1e-5)
    pe.add_argument("--max-iter", type=int, default=200)
    pe.add_argument("--x0", default="zero", help="vector file or 'zero'")
    pe.add_argument("--out", default="pe_report.json", help="JSON report path")
    pe.set_defaults(func=cmd_solve_pe)

    ncm = sub.add_parser("ncm", help="nearest correlation matrix")
    ncm.add_argument("--input", required=True, help="symmetric matrix file")
    ncm.add_argument("--tol", type=float, default=1e-5)
    ncm.add_argument("--max-iter", type=int, default=None)
    ncm.add_argument("--method", default="newton", help="solver name, as for bench --solvers")
    ncm.add_argument("--out-matrix", default="correlation.mtx")
    ncm.add_argument("--out-report", default="ncm_report.json")
    ncm.set_defaults(func=cmd_ncm)

    bench = sub.add_parser("bench", help="random-instance benchmark suite")
    bench.add_argument("--experiment", required=True, choices=sorted(_EXPERIMENT_NAMES))
    bench.add_argument("--n", default=None,
                       help="comma-separated dimensions (default 100,200,300; 200,400 for 5.8)")
    bench.add_argument("--alpha", default=None,
                       help="comma-separated values for 5.5/5.8 "
                            "(default 0.01,0.1,1,10; 0.001 for 5.8)")
    bench.add_argument("--ell", default=None,
                       help="block size for 5.8, or 'n/2' (the default)")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--replicates", type=int, default=10)
    bench.add_argument("--solvers", default="newton,diagonal,baseline")
    bench.add_argument("--tol", type=float, default=1e-5)
    bench.add_argument("--out-dir", default=".")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code; the one place where the
    package's exceptions become exit codes, for every command."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # numpy's LinAlgError is a ValueError, so this clause comes first
    except (NumericalFailureError, np.linalg.LinAlgError) as exc:
        at = getattr(exc, "iteration", None)
        where = "" if at is None else f" at iteration {at}"
        print(f"numerical failure{where}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
