"""Random nearest-correlation instances, timing harness, performance profiles.

Four instance families are supported, named E55 through E58:

* E55: a random correlation matrix plus alpha times a random symmetric
  perturbation with entries in [-1, 1].
* E56: random symmetric entries in [-1, 1], diagonal fixed at exactly 1.
* E57: same with entries in [0, 2].
* E58: a leading ell x ell block equal to (ell/(1-ell)) * (ones - I), plus a
  random diagonal with entries in [-20000, 20000], plus alpha times a random
  symmetric perturbation.  The printed block factor is negative for ell >= 2.

Profiles follow the usual convention: for each problem, each solver's time
is divided by the best time on that problem, and rho_s(tau) is the fraction
of problems where solver s is within factor tau of the best.  Failed runs
count as infinite time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import NumericalFailureError, _finite, _number, _size
from .ncm import NcmProblem, _tolerance, canonical_solver, run_solver

EXPERIMENTS = ("E55", "E56", "E57", "E58")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n: int
    alpha: float | None = None
    ell: int | None = None
    seed: int = 0
    replicates: int = 10

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        object.__setattr__(self, "n", _size(self.n, "n"))
        object.__setattr__(self, "replicates", _size(self.replicates, "replicates"))
        if self.experiment in ("E55", "E58"):
            alpha = None if self.alpha is None else _number(self.alpha, "alpha")
            if alpha is None or _finite(alpha, "alpha") < 0:
                raise ValueError(f"{self.experiment} needs alpha >= 0")
            object.__setattr__(self, "alpha", alpha)
        elif self.alpha is not None:
            raise ValueError(f"{self.experiment} does not take alpha")
        if self.experiment == "E58":
            if self.ell is None or _size(self.ell, "ell") > self.n:
                raise ValueError("E58 needs ell in [1, n]")
        elif self.ell is not None:
            raise ValueError(f"{self.experiment} does not take ell")


def _symmetric_uniform(rng, n, low, high):
    raw = rng.uniform(low, high, size=(n, n))
    return 0.5 * (raw + raw.T)


def random_correlation_matrix(n: int, seed) -> np.ndarray:
    """Random correlation matrix: unit diagonal, positive semidefinite, trace n.

    Eigenvalues are drawn uniformly from the simplex summing to n, conjugated
    by a random orthogonal matrix, then Givens rotations restore the unit
    diagonal one entry at a time (trace is preserved throughout).
    """
    if _size(n, "n") == 1:
        return np.array([[1.0]])
    rng = np.random.default_rng(seed)
    weights = rng.exponential(size=n)
    eigvals = n * weights / weights.sum()
    gauss = rng.standard_normal((n, n))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))
    a = (q * eigvals) @ q.T
    a = 0.5 * (a + a.T)

    for _ in range(n - 1):
        d = np.diag(a)
        if np.all(np.abs(d - 1.0) < 1e-12):
            break
        i = int(np.argmin(d))
        j = int(np.argmax(d))
        aii, ajj, g = a[i, i], a[j, j], a[i, j]
        disc = np.sqrt(max(g * g - (aii - 1.0) * (ajj - 1.0), 0.0))
        # root choice avoids cancellation in the numerator
        t = (-g - disc) / (ajj - 1.0) if g >= 0 else (-g + disc) / (ajj - 1.0)
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = t * c
        rot = np.array([[c, -s], [s, c]])
        a[:, [i, j]] = a[:, [i, j]] @ rot
        a[[i, j], :] = rot.T @ a[[i, j], :]
        a = 0.5 * (a + a.T)
        a[i, i] = 1.0

    np.fill_diagonal(a, 1.0)
    return a


def generate(config: ExperimentConfig, replicate_index: int) -> NcmProblem:
    """Instance for one replicate; deterministic in (seed, replicate_index)."""
    n = config.n
    key = [int(config.seed), int(replicate_index)]
    if config.experiment == "E55":
        c = random_correlation_matrix(n, seed=key + [0])
        rng = np.random.default_rng(key + [1])
        g = c + config.alpha * _symmetric_uniform(rng, n, -1.0, 1.0)
    elif config.experiment == "E56":
        rng = np.random.default_rng(key)
        g = _symmetric_uniform(rng, n, -1.0, 1.0)
        np.fill_diagonal(g, 1.0)
    elif config.experiment == "E57":
        rng = np.random.default_rng(key)
        g = _symmetric_uniform(rng, n, 0.0, 2.0)
        np.fill_diagonal(g, 1.0)
    else:  # E58
        rng = np.random.default_rng(key)
        ell = config.ell
        g = np.zeros((n, n))
        if ell > 1:
            g[:ell, :ell] = ell / (1.0 - ell) * (np.ones((ell, ell)) - np.eye(ell))
        g[np.arange(n), np.arange(n)] += rng.uniform(-20000.0, 20000.0, size=n)
        g += config.alpha * _symmetric_uniform(rng, n, -1.0, 1.0)
    return NcmProblem(g)


@dataclass
class RawRecord:
    config: ExperimentConfig
    replicate: int
    solver: str
    time_seconds: float
    iterations: int
    converged: bool


@dataclass
class ProfileTable:
    solver_names: list[str]
    times: np.ndarray  # problems x solvers, +inf marks failures
    tau_grid: np.ndarray
    rho: np.ndarray  # solvers x taus
    raw: list[RawRecord] = field(default_factory=list)


def profile(times: np.ndarray, tau_grid=None) -> ProfileTable:
    """Performance profile of a problems-by-solvers time matrix.  A finite
    time equal to its problem's best has ratio 1, even a best of 0, any other
    time/best, and a failure (inf or NaN) inf; the default grid is 1 and
    every finite ratio."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 2 or times.size == 0:
        raise ValueError("need a non-empty problems-by-solvers time matrix")
    n_problems, n_solvers = times.shape
    finite = np.isfinite(times)
    # adding 0.0 makes a best of -0.0 divide as +0.0
    best = np.min(times, axis=1, where=finite, initial=np.inf, keepdims=True) + 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(finite, np.where(times == best, 1.0, times / best), np.inf)
    if tau_grid is None:
        tau_grid = np.unique(np.append(1.0, ratios[np.isfinite(ratios)]))
    tau_grid = np.asarray(tau_grid, dtype=float)
    rho = np.count_nonzero(ratios[:, :, None] <= tau_grid, axis=0) / n_problems
    return ProfileTable(
        solver_names=[f"solver_{s}" for s in range(n_solvers)],
        times=times,
        tau_grid=tau_grid,
        rho=rho,
    )


def run_suite(
    configs: list[ExperimentConfig],
    solvers: list[str],
    tol: float = 1e-5,
) -> ProfileTable:
    """Time every solver on every generated instance and build the profile.

    Each (instance, solver) pair runs in fresh state; a solve that does not
    reach the tolerance, or raises ``NumericalFailureError``, counts as a
    failure with infinite time.  One untimed warm-up solve runs first so
    library initialization does not pollute the first timing; a ``tol``
    that the solvers reject raises ``ValueError`` before it.
    """
    if not configs:
        raise ValueError("need at least one experiment configuration")
    names = [canonical_solver(s) for s in solvers]
    if not names:
        raise ValueError("need at least one solver")
    tol = _tolerance(tol)

    warmup = NcmProblem(np.eye(8) + 0.01)
    for name in names:
        run_solver(name, warmup, tol=1e-4)

    rows = []
    raw = []
    for config in configs:
        for rep in range(config.replicates):
            problem = generate(config, rep)
            row = []
            for name in names:
                begin = time.perf_counter()
                try:
                    report = run_solver(name, problem, tol)
                    iterations = report.iterations
                    converged = report.termination.converged
                except NumericalFailureError as exc:
                    iterations, converged = exc.iteration or 0, False
                elapsed = time.perf_counter() - begin
                row.append(elapsed if converged else np.inf)
                raw.append(
                    RawRecord(config, rep, name, elapsed, iterations, converged)
                )
            rows.append(row)
    return replace(profile(np.array(rows)), solver_names=names, raw=raw)


def summarize(table: ProfileTable) -> list[dict]:
    """Per (experiment, n, alpha, ell, solver) averages in the style of a
    results table, in the order the runs first met each group."""
    groups: dict[tuple, list[RawRecord]] = {}
    for rec in table.raw:
        config = rec.config
        key = (config.experiment, config.n, config.alpha, config.ell, rec.solver)
        groups.setdefault(key, []).append(rec)
    out = []
    for (experiment, n, alpha, ell, solver), recs in groups.items():
        out.append(
            {
                "experiment": experiment,
                "n": n,
                "alpha": alpha,
                "ell": ell,
                "solver": solver,
                "mean_time_seconds": float(np.mean([r.time_seconds for r in recs])),
                "mean_iterations": float(np.mean([r.iterations for r in recs])),
                "converged": sum(r.converged for r in recs),
                "total": len(recs),
            }
        )
    return out


def write_profile_csv(table: ProfileTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("tau," + ",".join(table.solver_names) + "\n")
        for t, tau in enumerate(table.tau_grid):
            cells = ",".join(f"{table.rho[s, t]:.17g}" for s in range(len(table.solver_names)))
            fh.write(f"{tau:.17g},{cells}\n")


def write_raw_csv(table: ProfileTable, path) -> None:
    header = (
        "experiment,n,alpha,ell,seed,replicate,solver,time_seconds,iterations,converged\n"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for rec in table.raw:
            config = rec.config
            alpha = "" if config.alpha is None else f"{config.alpha:.17g}"
            ell = "" if config.ell is None else config.ell
            fh.write(
                f"{config.experiment},{config.n},{alpha},{ell},{config.seed},"
                f"{rec.replicate},{rec.solver},{rec.time_seconds:.17g},{rec.iterations},"
                f"{int(rec.converged)}\n"
            )
