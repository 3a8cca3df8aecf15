"""The benchmark workloads: inputs from a seed, the timed operation, the check.

Instances are plain numpy data (or, for ``ncm-cli``, a matrix file) made from
``(seed, workload, index)`` alone, so every operation gets fresh inputs that
no other operation shares and a run's inputs do not depend on how many
operations came before.  Within a workload the instance shape rotates with a
fixed period (``cycle``); runs always stop on a whole cycle, so the size mix
is the same on every run and every seed.

The checks use this module's own numpy projections and KKT conditions, not
the package under test.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

import numpy as np

_SQRT2 = float(np.sqrt(2.0))

# Keys that keep the random streams of different workloads apart.
_STREAM = {"newton": 1, "ncm-cli": 2}

# NCM test families of ``bench.generate`` and their alpha.
_NCM_ALPHA = {"E55": 0.1, "E56": None, "E57": None}


@dataclass(frozen=True)
class Workload:
    """One workload and the sizes it runs at.

    ``shapes`` lists the (kind, order) pairs that operations rotate through,
    where a kind is a cone (``orthant``, ``soc``, ``psd``: ``solve`` in the
    point-linear form), a program (``qcp``, ``qcp-eq``: ``solve_qcp`` on an
    orthant, with ``rows`` equality rows on ``qcp-eq``) or an NCM matrix
    family (``cli ncm``).  ``requires`` names the layer boundaries every
    traced run must cross.  ``nominal_s`` is a rough cost per
    operation on a 2-core x86 machine, used only to size the fixed-length
    traced run.
    """

    name: str
    shapes: tuple[tuple[str, int], ...]
    tol: float
    nominal_s: float
    requires: tuple[str, ...]
    rows: int = 0

    @property
    def cycle(self) -> int:
        return len(self.shapes)

    def shape(self, index):
        """(kind, order) of operation ``index``."""
        return self.shapes[index % len(self.shapes)]

    def make(self, cn, seed, index, workdir):
        """Inputs of operation ``index``; ``cn`` is used only by ncm-cli."""
        kind, n = self.shape(index)
        rng = np.random.default_rng([seed, _STREAM[self.name], index])
        if kind in _NCM_ALPHA:
            config = cn.bench.ExperimentConfig(
                kind, n=n, alpha=_NCM_ALPHA[kind],
                seed=seed * len(_STREAM) + _STREAM[self.name], replicates=1)
            paths = tuple(os.path.join(workdir, f"ncm-{index}-{part}")
                          for part in ("in.mtx", "out.mtx", "report.json"))
            write_mtx(paths[0], cn.bench.generate(config, index).G)
            return {"kind": kind, "n": n, "paths": paths}
        if kind in ("qcp", "qcp-eq"):
            inputs = {"kind": kind, "n": n, "Q": _spd(rng, n, 0.5),
                      "q": rng.standard_normal(n), "equality": None}
            if kind == "qcp-eq":
                a = rng.standard_normal((self.rows, n))
                inputs["equality"] = (a, a @ np.abs(rng.standard_normal(n)))
            return inputs
        d = n * (n + 1) // 2 if kind == "psd" else n
        return {"kind": kind, "n": n, "T": _spd(rng, d, 1.0),
                "b": 3.0 * rng.standard_normal(d)}

    def run(self, cn, inputs):
        """The timed call into the package."""
        kind = inputs["kind"]
        if kind in _NCM_ALPHA:
            src, out_matrix, out_report = inputs["paths"]
            return cn.cli.main(["ncm", "--input", src, "--tol", repr(self.tol),
                                "--out-matrix", out_matrix,
                                "--out-report", out_report])
        if kind in ("qcp", "qcp-eq"):
            problem = cn.QcpProblem(
                Q=cn.DenseOperator(inputs["Q"]), q=inputs["q"],
                cone=cn.Orthant(inputs["n"]), equality=inputs["equality"])
            return cn.solve_qcp(problem, cn.NewtonConfig(tol=self.tol))
        cone = {"orthant": cn.Orthant, "soc": cn.SecondOrder,
                "psd": cn.PsdCone}[kind](inputs["n"])
        problem = cn.ProjectionEquationProblem(
            cone=cone, T=cn.DenseOperator(inputs["T"]), b=inputs["b"])
        return cn.solve(problem, cn.NewtonConfig(tol=self.tol))

    def check(self, inputs, output):
        """Whether ``output`` is a correct answer for ``inputs``."""
        kind = inputs["kind"]
        if kind in _NCM_ALPHA:
            return _check_ncm(inputs, output, self.tol)
        if kind in ("qcp", "qcp-eq"):
            return _check_qcp(inputs, output, self.tol)
        return _check_pe(inputs, output, self.tol)

    def orthant_counts(self, inputs, output):
        """(positive, total) orthant coordinates at the solution."""
        kind = inputs["kind"]
        if kind in ("qcp", "qcp-eq"):
            x = output[0].x
        elif kind == "orthant":
            x = output.solution
        else:
            return 0, 0
        x = np.asarray(x)
        return int(np.count_nonzero(x > 0.0)), int(x.size)

    def discard(self, inputs):
        """Remove the files an operation read or wrote."""
        for path in inputs.get("paths", ()):
            if os.path.exists(path):
                os.remove(path)


def _spd(rng, d, shift):
    a = rng.standard_normal((d, d))
    return a @ a.T / d + shift * np.eye(d)


# ---------------------------------------------------------------------------
# Reference projections and checks (independent of the package).


def svec(mat):
    rows, cols = np.triu_indices(mat.shape[0])
    out = mat[rows, cols].copy()
    out[rows != cols] *= _SQRT2
    return out


def smat(vec):
    n = int(round((np.sqrt(8.0 * vec.shape[0] + 1.0) - 1.0) / 2.0))
    rows, cols = np.triu_indices(n)
    vals = vec.copy()
    vals[rows != cols] /= _SQRT2
    out = np.zeros((n, n))
    out[rows, cols] = vals
    out[cols, rows] = vals
    return out


def project_soc(x):
    head, tail = x[0], x[1:]
    tail_norm = np.linalg.norm(tail)
    if tail_norm <= head:
        return x.copy()
    if tail_norm <= -head:
        return np.zeros_like(x)
    scale = (head + tail_norm) / 2.0
    return np.concatenate([[scale], (scale / tail_norm) * tail])


def project_psd(x):
    vals, vecs = np.linalg.eigh(smat(x))
    mat = (vecs * np.maximum(vals, 0.0)) @ vecs.T
    return svec(0.5 * (mat + mat.T))


_PROJECT = {"orthant": lambda x: np.maximum(x, 0.0), "soc": project_soc,
            "psd": project_psd}


def stop_bound(tol, b):
    """The solver's own acceptance rule: max(tol, 1e-9 (1 + |b|))."""
    return max(tol, 1e-9 * (1.0 + float(np.linalg.norm(b))))


def _check_pe(inputs, report, tol):
    x = np.asarray(report.solution, dtype=float)
    if x.shape != inputs["b"].shape or not np.all(np.isfinite(x)):
        return False
    value = _PROJECT[inputs["kind"]](x) + inputs["T"] @ x - inputs["b"]
    return float(np.linalg.norm(value)) <= stop_bound(tol, inputs["b"])


def _check_qcp(inputs, output, tol):
    """Orthant KKT conditions at the returned point.

    mu = Q x + q + A^T lam is recomputed here.  At a root of the reduced
    equation with residual e, mu = max(-r, 0) + e_top and A x - b = e_bottom,
    so each condition holds within the solver's acceptance bound.
    """
    kkt, _ = output
    x = np.asarray(kkt.x, dtype=float)
    q = inputs["q"]
    if x.shape != q.shape or not np.all(np.isfinite(x)):
        return False
    mu = inputs["Q"] @ x + q
    rhs = -q
    eq_gap = 0.0
    if inputs["equality"] is not None:
        a, b_eq = inputs["equality"]
        mu = mu + a.T @ np.asarray(kkt.lam, dtype=float)
        rhs = np.concatenate([rhs, b_eq])
        eq_gap = float(np.linalg.norm(a @ x - b_eq))
    bound = stop_bound(tol, rhs)
    return bool(
        np.all(x >= 0.0)
        and np.all(np.isfinite(mu))
        and mu.min() >= -bound
        and abs(float(x @ mu)) <= bound * (1.0 + float(np.linalg.norm(x)))
        and eq_gap <= bound
    )


def _check_ncm(inputs, code, tol):
    """Exit 0, a residual-tol report, and a symmetric unit-diagonal PSD matrix."""
    if code != 0:
        return False
    _, out_matrix, out_report = inputs["paths"]
    with open(out_report, "r", encoding="utf-8") as fh:
        if json.load(fh).get("termination") != "residual-tol":
            return False
    x = read_mtx(out_matrix)
    n = inputs["n"]
    if x.shape != (n, n) or not np.all(np.isfinite(x)):
        return False
    scale = max(1.0, float(np.abs(x).max()))
    return bool(
        np.abs(x - x.T).max() <= 1e-12 * scale
        and np.linalg.norm(np.diag(x) - 1.0) <= tol
        and np.linalg.eigvalsh(x)[0] >= -1e-8 * n
    )


def write_mtx(path, mat):
    """MatrixMarket 'array real general', column-major, 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{mat.shape[0]} {mat.shape[1]}\n")
        fh.write("\n".join(map("{:.17g}".format, mat.T.reshape(-1).tolist())))
        fh.write("\n")


def read_mtx(path):
    with open(path, "r", encoding="utf-8") as fh:
        banner = fh.readline().split()
        if banner != ["%%MatrixMarket", "matrix", "array", "real", "general"]:
            raise ValueError(f"{path}: unexpected banner {banner}")
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        rows, cols = (int(v) for v in line.split())
        values = np.loadtxt(fh, ndmin=1)
    return values.reshape(cols, rows).T


# ---------------------------------------------------------------------------

def _rotation(groups, orders):
    """Shapes that step through the orders, kinds varying fastest.

    ``groups[g]`` is a tuple of kinds that run at the orders ``orders[g]``;
    the groups' orders are walked in step, so each has as many.
    """
    return tuple((kind, n) for step in zip(*orders)
                 for kinds, n in zip(groups, step) for kind in kinds)


_NEWTON_KINDS = (("orthant", "soc"), ("psd",), ("qcp", "qcp-eq", "qcp-eq"))
_NCM_KINDS = (tuple(_NCM_ALPHA),)

# Sizes step through a range rather than sitting at one value, and qcp
# programs come two constrained per plain one.  Both keep the op-time
# distribution free of a gap at its median: with a single size, and with
# plain and constrained programs one to one, the median fell between two
# clusters of op times (by iteration count, or plain vs constrained) and
# moved by up to 25% from run to run.
FULL = (
    Workload("newton",
             _rotation(_NEWTON_KINDS, ((260, 280, 300, 320, 340),
                                       (16, 17, 18, 19, 20),
                                       (180, 190, 200, 210, 220))),
             1e-8, 0.05,
             ("newton.solve", "newton.residual", "cones.project",
              "cones.jacobian_element", "cones.materialize",
              "operators.materialize", "qcp.solve_qcp",
              "qcp.to_projection_equation", "linalg.svd", "linalg.solve",
              "linalg.lstsq", "linalg.eigh"), rows=20),
    Workload("ncm-cli",
             _rotation(_NCM_KINDS, ((150, 160, 170, 180, 190, 200),)),
             1e-6, 0.25,
             ("cli.main", "matrixio.read_matrix", "matrixio.write_matrix",
              "ncm.solve_ncm", "ncm.ncm_step", "ncm.ncm_residual",
              "linalg.eigh")),
)

_TINY_SHAPES = {
    "newton": _rotation(_NEWTON_KINDS, ((12, 14), (3, 4), (10, 12))),
    "ncm-cli": _rotation(_NCM_KINDS, ((6, 8),)),
}


def workloads(tiny=False):
    """Workloads by name; ``tiny`` shrinks every instance for smoke testing."""
    items = FULL
    if tiny:
        items = [replace(w, shapes=_TINY_SHAPES[w.name], nominal_s=1e-3,
                         rows=min(w.rows, 3)) for w in FULL]
    return {w.name: w for w in items}
