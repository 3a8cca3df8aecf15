"""Layer spans recorded from outside the package.

``Tracer.install`` replaces each layer boundary with a wrapper at every place
a caller looks the name up: the module attribute in every loaded
``conic_newton`` module that binds the same function (so ``cli.solve_ncm``
and ``conic_newton.solve`` are covered along with ``ncm.solve_ncm`` and
``newton.solve``), the method on every class of the layer that defines it,
and the ``numpy.linalg`` module attribute.  ``uninstall`` puts the
originals back.

A wrapper records only while an operation is open (``with tracer.op():``).
For each boundary it adds up calls and self time: the span's duration minus
the part covered by spans nested in it.  Spans are aggregated as they close
rather than kept, so the memory the tracer needs does not grow with the run.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (boundary, module, function) for module-level functions.
FUNCTIONS = (
    ("newton.solve", "newton", "solve"),
    ("newton.residual", "newton", "residual"),
    ("qcp.solve_qcp", "qcp", "solve_qcp"),
    ("qcp.to_projection_equation", "qcp", "to_projection_equation"),
    ("ncm.solve_ncm", "ncm", "solve_ncm"),
    ("ncm.ncm_step", "ncm", "ncm_step"),
    ("ncm.ncm_residual", "ncm", "ncm_residual"),
    ("matrixio.read_matrix", "matrixio", "read_matrix"),
    ("matrixio.write_matrix", "matrixio", "write_matrix"),
    ("cli.main", "cli", "main"),
)

# (boundary, module, base class, method) for methods of a class family.
METHODS = (
    ("cones.project", "cones", "Cone", "project"),
    ("cones.jacobian_element", "cones", "Cone", "jacobian_element"),
    ("cones.materialize", "cones", "JacobianElement", "materialize"),
    ("operators.materialize", "operators", "LinearOperator", "materialize"),
)

LINALG = ("svd", "solve", "lstsq", "eigh")

BOUNDARIES = (
    tuple(b for b, *_ in METHODS)
    + tuple(b for b, *_ in FUNCTIONS)
    + tuple(f"linalg.{name}" for name in LINALG)
)


def _order(a):
    return np.shape(a)[-1]


def _svd_like_flops(a):
    """Bidiagonalization, 4mn^2 - 4n^3/3 (m >= n), which dominates both
    the values-only SVD and the SVD-based least-squares solve."""
    m, n = np.shape(a)[-2:]
    m, n = max(m, n), min(m, n)
    return 4.0 * m * n * n - 4.0 * n ** 3 / 3.0


def _solve_flops(a, b):
    n = _order(a)
    rhs = 1 if np.ndim(b) == 1 else np.shape(b)[-1]
    return 2.0 * n ** 3 / 3.0 + 2.0 * n * n * rhs


# Textbook leading-order counts (Golub & Van Loan); computed, not measured.
FLOPS = {
    "svd": lambda args: _svd_like_flops(args[0]),
    "lstsq": lambda args: _svd_like_flops(args[0]),
    "solve": lambda args: _solve_flops(args[0], args[1]),
    "eigh": lambda args: 9.0 * _order(args[0]) ** 3,
}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.newton_iterations = 0
        self.newton_s = 0.0  # inclusive time in newton.solve
        self.newton_lstsq = 0  # lstsq calls made inside newton.solve
        self.ncm_iterations = 0
        self.solve_orders = 0  # summed order of linalg.solve systems
        self.flops = 0.0
        self._stack = []  # time covered by nested spans, one entry per open span
        self._open = defaultdict(int)
        self._patches = []

    @contextlib.contextmanager
    def op(self):
        """Open the root span of one operation; wrappers record inside it."""
        self._stack.append(0.0)
        try:
            yield
        finally:
            self._stack.clear()

    def _wrap(self, name, fn):
        stack, is_open = self._stack, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            stack.append(0.0)
            is_open[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                is_open[name] -= 1
                nested = stack.pop()
                stack[-1] += elapsed
                self.calls[name] += 1
                self.self_s[name] += elapsed - nested
            self._observe(name, args, result, elapsed)
            return result

        return wrapper

    def _observe(self, name, args, result, elapsed):
        if name == "newton.solve":
            self.newton_iterations += result.iterations
            self.newton_s += elapsed
        elif name == "ncm.solve_ncm":
            self.ncm_iterations += result.iterations
        elif name.startswith("linalg."):
            kind = name[len("linalg."):]
            self.flops += FLOPS[kind](args)
            if kind == "solve":
                self.solve_orders += _order(args[0])
            elif kind == "lstsq" and self._open["newton.solve"]:
                self.newton_lstsq += 1

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, cn):
        """Wrap every boundary of the imported package ``cn``."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == cn.__name__
                                         or key.startswith(cn.__name__ + "."))]
        for name, module, func in FUNCTIONS:
            original = getattr(getattr(cn, module), func)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        for name, module, base, method in METHODS:
            mod = getattr(cn, module)
            base_cls = getattr(mod, base)
            classes = {v for v in vars(mod).values() if isinstance(v, type)}
            for cls in classes:
                if issubclass(cls, base_cls) and method in vars(cls):
                    self._patch(cls, method, self._wrap(name, vars(cls)[method]))
        for func in LINALG:
            self._patch(np.linalg, func,
                        self._wrap(f"linalg.{func}", getattr(np.linalg, func)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
