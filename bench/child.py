"""Run one ``pfnl`` CLI command with timing hooks from the benchmark side.

Usage::

    python bench/child.py MODE SPANS_JSON -- <pfnl arguments>

``MODE`` is ``marks`` or ``trace``.  Both wrap functions of the ``pfnl``
modules (every name that refers to the function is rebound, so calls made
through ``from .x import f`` are seen too) and keep one span per call in
memory: name, start, end, parent span and an optional value.  The spans
are written to ``SPANS_JSON`` after the command returns.

``marks`` wraps only the few calls that bound the stepping and suite
phases (a handful per run), so its cost is negligible; the untraced
end-to-end metrics come from it.  ``trace`` wraps every layer boundary
the per-layer metrics need and also counts ``Field`` constructions made
inside trajectories.  Nothing in ``pfnl`` itself is changed.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import threading
import time


def _cells_times_steps(args, result):
    # solve_trajectory(problem, data, potential, cfg, ...)
    return args[1].grid.num_cells * args[3].num_steps


def _operator_cells(args, result):
    # build_nonlocal_operator(family, eps, grid)
    return args[2].num_cells


def _padded_cells(args, result):
    # apply_B_eps(op, u); computed from the padded FFT lattice
    return math.prod(args[0].plan.padded_shape)


# module -> {function: span value (args, result) -> number, or None}
MARKS = {
    "integrator": {"solve_trajectory": _cells_times_steps},
    "operators": {"build_nonlocal_operator": _operator_cells},
    "analysis": {
        "gamma_convergence_suite": None,
        "operator_convergence_suite": None,
        "bbm_ratio_suite": None,
        "frechet_identity_suite": None,
    },
}

TRACE = {
    "kernels": {
        "build_kernel_family": None,
        "tabulate_kernel": lambda args, result: result.values.size,
    },
    "operators": {
        "build_nonlocal_operator": _operator_cells,
        "apply_B_eps": _padded_cells,
        "energy_nonlocal": None,
        "energy_local": None,
    },
    "fields": {
        "riesz_inverse": None,
        "restrict": None,
        "write_field": lambda args, result: os.path.getsize(args[1]),
    },
    "physics": {"build_initial_data": None},
    "integrator": {
        "solve_trajectory": _cells_times_steps,
        "step_nonlocal": None,
        "step_local": None,
        "_phi_update": lambda args, result: result[2],
        "_theta_update": None,
    },
    "analysis": {
        "nonlocal_to_local_study": None,
        "gamma_convergence_suite": None,
        "operator_convergence_suite": None,
        "bbm_ratio_suite": None,
        "frechet_identity_suite": None,
    },
}

# module attributes bound to scipy's cg; the span value is the iteration count
TRACED_CG = ("integrator", "fields")


class Recorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, value]
        self.counters = {"field_constructions_in_trajectory": 0}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _in_trajectory(self):
        return getattr(self._local, "in_trajectory", 0)

    def open(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.monotonic(), None, parent, None])
        stack.append(index)
        return index

    def close(self, index, value=None):
        self.spans[index][2] = time.monotonic()
        if value is not None:
            self.spans[index][4] = value
        self._stack().pop()

    def wrap(self, name, fn, valuer=None):
        is_trajectory = name == "integrator.solve_trajectory"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            if is_trajectory:
                self._local.in_trajectory = self._in_trajectory() + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                if is_trajectory:
                    self._local.in_trajectory -= 1
                self.close(index)
            if valuer is not None:
                self.spans[index][4] = valuer(args, result)
            return result

        return wrapper

    def wrap_cg(self, name, cg):
        @functools.wraps(cg)
        def wrapper(A, b, *args, **kwargs):
            iterations = [0]

            def count(_xk):
                iterations[0] += 1

            index = self.open(name)
            try:
                return cg(A, b, *args, callback=count, **kwargs)
            finally:
                self.close(index, iterations[0])

        return wrapper

    def count_field(self, post_init):
        @functools.wraps(post_init)
        def wrapper(field_self):
            if self._in_trajectory():
                self.counters["field_constructions_in_trajectory"] += 1
            return post_init(field_self)

        return wrapper


def _rebind(package_modules, original, replacement):
    for module in package_modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder, plan, trace):
    """Wrap the planned functions of the already imported ``pfnl`` modules."""
    modules = [m for n, m in sys.modules.items() if n == "pfnl" or n.startswith("pfnl.")]
    for mod_name, functions in plan.items():
        module = sys.modules[f"pfnl.{mod_name}"]
        for fn_name, valuer in functions.items():
            original = getattr(module, fn_name)
            wrapped = recorder.wrap(f"{mod_name}.{fn_name}", original, valuer)
            _rebind(modules, original, wrapped)
    if trace:
        for mod_name in TRACED_CG:
            module = sys.modules[f"pfnl.{mod_name}"]
            setattr(module, "cg", recorder.wrap_cg(f"{mod_name}.cg", module.cg))
        field_cls = sys.modules["pfnl.fields"].Field
        field_cls.__post_init__ = recorder.count_field(field_cls.__post_init__)


def main(argv):
    if len(argv) < 4 or argv[0] not in ("marks", "trace") or argv[2] != "--":
        print("usage: child.py marks|trace SPANS_JSON -- <pfnl args>", file=sys.stderr)
        return 2
    mode, out_path, cli_args = argv[0], argv[1], argv[3:]
    import pfnl.cli

    recorder = Recorder()
    install(recorder, TRACE if mode == "trace" else MARKS, mode == "trace")
    code = pfnl.cli.main(cli_args)
    with open(out_path, "w") as fh:
        json.dump({"spans": recorder.spans, "counters": recorder.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
