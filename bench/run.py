"""Benchmark of the ``pfnl`` CLI: end-to-end metrics, or per-layer metrics
from a traced run.

Usage::

    python3 bench/run.py --workload converge-1d --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  One operation is one invocation of the workload's CLI
command in a fresh process, followed by the output checks in
``checks.py``.  Before the first one, an untimed import of ``pfnl``
compiles its bytecode and warms the file cache.  Operations repeat until
``--seconds`` have passed (at least ``MIN_OPS`` of them, or ``MIN_TRACED``
traced ones).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: medians over the
run's operations, each with its timings scaled to a nominal host speed by
a calibration workload that shares its CPU (see ``host.py``).
With
``--trace 1`` untraced and traced operations alternate, the metrics are
the per-layer ones from the traced operations, and ``trace.overhead_pct``
is the difference of their median wall times.  Traced operations that
disagree on a count make the run incorrect.  See README.md for the
workloads and the meaning of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
import host

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH_DIR, "child.py")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")

# the CPU that every operation and the host sampler are pinned to, so that
# the sampler measures the CPU the operation runs on
CPU = min(os.sched_getaffinity(0))
MIN_OPS = 3
MIN_TRACED = 2
# an operation still running this long after the run was launched is
# killed, so that the run ends within 180 s
RUN_LIMIT_S = 170.0

# One sweep thread and single-threaded BLAS/OpenMP: the workload process
# then has at most two threads (main and one sweep worker), which keeps
# run-to-run timings steady on a small shared machine.
CHILD_ENV = {
    "PFNL_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

SIMULATE_SPEC = {"n": 320, "eps": 0.025, "steps": 8, "snapshots": 2, "dt": 1e-3}

WORKLOADS = {
    "converge-1d": {
        "command": ["converge"],
        "config": "",
        "check": checks.check_converge,
    },
    "simulate-2d": {
        "command": ["simulate", "--eps", str(SIMULATE_SPEC["eps"])],
        "config": (
            "grid.dimension = 2\n"
            f"grid.n = {SIMULATE_SPEC['n']}\n"
            f"time.dt = {SIMULATE_SPEC['dt']!r}\n"
            f"time.T = {SIMULATE_SPEC['steps'] * SIMULATE_SPEC['dt']!r}\n"
            f"time.snapshots = {SIMULATE_SPEC['snapshots']}\n"
        ),
        "check": checks.check_simulate,
    },
    "lemmas-2d": {
        "command": ["verify-lemmas"],
        "config": "grid.dimension = 2\nsweep.eps = 0.2, 0.1, 0.05\nsweep.max_n = 160\n",
        "check": checks.check_lemmas,
    },
}

# metric names and units, as BENCHMARK.json at the checkout root declares them
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _declared = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _declared["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _declared["per_layer"]}

SUITES = (
    "analysis.gamma_convergence_suite",
    "analysis.operator_convergence_suite",
    "analysis.bbm_ratio_suite",
    "analysis.frechet_identity_suite",
)
STEPS = ("integrator.step_nonlocal", "integrator.step_local")


# --- spans ---------------------------------------------------------------------


class Spans:
    """Spans written by ``child.py``: ``[name, start, end, parent, value]``."""

    def __init__(self, spans):
        self.spans = spans
        self.by_name = {}
        for index, span in enumerate(spans):
            self.by_name.setdefault(span[0], []).append(index)

    def of(self, *names):
        return [self.spans[i] for name in names for i in self.by_name.get(name, ())]

    def count(self, *names):
        return len(self.of(*names))

    def total_s(self, *names):
        return sum(s[2] - s[1] for s in self.of(*names))

    def total_value(self, *names):
        return sum(s[4] for s in self.of(*names))

    def within(self, names, ancestors):
        """Spans named in ``names`` with an ancestor named in ``ancestors``."""
        out = []
        for span in self.of(*names):
            parent = span[3]
            while parent is not None and self.spans[parent][0] not in ancestors:
                parent = self.spans[parent][3]
            if parent is not None:
                out.append(span)
        return out

    def self_time(self, name, child_names):
        """Summed duration of ``name`` spans minus the part of each that
        spans named in ``child_names`` cover, whatever thread ran them."""
        children = sorted((s[1], s[2]) for s in self.of(*child_names))
        total = 0.0
        for span in self.of(name):
            start, end = span[1], span[2]
            covered, cursor = 0.0, start
            for c_start, c_end in children:
                lo, hi = max(c_start, cursor), min(c_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            total += end - start - covered
        return total


def _ratio(num, den):
    return num / den if den else 0.0


def end_to_end_sample(spans, started, ended, rusage):
    """End-to-end figures of one untraced operation."""
    trajectories = spans.of("integrator.solve_trajectory")
    suites = spans.of(*SUITES)
    firsts = [s[1] for s in trajectories + suites]
    if trajectories:
        cell_steps = spans.total_value("integrator.solve_trajectory")
        busy = spans.total_s("integrator.solve_trajectory")
    else:
        # verify-lemmas does no time stepping: each (probe, width) evaluation
        # builds an operator, and counts as one step of that grid's cells
        builds = spans.within(["operators.build_nonlocal_operator"], SUITES)
        cell_steps = sum(s[4] for s in builds)
        busy = spans.total_s(*SUITES)
    return {
        "wall_s": ended - started,
        "setup_s": (min(firsts) if firsts else ended) - started,
        "cell_steps_per_s": _ratio(cell_steps, busy),
        "peak_rss_mb": rusage.ru_maxrss / 1024.0,
    }


def layer_sample(spans, counters):
    """Per-layer figures of one traced operation (0 where a layer is unused)."""
    steps = spans.count(*STEPS)
    trajectory = ("integrator.solve_trajectory",)
    b_in_traj = len(spans.within(["operators.apply_B_eps"], trajectory))
    nonlocal_steps = spans.count("integrator.step_nonlocal")
    energy_in_traj = len(
        spans.within(["operators.energy_nonlocal", "operators.energy_local"], trajectory)
    )
    phase_cg = theta_cg = 0
    for span in spans.of("integrator.cg"):
        parent = spans.spans[span[3]][0] if span[3] is not None else None
        if parent == "integrator._phi_update":
            phase_cg += span[4]
        elif parent == "integrator._theta_update":
            theta_cg += span[4]
    newton_calls = spans.count("integrator._phi_update")
    applies = spans.count("operators.apply_B_eps")
    solves = (
        "integrator.solve_trajectory",
        "physics.build_initial_data",
        "operators.build_nonlocal_operator",
    )
    return {
        "integrator.steps": steps,
        "integrator.step_s": spans.total_s(*STEPS),
        "integrator.bookkeeping_s": spans.self_time("integrator.solve_trajectory", STEPS),
        "integrator.B_eps_per_step": _ratio(b_in_traj, nonlocal_steps),
        "integrator.energy_evals_per_step": _ratio(energy_in_traj, steps),
        "fields.field_constructions_per_step": _ratio(
            counters["field_constructions_in_trajectory"], steps
        ),
        "integrator.newton_iters_per_step": _ratio(
            spans.total_value("integrator._phi_update"), newton_calls
        ),
        "integrator.phase_cg_iters_per_step": _ratio(phase_cg, steps),
        "integrator.phase_solve_s": spans.total_s("integrator._phi_update"),
        "integrator.theta_cg_iters_per_step": _ratio(theta_cg, steps),
        "integrator.theta_solve_s": spans.total_s("integrator._theta_update"),
        "operators.apply_B_eps_calls": applies,
        "operators.apply_B_eps_s": spans.total_s("operators.apply_B_eps"),
        "operators.padded_cells_per_apply": _ratio(
            spans.total_value("operators.apply_B_eps"), applies
        ),
        "kernels.family_build_s": spans.total_s("kernels.build_kernel_family"),
        "kernels.tabulate_calls": spans.count("kernels.tabulate_kernel"),
        "kernels.tabulate_s": spans.total_s("kernels.tabulate_kernel"),
        "kernels.tabulated_values": spans.total_value("kernels.tabulate_kernel"),
        "operators.build_calls": spans.count("operators.build_nonlocal_operator"),
        "operators.build_s": spans.total_s("operators.build_nonlocal_operator"),
        "physics.initial_data_s": spans.total_s("physics.build_initial_data"),
        "fields.riesz_inverse_calls": spans.count("fields.riesz_inverse"),
        "fields.riesz_inverse_s": spans.total_s("fields.riesz_inverse"),
        "fields.riesz_cg_iters": spans.total_value("fields.cg"),
        "fields.restrict_s": spans.total_s("fields.restrict"),
        "analysis.postprocess_s": spans.self_time("analysis.nonlocal_to_local_study", solves),
        "analysis.gamma_suite_s": spans.total_s("analysis.gamma_convergence_suite"),
        "analysis.operator_suite_s": spans.total_s("analysis.operator_convergence_suite"),
        "analysis.bbm_suite_s": spans.total_s("analysis.bbm_ratio_suite"),
        "analysis.frechet_suite_s": spans.total_s("analysis.frechet_identity_suite"),
        "fields.write_field_s": spans.total_s("fields.write_field"),
        "fields.bytes_written": spans.total_value("fields.write_field"),
    }


# --- one operation ----------------------------------------------------------------


def run_operation(workload, mode, seed, op_dir, state, timeout):
    """Run the workload's command once in a fresh process and check it."""
    os.makedirs(op_dir)
    outdir = os.path.join(op_dir, "out")
    config_path = os.path.join(op_dir, "run.cfg")
    with open(config_path, "w") as fh:
        fh.write(workload["config"] + f"seed = {seed}\noutput.dir = {outdir}\n")
    spans_path = os.path.join(op_dir, "spans.json")
    cli_args = workload["command"][:1] + ["--config", config_path] + workload["command"][1:]
    env = dict(os.environ, PYTHONPATH=SRC, **CHILD_ENV)
    with open(os.path.join(op_dir, "stdout.txt"), "wb") as out, open(
        os.path.join(op_dir, "stderr.txt"), "wb"
    ) as err:
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, mode, spans_path, "--", *cli_args],
            cwd=ROOT, env=env, stdout=out, stderr=err,
        )
        os.sched_setaffinity(proc.pid, {CPU})
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)

    try:
        problems = workload["check"](outdir, proc.returncode, state)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems = [f"output unreadable: {exc!r}"]
    try:
        with open(spans_path) as fh:
            recorded = json.load(fh)
    except (OSError, ValueError):
        recorded = {"spans": [], "counters": {"field_constructions_in_trajectory": 0}}
        problems = problems or ["no spans written"]
    if problems:
        with open(os.path.join(op_dir, "stderr.txt"), errors="replace") as fh:
            tail = fh.read()[-2000:]
        print(f"operation failed: {problems}\n{tail}", file=sys.stderr)
    spans = Spans(recorded["spans"])
    return {
        "exit_code": proc.returncode,
        "problems": problems,
        "e2e": end_to_end_sample(spans, started, ended, rusage),
        "layers": layer_sample(spans, recorded["counters"]) if mode == "trace" else None,
        "spans_path": spans_path,
        "window": (started, ended),
    }


def median_metrics(samples, units):
    return {
        name: {"value": statistics.median(s[name] for s in samples), "unit": unit}
        for name, unit in units.items()
    }


def scale_to_nominal(sample, unit_s):
    """An operation's end-to-end figures with its timings scaled to the
    nominal host speed.

    ``unit_s`` is the mean time of the host sampler's unit of work during
    the operation (see ``host.py``); times shrink and rates grow by the
    host's slowness ``unit_s / host.NOMINAL_S``.
    """
    factor = host.NOMINAL_S / unit_s
    scaled = dict(sample)
    for name, unit in END_TO_END.items():
        if unit == "s":
            scaled[name] = sample[name] * factor
        elif unit == "1/s":
            scaled[name] = sample[name] / factor
    return scaled


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pfnl", "cli.py")):
        print(f"no pfnl sources under {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = args.seed % 2**32  # the config's seed key takes non-negative integers
    launched = time.monotonic()
    # warm-up: compile pfnl's bytecode and load its files before timing
    subprocess.run([sys.executable, "-c", "import pfnl.cli"], cwd=ROOT, check=True,
                   env=dict(os.environ, PYTHONPATH=SRC, **CHILD_ENV), timeout=60)
    run_dir = os.path.join(RUNS_DIR, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    state = {"spec": SIMULATE_SPEC}
    untraced, traced = [], []
    sampler = host.Sampler(os.path.join(run_dir, "host_samples.txt"), CPU)
    began = time.monotonic()
    try:
        with sampler:
            while True:
                k = len(untraced) + len(traced)
                mode = "trace" if args.trace and k % 2 == 1 else "marks"
                op_dir = os.path.join(run_dir, f"op{k:03d}")
                timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - launched))
                op = run_operation(workload, mode, seed, op_dir, state, timeout)
                (traced if mode == "trace" else untraced).append(op)
                print(f"op {k} {mode}: "
                      + " ".join(f"{n}={v:.4g}" for n, v in op["e2e"].items()),
                      file=sys.stderr)
                if mode == "trace":
                    os.replace(op["spans_path"],
                               os.path.join(RUNS_DIR, f"{args.workload}.spans.json"))
                shutil.rmtree(op_dir)
                elapsed = time.monotonic() - began
                if args.trace:
                    # whole (untraced, traced) pairs, at least two of them, so
                    # that the counts of two traced operations can be compared
                    done = (len(traced) == len(untraced) >= MIN_TRACED
                            and elapsed >= args.seconds)
                else:
                    done = len(untraced) >= MIN_OPS and elapsed >= args.seconds
                if done:
                    break
        for op in untraced:
            op["unit_s"] = sampler.mean_s(*op["window"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    ops = untraced + traced
    failed = [op for op in ops if op["problems"]]
    # an operation that ran to exit code 0 but failed a check is incorrect
    correct = not any(op["exit_code"] == 0 and op["problems"] for op in ops)
    good = [op for op in untraced if not op["problems"]] or untraced
    if args.trace:
        good_traced = [op for op in traced if not op["problems"]] or traced
        layers = [op["layers"] for op in good_traced]
        # the counts are deterministic: traced operations that disagree on
        # one make the run incorrect
        counts = [name for name, unit in PER_LAYER.items() if unit in ("count", "B")]
        for op in layers[1:]:
            differing = [n for n in counts if op.get(n) != layers[0].get(n)]
            if differing:
                print(f"counts differ between traced operations: {differing}", file=sys.stderr)
                correct = False
        wall_untraced = statistics.median(op["e2e"]["wall_s"] for op in good)
        wall_traced = statistics.median(op["e2e"]["wall_s"] for op in good_traced)
        metrics = median_metrics(layers, {n: u for n, u in PER_LAYER.items() if n in layers[0]})
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (wall_traced / wall_untraced - 1.0), "unit": "%"
        }
    else:
        measured = median_metrics([op["e2e"] for op in good], END_TO_END)
        metrics = median_metrics(
            [scale_to_nominal(op["e2e"], op["unit_s"]) for op in good], END_TO_END
        )
        unit_s = statistics.median(op["unit_s"] for op in good)
        print(f"{args.workload} host slowness = {unit_s / host.NOMINAL_S:.4g} "
              f"(median unit {unit_s:.4g} s, nominal {host.NOMINAL_S} s)")

    for name, metric in metrics.items():
        line = f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}"
        if not args.trace:
            line += f" (as measured: {measured[name]['value']:.6g})"
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
