"""Command-line front end: subcommand dispatch and deterministic output.

Exit codes: 0 success, 1 assertion/solver failure or an output that
cannot be written, 2 configuration error.
Each command writes its files, then ``manifest.json`` (config hash,
library versions, wall time), through one :func:`_write_outputs` call,
each file atomically (temp file + rename).  An earlier run's
``manifest.json`` is removed first.  When a write fails, the files the
command wrote are removed and it exits 1; other files already in
``output.dir`` are left alone.  A verdict failure (``converge``
violations, a failed suite, a moment residual above 1e-10) exits 1 after
its outputs are written, and keeps them.

Importing this module registers :func:`gc.freeze` to run at exit, so the
interpreter's final collections skip the objects alive then, above all
those that importing numpy and the package left; the operating system
frees their memory anyway.  Every output file is closed before
:func:`main` returns, so no write waits on those collections.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .analysis import (
    SweepConfig,
    bbm_ratio_suite,
    estimates_csv,
    frechet_identity_suite,
    gamma_convergence_suite,
    nonlocal_to_local_study,
    operator_convergence_suite,
    report_csv,
    sweep_grids,
)
from .config import parse_config
from .errors import (  # noqa: F401 (GridMismatchError caught below)
    AnalysisError,
    ConfigError,
    GridMismatchError,
    KernelError,
    PfnlError,
    ResolutionError,
    SolverError,
)
from .fields import Field, atomic_write, read_field, write_field
from .integrator import CSV_COLUMNS, record_csv_row, solve_trajectory
from .kernels import moment_check
from .operators import build_nonlocal_operator
from .physics import build_initial_data, validate_potential

CONFIG_EXIT = 2
FAILURE_EXIT = 1

# Freezing only at exit leaves an in-process caller's cyclic garbage
# collectable while it runs.
atexit.register(gc.freeze)


def _write_outputs(cfg, command, started, outputs, **extra):
    """Write ``outputs``, ``(name, payload)`` pairs with names relative to
    ``output.dir``, in order, then ``manifest.json`` with the ``extra``
    entries.  A :class:`Field` payload is a snapshot for :func:`write_field`
    in ``output.format``, any other is text for :func:`atomic_write`.  If a
    write fails, the files this call wrote are removed and it re-raises.
    An earlier run's ``manifest.json`` is removed before the first write,
    so a manifest in ``output.dir`` means its command finished every write."""
    manifest_path = os.path.join(cfg.output_dir, "manifest.json")
    with contextlib.suppress(FileNotFoundError):
        os.remove(manifest_path)
    written = []
    try:
        for name, payload in outputs:
            path = os.path.join(cfg.output_dir, name)
            if isinstance(payload, Field):
                write_field(payload, path, fmt=cfg.output_format)
            else:
                atomic_write(path, payload)
            written.append(path)
        manifest = {
            "command": command,
            "config_sha256": hashlib.sha256(cfg.raw_text.encode()).hexdigest(),
            "versions": {
                "pfnl": __version__,
                "numpy": np.__version__,
                "python": sys.version.split()[0],
            },
            "wall_time_s": time.time() - started,
            **extra,
        }
        atomic_write(manifest_path, json.dumps(manifest, indent=2) + "\n")
    except BaseException:
        for path in written:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _prepare_outdir(path):
    """Create an output directory; every command calls this before its
    work, so an unusable ``output.dir`` (or ``snapshots`` in it) fails fast
    as a config error that names it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as err:
        raise ConfigError([f"cannot create output directory {path!r}: {err}"]) from err
    return path


def _make_potential(cfg):
    """The configured potential, after checking the paper's assumptions on
    it (monotone ``beta``, convex primitive, growth, Lipschitz ``pi``); a
    violation is a configuration error."""
    potential = cfg.make_potential()
    violations = validate_potential(potential, d=cfg.grid_dimension)
    if violations:
        raise ConfigError([f"potential: {v}" for v in violations])
    return potential


def _load_custom_initial(cfg, grid):
    fmt = cfg.output_format
    return {
        "theta0": read_field(grid, cfg.initial_theta_file, fmt=fmt),
        "phi0": read_field(grid, cfg.initial_phi_file, fmt=fmt),
        "v0": read_field(grid, cfg.initial_v_file, fmt=fmt),
    }


def cmd_simulate(cfg, eps=None, local=False):
    """Solve one trajectory and emit energy records plus field snapshots."""
    started = time.time()
    grid = cfg.make_grid()
    family = cfg.make_family()
    potential = _make_potential(cfg)
    scheme = cfg.make_scheme()
    source = cfg.make_source()

    if not local and eps is None:
        raise ConfigError(["simulate needs --eps <real> or --local"])
    if eps is not None and not 0.0 < eps <= 1.0:
        raise ConfigError([f"--eps must lie in (0, 1], got {eps}"])
    _prepare_outdir(cfg.output_dir)
    _prepare_outdir(os.path.join(cfg.output_dir, "snapshots"))

    custom = (
        _load_custom_initial(cfg, grid) if cfg.initial_kind == "custom" else None
    )
    op = None if local else build_nonlocal_operator(family, eps, grid)
    data = build_initial_data(
        op, grid, potential, c1_bound=cfg.initial_c1, custom=custom
    )

    traj = solve_trajectory(op, data, potential, scheme, source=source)

    lines = [",".join(CSV_COLUMNS)]
    lines.extend(record_csv_row(r) for r in traj.records)
    ext = "csv" if cfg.output_format == "csv" else "bin"
    outputs = [("energy.csv", "\n".join(lines) + "\n")]
    for k, state in enumerate(traj.states):
        for name, field in (("phi", state.phi), ("theta", state.theta)):
            outputs.append((os.path.join("snapshots", f"{name}_{k:04d}.{ext}"), field))
    _write_outputs(
        cfg, "simulate", started, outputs,
        problem="local" if local else f"nonlocal eps={eps}",
        steps=scheme.num_steps,
        max_energy_residual=traj.aux["max_step_residual"],
        max_mass_residual=traj.aux["max_mass_residual"],
    )
    return 0


def cmd_converge(cfg):
    """Run the width sweep against the local reference.  The sweep starts
    every run from the closed-form default data, evaluated on that run's
    grid, so custom initial-data files are refused, and it compares
    trajectories, so ``time.T = 0`` is refused too, as is a single-width
    ``finest-eps`` sweep.  The whole sweep is checked before ``output.dir``
    is made."""
    started = time.time()
    if cfg.initial_kind == "custom":
        raise ConfigError(
            ["converge runs on the default initial data only: "
             "initial.kind = custom is not supported"]
        )
    if cfg.time_T == 0:
        raise ConfigError(["converge needs time.T > 0: a 0-step sweep compares nothing"])
    grids = sweep_grids(cfg.sweep_eps, cfg.grid_length, cfg.grid_dimension, cfg.sweep_max_n)
    if cfg.sweep_reference == "finest-eps" and len(grids) < 2:
        raise ConfigError(["sweep.reference = finest-eps needs two or more sweep.eps values"])
    sweep = SweepConfig(
        family=cfg.make_family(),
        potential=_make_potential(cfg),
        scheme=cfg.make_scheme(),
        grids=grids,
        c1_bound=cfg.initial_c1,
        source=cfg.make_source(),
        reference=cfg.sweep_reference,
    )
    _prepare_outdir(cfg.output_dir)
    report = nonlocal_to_local_study(sweep)
    outputs = [
        ("report.csv", report_csv(report)), ("estimates.csv", estimates_csv(report))
    ]
    _write_outputs(
        cfg, "converge", started, outputs,
        violations=report.violations, notes=report.notes,
    )
    for note in report.notes:
        print(f"note: {note}")
    if report.violations:
        for v in report.violations:
            print(f"violation: {v}", file=sys.stderr)
        return FAILURE_EXIT
    return 0


def cmd_verify_kernel(cfg):
    """Print the kernel normalization constants and moment residual."""
    started = time.time()
    _prepare_outdir(cfg.output_dir)
    family = cfg.make_family()
    residual = moment_check(family)
    csv = "c_d,normalization,moment_residual\n" + (
        f"{family.c_d:.17g},{family.normalization:.17g},{residual:.17g}\n"
    )
    print(csv, end="")
    _write_outputs(cfg, "verify-kernel", started, [("kernel.csv", csv)])
    return 0 if residual <= 1e-10 else FAILURE_EXIT


def cmd_verify_lemmas(cfg):
    """Run the analytic verification suites and emit pass/fail JSON; the
    Frechet suite's entry names its fixed setting."""
    started = time.time()
    # a sweep whose grids cannot be picked fails before output.dir is made
    grids = sweep_grids(cfg.sweep_eps, cfg.grid_length, cfg.grid_dimension, cfg.sweep_max_n)
    _prepare_outdir(cfg.output_dir)
    family = cfg.make_family()
    results = {}
    for name, suite in (
        ("gamma_convergence", gamma_convergence_suite),
        ("operator_convergence", operator_convergence_suite),
        ("bbm_ratio", bbm_ratio_suite),
    ):
        _, violations = suite(family, grids, strict=False)
        results[name] = {"pass": not violations, "violations": violations}
    results["frechet_identity"] = frechet_identity_suite(
        family, n=32 if family.dimension == 1 else 16, seed=cfg.seed
    )

    outputs = [("lemmas.json", json.dumps(results, indent=2) + "\n")]
    _write_outputs(cfg, "verify-lemmas", started, outputs)
    ok = all(r["pass"] for r in results.values())
    print(json.dumps({k: v["pass"] for k, v in results.items()}, indent=2))
    return 0 if ok else FAILURE_EXIT


def cmd_energy_report(cfg, run_dir):
    """Summarize the energy records of a previous simulate run."""
    started = time.time()
    _prepare_outdir(cfg.output_dir)
    path = os.path.join(run_dir, "energy.csv")
    try:
        with open(path) as fh:
            lines = [(k, l.strip()) for k, l in enumerate(fh, 1) if l.strip()]
    except OSError as err:
        raise ConfigError([f"cannot read {path!r}: {err}"]) from err
    header = lines[0][1].split(",") if lines else []
    idx = {name: k for k, name in enumerate(header)}
    if not {"residual_a1", "energy_phi"} <= idx.keys():
        raise ConfigError([f"{path!r} does not look like an energy record file"])
    if len(lines) < 2:
        raise ConfigError([f"{path!r} holds no energy records"])
    residuals, totals = [], []
    for lineno, line in lines[1:]:
        parts = line.split(",")
        try:
            residual = float(parts[idx["residual_a1"]])
            total = float(parts[idx["energy_phi"]])
            if not (math.isfinite(residual) and math.isfinite(total)):
                raise ValueError("non-finite value")
        except (IndexError, ValueError) as err:
            raise ConfigError(
                [f"{path!r} line {lineno}: malformed energy record ({err})"]
            ) from err
        residuals.append(residual)
        totals.append(total)
    step_residuals = residuals[1:]  # the t = 0 record balances no step
    summary = {
        "steps": len(step_residuals),
        "max_residual": max(residuals),
        "mean_residual": sum(step_residuals) / max(len(step_residuals), 1),
        "final_energy_phi": totals[-1],
    }
    outputs = [("energy_report.json", json.dumps(summary, indent=2) + "\n")]
    _write_outputs(cfg, "energy-report", started, outputs, **summary)
    print(json.dumps(summary, indent=2))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pfnl",
        description="Nonlocal hyperbolic phase-field solver and limit diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="solve one trajectory")
    sim.add_argument("--config", required=True)
    group = sim.add_mutually_exclusive_group()
    group.add_argument("--eps", type=float, default=None, help="kernel width")
    group.add_argument("--local", action="store_true", help="solve the Laplacian system")

    for name in ("converge", "verify-kernel", "verify-lemmas"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)

    rep = sub.add_parser("energy-report", help="summarize a previous run")
    rep.add_argument("--config", required=True)
    rep.add_argument("--run", required=True, help="directory of a simulate run")
    return parser


# each command's entry, called with the parsed config and arguments
COMMANDS = {
    "simulate": lambda cfg, args: cmd_simulate(cfg, eps=args.eps, local=args.local),
    "converge": lambda cfg, args: cmd_converge(cfg),
    "verify-kernel": lambda cfg, args: cmd_verify_kernel(cfg),
    "verify-lemmas": lambda cfg, args: cmd_verify_lemmas(cfg),
    "energy-report": lambda cfg, args: cmd_energy_report(cfg, args.run),
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](parse_config(args.config), args)
    except (ConfigError, ResolutionError, KernelError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return CONFIG_EXIT
    except (SolverError, AnalysisError, GridMismatchError, OSError) as err:
        print(f"run failed: {err}", file=sys.stderr)
        return FAILURE_EXIT
    except PfnlError as err:
        print(f"error: {err}", file=sys.stderr)
        return FAILURE_EXIT


if __name__ == "__main__":
    sys.exit(main())
