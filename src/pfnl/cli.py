"""Command-line front end: subcommand dispatch and deterministic output.

Exit codes: 0 success, 1 assertion/solver failure, 2 configuration error.
All outputs are staged in memory and written atomically (temp file +
rename), so a failed run leaves no partial files; a ``manifest.json``
with the config hash, library versions, and wall time is written last.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np
import scipy

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
from .fields import atomic_write, read_field, write_field
from .integrator import CSV_COLUMNS, record_csv_row, solve_trajectory
from .kernels import moment_check
from .operators import build_nonlocal_operator
from .physics import build_initial_data

CONFIG_EXIT = 2
FAILURE_EXIT = 1


def _write_manifest(outdir, cfg, command, started, extra=None):
    manifest = {
        "command": command,
        "config_sha256": hashlib.sha256(cfg.raw_text.encode()).hexdigest(),
        "versions": {
            "pfnl": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_s": time.time() - started,
    }
    if extra:
        manifest.update(extra)
    atomic_write(
        os.path.join(outdir, "manifest.json"), json.dumps(manifest, indent=2) + "\n"
    )


def _prepare_outdir(cfg):
    """Create the output directory; every command calls this before its
    work, so an unusable ``output.dir`` fails fast as a config error."""
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as err:
        raise ConfigError(
            [f"cannot create output.dir {cfg.output_dir!r}: {err}"]
        ) from err
    return cfg.output_dir


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
    potential = cfg.make_potential()
    scheme = cfg.make_scheme()
    source = cfg.make_source()

    if local and eps is not None:
        raise ConfigError(["choose either --eps or --local, not both"])
    if not local and eps is None:
        raise ConfigError(["simulate needs --eps <real> or --local"])
    if eps is not None and not 0.0 < eps <= 1.0:
        raise ConfigError([f"--eps must lie in (0, 1], got {eps}"])
    outdir = _prepare_outdir(cfg)

    if eps is not None:
        eps_list = [eps]
    else:
        # local run: the uniform-bound monitor still wants one admissible
        # kernel width for its energy term
        h4 = 4.0 * max(grid.spacing)
        if h4 > 1.0:
            raise ConfigError(
                [f"grid too coarse for any admissible kernel width (4h = {h4} > 1)"]
            )
        eps_list = [max(max(cfg.sweep_eps), h4)]
    custom = (
        _load_custom_initial(cfg, grid) if cfg.initial_kind == "custom" else None
    )
    op = None if local else build_nonlocal_operator(family, eps, grid)
    data = build_initial_data(
        cfg.initial_kind,
        grid,
        eps_list,
        family,
        potential,
        c1_bound=cfg.initial_c1,
        custom=custom,
        operators=None if local else {eps: op},
    )

    if local:
        traj = solve_trajectory("local", data, potential, scheme, source=source)
    else:
        traj = solve_trajectory(
            "nonlocal", data, potential, scheme, op=op, source=source
        )

    lines = [",".join(CSV_COLUMNS)]
    lines.extend(record_csv_row(r) for r in traj.records)
    atomic_write(os.path.join(outdir, "energy.csv"), "\n".join(lines) + "\n")

    snapdir = os.path.join(outdir, "snapshots")
    os.makedirs(snapdir, exist_ok=True)
    ext = "csv" if cfg.output_format == "csv" else "bin"
    for k, state in enumerate(traj.states):
        write_field(
            state.phi,
            os.path.join(snapdir, f"phi_{k:04d}.{ext}"),
            fmt=cfg.output_format,
        )
        write_field(
            state.theta,
            os.path.join(snapdir, f"theta_{k:04d}.{ext}"),
            fmt=cfg.output_format,
        )
    _write_manifest(
        outdir,
        cfg,
        "simulate",
        started,
        extra={
            "problem": "local" if local else f"nonlocal eps={eps}",
            "steps": scheme.num_steps,
            "max_energy_residual": traj.aux["max_step_residual"],
        },
    )
    return 0


def cmd_converge(cfg):
    """Run the width sweep against the local reference."""
    started = time.time()
    outdir = _prepare_outdir(cfg)
    sweep = SweepConfig(
        family=cfg.make_family(),
        potential=cfg.make_potential(),
        scheme=cfg.make_scheme(),
        eps_list=cfg.sweep_eps,
        length=cfg.grid_length,
        dimension=cfg.grid_dimension,
        max_n=cfg.sweep_max_n,
        c1_bound=cfg.initial_c1,
        source=cfg.make_source(),
        reference=cfg.sweep_reference,
    )
    report = nonlocal_to_local_study(sweep)
    atomic_write(os.path.join(outdir, "report.csv"), report_csv(report))
    atomic_write(os.path.join(outdir, "estimates.csv"), estimates_csv(report))
    _write_manifest(
        outdir,
        cfg,
        "converge",
        started,
        extra={"violations": report.violations, "notes": report.notes},
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
    outdir = _prepare_outdir(cfg)
    family = cfg.make_family()
    residual = moment_check(family)
    csv = "c_d,normalization,moment_residual\n" + (
        f"{family.c_d:.17g},{family.normalization:.17g},{residual:.17g}\n"
    )
    print(csv, end="")
    atomic_write(os.path.join(outdir, "kernel.csv"), csv)
    _write_manifest(outdir, cfg, "verify-kernel", started)
    return 0 if residual <= 1e-10 else FAILURE_EXIT


def cmd_verify_lemmas(cfg):
    """Run the analytic verification suites and emit pass/fail JSON."""
    started = time.time()
    outdir = _prepare_outdir(cfg)
    family = cfg.make_family()
    dim = cfg.grid_dimension
    results = {}
    for name, suite in (
        ("gamma_convergence", gamma_convergence_suite),
        ("operator_convergence", operator_convergence_suite),
        ("bbm_ratio", bbm_ratio_suite),
    ):
        _, violations = suite(
            family, cfg.sweep_eps, cfg.grid_length, dim, cfg.sweep_max_n, strict=False
        )
        results[name] = {"pass": not violations, "violations": violations}
    frechet = frechet_identity_suite(
        family, n=32 if dim == 1 else 16, dimension=dim, seed=cfg.seed
    )
    results["frechet_identity"] = {
        "pass": frechet["pass"],
        "max_double_sum_residual": frechet["max_double_sum_residual"],
        "max_fd_relative_residual": frechet["max_fd_relative_residual"],
    }

    atomic_write(
        os.path.join(outdir, "lemmas.json"), json.dumps(results, indent=2) + "\n"
    )
    _write_manifest(outdir, cfg, "verify-lemmas", started)
    ok = all(r["pass"] for r in results.values())
    print(json.dumps({k: v["pass"] for k, v in results.items()}, indent=2))
    return 0 if ok else FAILURE_EXIT


def cmd_energy_report(cfg, run_dir):
    """Summarize the energy records of a previous simulate run."""
    started = time.time()
    outdir = _prepare_outdir(cfg)
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
            residuals.append(float(parts[idx["residual_a1"]]))
            totals.append(float(parts[idx["energy_phi"]]))
        except (IndexError, ValueError) as err:
            raise ConfigError(
                [f"{path!r} line {lineno}: malformed energy record ({err})"]
            ) from err
    summary = {
        "steps": len(residuals) - 1,
        "max_residual": max(residuals),
        "mean_residual": sum(residuals) / len(residuals),
        "final_energy_phi": totals[-1],
    }
    atomic_write(
        os.path.join(outdir, "energy_report.json"), json.dumps(summary, indent=2) + "\n"
    )
    _write_manifest(outdir, cfg, "energy-report", started, extra=summary)
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


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.command == "simulate":
            return cmd_simulate(cfg, eps=args.eps, local=args.local)
        if args.command == "converge":
            return cmd_converge(cfg)
        if args.command == "verify-kernel":
            return cmd_verify_kernel(cfg)
        if args.command == "verify-lemmas":
            return cmd_verify_lemmas(cfg)
        if args.command == "energy-report":
            return cmd_energy_report(cfg, args.run)
        raise ConfigError([f"unknown command {args.command!r}"])
    except (ConfigError, ResolutionError, KernelError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return CONFIG_EXIT
    except (SolverError, AnalysisError, GridMismatchError) as err:
        print(f"run failed: {err}", file=sys.stderr)
        return FAILURE_EXIT
    except PfnlError as err:
        print(f"error: {err}", file=sys.stderr)
        return FAILURE_EXIT


if __name__ == "__main__":
    sys.exit(main())
