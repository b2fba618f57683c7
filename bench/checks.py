"""Output checks for the benchmark workloads.

Every check compares a command's output against an independent
computation or a property the method must have, never against a stored
copy of an earlier output.  Each function returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# At t = 0 the phase is cos(pi x) on the unit square, whose Dirichlet energy
# 1/2 int |grad phi|^2 is pi^2/4; the kernel energy at the workload's width
# must lie within this relative distance of it.
INITIAL_ENERGY_REL_TOL = 0.03
# Mass h^2 sum(theta + phi) is conserved exactly by the scheme (no source,
# conservative Neumann Laplacian, constant-annihilating B_eps), so snapshots
# may differ only by the solver tolerance (1e-12 relative CG) times a
# modest growth factor.
MASS_ABS_TOL = 1e-9
# The per-step energy-balance residual of the scheme is O(dt^2); its
# constant grows with the data's derivatives (the workload's data give about
# 9 dt^2 times the energy scale).  An O(dt) defect would exceed this bound
# tenfold at dt = 1e-3.
RESIDUAL_DT2_MULTIPLE = 100.0
# Documented bounds of the Frechet identity suite.
FRECHET_DOUBLE_SUM_TOL = 1e-12
FRECHET_FD_TOL = 1e-6


def _read_csv_table(path):
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return {name: [row[k] for row in rows] for k, name in enumerate(header)}


def check_converge(outdir, exit_code, state):
    """Errors shrink along the widths, and ``report.csv`` repeats byte for byte."""
    if exit_code != 0:
        return [f"converge exited with code {exit_code}"]
    problems = []
    path = os.path.join(outdir, "report.csv")
    with open(path, "rb") as fh:
        report = fh.read()
    table = _read_csv_table(path)
    eps = table["eps"]
    if len(eps) < 2 or any(b >= a for a, b in zip(eps, eps[1:])):
        problems.append(f"report.csv widths are not a decreasing sweep: {eps}")
    for column in ("err_phi_C0H", "err_theta_C0H"):
        vals = table[column]
        if not all(math.isfinite(v) and v > 0 for v in vals):
            problems.append(f"{column} has non-positive or non-finite entries: {vals}")
        elif any(b >= a for a, b in zip(vals, vals[1:])):
            problems.append(f"{column} does not decrease along the widths: {vals}")
    first = state.setdefault("converge_report", report)
    if report != first:
        problems.append("report.csv differs from the first invocation of this run")
    return problems


def read_snapshot_csv(path, n):
    """Parse a CSV snapshot (``i,j,value`` rows) of an ``n x n`` grid.

    Every cell must appear exactly once; a missing or repeated cell is an
    error rather than a zero.
    """
    with open(path) as fh:
        tokens = np.array(fh.read().replace(",", " ").split(), dtype=np.float64)
    if tokens.size != 3 * n * n:
        raise ValueError(f"{path}: expected {n * n} rows, got {tokens.size / 3:g}")
    rows = tokens.reshape(-1, 3)
    idx = rows[:, 0].astype(np.int64) * n + rows[:, 1].astype(np.int64)
    if not np.array_equal(np.sort(idx), np.arange(n * n)):
        raise ValueError(f"{path}: cell indices do not cover the grid exactly once")
    data = np.empty(n * n)
    data[idx] = rows[:, 2]
    return data.reshape(n, n)


def check_simulate(outdir, exit_code, state):
    """Mass, norms, initial energy and energy balance of a 2D simulate run."""
    if exit_code != 0:
        return [f"simulate exited with code {exit_code}"]
    spec = state["spec"]
    n, steps, snapshots, dt = spec["n"], spec["steps"], spec["snapshots"], spec["dt"]
    h2 = (1.0 / n) ** 2
    problems = []
    energy = _read_csv_table(os.path.join(outdir, "energy.csv"))
    if len(energy["t"]) != steps + 1:
        return [f"energy.csv has {len(energy['t'])} rows, expected {steps + 1}"]

    snapdir = os.path.join(outdir, "snapshots")
    stride = steps // snapshots
    snap_steps = list(range(0, steps + 1, stride))
    names = sorted(os.listdir(snapdir))
    expected = sorted(
        f"{kind}_{k:04d}.csv" for kind in ("phi", "theta") for k in range(len(snap_steps))
    )
    if names != expected:
        return [f"snapshot files {names} differ from the expected {expected}"]

    masses = []
    for k, step in enumerate(snap_steps):
        phi = read_snapshot_csv(os.path.join(snapdir, f"phi_{k:04d}.csv"), n)
        theta = read_snapshot_csv(os.path.join(snapdir, f"theta_{k:04d}.csv"), n)
        masses.append(h2 * float(np.sum(theta + phi)))
        if abs(energy["t"][step] - step * dt) > 1e-12:
            problems.append(f"energy.csv row {step} has t={energy['t'][step]!r}")
        norm_phi = math.sqrt(h2 * float(np.sum(phi * phi)))
        recorded = energy["norm_phi_H"][step]
        if abs(norm_phi - recorded) > 1e-12 * max(recorded, 1.0):
            problems.append(
                f"snapshot {k}: |phi|_H = {norm_phi!r} but energy.csv has {recorded!r}"
            )
    drift = max(abs(m - masses[0]) for m in masses)
    if drift > MASS_ABS_TOL:
        problems.append(f"mass drifts by {drift:.3e} across snapshots {masses}")

    exact = math.pi**2 / 4.0
    e0 = energy["energy_phi"][0]
    if abs(e0 - exact) > INITIAL_ENERGY_REL_TOL * exact:
        problems.append(f"initial energy_phi {e0!r} is not within 3% of pi^2/4")

    scale = max(
        0.5 * (a * a + b * b + c * c) + d + e
        for a, b, c, d, e in zip(
            energy["norm_theta_H"], energy["norm_phi_H"], energy["norm_v_H"],
            energy["energy_phi"], energy["int_beta_hat"],
        )
    )
    limit = RESIDUAL_DT2_MULTIPLE * dt * dt * scale
    worst = max(energy["residual_a1"])
    if not worst <= limit:
        problems.append(f"energy residual {worst:.3e} exceeds {limit:.3e}")
    return problems


def check_lemmas(outdir, exit_code, state):
    """Every suite passes, and the Frechet residuals meet their bounds."""
    if exit_code != 0:
        return [f"verify-lemmas exited with code {exit_code}"]
    with open(os.path.join(outdir, "lemmas.json")) as fh:
        results = json.load(fh)
    suites = ("gamma_convergence", "operator_convergence", "bbm_ratio", "frechet_identity")
    problems = [f"suite {s} missing or failed" for s in suites if not results.get(s, {}).get("pass")]
    frechet = results.get("frechet_identity", {})
    if not frechet.get("max_double_sum_residual", math.inf) <= FRECHET_DOUBLE_SUM_TOL:
        problems.append(f"Frechet double-sum residual {frechet.get('max_double_sum_residual')}")
    if not frechet.get("max_fd_relative_residual", math.inf) <= FRECHET_FD_TOL:
        problems.append(f"Frechet difference residual {frechet.get('max_fd_relative_residual')}")
    return problems
