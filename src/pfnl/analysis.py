"""Kernel-width sweep studies: the nonlocal-to-local limit and the
supporting verification suites.

The central object is the sweep: solve the kernel system for a strictly
decreasing list of widths, solve the Laplacian system once as the
reference, restrict everything to the coarsest grid in play, and tabulate
error norms and uniform-estimate monitors per width.  The grid refines
with the width (h = eps/8 by default, capped by a cell budget) because
the limit is a statement about the continuum operator; a fixed grid would
freeze the discrete kernel instead.

Weak-mode comparisons (the operator image and the monotone nonlinearity)
are tested through pairings with a fixed dictionary of smooth fields,
matching the topology in which those limits actually hold; norm
convergence is extra information, reported but only the phase/temperature
columns are required to shrink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AnalysisError, GridMismatchError, ResolutionError
from .fields import (
    Field,
    Grid,
    dual_norm,
    field_from_function,
    grad_inner,
    inner_product,
    norm,
    restrict,
)
from .integrator import SchemeConfig, solve_trajectory
from .operators import (
    apply_B,
    apply_B_local,
    bbm_bound_ratio,
    build_nonlocal_operator,
    energy_local,
    energy_nonlocal,
    frechet_fd_residual,
    frechet_identity_residual,
)
from .physics import build_initial_data

DEFAULT_EPS_SWEEP = (0.2, 0.1, 0.05, 0.025)

#: monitor groups accepted by :func:`estimate_monitor`
MONITOR_GROUPS = ("state-energy", "temperature-regularity", "dual-derivative")


# --- sweep grids ----------------------------------------------------------------


def sweep_grids(eps_list, length=1.0, dimension=1, max_n=512, cells_per_eps=8):
    """Pick one grid per width with h ~ eps/cells_per_eps.

    All cell counts are integer multiples of the coarsest one so that
    cell-average restriction onto the comparison grid is exact.  Raises
    if the cap leaves any width under-resolved.
    """
    ordered = sorted(set(float(e) for e in eps_list), reverse=True)
    if not ordered:
        raise ValueError("empty eps list")
    n0 = min(int(math.ceil(cells_per_eps * length / ordered[0])), max_n)
    grids = {}
    for eps in ordered:
        raw = cells_per_eps * length / eps
        n = n0 * int(math.ceil(raw / n0))
        n = min(n, (max_n // n0) * n0)
        h = length / n
        if eps < 4.0 * h - 1e-12:
            raise ResolutionError(
                f"cell budget leaves eps={eps} under-resolved (h={h}, need eps >= 4h)"
            )
        if dimension == 1:
            grids[eps] = Grid.line(n, length)
        else:
            grids[eps] = Grid.box(n, (length, length))
    return grids


# --- smooth probe dictionary -------------------------------------------------------


@dataclass(frozen=True)
class ProbeField:
    """Closed-form smooth field, evaluable on any grid of the sweep."""

    name: str
    fn: callable
    exact_energy: callable = None  # lengths tuple -> float, when known

    def on(self, grid):
        return field_from_function(grid, self.fn)


def _cos_mode(k):
    return lambda *x: np.cos(k * np.pi * x[0])


def probe_fields(dimension=1):
    """Five smooth fields with vanishing normal derivative on the unit box.

    Flat boundary behaviour keeps the kernel operator's boundary layer
    quadratically small, so the norm-convergence diagnostics are not
    polluted by an artificial O(1) rim.
    """
    if dimension == 1:
        return (
            ProbeField("cos1", _cos_mode(1), lambda L: math.pi**2 / (4.0 * L[0])),
            ProbeField("cos2", _cos_mode(2), lambda L: math.pi**2 / L[0]),
            ProbeField("cos3", _cos_mode(3), lambda L: 9.0 * math.pi**2 / (4.0 * L[0])),
            ProbeField(
                "cos-mix",
                lambda *x: np.cos(np.pi * x[0]) + 0.5 * np.cos(2.0 * np.pi * x[0]),
                lambda L: math.pi**2 / (4.0 * L[0]) + math.pi**2 / (4.0 * L[0]),
            ),
            ProbeField(
                "cubic-ramp",
                lambda *x: x[0] ** 2 * (3.0 - 2.0 * x[0]),
                lambda L: 0.6 / L[0] if abs(L[0] - 1.0) < 1e-12 else None,
            ),
        )
    return (
        ProbeField(
            "cos1-cos1",
            lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y),
            lambda L: math.pi**2 / 4.0 if L == (1.0, 1.0) else None,
        ),
        ProbeField("cos1-flat", lambda x, y: np.cos(np.pi * x)),
        ProbeField("flat-cos2", lambda x, y: np.cos(2.0 * np.pi * y)),
        ProbeField(
            "cos2-cos1", lambda x, y: np.cos(2.0 * np.pi * x) * np.cos(np.pi * y)
        ),
        ProbeField(
            "ramp-cos1",
            lambda x, y: x**2 * (3.0 - 2.0 * x) * np.cos(np.pi * y),
        ),
    )


# --- probe suites --------------------------------------------------------------------


def _probe_suite(family, eps_list, length, dimension, max_n, fields, strict,
                 evaluate, judge):
    """Shared loop of the probe suites.

    Each probe is evaluated coarse to fine on its width's sweep grid, with
    an operator built for that (probe, width) pair: ``evaluate(probe, v,
    op)`` returns the row's values for the probe ``v`` on that grid, and
    ``judge(name, rows)`` the probe's violations.  With ``strict`` any
    violation raises :class:`AnalysisError`.
    """
    fields = fields if fields is not None else probe_fields(dimension)
    grids = sweep_grids(eps_list, length, dimension, max_n)
    rows, violations = [], []
    for probe in fields:
        probe_rows = []
        for eps in sorted(grids, reverse=True):
            grid = grids[eps]
            v = probe.on(grid)
            op = build_nonlocal_operator(family, eps, grid)
            row = {"field": probe.name, "eps": eps}
            row.update(evaluate(probe, v, op))
            probe_rows.append(row)
        rows.extend(probe_rows)
        violations.extend(judge(probe.name, probe_rows))
    if strict and violations:
        raise AnalysisError(violations)
    return rows, violations


def _rises(values):
    """Consecutive pairs ``(a, b)`` of ``values`` with ``b >= a``."""
    return [(a, b) for a, b in zip(values, values[1:]) if b >= a]


def _energy_row(probe, v, op):
    e_nl = energy_nonlocal(op, v)
    exact = probe.exact_energy(v.grid.lengths) if probe.exact_energy else None
    e_loc = exact if exact is not None else energy_local(v)
    return {"energy_nonlocal": e_nl, "energy_local": e_loc, "gap": abs(e_nl - e_loc)}


def _energy_verdict(name, rows):
    gaps = [r["gap"] for r in rows]
    limit = rows[-1]["energy_local"]
    if limit <= 1e-14:
        if max(gaps) > 1e-12:
            return [f"{name}: flat field should have zero energies"]
        return []
    out = [
        f"{name}: energy gap fails to decrease ({a:g} -> {b:g})"
        for a, b in _rises(gaps)
    ]
    if gaps[-1] / limit > 0.05:
        out.append(f"{name}: final relative gap {gaps[-1] / limit:.3g} exceeds 5%")
    return out


def gamma_convergence_suite(
    family, eps_list=DEFAULT_EPS_SWEEP, length=1.0, dimension=1, max_n=512,
    fields=None, strict=True,
):
    """Tabulate the kernel energy against the Dirichlet energy per width.

    Rows carry (field, eps, E_eps, E, gap); per field the gap must shrink
    monotonically along the sweep and end within 5% of the limit energy.
    With ``strict`` a violated assertion raises :class:`AnalysisError`.
    """
    return _probe_suite(family, eps_list, length, dimension, max_n, fields, strict,
                        _energy_row, _energy_verdict)


def _operator_row(probe, v, op):
    grid = v.grid
    w = field_from_function(
        grid, lambda *x: np.cos(2.0 * np.pi * x[0] / grid.lengths[0])
    )
    b_nl = apply_B(op, v)
    return {
        "dual_gap": dual_norm(b_nl - apply_B_local(v)),
        "pairing_nonlocal": inner_product("H", b_nl, w),
        "pairing_local": grad_inner(v, w),
    }


def _operator_verdict(name, rows):
    gaps = [r["dual_gap"] for r in rows]
    if max(gaps) <= 1e-12:
        return []  # operator vanishes identically (flat probe)
    return [
        f"{name}: dual-norm gap fails to decrease ({a:g} -> {b:g})"
        for a, b in _rises(gaps)
    ]


def operator_convergence_suite(
    family, eps_list=DEFAULT_EPS_SWEEP, length=1.0, dimension=1, max_n=512,
    fields=None, strict=True,
):
    """Dual-norm and pairing gaps between the kernel operator and the
    Laplacian on smooth fields; the dual-norm gap must shrink along the
    sweep."""
    return _probe_suite(family, eps_list, length, dimension, max_n, fields, strict,
                        _operator_row, _operator_verdict)


def _ratio_verdict(name, rows):
    ratios = [r["ratio"] for r in rows]
    spread = max(ratios) / min(ratios)
    if spread > 2.0:
        return [f"{name}: ratio spread {spread:.3g} exceeds factor 2"]
    return []


def bbm_ratio_suite(family, eps_list=DEFAULT_EPS_SWEEP, length=1.0, dimension=1,
                    max_n=512, fields=None, strict=True):
    """Uniform boundedness of ``dual_norm(B_eps v)/sqrt(E_eps(v))`` per field."""
    return _probe_suite(family, eps_list, length, dimension, max_n, fields, strict,
                        lambda probe, v, op: {"ratio": bbm_bound_ratio(op, v)},
                        _ratio_verdict)


def frechet_identity_suite(family, eps=0.25, n=32, dimension=1, trials=50, seed=0):
    """Derivative-identity residuals on random field pairs.

    Checks the operator pairing against both the direct double sum
    (roundoff-level agreement expected) and the centered difference of
    the energy (exact for a quadratic functional up to 1/delta-amplified
    roundoff).
    """
    grid = Grid.line(n) if dimension == 1 else Grid.box(n)
    op = build_nonlocal_operator(family, eps, grid)
    rng = np.random.default_rng(seed)
    max_double, max_fd_rel = 0.0, 0.0
    for _ in range(trials):
        u = Field(grid, rng.normal(size=grid.shape))
        v = Field(grid, rng.normal(size=grid.shape))
        max_double = max(max_double, frechet_identity_residual(op, u, v))
        value = abs(inner_product("H", apply_B(op, u), v))
        max_fd_rel = max(
            max_fd_rel, frechet_fd_residual(op, u, v) / (1.0 + value)
        )
    return {
        "trials": trials,
        "max_double_sum_residual": max_double,
        "max_fd_relative_residual": max_fd_rel,
        "pass": bool(max_double <= 1e-12 and max_fd_rel <= 1e-6),
    }


# --- uniform-estimate monitors ---------------------------------------------------------


def estimate_monitor(traj, which="all", potential=None):
    """Discrete analogues of the width-uniform a priori bounds.

    Groups: ``state-energy`` (sup norms of the state, the kernel energy,
    and the convex-primitive mass, plus the time-integrated dissipation),
    ``temperature-regularity`` (temperature time derivative, V-norm,
    Laplacian), ``dual-derivative`` (dual norms of the phase acceleration
    and the operator image, and the L^q mass of the monotone term).
    Sup-in-time quantities use the per-step records; dual norms are
    evaluated at snapshot times, the operator image with the trajectory's
    own ``B`` (``traj.op``).
    """
    if which != "all" and which not in MONITOR_GROUPS:
        raise ValueError(f"unknown monitor group {which!r}")
    out = {}
    recs = traj.records

    if which in ("all", "state-energy"):
        out.update(
            {
                "theta_LinfH": max(r.norm_theta_H for r in recs),
                "grad_theta_L2H": math.sqrt(traj.aux["int_gradtheta_sq"]),
                "phi_LinfH": max(r.norm_phi_H for r in recs),
                "v_LinfH": max(r.norm_v_H for r in recs),
                "v_L2H": math.sqrt(traj.aux["int_v_sq"]),
                "energy_Linf": max(r.energy_phi for r in recs),
                "beta_hat_L1_Linf": max(r.int_beta_hat for r in recs),
            }
        )
    if which in ("all", "temperature-regularity"):
        out.update(
            {
                "theta_t_L2H": math.sqrt(traj.aux["int_thetat_sq"]),
                "theta_LinfV": max(norm(s.theta, "V") for s in traj.states),
                "lap_theta_L2H": math.sqrt(traj.aux["int_laptheta_sq"]),
            }
        )
    if which in ("all", "dual-derivative"):
        if potential is None:
            raise ValueError("dual-derivative monitors need the potential")
        q = potential.q
        vol = traj.grid.cell_volume
        beta_lq = max(
            (vol * float(np.sum(np.abs(potential.beta(s.phi.data)) ** q))) ** (1.0 / q)
            for s in traj.states
        )
        phi_tt = [f for f in traj.phi_tt_snapshots if f is not None]
        out.update(
            {
                "beta_Lq_Linf": beta_lq,
                "phi_tt_LinfVstar": max(dual_norm(f) for f in phi_tt) if phi_tt else 0.0,
                "B_phi_LinfVstar": max(dual_norm(apply_B(traj.op, s.phi)) for s in traj.states),
            }
        )
    return out


# --- the sweep study --------------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    """Everything a limit study needs; data and source are closed-form
    rules so every width can evaluate them on its own grid."""

    family: object
    potential: object
    scheme: SchemeConfig
    eps_list: tuple = DEFAULT_EPS_SWEEP
    length: float = 1.0
    dimension: int = 1
    max_n: int = 512
    c1_bound: float = 10.0
    rule: object = None
    source: object = None
    reference: str = "local-solve"

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps_list)
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("eps list must be strictly decreasing")
        if self.reference not in ("local-solve", "finest-eps"):
            raise ValueError(f"unknown reference {self.reference!r}")
        object.__setattr__(self, "eps_list", eps)


@dataclass
class ConvergenceReport:
    eps_list: tuple
    columns: dict
    estimates: dict
    rows_extra: dict
    violations: list
    notes: list = field(default_factory=list)


REPORT_COLUMNS = (
    "eps",
    "err_theta_C0H",
    "err_phi_C0H",
    "err_v_C0Vstar",
    "err_Beps_Vstar",
    "err_beta_pairing",
    "rate_phi",
)


def _solve(sweep, grid, op=None):
    """One run of the sweep on ``grid``: the kernel system of ``op``, or
    the Laplacian system when ``op`` is ``None`` (no width, so no a5
    monitor).  ``op`` goes unchanged to :func:`solve_trajectory`, which
    keeps it as ``traj.op``.  Returns ``(data, traj)``."""
    widths = {} if op is None else {op.eps: op}
    data = build_initial_data(
        "smooth-default",
        grid,
        list(widths),
        sweep.family,
        sweep.potential,
        c1_bound=sweep.c1_bound,
        rule=sweep.rule,
        strict=False,
        operators=widths,
    )
    traj = solve_trajectory(op, data, sweep.potential, sweep.scheme,
                            source=sweep.source)
    return data, traj


def nonlocal_to_local_study(sweep):
    """Run the width sweep against the local reference and tabulate errors.

    The reference is the Laplacian solve on the finest grid of the sweep
    (or the finest-width kernel solve for self-convergence studies).
    Fields are compared after cell-average restriction onto the coarsest
    grid; C0-in-time norms are maxima over the common snapshot times.
    Monotonicity findings are recorded in ``violations`` rather than
    raised, so degenerate configurations stay inspectable.
    """
    grids = sweep_grids(sweep.eps_list, sweep.length, sweep.dimension, sweep.max_n)
    ordered = sorted(grids, reverse=True)
    coarse = grids[ordered[0]]
    finest = grids[ordered[-1]]

    # widths coarse to fine, then the local reference
    runs = {
        eps: _solve(
            sweep, grids[eps], build_nonlocal_operator(sweep.family, eps, grids[eps])
        )
        for eps in ordered
    }
    if sweep.reference == "finest-eps":
        _, ref_traj = runs[ordered[-1]]
        compare_eps = ordered[:-1]
    else:
        _, ref_traj = _solve(sweep, finest)
        compare_eps = ordered

    probes = probe_fields(sweep.dimension)
    probe_on_coarse = [p.on(coarse) for p in probes]

    # reference snapshots restricted to the comparison grid, once
    ref_theta = [restrict(s.theta, coarse) for s in ref_traj.states]
    ref_phi = [restrict(s.phi, coarse) for s in ref_traj.states]
    ref_v = [restrict(s.v, coarse) for s in ref_traj.states]
    ref_B = [restrict(apply_B(ref_traj.op, s.phi), coarse) for s in ref_traj.states]
    ref_beta = [
        restrict(
            Field(ref_traj.grid, np.asarray(sweep.potential.beta(s.phi.data))), coarse
        )
        for s in ref_traj.states
    ]

    columns = {name: [] for name in REPORT_COLUMNS}
    estimates, rows_extra = {}, {}
    violations, notes = [], []

    for eps in compare_eps:
        data, traj = runs[eps]
        if len(traj.times) != len(ref_traj.times):
            raise GridMismatchError("snapshot schedules differ between runs")
        e_theta = e_phi = e_v = e_B = e_beta = e_Bpair = 0.0
        energy_path = []
        for k, state in enumerate(traj.states):
            th = restrict(state.theta, coarse)
            ph = restrict(state.phi, coarse)
            vv = restrict(state.v, coarse)
            e_theta = max(e_theta, norm(th - ref_theta[k], "H"))
            e_phi = max(e_phi, norm(ph - ref_phi[k], "H"))
            e_v = max(e_v, dual_norm(vv - ref_v[k]))
            B_here = restrict(apply_B(traj.op, state.phi), coarse)
            e_B = max(e_B, dual_norm(B_here - ref_B[k]))
            beta_here = restrict(
                Field(traj.grid, np.asarray(sweep.potential.beta(state.phi.data))),
                coarse,
            )
            for w in probe_on_coarse:
                e_Bpair = max(
                    e_Bpair, abs(inner_product("H", B_here - ref_B[k], w))
                )
                e_beta = max(
                    e_beta, abs(inner_product("H", beta_here - ref_beta[k], w))
                )
            energy_path.append(_record_at(traj, traj.times[k]).energy_phi)

        columns["eps"].append(eps)
        columns["err_theta_C0H"].append(e_theta)
        columns["err_phi_C0H"].append(e_phi)
        columns["err_v_C0Vstar"].append(e_v)
        columns["err_Beps_Vstar"].append(e_B)
        columns["err_beta_pairing"].append(e_beta)
        estimates[eps] = estimate_monitor(traj, "all", potential=sweep.potential)
        rows_extra[eps] = {
            "err_B_pairing": e_Bpair,
            "a5_monitor": data.a5_values[eps],
            "energy_path": energy_path,
        }

    # empirical decay rates of the phase error between consecutive widths
    rates = [float("nan")]
    for i in range(1, len(compare_eps)):
        e0, e1 = columns["err_phi_C0H"][i - 1], columns["err_phi_C0H"][i]
        if e0 > 0 and e1 > 0:
            rates.append(
                math.log(e1 / e0) / math.log(compare_eps[i] / compare_eps[i - 1])
            )
        else:
            rates.append(float("nan"))
    columns["rate_phi"] = rates

    if len(compare_eps) < 2:
        notes.append("single-width sweep: monotonicity assertions skipped")
    else:
        for name in REPORT_COLUMNS[1:-1]:
            for a, b in _rises(columns[name])[:1]:
                violations.append(f"{name} fails to decrease ({a:g} -> {b:g})")
        for name in ("err_theta_C0H", "err_phi_C0H"):
            vals = columns[name]
            if vals[0] > 0 and vals[-1] / vals[0] > 0.5:
                violations.append(
                    f"{name}: finest/coarsest ratio {vals[-1] / vals[0]:.3g} above 1/2"
                )
        bpair = [rows_extra[e]["err_B_pairing"] for e in compare_eps]
        for a, b in _rises(bpair)[:1]:
            violations.append(f"err_B_pairing fails to decrease ({a:g} -> {b:g})")
        if ref_traj.op is None:
            # lower-semicontinuity check: at each snapshot the limit energy
            # must not exceed the best width energy beyond the 10% slack
            energy_scale = max(estimates[e]["energy_Linf"] for e in compare_eps)
            worst = -np.inf
            for k, t in enumerate(ref_traj.times):
                best = min(rows_extra[e]["energy_path"][k] for e in compare_eps)
                worst = max(worst, _record_at(ref_traj, t).energy_phi - best)
            if worst > 0.10 * max(energy_scale, 1e-14):
                violations.append(
                    f"limit energy exceeds the best width energy by {worst:.3g}, "
                    f"beyond the 10% slack"
                )

    for eps in compare_eps:
        for flag in runs[eps][0].flags:
            notes.append(f"eps={eps}: {flag}")

    for name in REPORT_COLUMNS[1:-1]:
        vals = np.asarray(columns[name])
        if not (np.all(np.isfinite(vals)) and np.all(vals >= 0.0)):
            raise AnalysisError([f"report column {name} is not finite/nonnegative"])

    return ConvergenceReport(
        eps_list=tuple(compare_eps),
        columns=columns,
        estimates=estimates,
        rows_extra=rows_extra,
        violations=violations,
        notes=notes,
    )


def cauchy_in_h_diagnostic(traj_a, traj_b):
    """Pairwise closeness table for two kernel-width runs.

    Per snapshot time: the squared H-distance of the phases on the common
    (coarser) grid, the sum of the two kernel energies, and the squared
    dual distance; the qualitative mechanism is that the first is
    controlled by the other two.
    """
    if len(traj_a.times) != len(traj_b.times):
        raise GridMismatchError("snapshot schedules differ")
    ga, gb = traj_a.grid, traj_b.grid
    target = ga if ga.num_cells <= gb.num_cells else gb
    rows = []
    for k, t in enumerate(traj_a.times):
        pa = restrict(traj_a.states[k].phi, target)
        pb = restrict(traj_b.states[k].phi, target)
        diff = pa - pb
        ea, eb = _record_at(traj_a, t), _record_at(traj_b, t)
        rows.append(
            {
                "t": t,
                "h_dist_sq": inner_product("H", diff, diff),
                "energy_sum": ea.energy_phi + eb.energy_phi,
                "dual_dist_sq": dual_norm(diff) ** 2,
            }
        )
    return rows


def _record_at(traj, t):
    """The energy record of ``traj`` at snapshot time ``t``; records are
    one per step, the first at ``t = 0``."""
    recs = traj.records
    if len(recs) < 2:
        return recs[0]
    return recs[min(round(t / (recs[1].t - recs[0].t)), len(recs) - 1)]


# --- CSV rendering -----------------------------------------------------------------------


def report_csv(report):
    """Deterministic CSV of the study (17 significant digits)."""
    lines = [",".join(REPORT_COLUMNS)]
    for i, eps in enumerate(report.eps_list):
        vals = [report.columns[name][i] for name in REPORT_COLUMNS]
        lines.append(",".join(f"{v:.17g}" for v in vals))
    return "\n".join(lines) + "\n"


def estimates_csv(report):
    """One row per width, one column per monitored quantity."""
    if not report.estimates:
        return "eps\n"
    keys = sorted(next(iter(report.estimates.values())).keys())
    lines = ["eps," + ",".join(keys)]
    for eps in report.eps_list:
        est = report.estimates[eps]
        lines.append(f"{eps:.17g}," + ",".join(f"{est[k]:.17g}" for k in keys))
    return "\n".join(lines) + "\n"
