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
from .kernels import is_resolved
from .operators import (
    apply_B,
    bbm_bound_ratio,
    build_nonlocal_operator,
    energy_from_applied,
    energy_local,
    energy_nonlocal,
    frechet_fd_residual,
    frechet_identity_residual,
)
from .physics import build_initial_data, sample

DEFAULT_EPS_SWEEP = (0.2, 0.1, 0.05, 0.025)


# --- sweep grids ----------------------------------------------------------------


def sweep_grids(eps_list, length=1.0, dimension=1, max_n=512, cells_per_eps=8):
    """Pick one grid per width with h ~ eps/cells_per_eps.

    All cell counts are integer multiples of the coarsest one so that
    cell-average restriction onto the comparison grid is exact.  Raises
    :class:`ResolutionError` if the coarsest grid would have fewer than 4
    cells per axis, or if the cap leaves any width under-resolved.
    """
    ordered = sorted(set(float(e) for e in eps_list), reverse=True)
    if not ordered:
        raise ValueError("empty eps list")
    n0 = min(int(math.ceil(cells_per_eps * length / ordered[0])), max_n)
    if n0 < 4:
        raise ResolutionError(
            f"box length {length} gives eps={ordered[0]} {n0} sweep cells per axis (need 4)"
        )
    grids = {}
    for eps in ordered:
        raw = cells_per_eps * length / eps
        n = n0 * int(math.ceil(raw / n0))
        n = min(n, (max_n // n0) * n0)
        h = length / n
        if not is_resolved(eps, h):
            raise ResolutionError(
                f"cell budget leaves eps={eps} under-resolved (h={h}, need eps >= 4h)"
            )
        grids[eps] = Grid((length,) * dimension, (n,) * dimension)
    return grids


# --- smooth probe dictionary -------------------------------------------------------


@dataclass(frozen=True)
class ProbeField:
    """Closed-form smooth field in box units, evaluable on any grid of the
    sweep: :meth:`on` samples ``fn`` at ``x_i / L_i``."""

    name: str
    fn: callable
    exact_energy: callable = None  # lengths tuple -> float, when known

    def on(self, grid):
        return field_from_function(
            grid, lambda *x: self.fn(*(xi / L for xi, L in zip(x, grid.lengths)))
        )


def _cos_mode(k):
    return lambda *x: np.cos(k * np.pi * x[0])


def probe_fields(dimension=1):
    """Five smooth fields with vanishing normal derivative on any box.

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
                lambda L: 0.6 / L[0],
            ),
        )
    return (
        ProbeField(
            "cos1-cos1",
            lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y),
            lambda L: math.pi**2 / 8.0 * (L[1] / L[0] + L[0] / L[1]),
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


def _default_grids(family):
    """The grids of :data:`DEFAULT_EPS_SWEEP` in the dimension of ``family``."""
    return sweep_grids(DEFAULT_EPS_SWEEP, dimension=family.dimension)


def _probe_suite(family, grids, fields, strict, evaluate, judge):
    """Shared loop of the probe suites.

    ``grids`` maps each width to its sweep grid (:func:`sweep_grids`;
    ``None`` is :data:`DEFAULT_EPS_SWEEP` in the family's dimension), and
    ``fields`` holds the probes (``None`` is :func:`probe_fields` in the
    family's dimension).  Each probe is evaluated coarse to fine on its
    width's grid, with an operator built for that (probe, width) pair:
    ``evaluate(probe, v, op)`` returns the row's values for the probe
    ``v`` on that grid, and ``judge(name, rows)`` the probe's violations.
    With ``strict`` any violation raises :class:`AnalysisError`.
    """
    grids = grids if grids is not None else _default_grids(family)
    fields = fields if fields is not None else probe_fields(family.dimension)
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
            # release the operator, and its plan's FFT work array, before
            # the next build
            del op
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


def gamma_convergence_suite(family, grids=None, fields=None, strict=True):
    """Tabulate the kernel energy against the Dirichlet energy per width.

    Rows carry (field, eps, E_eps, E, gap); per field the gap must shrink
    monotonically along the sweep and end within 5% of the limit energy.
    Arguments as for :func:`_probe_suite`.
    """
    return _probe_suite(family, grids, fields, strict, _energy_row, _energy_verdict)


def _operator_row(probe, v, op):
    grid = v.grid
    w = field_from_function(
        grid, lambda *x: np.cos(2.0 * np.pi * x[0] / grid.lengths[0])
    )
    b_nl = apply_B(op, v)
    return {
        "dual_gap": dual_norm(b_nl - apply_B(None, v)),
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


def operator_convergence_suite(family, grids=None, fields=None, strict=True):
    """Dual-norm and pairing gaps between the kernel operator and the
    Laplacian on smooth fields; the dual-norm gap must shrink along the
    sweep.  Arguments as for :func:`_probe_suite`."""
    return _probe_suite(family, grids, fields, strict, _operator_row, _operator_verdict)


def _ratio_verdict(name, rows):
    ratios = [r["ratio"] for r in rows]
    spread = max(ratios) / min(ratios)
    if spread > 2.0:
        return [f"{name}: ratio spread {spread:.3g} exceeds factor 2"]
    return []


def bbm_ratio_suite(family, grids=None, fields=None, strict=True):
    """Uniform boundedness of ``dual_norm(B_eps v)/sqrt(E_eps(v))`` per field;
    arguments as for :func:`_probe_suite`."""
    return _probe_suite(family, grids, fields, strict,
                        lambda probe, v, op: {"ratio": bbm_bound_ratio(op, v)},
                        _ratio_verdict)


def frechet_identity_suite(family, eps=0.25, n=32, trials=50, seed=0):
    """Derivative-identity residuals on random field pairs, on the unit box
    with ``n`` cells per axis in the family's dimension.

    Checks the operator pairing against both the direct double sum
    (roundoff-level agreement expected) and the centered difference of
    the energy (exact for a quadratic functional up to 1/delta-amplified
    roundoff).  The result names its setting: ``eps``, ``n``,
    ``box_length`` and ``trials``.
    """
    grid = Grid((1.0,) * family.dimension, (n,) * family.dimension)
    op = build_nonlocal_operator(family, eps, grid)
    rng = np.random.default_rng(seed)
    max_double, max_fd_rel = 0.0, 0.0
    for _ in range(trials):
        u = Field(grid, rng.normal(size=grid.shape))
        v = Field(grid, rng.normal(size=grid.shape))
        # one B_eps apply per trial serves the value and both residuals
        pairing = inner_product("H", apply_B(op, u), v)
        max_double = max(
            max_double, frechet_identity_residual(op, u, v, pairing=pairing)
        )
        max_fd_rel = max(
            max_fd_rel,
            frechet_fd_residual(op, u, v, pairing=pairing) / (1.0 + abs(pairing)),
        )
    return {
        "pass": bool(max_double <= 1e-12 and max_fd_rel <= 1e-6),
        "max_double_sum_residual": max_double,
        "max_fd_relative_residual": max_fd_rel,
        "eps": eps,
        "n": n,
        "box_length": grid.lengths[0],
        "trials": trials,
    }


# --- uniform-estimate monitors ---------------------------------------------------------


def estimate_monitor(traj, potential, applied=None):
    """Discrete analogues of the width-uniform a priori bounds.

    The state and energy bounds (sup norms of the state, the kernel
    energy, and the convex-primitive mass, plus the time-integrated
    dissipation), the temperature regularity (time derivative, V-norm,
    Laplacian), and the dual bounds (dual norms of the phase acceleration
    and the operator image, and the L^q mass of the monotone term of
    ``potential``).  Sup-in-time quantities use the per-step records; dual
    norms are evaluated at snapshot times, the operator image with the
    trajectory's own ``B`` (``traj.op``).  ``applied``, when given, is the
    pair of per-snapshot lists ``(B phi, beta(phi))`` already at hand
    (fields, then arrays; see :func:`_snapshot_images`).
    """
    B_phi, beta = _snapshot_images(traj, potential) if applied is None else applied
    recs = traj.records
    q = potential.q
    vol = traj.grid.cell_volume
    beta_lq = max(
        (vol * float(np.sum(np.abs(b) ** q))) ** (1.0 / q) for b in beta
    )
    phi_tt = [f for f in traj.phi_tt_snapshots if f is not None]
    return {
        "theta_LinfH": max(r.norm_theta_H for r in recs),
        "grad_theta_L2H": math.sqrt(traj.aux["int_gradtheta_sq"]),
        "phi_LinfH": max(r.norm_phi_H for r in recs),
        "v_LinfH": max(r.norm_v_H for r in recs),
        "v_L2H": math.sqrt(traj.aux["int_v_sq"]),
        "energy_Linf": max(r.energy_phi for r in recs),
        "beta_hat_L1_Linf": max(r.int_beta_hat for r in recs),
        "theta_t_L2H": math.sqrt(traj.aux["int_thetat_sq"]),
        "theta_LinfV": max(norm(s.theta, "V") for s in traj.states),
        "lap_theta_L2H": math.sqrt(traj.aux["int_laptheta_sq"]),
        "beta_Lq_Linf": beta_lq,
        "phi_tt_LinfVstar": max(dual_norm(f) for f in phi_tt) if phi_tt else 0.0,
        "B_phi_LinfVstar": max(dual_norm(b) for b in B_phi),
    }


def _snapshot_images(traj, potential):
    """Per snapshot of ``traj``: ``B phi`` as a field, with the run's own
    ``B`` (``traj.op``), and ``beta(phi)`` of ``potential`` as an array."""
    states = traj.states
    return (
        [apply_B(traj.op, s.phi) for s in states],
        [sample(potential.beta, s.phi.data) for s in states],
    )


# --- the sweep study --------------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    """Everything a limit study needs; data and source are closed-form
    rules so every width can evaluate them on its own grid.  ``grids``
    maps each width to its grid (:func:`sweep_grids`; ``None`` is
    :data:`DEFAULT_EPS_SWEEP` in the family's dimension)."""

    family: object
    potential: object
    scheme: SchemeConfig
    grids: dict = None
    c1_bound: float = 10.0
    rule: object = None
    source: object = None
    reference: str = "local-solve"

    def __post_init__(self):
        if self.grids is None:
            object.__setattr__(self, "grids", _default_grids(self.family))
        if self.reference not in ("local-solve", "finest-eps"):
            raise ValueError(f"unknown reference {self.reference!r}")


@dataclass
class ConvergenceReport:
    columns: dict
    estimates: dict
    rows_extra: dict
    violations: list
    notes: list = field(default_factory=list)

    @property
    def eps_list(self):
        return tuple(self.columns["eps"])


REPORT_COLUMNS = (
    "eps",
    "err_theta_C0H",
    "err_phi_C0H",
    "err_v_C0Vstar",
    "err_Beps_Vstar",
    "err_beta_pairing",
    "rate_phi",
)


@dataclass
class ReducedRun:
    """A finished run reduced to what the sweep report reads: ``images``
    maps theta, phi, v, ``B phi`` and ``beta(phi)`` to their restrictions
    onto the comparison grid, one per snapshot, and ``energy`` holds the
    run's energy ``1/2 (B phi, phi)_H`` at each snapshot.  A compared width also carries its
    :func:`estimate_monitor` values, the uniform-bound monitor ``a5`` of
    its initial data, and that data's flags."""

    images: dict
    energy: list
    estimates: dict = None
    a5: float = None
    flags: tuple = ()


def _reduce_run(traj, coarse, applied, estimates=None, a5=None, flags=()):
    """Reduce ``traj`` onto the grid ``coarse``, with ``applied`` the
    per-snapshot ``(B phi, beta(phi))`` of :func:`_snapshot_images`, whose
    ``B phi`` also gives each snapshot's energy; ``estimates``, ``a5`` and
    ``flags`` are kept as given."""
    states = traj.states
    B_phi, beta = applied
    return ReducedRun(
        images={
            "theta": [restrict(s.theta, coarse) for s in states],
            "phi": [restrict(s.phi, coarse) for s in states],
            "v": [restrict(s.v, coarse) for s in states],
            "B": [restrict(b, coarse) for b in B_phi],
            "beta": [restrict(Field(traj.grid, b), coarse) for b in beta],
        },
        energy=[energy_from_applied(traj.op, s.phi, b.data) for s, b in zip(states, B_phi)],
        estimates=estimates,
        a5=a5,
        flags=flags,
    )


def _solve(sweep, grid, coarse, op=None, monitor=False):
    """One run of the sweep on ``grid``, reduced onto ``coarse`` as soon as
    its solve returns, so the trajectory is released on return: the
    kernel system of ``op``, or the Laplacian system when ``op`` is
    ``None``.  ``op`` goes unchanged to :func:`build_initial_data`, whose
    uniform-bound monitor ``a5`` uses that run's own ``B``, and to
    :func:`solve_trajectory`, which keeps it as ``traj.op``.  With
    ``monitor`` the run keeps its estimates, ``a5`` and flags.  ``B phi``
    and ``beta(phi)`` are taken once per snapshot, for the estimates and
    the images alike."""
    data = build_initial_data(
        op, grid, sweep.potential, c1_bound=sweep.c1_bound, rule=sweep.rule
    )
    traj = solve_trajectory(op, data, sweep.potential, sweep.scheme,
                            source=sweep.source)
    applied = _snapshot_images(traj, sweep.potential)
    if monitor:
        estimates = estimate_monitor(traj, sweep.potential, applied)
        return _reduce_run(traj, coarse, applied, estimates, data.a5, data.flags)
    return _reduce_run(traj, coarse, applied)


def nonlocal_to_local_study(sweep):
    """Run the width sweep against the local reference and tabulate errors.

    Each width runs on its grid of ``sweep.grids``.  The reference is the
    Laplacian solve on the finest grid (or the finest-width kernel solve
    for self-convergence studies).  Runs go one at a time, widths coarse to fine, then the reference, and
    each is reduced to its images on the coarsest grid (cell-average
    restriction) and released as soon as its solve returns.  C0-in-time
    norms are maxima over the common snapshot times.  Monotonicity
    findings are recorded in ``violations`` rather than raised, so
    degenerate configurations stay inspectable.
    """
    grids = sweep.grids
    ordered = sorted(grids, reverse=True)
    coarse = grids[ordered[0]]
    local = sweep.reference == "local-solve"
    compare_eps = ordered if local else ordered[:-1]

    runs = {
        eps: _solve(
            sweep, grids[eps], coarse,
            build_nonlocal_operator(sweep.family, eps, grids[eps]),
            monitor=eps in compare_eps,
        )
        for eps in ordered
    }
    ref = _solve(sweep, grids[ordered[-1]], coarse) if local else runs[ordered[-1]]

    probes = [p.on(coarse) for p in probe_fields(sweep.family.dimension)]
    columns = {name: [] for name in REPORT_COLUMNS}
    estimates, rows_extra = {}, {}
    violations, notes = [], []

    for eps in compare_eps:
        run = runs[eps]
        if len(run.energy) != len(ref.energy):
            raise GridMismatchError("snapshot schedules differ between runs")
        d = {
            name: [a - b for a, b in zip(images, ref.images[name])]
            for name, images in run.images.items()
        }
        columns["eps"].append(eps)
        columns["err_theta_C0H"].append(max(norm(f, "H") for f in d["theta"]))
        columns["err_phi_C0H"].append(max(norm(f, "H") for f in d["phi"]))
        columns["err_v_C0Vstar"].append(max(dual_norm(f) for f in d["v"]))
        columns["err_Beps_Vstar"].append(max(dual_norm(f) for f in d["B"]))
        columns["err_beta_pairing"].append(
            max(abs(inner_product("H", f, w)) for f in d["beta"] for w in probes)
        )
        estimates[eps] = run.estimates
        e_Bpair = max(abs(inner_product("H", f, w)) for f in d["B"] for w in probes)
        rows_extra[eps] = {"err_B_pairing": e_Bpair}

    # empirical decay rates of the phase error between consecutive widths
    err_phi = columns["err_phi_C0H"]
    columns["rate_phi"] = [float("nan")] + [
        math.log(e1 / e0) / math.log(b / a) if e0 > 0 and e1 > 0 else float("nan")
        for a, b, e0, e1 in zip(compare_eps, compare_eps[1:], err_phi, err_phi[1:])
    ]

    for eps in compare_eps:
        for flag in runs[eps].flags:
            notes.append(f"eps={eps}: {flag}")

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
        if local:
            # lower-semicontinuity check: at each snapshot the limit energy
            # must not exceed the best width energy beyond the 10% slack
            energy_scale = max(estimates[e]["energy_Linf"] for e in compare_eps)
            worst = -np.inf
            for k, ref_energy in enumerate(ref.energy):
                best = min(runs[e].energy[k] for e in compare_eps)
                worst = max(worst, ref_energy - best)
            if worst > 0.10 * max(energy_scale, 1e-14):
                violations.append(
                    f"limit energy exceeds the best width energy by {worst:.3g}, "
                    f"beyond the 10% slack"
                )
        # the initial data's uniform bound must hold uniformly in eps
        coarsest, finest = compare_eps[0], compare_eps[-1]
        lo, hi = runs[coarsest].a5, runs[finest].a5
        if hi > 2.0 * lo:
            notes.append(
                f"monitor grows from {lo:.6g} (eps={coarsest}) to "
                f"{hi:.6g} (eps={finest}): family looks unbounded"
            )

    for name in REPORT_COLUMNS[1:-1]:
        vals = np.asarray(columns[name])
        if not (np.all(np.isfinite(vals)) and np.all(vals >= 0.0)):
            raise AnalysisError([f"report column {name} is not finite/nonnegative"])

    return ConvergenceReport(columns=columns, estimates=estimates,
                             rows_extra=rows_extra, violations=violations, notes=notes)


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
