"""Semi-implicit time stepping for the coupled temperature/phase system.

One step advances the pair of equations

    theta_t + phi_t - lap(theta) = f,
    phi_tt + phi_t + B phi + beta(phi) + pi(phi) = theta,

where ``B`` is either the nonlocal kernel operator or the (negative)
Neumann Laplacian.  One ``op`` argument selects it, from
:func:`solve_trajectory` down to the phase Newton: the kernel operator
for ``B_eps``, or ``None`` for ``-lap_N`` (see :func:`pfnl.operators.apply_B`).
The phase subsystem is solved first, implicitly in
``B`` and ``beta`` (Newton with matrix-free CG, :func:`pfnl.fields.cg`;
the Jacobian ``(1/dt^2 + 1/dt) I + B + beta'`` is SPD because ``beta`` is
monotone), with ``pi`` and the temperature taken explicitly.  The
temperature subsystem then sees the fresh phase velocity and is one exact
``(I - dt lap_N)`` solve by the DCT (:func:`pfnl.fields.neumann_solve`).

Implicit treatment of ``B`` matters: the nonlocal operator norm grows
like ``1/eps^2``, so an explicit coupling would put a dt ceiling
proportional to ``eps^2`` on the sweep.

The first step seeds the three-level phase stencil with
``phi^{-1} = phi^0 - dt v^0``, i.e. the second difference reduces to
``(v^{n+1} - v^n)/dt`` with ``v^{n+1} = (phi^{n+1} - phi^n)/dt``, so the
velocity enters the scheme exactly as prescribed by the data.

Each step also evaluates the discrete energy balance: the change of

    1/2|theta|_H^2 + 1/2|phi|_H^2 + 1/2|v|_H^2 + E(phi) + int beta_hat(phi)

plus the dissipation ``dt (|grad theta|^2 + |v|^2)`` must match the work
``dt ((f, theta) + (phi - pi(phi), v))`` up to O(dt^2) per step.
:func:`solve_trajectory` evaluates every term of the balance once per step,
in one pass over the new state, and carries the previous step's total
forward.  ``E(phi) = 1/2 (B phi, phi)_H`` reuses the ``B phi`` of the
phase Newton's final residual, for the kernel operator and the Laplacian
alike, so only the initial record applies ``B`` for its energy; the
record's ``pi(phi)`` is carried into the next step's right-hand side, so
``pi`` is evaluated once per step.  :func:`total_energy` and
:func:`energy_balance_residual` recompute the same quantities from two
states alone.

Inside a step the phase Newton, its CG and the record work on bare
arrays, and every H pairing is one ``np.vdot`` reduction; a
:class:`~pfnl.fields.Field` (which validates its data) is built only for
the components of each new :class:`State`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError
from .fields import (
    Field,
    cg,
    grad_inner,
    inner_product,
    laplacian,
    neumann_solve,
    zeros,
)
from .operators import apply_B_array, energy_from_applied


@dataclass
class State:
    """Solution triple at one time instant (``v`` is the phase velocity).

    ``B_phi`` and ``pi_phi`` are the arrays ``B phi`` and ``pi(phi)``, or
    ``None``.  In :func:`solve_trajectory` the step sets ``B_phi`` for the
    energy record, and the record sets ``pi_phi`` for the next step's
    right-hand side; stored snapshots carry neither.
    """

    t: float
    theta: Field
    phi: Field
    v: Field
    B_phi: np.ndarray = None
    pi_phi: np.ndarray = None


@dataclass(frozen=True)
class SchemeConfig:
    dt: float
    T: float
    phi_solver_tol: float = 1e-12
    newton_max_iter: int = 25
    newton_tol: float = 1e-10
    snapshots: int = 20

    def __post_init__(self):
        if not self.dt > 0.0 or (self.T > 0.0 and self.dt > self.T):
            raise ValueError(
                f"need dt > 0, and dt <= T when T > 0; got dt={self.dt}, T={self.T}"
            )
        for tol in (self.phi_solver_tol, self.newton_tol):
            if not 0.0 < tol <= 1e-6:
                raise ValueError(f"solver tolerances must lie in (0, 1e-6], got {tol}")

    @property
    def num_steps(self):
        if self.T <= 0.0:
            return 0
        return int(math.ceil(self.T / self.dt - 1e-9))


@dataclass
class EnergyRecord:
    t: float
    norm_theta_H: float
    norm_grad_theta_H: float
    norm_phi_H: float
    norm_v_H: float
    energy_phi: float
    int_beta_hat: float
    total_energy: float
    residual: float


CSV_COLUMNS = (
    "t",
    "norm_theta_H",
    "norm_grad_theta_H",
    "norm_phi_H",
    "norm_v_H",
    "energy_phi",
    "int_beta_hat",
    "residual_a1",
)


def record_csv_row(rec):
    vals = (
        rec.t,
        rec.norm_theta_H,
        rec.norm_grad_theta_H,
        rec.norm_phi_H,
        rec.norm_v_H,
        rec.energy_phi,
        rec.int_beta_hat,
        rec.residual,
    )
    return ",".join(f"{v:.17g}" for v in vals)


@dataclass
class Trajectory:
    op: object  # the kernel operator of the run, or None for the Laplacian
    grid: object
    times: list
    states: list
    records: list
    phi_tt_snapshots: list
    aux: dict = field(default_factory=dict)

    @property
    def final(self):
        return self.states[-1]


# --- single-equation solves ----------------------------------------------------


# b, beta, beta' and the norms may overflow on a diverging run; the
# finiteness and no-improvement guards report that as a SolverError
@np.errstate(over="ignore", invalid="ignore")
def _phi_update(state, op, potential, cfg):
    """Implicit phase solve on the dt^2-scaled residual.

    Solves ``(1+dt) phi + dt^2 (B phi + beta(phi)) = b``, with ``B`` the
    operator ``op`` selects (``None`` for ``-lap_N``) and
    ``b = (1+dt) phi^n + dt v^n + dt^2 (theta^n - pi(phi^n))`` by Newton,
    taking ``pi(phi^n)`` from ``state.pi_phi`` when set; the scaling keeps
    the residual comparable to the field itself, so the H-norm tolerance
    is meaningful at small dt.  Works on arrays throughout and returns the
    arrays ``(phi, v, iterations, B_phi)``, where ``B_phi`` is ``B phi`` of
    the accepted iterate, taken from its residual.
    """
    dt = cfg.dt
    grid = state.phi.grid
    vol = grid.cell_volume
    phi_n, v_n = state.phi.data, state.v.data
    pi_term = state.pi_phi
    if pi_term is None:
        pi_term = np.asarray(potential.pi(phi_n), dtype=np.float64)
    b = (1.0 + dt) * phi_n + dt * v_n + dt * dt * (state.theta.data - pi_term)
    b_scale = 1.0 + math.sqrt(vol * float(np.vdot(b, b)))

    def residual(phi_data):
        Bphi = apply_B_array(op, grid, phi_data)
        beta_term = np.asarray(potential.beta(phi_data), dtype=np.float64)
        res = (1.0 + dt) * phi_data + dt * dt * (Bphi + beta_term) - b
        res_norm = math.sqrt(vol * float(np.vdot(res, res)))
        return res, res_norm, Bphi

    # explicit predictor as the Newton seed
    phi_data = phi_n + dt * v_n
    res, res_norm, Bphi = residual(phi_data)
    # an overflowed norm would make every tolerance test below False and
    # return the predictor as if it had converged
    if not (math.isfinite(b_scale) and math.isfinite(res_norm)):
        raise SolverError(
            f"phase Newton norms overflowed (|b| {b_scale:.3e}, "
            f"residual {res_norm:.3e} at t={state.t:.6g})"
        )

    # Exit once the predictor residual has been beaten down by newton_tol
    # (anchored at dt^2 so the velocity update stays accurate), or once
    # the evaluation hits its cancellation floor.  A tolerance relative
    # to b alone would accept the raw predictor at small dt, silently
    # freezing the velocity.
    floor = 200.0 * np.finfo(np.float64).eps * b_scale
    tol_res = max(cfg.newton_tol * (dt * dt + res_norm), floor)

    iters = 0
    while res_norm > tol_res:
        if iters >= cfg.newton_max_iter:
            raise SolverError(
                f"phase Newton stalled after {iters} iterations "
                f"(residual {res_norm:.3e} at t={state.t:.6g})"
            )
        beta_slope = np.maximum(
            np.asarray(potential.beta_derivative(phi_data), dtype=np.float64), 0.0
        )

        def matvec(x):
            return (1.0 + dt) * x + dt * dt * (apply_B_array(op, grid, x) + beta_slope * x)

        delta, info = cg(
            matvec, -res, rtol=cfg.phi_solver_tol, maxiter=20 * grid.num_cells
        )
        if info != 0:
            raise SolverError(
                f"phase CG did not converge in {info} iterations "
                f"(Newton iteration {iters + 1} at t={state.t:.6g})"
            )

        # monotone beta makes plain Newton reliable; backtrack defensively
        step = 1.0
        improved = False
        for _ in range(8):
            trial = phi_data + step * delta
            trial_res, trial_norm, trial_Bphi = residual(trial)
            if trial_norm < res_norm:
                phi_data, res, res_norm, Bphi = trial, trial_res, trial_norm, trial_Bphi
                improved = True
                break
            step *= 0.5
        if not improved:
            # no step direction improves: accept only if already at the
            # evaluation's roundoff level
            if res_norm <= 1e-10 * b_scale:
                break
            raise SolverError(
                f"phase Newton cannot improve residual {res_norm:.3e} "
                f"at t={state.t:.6g}"
            )
        iters += 1

    return phi_data, (phi_data - phi_n) / dt, iters, Bphi


def _theta_update(state, v_new, f_next, cfg):
    """Exact SPD solve ``(I - dt lap) theta = theta^n + dt (f - v^{n+1})``
    on the arrays ``v_new`` and ``f_next``; returns the array ``theta``."""
    dt = cfg.dt
    rhs = state.theta.data + dt * (f_next - v_new)
    return neumann_solve(state.theta.grid, rhs, 1.0, dt)


def _advance(state, op, potential, f_next, cfg):
    """One semi-implicit step of the system ``op`` selects; the new state's
    fields are the only ones the step builds, and it carries ``B phi`` for
    its energy record."""
    phi, v, _, B_phi = _phi_update(state, op, potential, cfg)
    theta = _theta_update(state, v, f_next.data, cfg)
    grid = state.phi.grid
    return State(
        state.t + cfg.dt, Field(grid, theta), Field(grid, phi), Field(grid, v), B_phi
    )


def step_nonlocal(state, op, potential, f_next, cfg):
    """One semi-implicit step of the kernel-operator system; the new state
    carries ``B_eps phi`` for its energy record."""
    return _advance(state, op, potential, f_next, cfg)


def step_local(state, potential, f_next, cfg):
    """One semi-implicit step of the Laplacian system (same scheme); the new
    state carries ``-lap_N phi`` for its energy record."""
    return _advance(state, None, potential, f_next, cfg)


# --- energy bookkeeping ---------------------------------------------------------


def total_energy(state, energy_fn, potential):
    beta_hat = np.asarray(potential.beta_hat(state.phi.data), dtype=np.float64)
    return (
        0.5 * inner_product("H", state.theta, state.theta)
        + 0.5 * inner_product("H", state.phi, state.phi)
        + 0.5 * inner_product("H", state.v, state.v)
        + energy_fn(state.phi)
        + state.phi.grid.cell_volume * float(np.sum(beta_hat))
    )


def energy_balance_residual(prev, nxt, energy_fn, potential, f_next, dt):
    """One-step residual of the discrete energy balance.

    Evaluates ``E_total(n+1) - E_total(n) + dt (|grad theta|^2 + |v|^2)
    - dt ((f, theta) + (phi - pi(phi), v))`` with all rate terms at the
    new time level; O(dt^2) per step along the scheme's trajectories.
    """
    diss = grad_inner(nxt.theta, nxt.theta) + inner_product("H", nxt.v, nxt.v)
    pi_term = Field(nxt.phi.grid, np.asarray(potential.pi(nxt.phi.data), dtype=np.float64))
    work = inner_product("H", f_next, nxt.theta) + inner_product(
        "H", nxt.phi - pi_term, nxt.v
    )
    delta = total_energy(nxt, energy_fn, potential) - total_energy(
        prev, energy_fn, potential
    )
    return abs(delta + dt * diss - dt * work)


def _record(t, state, energy_phi, potential, f_next=None, dt=None, prev_total=None):
    """Energy record of ``state`` with each balance term evaluated once, by
    the arithmetic of :func:`total_energy` and :func:`energy_balance_residual`
    given ``energy_phi = E(phi)`` and the previous record's ``prev_total``
    (residual 0 without one).  With ``prev_total``, the work term's
    ``pi(phi)`` is stored on ``state.pi_phi`` for the next step.  Also
    returns ``|grad theta|^2`` and ``|v|^2``."""
    vol = state.phi.grid.cell_volume
    theta, phi, v = state.theta.data, state.phi.data, state.v.data
    theta_sq = vol * float(np.vdot(theta, theta))
    grad_sq = grad_inner(state.theta, state.theta)
    phi_sq = vol * float(np.vdot(phi, phi))
    v_sq = vol * float(np.vdot(v, v))
    int_beta_hat = vol * float(
        np.sum(np.asarray(potential.beta_hat(phi), dtype=np.float64))
    )
    total = 0.5 * theta_sq + 0.5 * phi_sq + 0.5 * v_sq + energy_phi + int_beta_hat
    residual = 0.0
    if prev_total is not None:
        state.pi_phi = np.asarray(potential.pi(phi), dtype=np.float64)
        work = vol * float(np.vdot(f_next.data, theta)) + vol * float(
            np.vdot(phi - state.pi_phi, v)
        )
        residual = abs(total - prev_total + dt * (grad_sq + v_sq) - dt * work)
    record = EnergyRecord(
        t=t,
        norm_theta_H=math.sqrt(max(theta_sq, 0.0)),
        norm_grad_theta_H=math.sqrt(max(grad_sq, 0.0)),
        norm_phi_H=math.sqrt(max(phi_sq, 0.0)),
        norm_v_H=math.sqrt(max(v_sq, 0.0)),
        energy_phi=energy_phi,
        int_beta_hat=int_beta_hat,
        total_energy=total,
        residual=residual,
    )
    return record, grad_sq, v_sq


# --- trajectory driver -----------------------------------------------------------


def solve_trajectory(op, data, potential, cfg, source=None):
    """March the system ``op`` selects from the configured initial data.

    ``op`` is the kernel operator, which solves the ``B_eps`` system from
    the initial data of its width (``data.per_eps[op.eps]``), or ``None``,
    which solves the Laplacian system from ``data``'s own initial data.
    Snapshots are stored at roughly ``cfg.snapshots`` evenly spaced steps
    plus the initial and final states; an energy record is emitted every
    step.  Solver failures abort with the step index in the message.
    """
    triple = (data.theta0, data.phi0, data.v0) if op is None else data.per_eps[op.eps]
    grid = data.grid
    vol = grid.cell_volume
    dt = cfg.dt
    state = State(0.0, triple[0].copy(), triple[1].copy(), triple[2].copy())
    n_steps = cfg.num_steps
    stride = max(1, n_steps // max(cfg.snapshots, 1)) if n_steps else 1

    mass = float(np.sum(state.theta.data + state.phi.data))
    times = [0.0]
    # snapshots share the running state's fields: a step builds new ones
    # and nothing modifies a field's data in place
    states = [State(0.0, state.theta, state.phi, state.v)]
    phi_tt_snaps = [None]
    energy0 = energy_from_applied(
        op, state.phi, apply_B_array(op, grid, state.phi.data)
    )
    records = [_record(0.0, state, energy0, potential)[0]]
    aux = {
        "int_thetat_sq": 0.0,
        "int_laptheta_sq": 0.0,
        "int_gradtheta_sq": 0.0,
        "int_v_sq": 0.0,
        "max_mass_residual": 0.0,
        "max_step_residual": 0.0,
    }

    zero = zeros(grid)
    for k in range(1, n_steps + 1):
        t_next = k * dt
        f_next = source(grid, t_next) if source is not None else zero
        try:
            prev = state
            if op is None:
                state = step_local(prev, potential, f_next, cfg)
            else:
                state = step_nonlocal(prev, op, potential, f_next, cfg)
            state.t = t_next
        except SolverError as err:
            raise SolverError(f"step {k} (t={t_next:.6g}): {err}") from err

        record, grad_sq, v_sq = _record(
            t_next, state, energy_from_applied(op, state.phi, state.B_phi),
            potential, f_next, dt,
            records[-1].total_energy,
        )
        state.B_phi = None
        records.append(record)

        thetat = (state.theta.data - prev.theta.data) / dt
        lap = laplacian(grid, state.theta.data)
        aux["int_thetat_sq"] += dt * vol * float(np.vdot(thetat, thetat))
        aux["int_laptheta_sq"] += dt * (vol * float(np.vdot(lap, lap)))
        aux["int_gradtheta_sq"] += dt * grad_sq
        aux["int_v_sq"] += dt * v_sq
        aux["max_step_residual"] = max(aux["max_step_residual"], record.residual)
        prev_mass, mass = mass, float(np.sum(state.theta.data + state.phi.data))
        mass_rate = (mass - prev_mass) * vol / dt
        aux["max_mass_residual"] = max(
            aux["max_mass_residual"],
            abs(mass_rate - vol * float(np.sum(f_next.data))),
        )

        if k % stride == 0 or k == n_steps:
            times.append(t_next)
            states.append(State(t_next, state.theta, state.phi, state.v))
            phi_tt_snaps.append(Field(grid, (state.v.data - prev.v.data) / dt))

    return Trajectory(
        op=op,
        grid=grid,
        times=times,
        states=states,
        records=records,
        phi_tt_snapshots=phi_tt_snaps,
        aux=aux,
    )
