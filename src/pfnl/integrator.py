"""Semi-implicit time stepping for the coupled temperature/phase system.

One step advances the pair of equations

    theta_t + phi_t - lap(theta) = f,
    phi_tt + phi_t + B phi + beta(phi) + pi(phi) = theta,

where ``B`` is either the nonlocal kernel operator or the (negative)
Neumann Laplacian.  The phase subsystem is solved first, implicitly in
``B`` and ``beta`` (Newton with matrix-free CG; the Jacobian
``(1/dt^2 + 1/dt) I + B + beta'`` is SPD because ``beta`` is monotone),
with ``pi`` and the temperature taken explicitly.  The temperature
subsystem then sees the fresh phase velocity and is one exact
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from .errors import SolverError
from .fields import (
    Field,
    grad_inner,
    inner_product,
    neumann_laplacian,
    neumann_solve,
    norm,
    zeros,
)
from .operators import apply_B_eps, apply_B_local, energy_local, energy_nonlocal


@dataclass
class State:
    """Solution triple at one time instant (``v`` is the phase velocity)."""

    t: float
    theta: Field
    phi: Field
    v: Field


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
    dissipation_accum: float
    work_accum: float
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
    problem: str
    eps: float
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


def _phi_update(state, apply_B, potential, cfg):
    """Implicit phase solve on the dt^2-scaled residual.

    Solves ``(1+dt) phi + dt^2 (B phi + beta(phi)) = b`` with
    ``b = (1+dt) phi^n + dt v^n + dt^2 (theta^n - pi(phi^n))`` by Newton;
    the scaling keeps the residual comparable to the field itself, so the
    H-norm tolerance is meaningful at small dt.
    """
    dt = cfg.dt
    grid = state.phi.grid
    pi_term = np.asarray(potential.pi(state.phi.data), dtype=np.float64)
    b = (
        (1.0 + dt) * state.phi.data
        + dt * state.v.data
        + dt * dt * (state.theta.data - pi_term)
    )
    b_scale = 1.0 + math.sqrt(grid.cell_volume * float(np.sum(b * b)))

    def residual(phi_data):
        Bphi = apply_B(Field(grid, phi_data)).data
        beta_term = np.asarray(potential.beta(phi_data), dtype=np.float64)
        return (1.0 + dt) * phi_data + dt * dt * (Bphi + beta_term) - b

    # explicit predictor as the Newton seed
    phi_data = state.phi.data + dt * state.v.data
    res = residual(phi_data)
    res_norm = math.sqrt(grid.cell_volume * float(np.sum(res * res)))

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
            xf = Field(grid, x.reshape(grid.shape))
            return (
                (1.0 + dt) * x
                + dt * dt * (apply_B(xf).data.ravel() + beta_slope.ravel() * x)
            )

        op = LinearOperator(
            (grid.num_cells, grid.num_cells), matvec=matvec, dtype=np.float64
        )
        delta, info = cg(
            op, -res.ravel(), rtol=cfg.phi_solver_tol, atol=0.0,
            maxiter=20 * grid.num_cells,
        )
        if info != 0:
            raise SolverError(f"phase CG did not converge (info={info})")
        delta = delta.reshape(grid.shape)

        # monotone beta makes plain Newton reliable; backtrack defensively
        step = 1.0
        improved = False
        for _ in range(8):
            trial = phi_data + step * delta
            trial_res = residual(trial)
            trial_norm = math.sqrt(
                grid.cell_volume * float(np.sum(trial_res * trial_res))
            )
            if trial_norm < res_norm:
                phi_data, res, res_norm = trial, trial_res, trial_norm
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

    phi_new = Field(grid, phi_data)
    v_new = Field(grid, (phi_data - state.phi.data) / dt)
    return phi_new, v_new, iters


def _theta_update(state, v_new, f_next, cfg):
    """Exact SPD solve ``(I - dt lap) theta = theta^n + dt (f - v^{n+1})``."""
    dt = cfg.dt
    grid = state.theta.grid
    rhs = state.theta.data + dt * (f_next.data - v_new.data)
    return Field(grid, neumann_solve(grid, rhs, 1.0, dt))


def step_nonlocal(state, op, potential, f_next, cfg):
    """One semi-implicit step of the kernel-operator system."""
    phi_new, v_new, _ = _phi_update(
        state, lambda u: apply_B_eps(op, u), potential, cfg
    )
    theta_new = _theta_update(state, v_new, f_next, cfg)
    return State(state.t + cfg.dt, theta_new, phi_new, v_new)


def step_local(state, potential, f_next, cfg):
    """One semi-implicit step of the Laplacian system (same scheme)."""
    phi_new, v_new, _ = _phi_update(state, apply_B_local, potential, cfg)
    theta_new = _theta_update(state, v_new, f_next, cfg)
    return State(state.t + cfg.dt, theta_new, phi_new, v_new)


# --- energy bookkeeping ---------------------------------------------------------


def _int_beta_hat(potential, phi):
    return phi.grid.cell_volume * float(
        np.sum(np.asarray(potential.beta_hat(phi.data), dtype=np.float64))
    )


def total_energy(state, energy_fn, potential):
    return (
        0.5 * inner_product("H", state.theta, state.theta)
        + 0.5 * inner_product("H", state.phi, state.phi)
        + 0.5 * inner_product("H", state.v, state.v)
        + energy_fn(state.phi)
        + _int_beta_hat(potential, state.phi)
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


def _make_record(state, energy_fn, potential, diss_accum, work_accum, residual):
    return EnergyRecord(
        t=state.t,
        norm_theta_H=norm(state.theta, "H"),
        norm_grad_theta_H=math.sqrt(max(grad_inner(state.theta, state.theta), 0.0)),
        norm_phi_H=norm(state.phi, "H"),
        norm_v_H=norm(state.v, "H"),
        energy_phi=energy_fn(state.phi),
        int_beta_hat=_int_beta_hat(potential, state.phi),
        total_energy=total_energy(state, energy_fn, potential),
        dissipation_accum=diss_accum,
        work_accum=work_accum,
        residual=residual,
    )


# --- trajectory driver -----------------------------------------------------------


def solve_trajectory(problem, data, potential, cfg, op=None, source=None):
    """March the chosen system from the configured initial data.

    ``problem`` is ``"nonlocal"`` (requires the kernel operator ``op``)
    or ``"local"``.  Snapshots are stored at roughly ``cfg.snapshots``
    evenly spaced steps plus the initial and final states; an energy
    record is emitted every step.  Solver failures abort with the step
    index in the message.
    """
    if problem == "nonlocal":
        if op is None:
            raise ValueError("nonlocal trajectories need the kernel operator")
        eps = op.eps
        triple = data.per_eps[eps]
        apply_step = lambda s, f: step_nonlocal(s, op, potential, f, cfg)
        energy_fn = lambda u: energy_nonlocal(op, u)
    elif problem == "local":
        eps = None
        triple = (data.theta0, data.phi0, data.v0)
        apply_step = lambda s, f: step_local(s, potential, f, cfg)
        energy_fn = energy_local
    else:
        raise ValueError(f"unknown problem kind {problem!r}")

    grid = data.grid
    state = State(0.0, triple[0].copy(), triple[1].copy(), triple[2].copy())
    n_steps = cfg.num_steps
    stride = max(1, n_steps // max(cfg.snapshots, 1)) if n_steps else 1

    times = [0.0]
    states = [State(0.0, state.theta.copy(), state.phi.copy(), state.v.copy())]
    phi_tt_snaps = [None]
    records = [_make_record(state, energy_fn, potential, 0.0, 0.0, 0.0)]
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
        t_next = k * cfg.dt
        f_next = source(grid, t_next) if source is not None else zero
        try:
            prev = state
            state = apply_step(prev, f_next)
            state.t = t_next
        except SolverError as err:
            raise SolverError(f"step {k} (t={t_next:.6g}): {err}") from err

        residual = energy_balance_residual(
            prev, state, energy_fn, potential, f_next, cfg.dt
        )
        diss_inc = cfg.dt * (
            grad_inner(state.theta, state.theta) + inner_product("H", state.v, state.v)
        )
        pi_term = Field(grid, np.asarray(potential.pi(state.phi.data), dtype=np.float64))
        work_inc = cfg.dt * (
            inner_product("H", f_next, state.theta)
            + inner_product("H", state.phi - pi_term, state.v)
        )
        records.append(
            _make_record(
                state,
                energy_fn,
                potential,
                records[-1].dissipation_accum + diss_inc,
                records[-1].work_accum + work_inc,
                residual,
            )
        )

        thetat = (state.theta.data - prev.theta.data) / cfg.dt
        aux["int_thetat_sq"] += cfg.dt * grid.cell_volume * float(np.sum(thetat**2))
        lap = neumann_laplacian(state.theta)
        aux["int_laptheta_sq"] += cfg.dt * inner_product("H", lap, lap)
        aux["int_gradtheta_sq"] += cfg.dt * grad_inner(state.theta, state.theta)
        aux["int_v_sq"] += cfg.dt * inner_product("H", state.v, state.v)
        aux["max_step_residual"] = max(aux["max_step_residual"], residual)
        mass_rate = (
            np.sum(state.theta.data + state.phi.data)
            - np.sum(prev.theta.data + prev.phi.data)
        ) * grid.cell_volume / cfg.dt
        aux["max_mass_residual"] = max(
            aux["max_mass_residual"],
            abs(mass_rate - grid.cell_volume * float(np.sum(f_next.data))),
        )

        if k % stride == 0 or k == n_steps:
            times.append(t_next)
            states.append(
                State(t_next, state.theta.copy(), state.phi.copy(), state.v.copy())
            )
            phi_tt_snaps.append(Field(grid, (state.v.data - prev.v.data) / cfg.dt))

    return Trajectory(
        problem=problem,
        eps=eps,
        grid=grid,
        times=times,
        states=states,
        records=records,
        phi_tt_snapshots=phi_tt_snaps,
        aux=aux,
    )
