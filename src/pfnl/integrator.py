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
monotone; CG's matvec ``B x + D x``, with the diagonal
``D = D0 + max(beta', 0)``, ``D0 = (1 + dt)/dt^2``, folded in once per
Newton iteration, is one application of ``B``, see
:func:`pfnl.operators.shifted_matvec`), with ``pi`` and the temperature
taken explicitly.  The temperature subsystem then sees the fresh phase
velocity and is one exact ``(I - dt lap_N)`` solve
(:func:`pfnl.fields.neumann_solve`, which applies its kept dense matrix on
small 1D grids).

On a 1D grid that :func:`pfnl.fields.is_dense_grid` accepts, every phase
Newton, in :func:`solve_trajectory` or in a direct step, looks up
``M = (B + D0 I)^{-1}``, which :func:`pfnl.operators.dense_inverse` keeps
(on the kernel operator, or per grid for the Laplacian).  Each Newton
increment is then the Neumann series ``sum_j (-M diag(beta'+))^j M r``, a
few products that meet CG's relative residual a priori, because
``|M diag(beta'+)|_2 <= max(beta'+)/D0 = rho``.  A step with
``rho > MAX_SERIES_RATIO`` falls back to CG.

Implicit treatment of ``B`` matters: the nonlocal operator norm grows
like ``1/eps^2``, so an explicit coupling would put a dt ceiling
proportional to ``eps^2`` on the sweep.

The first step seeds the three-level phase stencil with
``phi^{-1} = phi^0 - dt v^0``, i.e. the second difference reduces to
``(v^{n+1} - v^n)/dt`` with ``v^{n+1} = (phi^{n+1} - phi^n)/dt``, so the
velocity enters the scheme exactly as prescribed by the data.

Each step's energy record holds the terms of the discrete energy balance:
the change of

    1/2|theta|_H^2 + 1/2|phi|_H^2 + 1/2|v|_H^2 + E(phi) + int beta_hat(phi)

plus the dissipation ``dt (|grad theta|^2 + |v|^2)`` must match the work
``dt ((f, theta) + (phi - pi(phi), v))`` up to O(dt^2) per step.
:func:`solve_trajectory` keeps the arrays each step makes for a block of
:data:`BLOCK_BYTES` per array (:class:`_Books`).  At the end of a block
each pairing and sum is one stacked call over all its steps, and the
records' and ``aux`` sums' scalar arithmetic then runs step by step, so
they are those of a step-by-step evaluation to the bit.
``E(phi) = 1/2 (B phi, phi)_H`` reuses the ``B phi`` of the phase
Newton's final residual, and each step's ``pi(phi)`` also serves the next
step's right-hand side.

``B`` is applied to the phase CG's directions (none on the series) and to
each Newton trial, and otherwise only for the initial record and step 1's
Newton seed.  From
step 2 on the seed ``phi^n + dt v^n = 2 phi^n - phi^{n-1}`` takes the
image ``2 B phi^n - B phi^{n-1}`` by linearity, from the accepted trials
of the two previous steps, so every carried ``B phi`` is a direct
application.  The ``int_laptheta_sq`` monitor reads
``lap theta = (theta - rhs)/dt`` from the temperature solve, with no
Laplacian of its own.

Inside a step every H pairing is one :func:`~pfnl.fields.dot` on bare
arrays, and the new :class:`State` wraps its arrays in unchecked
:class:`~pfnl.fields.Field` objects: the block's checks catch a
non-finite state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DegenerateFieldError, SolverError
from .fields import Field, cg, dot, dots, neumann_solve
from .operators import apply_B_array, dense_inverse, energy_floor, shifted_matvec

# The phase Newton's residual floor relative to 1 + |b|_H: below it the
# residual evaluation is at its cancellation level.
RESIDUAL_FLOOR = 200.0 * np.finfo(np.float64).eps

# The Newton increment's series on the kept inverse is used while its
# contraction factor rho is at most this; above it the step runs CG.
MAX_SERIES_RATIO = 0.25


@dataclass
class State:
    """Solution triple at one time instant (``v`` is the phase velocity).

    ``B_phi``, ``B_phi_prev``, ``pi_phi`` and ``lap_theta`` are the arrays
    ``B phi``, ``B phi`` of the previous state, ``pi(phi)`` and
    ``lap theta``, or ``None``.  A step sets ``B_phi`` (a direct
    application, for the energy record and the next step's predictor
    image), ``B_phi_prev`` (the previous state's ``B_phi``, cleared by the
    next step once read) and ``lap_theta``; :func:`solve_trajectory` sets
    ``pi_phi`` for the record and the next step's right-hand side.  Stored
    snapshots carry none of them.
    """

    t: float
    theta: Field
    phi: Field
    v: Field
    B_phi: np.ndarray = None
    pi_phi: np.ndarray = None
    B_phi_prev: np.ndarray = None
    lap_theta: np.ndarray = None


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
    """The energy terms of one time step.  Every field but the last is an
    ``energy.csv`` column, in file order (:data:`CSV_COLUMNS`):
    ``residual_a1`` is the step's energy-balance residual, and
    ``total_energy``, the total that the balance compares, stays out of
    the file."""

    t: float
    norm_theta_H: float
    norm_grad_theta_H: float
    norm_phi_H: float
    norm_v_H: float
    energy_phi: float
    int_beta_hat: float
    residual_a1: float
    total_energy: float


CSV_COLUMNS = tuple(f.name for f in fields(EnergyRecord))[:-1]


def record_csv_row(rec):
    return ",".join(f"{getattr(rec, name):.17g}" for name in CSV_COLUMNS)


@dataclass
class Trajectory:
    op: object  # the kernel operator of the run, or None for the Laplacian
    states: list
    records: list
    phi_tt_snapshots: list
    aux: dict = field(default_factory=dict)

    @property
    def grid(self):
        return self.states[0].phi.grid

    @property
    def times(self):
        return [s.t for s in self.states]


# --- single-equation solves ----------------------------------------------------


def _series_solve(inverse, beta_plus, rhs, rho, rtol):
    """``(B + D0 I + diag(beta_plus)) delta = rhs`` on the kept
    ``inverse = (B + D0 I)^{-1}``, with ``rho = max(beta_plus) / D0 < 1``.

    Returns the partial sum ``delta = sum_{j<k} (-M P)^j M rhs``, with
    ``M = inverse``, ``P = diag(beta_plus)`` and ``k`` the least integer
    with ``rho^k <= rtol``.  Its residual is ``-(-P M)^k rhs``, and
    ``|P M|_2 <= rho`` because ``B`` is positive semidefinite, so
    ``|residual|_2 <= rtol |rhs|_2`` holds a priori: the bound CG stops on.
    """
    delta = term = inverse @ rhs
    neg_beta = np.negative(beta_plus)
    bound = rho
    while bound > rtol:
        term = inverse @ (neg_beta * term)
        delta += term
        bound *= rho
    return delta


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
    the accepted iterate, a direct application.

    Each Newton increment solves the unscaled system
    ``(B + D) delta = -res/dt^2`` with ``D = D0 + max(beta', 0)`` and
    ``D0 = (1+dt)/dt^2``: the dt^2-scaled Jacobian divided by dt^2, solved
    to the relative residual ``cfg.phi_solver_tol``.  On a small 1D grid,
    where :func:`pfnl.operators.dense_inverse` keeps ``(B + D0 I)^{-1}``,
    and with ``rho = max(beta', 0)/D0 <= MAX_SERIES_RATIO``, the increment
    is a few terms of a Neumann series, one matrix-vector product each
    (:func:`_series_solve`), and ``B`` is not applied.
    Otherwise CG solves it, and each CG product is one application of
    ``B`` (see :func:`pfnl.operators.shifted_matvec`).

    ``B`` is applied to the CG directions and to each Newton trial only.
    When ``state`` carries ``B_phi`` and ``B_phi_prev`` from the step
    that made it, ``v^n = (phi^n - phi^{n-1})/dt``, so the seed
    ``phi^n + dt v^n = 2 phi^n - phi^{n-1}`` has the image
    ``2 B phi^n - B phi^{n-1}`` by linearity; both terms are direct
    applications, so no error carries over from step to step; the solve
    then clears ``state.B_phi_prev``.  Otherwise the seed's image is
    applied directly.
    """
    dt = cfg.dt
    dt_sq = dt * dt
    grid = state.phi.grid
    vol = grid.cell_volume
    phi_n, v_n = state.phi.data, state.v.data
    pi_term = state.pi_phi
    if pi_term is None:
        pi_term = potential.pi(phi_n)
    # one transient product at a time, kept for the solve: dt v^n and
    # dt^2 (theta^n - pi) for b, then (1+dt) phi or D x
    scratch = np.multiply(v_n, dt)
    # the explicit predictor phi^n + dt v^n, the Newton seed, and
    # b = ((1+dt) phi^n + dt v^n) + dt^2 (theta^n - pi) in one buffer
    phi_data = np.add(phi_n, scratch)
    b = np.multiply(phi_n, 1.0 + dt)
    b += scratch
    np.subtract(state.theta.data, pi_term, out=scratch)
    scratch *= dt_sq
    b += scratch
    b_scale = 1.0 + math.sqrt(vol * dot(b, b))

    def residual(phi_data, Bphi):
        res = Bphi + potential.beta(phi_data)
        res *= dt_sq
        res += np.multiply(phi_data, 1.0 + dt, out=scratch)
        res -= b
        return res, math.sqrt(vol * dot(res, res))

    by_linearity = state.B_phi is not None and state.B_phi_prev is not None
    if by_linearity:
        Bphi = 2.0 * state.B_phi
        Bphi -= state.B_phi_prev
        state.B_phi_prev = None  # read once: free it for the solve
    else:
        Bphi = apply_B_array(op, grid, phi_data)
    res, res_norm = residual(phi_data, Bphi)
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
    floor = RESIDUAL_FLOOR * b_scale
    tol_res = max(cfg.newton_tol * (dt_sq + res_norm), floor)

    d0 = (1.0 + dt) / dt_sq
    inverse = dense_inverse(op, grid, d0)  # None off small 1D grids
    iters = 0
    while res_norm > tol_res:
        if iters >= cfg.newton_max_iter:
            raise SolverError(
                f"phase Newton stalled after {iters} iterations "
                f"(residual {res_norm:.3e} at t={state.t:.6g})"
            )
        # the residual's Jacobian over dt^2 is B + diag(D), with
        # D = D0 + max(beta', 0)
        beta_plus = np.maximum(potential.beta_prime(phi_data), 0.0)
        rhs = np.multiply(res, -1.0 / dt_sq)
        rho = math.inf  # the series' factor, on a kept inverse only
        if inverse is not None:
            rho = float(np.max(beta_plus)) / d0
        if rho <= MAX_SERIES_RATIO:
            delta = _series_solve(inverse, beta_plus, rhs, rho, cfg.phi_solver_tol)
        else:
            # D formed in the maximum's array
            beta_plus += d0
            delta, info = cg(
                shifted_matvec(op, grid, beta_plus, scratch),
                rhs,
                rtol=cfg.phi_solver_tol,
                maxiter=20 * grid.num_cells,
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
            trial_Bphi = apply_B_array(op, grid, trial)
            trial_res, trial_norm = residual(trial, trial_Bphi)
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

    if by_linearity and iters == 0:
        # the seed was accepted as it stands: store a direct application
        Bphi = apply_B_array(op, grid, phi_data)
    return phi_data, (phi_data - phi_n) / dt, iters, Bphi


def _theta_update(state, v_new, f_next, cfg):
    """Exact SPD solve ``(I - dt lap) theta = theta^n + dt (f - v^{n+1})``
    on the arrays ``v_new`` and ``f_next`` (``None`` without a source).

    Returns the arrays ``theta`` and ``lap theta = (theta - rhs)/dt``, the
    latter computed in the right-hand side's buffer.
    """
    dt = cfg.dt
    theta_n = state.theta.data
    if f_next is None:
        rhs = theta_n - dt * v_new
    else:
        rhs = theta_n + dt * (f_next - v_new)
    theta = neumann_solve(state.theta.grid, rhs, 1.0, dt)
    lap_theta = np.subtract(theta, rhs, out=rhs)
    lap_theta /= dt
    return theta, lap_theta


def _advance(state, op, potential, f_next, cfg):
    """One semi-implicit step of the system ``op`` selects; the new state's
    (unchecked) fields are the only ones the step builds.  It carries
    ``B phi`` and the previous ``B phi`` for its energy record and the next
    predictor, and ``lap theta`` from the temperature solve."""
    phi, v, _, B_phi = _phi_update(state, op, potential, cfg)
    theta, lap_theta = _theta_update(
        state, v, None if f_next is None else f_next.data, cfg
    )
    grid = state.phi.grid
    return State(
        state.t + cfg.dt,
        Field.unchecked(grid, theta),
        Field.unchecked(grid, phi),
        Field.unchecked(grid, v),
        B_phi=B_phi,
        B_phi_prev=state.B_phi,
        lap_theta=lap_theta,
    )


def step_nonlocal(state, op, potential, f_next, cfg):
    """One semi-implicit step of the kernel-operator system under the
    source field ``f_next`` (``None`` for none); the new state carries
    ``B_eps phi`` for its energy record and the next predictor."""
    return _advance(state, op, potential, f_next, cfg)


def step_local(state, potential, f_next, cfg):
    """One semi-implicit step of the Laplacian system (same scheme); the new
    state carries ``-lap_N phi`` for its energy record and the next
    predictor."""
    return _advance(state, None, potential, f_next, cfg)


# --- energy bookkeeping ---------------------------------------------------------

# Each per-step array a block keeps takes about this many bytes: a block
# holds BLOCK_BYTES // (8 N) steps of an N-cell grid, and at least one.
BLOCK_BYTES = 16 * 1024


class _Books:
    """The records and ``aux`` sums of one trajectory.  ``block`` keeps
    ``(step, t, arrays)``, the arrays being ``theta, phi, v, B phi`` and,
    after step 0, ``pi(phi)``, ``lap theta``, the previous ``theta`` and
    any source field.  :meth:`close` stacks them once (one step is a view)
    and takes each pairing and sum for all steps in one call; the scalar
    arithmetic then runs step by step, as it would with no block.  It
    raises :class:`DegenerateFieldError` for the first step with ``E(phi)``
    below :func:`~pfnl.operators.energy_floor`, :class:`SolverError` for
    one with a non-finite energy."""

    def __init__(self, op, potential, dt, state):
        grid = state.phi.grid
        self.beta_hat, self.dt, self.vol = potential.beta_hat, dt, grid.cell_volume
        self.floor, self.faces = energy_floor(op, grid), grid.faces
        self.size = max(1, BLOCK_BYTES // (8 * grid.num_cells))
        self.records, self.aux = [], dict.fromkeys(
            ("int_thetat_sq", "int_laptheta_sq", "int_gradtheta_sq", "int_v_sq",
             "max_mass_residual", "max_step_residual"), 0.0)
        # the previous step's total energy and mass sum(theta + phi)
        self.total = self.mass = None
        arrays = (state.theta.data, state.phi.data, state.v.data, state.B_phi)
        self.block = [(0, state.t, arrays)]
        self.close()

    def add(self, k, state, prev, f):
        """Keep step ``k``, which made ``state`` from ``prev`` under the
        source field ``f`` (or ``None``)."""
        arrays = (state.theta.data, state.phi.data, state.v.data, state.B_phi,
                  state.pi_phi, state.lap_theta, prev.theta.data)
        self.block.append((k, state.t, arrays if f is None else (*arrays, f.data)))
        if len(self.block) >= self.size:
            self.close()

    def close(self):
        """Record the kept steps."""
        if not self.block:
            return
        steps, times, arrays = zip(*self.block)
        self.block = []
        rows, vol, dt = len(steps), self.vol, self.dt
        if rows == 1:
            quantities = [a[None] for a in arrays[0]]
        else:
            # quantity by quantity, so that each is one contiguous (K, ...) array
            stacked = np.concatenate([a for column in zip(*arrays) for a in column])
            quantities = stacked.reshape(len(arrays[0]), rows, *arrays[0][0].shape)

        def row_sums(a):
            return a.reshape(rows, -1).sum(axis=1)

        theta, phi, v, B_phi = quantities[:4]
        grad_sq = 0.0
        for lo, hi, h_sq in self.faces:
            d = theta[(...,) + hi] - theta[(...,) + lo]
            grad_sq = grad_sq + vol / h_sq * dots(d, d)
        columns = [dots(theta, theta), grad_sq, dots(phi, phi), dots(v, v),
                   dots(B_phi, phi), row_sums(self.beta_hat(phi)),
                   row_sums(theta + phi)]
        if len(quantities) > 4:
            pi_phi, lap, theta_prev, *f = quantities[4:]
            thetat = theta - theta_prev
            thetat /= dt
            columns += [dots(phi - pi_phi, v), dots(thetat, thetat), dots(lap, lap)]
            if f:
                columns += [dots(f[0], theta), row_sums(f[0])]

        aux = self.aux
        for k, t, theta_sq, grad_sq, phi_sq, v_sq, energy, beta_hat, mass, *terms in zip(
            steps, times, *(c.tolist() for c in columns)
        ):
            energy = 0.5 * vol * energy
            if energy < self.floor:
                raise DegenerateFieldError(
                    f"step {k} (t={t:.6g}): energy 1/2 (B phi, phi)_H came out "
                    f"negative: {energy}"
                )
            energy = max(energy, 0.0)
            theta_sq, phi_sq, v_sq = vol * theta_sq, vol * phi_sq, vol * v_sq
            int_beta_hat = vol * beta_hat
            total = 0.5 * theta_sq + 0.5 * phi_sq + 0.5 * v_sq + energy + int_beta_hat
            if not math.isfinite(total):
                raise SolverError(f"step {k} (t={t:.6g}): the state is not finite")
            residual = 0.0
            if terms:
                work, thetat_sq, lap_sq, *source = terms
                work = vol * work
                source_mass = 0.0
                if source:
                    work = vol * source[0] + work
                    source_mass = vol * source[1]
                residual = abs(total - self.total + dt * (grad_sq + v_sq) - dt * work)
                aux["int_thetat_sq"] += dt * vol * thetat_sq
                aux["int_laptheta_sq"] += dt * (vol * lap_sq)
                aux["int_gradtheta_sq"] += dt * grad_sq
                aux["int_v_sq"] += dt * v_sq
                aux["max_step_residual"] = max(aux["max_step_residual"], residual)
                mass_rate = (mass - self.mass) * vol / dt
                aux["max_mass_residual"] = max(aux["max_mass_residual"],
                                               abs(mass_rate - source_mass))
            self.total, self.mass = total, mass
            norms = (math.sqrt(max(x, 0.0)) for x in (theta_sq, grad_sq, phi_sq, v_sq))
            self.records.append(
                EnergyRecord(t, *norms, energy, int_beta_hat, residual, total)
            )


# --- trajectory driver -----------------------------------------------------------


def solve_trajectory(op, data, potential, cfg, source=None):
    """March the system ``op`` selects from the configured initial data.

    ``op`` is the kernel operator, which solves the ``B_eps`` system, or
    ``None``, which solves the Laplacian system; both start from ``data``'s
    initial triple.
    Snapshots are stored at roughly ``cfg.snapshots`` evenly spaced steps
    plus the initial and final states; an energy record is emitted every
    step, a block of steps at a time (:class:`_Books`).  Solver failures,
    and states that come out non-finite, abort with the step index in the
    message.
    """
    grid = data.grid
    dt = cfg.dt
    state = State(0.0, data.theta0.copy(), data.phi0.copy(), data.v0.copy())
    n_steps = cfg.num_steps
    stride = max(1, n_steps // max(cfg.snapshots, 1)) if n_steps else 1

    # snapshots share the running state's fields: a step builds new ones
    # and nothing modifies a field's data in place
    states = [State(0.0, state.theta, state.phi, state.v)]
    phi_tt_snaps = [None]
    # B phi^0 serves the initial record and, with B phi^1, step 2's predictor
    state.B_phi = apply_B_array(op, grid, state.phi.data)
    books = _Books(op, potential, dt, state)

    f_next = None
    for k in range(1, n_steps + 1):
        t_next = k * dt
        if source is not None:
            f_next = source(grid, t_next)
        try:
            prev = state
            if op is None:
                state = step_local(prev, potential, f_next, cfg)
            else:
                state = step_nonlocal(prev, op, potential, f_next, cfg)
            state.t = t_next
        except SolverError as err:
            books.close()  # a failed check of an earlier step comes first
            raise SolverError(f"step {k} (t={t_next:.6g}): {err}") from err
        state.pi_phi = potential.pi(state.phi.data)
        books.add(k, state, prev, f_next)

        if k % stride == 0 or k == n_steps:
            states.append(State(t_next, state.theta, state.phi, state.v))
            phi_tt_snaps.append(Field.unchecked(grid, (state.v.data - prev.v.data) / dt))

    books.close()
    return Trajectory(op=op, states=states, records=books.records,
                      phi_tt_snapshots=phi_tt_snaps, aux=books.aux)
