import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import rough_field, smooth_field
from pfnl import fields, integrator, operators
from pfnl.errors import DegenerateFieldError, SolverError
from pfnl.fields import (
    MAX_DENSE_CELLS,
    Field,
    Grid,
    field_from_function,
    grad_inner,
    inner_product,
    neumann_laplacian,
    norm,
    zeros,
)
from pfnl.kernels import build_kernel_family, make_profile
from pfnl.operators import (
    apply_B_array,
    build_nonlocal_operator,
    dense_inverse,
    energy_local,
    energy_nonlocal,
)
from pfnl.physics import (
    InitialDataRule,
    build_initial_data,
    make_double_well,
    make_linear_potential,
    make_source,
)
from pfnl.integrator import (
    MAX_SERIES_RATIO,
    SchemeConfig,
    State,
    _phi_update,
    _series_solve,
    solve_trajectory,
    step_local,
)

ODE_MATRIX = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [1.0, 0.0, -1.0]])


def ode_exact(y0, t):
    """Matrix-exponential oracle for the constant-field reduction
    (theta' = -v, phi' = v, v' = theta - v)."""
    return expm(ODE_MATRIX * t) @ np.asarray(y0)


@pytest.fixture(scope="module")
def family():
    return build_kernel_family(make_profile("polynomial-bump"), 1, 0.0)


def total_energy(state, energy_fn, potential):
    """The total energy of ``state``, recomputed from its fields: the
    oracle of the records' ``total_energy``."""
    beta_hat = np.asarray(potential.beta_hat(state.phi.data), dtype=np.float64)
    return (
        0.5 * inner_product("H", state.theta, state.theta)
        + 0.5 * inner_product("H", state.phi, state.phi)
        + 0.5 * inner_product("H", state.v, state.v)
        + energy_fn(state.phi)
        + state.phi.grid.cell_volume * float(np.sum(beta_hat))
    )


def energy_balance_residual(prev, nxt, energy_fn, potential, f_next, dt):
    """One-step residual of the discrete energy balance, recomputed from two
    states: ``E_total(n+1) - E_total(n) + dt (|grad theta|^2 + |v|^2)
    - dt ((f, theta) + (phi - pi(phi), v))`` with all rate terms at the new
    time level, the oracle of the records' ``residual_a1``."""
    diss = grad_inner(nxt.theta, nxt.theta) + inner_product("H", nxt.v, nxt.v)
    pi_term = Field(nxt.phi.grid, np.asarray(potential.pi(nxt.phi.data), dtype=np.float64))
    work = inner_product("H", f_next, nxt.theta) + inner_product(
        "H", nxt.phi - pi_term, nxt.v
    )
    delta = total_energy(nxt, energy_fn, potential) - total_energy(
        prev, energy_fn, potential
    )
    return abs(delta + dt * diss - dt * work)


def constant_data(grid, potential, y0, op=None):
    mk = lambda c: Field(grid, np.full(grid.shape, c))
    return build_initial_data(
        op,
        grid,
        potential,
        c1_bound=1e3,
        custom={"theta0": mk(y0[0]), "phi0": mk(y0[1]), "v0": mk(y0[2])},
    )


class TestConstantDataODE:
    Y0 = (0.8, -0.5, 0.3)

    def trajectory_error(self, traj):
        errs = []
        for t, st in zip(traj.times, traj.states):
            ex = ode_exact(self.Y0, t)
            errs.append(
                max(
                    np.max(np.abs(st.theta.data - ex[0])),
                    np.max(np.abs(st.phi.data - ex[1])),
                    np.max(np.abs(st.v.data - ex[2])),
                )
            )
        return max(errs)

    def test_local_matches_ode(self, family):
        grid = Grid.line(32)
        pot = make_linear_potential(0.0)
        data = constant_data(grid, pot, self.Y0)
        traj = solve_trajectory(
            None, data, pot, SchemeConfig(dt=1e-4, T=1.0, snapshots=10)
        )
        assert self.trajectory_error(traj) <= 1e-3

    def test_nonlocal_matches_ode(self, family):
        grid = Grid.line(40)
        pot = make_linear_potential(0.0)
        op = build_nonlocal_operator(family, 0.2, grid)
        data = constant_data(grid, pot, self.Y0, op)
        traj = solve_trajectory(
            op, data, pot, SchemeConfig(dt=1e-4, T=1.0, snapshots=10)
        )
        assert self.trajectory_error(traj) <= 1e-3

    def test_first_order_in_dt(self, family):
        grid = Grid.line(32)
        pot = make_linear_potential(0.0)
        data = constant_data(grid, pot, self.Y0)
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            traj = solve_trajectory(
                None, data, pot, SchemeConfig(dt=dt, T=1.0, snapshots=10)
            )
            errs.append(self.trajectory_error(traj))
        slope = np.polyfit(np.log([4e-3, 2e-3, 1e-3]), np.log(errs), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.2)


class TestStepAlgebra:
    def test_zero_data_stays_zero(self, family):
        grid = Grid.line(16)
        pot = make_double_well()
        data = constant_data(grid, pot, (0.0, 0.0, 0.0))
        traj = solve_trajectory(
            None, data, pot, SchemeConfig(dt=1e-2, T=0.2, snapshots=5)
        )
        for st in traj.states:
            assert norm(st.theta, "H") + norm(st.phi, "H") + norm(st.v, "H") == 0.0

    def test_velocity_is_exact_difference_quotient(self, family, rng):
        # v^{n+1} = (phi^{n+1} - phi^n)/dt holds by construction
        grid = Grid.line(32)
        pot = make_double_well()
        state = State(
            0.0,
            rough_field(grid, rng, 0.3),
            rough_field(grid, rng, 0.3),
            rough_field(grid, rng, 0.3),
        )
        cfg = SchemeConfig(dt=1e-3, T=1.0)
        nxt = step_local(state, pot, zeros(grid), cfg)
        recon = (nxt.phi.data - state.phi.data) / cfg.dt
        assert np.max(np.abs(nxt.v.data - recon)) == 0.0

    def test_t0_trajectory(self, family):
        grid = Grid.line(16)
        pot = make_double_well()
        data = constant_data(grid, pot, (0.3, 0.1, 0.0))
        traj = solve_trajectory(None, data, pot, SchemeConfig(dt=1e-2, T=0.0))
        assert len(traj.states) == 1
        assert traj.states[0].t == 0.0

    def test_nonlocal_and_local_agree_on_constants(self, family):
        # both operators annihilate constants, so the trajectories coincide
        grid = Grid.line(40)
        pot = make_linear_potential(0.0)
        data = constant_data(grid, pot, (0.4, -0.2, 0.1))
        cfg = SchemeConfig(dt=1e-3, T=0.2, snapshots=5)
        op = build_nonlocal_operator(family, 0.2, grid)
        tn = solve_trajectory(op, data, pot, cfg)
        tl = solve_trajectory(None, data, pot, cfg)
        for a, b in zip(tn.states, tl.states):
            assert np.max(np.abs(a.phi.data - b.phi.data)) <= 1e-9
            assert np.max(np.abs(a.theta.data - b.theta.data)) <= 1e-9


class TestEnergyBalance:
    def test_zero_trajectory_residual(self, family):
        grid = Grid.line(16)
        pot = make_double_well()
        data = constant_data(grid, pot, (0.0, 0.0, 0.0))
        traj = solve_trajectory(
            None, data, pot, SchemeConfig(dt=1e-2, T=0.1, snapshots=5)
        )
        assert all(r.residual_a1 == 0.0 for r in traj.records)

    def test_constant_data_residual_second_order(self, family):
        pot = make_linear_potential(0.0)
        grid = Grid.line(16)
        data = constant_data(grid, pot, (0.8, -0.5, 0.3))
        maxima = []
        dts = (4e-3, 2e-3, 1e-3)
        for dt in dts:
            traj = solve_trajectory(
                None, data, pot, SchemeConfig(dt=dt, T=0.5, snapshots=5)
            )
            maxima.append(traj.aux["max_step_residual"])
        slope = np.polyfit(np.log(dts), np.log(maxima), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)

    def test_double_well_residual_second_order(self, family):
        pot = make_double_well()
        grid = Grid.line(80)
        op = build_nonlocal_operator(family, 0.1, grid)
        data = build_initial_data(op, grid, pot)
        maxima = []
        dts = (4e-3, 2e-3, 1e-3)
        for dt in dts:
            traj = solve_trajectory(
                op, data, pot, SchemeConfig(dt=dt, T=0.25, snapshots=5)
            )
            maxima.append(traj.aux["max_step_residual"])
        slope = np.polyfit(np.log(dts), np.log(maxima), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)

    def test_default_scenario_residuals_small(self, family):
        # full default configuration: every per-step residual stays far
        # below the first-order consistency budget
        pot = make_double_well()
        grid = Grid.line(512)
        op = build_nonlocal_operator(family, 0.1, grid)
        data = build_initial_data(op, grid, pot)
        traj = solve_trajectory(
            op, data, pot, SchemeConfig(dt=1e-3, T=1.0, snapshots=20)
        )
        assert all(r.residual_a1 <= 0.01 for r in traj.records)

    def test_residual_ratio_under_dt_halving(self, family):
        # quadratic per-step residual: halving dt divides the max by ~4
        pot = make_double_well()
        grid = Grid.line(80)
        op = build_nonlocal_operator(family, 0.1, grid)
        data = build_initial_data(op, grid, pot)
        maxima = []
        for dt in (2e-3, 1e-3):
            traj = solve_trajectory(
                op, data, pot, SchemeConfig(dt=dt, T=0.25, snapshots=5)
            )
            maxima.append(traj.aux["max_step_residual"])
        ratio = maxima[1] / maxima[0]
        assert 0.15 <= ratio <= 0.45

    def test_energy_nonincreasing_without_forcing(self, family, rng):
        # beta = pi = 0, f = 0: the implicit scheme only removes energy
        pot = make_linear_potential(0.0)
        grid = Grid.line(64)
        smooth = field_from_function(grid, lambda x: np.cos(np.pi * x))
        theta0 = field_from_function(grid, lambda x: 0.3 * np.cos(2.0 * np.pi * x))
        op = build_nonlocal_operator(family, 0.1, grid)
        data = build_initial_data(
            op,
            grid,
            pot,
            c1_bound=1e3,
            custom={
                "theta0": theta0,
                "phi0": smooth,
                "v0": rough_field(grid, rng, 0.5),
            },
        )
        traj = solve_trajectory(
            op, data, pot, SchemeConfig(dt=2e-3, T=0.2, snapshots=5)
        )
        energies = [r.total_energy for r in traj.records]
        for a, b in zip(energies, energies[1:]):
            assert b <= a + 1e-12 * max(1.0, a)

    def test_mass_rate_matches_source(self, family, rng):
        from pfnl.physics import make_source

        pot = make_double_well()
        grid = Grid.line(64)
        op = build_nonlocal_operator(family, 0.1, grid)
        data = build_initial_data(op, grid, pot)
        traj = solve_trajectory(
            op,
            data,
            pot,
            SchemeConfig(dt=1e-3, T=0.1, snapshots=5),
            source=make_source("cosine-decay", 1.0),
        )
        assert traj.aux["max_mass_residual"] <= 1e-9

    def test_balance_residual_function(self, family):
        pot = make_double_well()
        grid = Grid.line(32)
        zero = zeros(grid)
        st = State(0.0, zero, zero, zero)
        assert (
            energy_balance_residual(st, st, energy_local, pot, zero, 1e-3) == 0.0
        )


class TestSinglePassRecords:
    """The once-per-step records and ``aux`` sums of a trajectory equal the
    standalone formulas recomputed from consecutive stored states."""

    @pytest.mark.parametrize("problem", ["nonlocal", "local"])
    def test_records_match_standalone_formulas(self, family, problem):
        pot = make_double_well()
        source = make_source("cosine-decay", 1.0)
        grid = Grid.line(40)
        dt = 1e-3
        cfg = SchemeConfig(dt=dt, T=0.04, snapshots=40)
        if problem == "nonlocal":
            op = build_nonlocal_operator(family, 0.2, grid)
            energy_fn = lambda u: energy_nonlocal(op, u)
        else:
            op = None
            energy_fn = energy_local
        data = build_initial_data(op, grid, pot)
        traj = solve_trajectory(op, data, pot, cfg, source=source)
        states = traj.states
        # snapshots = num_steps keeps every state
        assert len(states) == len(traj.records) == cfg.num_steps + 1
        assert all(st.B_phi is None for st in states)

        close = lambda a, b: a == pytest.approx(b, rel=1e-12, abs=0.0)
        vol = grid.cell_volume
        residuals = [0.0]
        for k, (st, rec) in enumerate(zip(states, traj.records)):
            assert rec.t == st.t == pytest.approx(k * dt, rel=1e-12)
            assert close(rec.total_energy, total_energy(st, energy_fn, pot))
            assert close(rec.energy_phi, energy_fn(st.phi))
            assert close(rec.int_beta_hat, vol * float(np.sum(pot.beta_hat(st.phi.data))))
            assert close(rec.norm_theta_H, norm(st.theta, "H"))
            assert close(rec.norm_grad_theta_H, math.sqrt(grad_inner(st.theta, st.theta)))
            assert close(rec.norm_phi_H, norm(st.phi, "H"))
            assert close(rec.norm_v_H, norm(st.v, "H"))
            if k:
                residuals.append(
                    energy_balance_residual(
                        states[k - 1], st, energy_fn, pot, source(grid, st.t), dt
                    )
                )
                assert close(rec.residual_a1, residuals[-1])
        assert traj.records[0].residual_a1 == 0.0

        expected = dict.fromkeys(
            ("int_thetat_sq", "int_laptheta_sq", "int_gradtheta_sq", "int_v_sq"), 0.0
        )
        mass = []
        for prev, st in zip(states, states[1:]):
            thetat = (st.theta - prev.theta) * (1.0 / dt)
            lap = neumann_laplacian(st.theta)
            expected["int_thetat_sq"] += dt * inner_product("H", thetat, thetat)
            expected["int_laptheta_sq"] += dt * inner_product("H", lap, lap)
            expected["int_gradtheta_sq"] += dt * grad_inner(st.theta, st.theta)
            expected["int_v_sq"] += dt * inner_product("H", st.v, st.v)
            rate = (
                np.sum(st.theta.data + st.phi.data)
                - np.sum(prev.theta.data + prev.phi.data)
            ) * vol / dt
            mass.append(abs(rate - vol * np.sum(source(grid, st.t).data)))
        expected["max_step_residual"] = max(residuals)
        expected["max_mass_residual"] = max(mass)
        for key, value in expected.items():
            assert close(traj.aux[key], value), key


class TestBlocks:
    """``solve_trajectory`` records a block of steps at a time.  The block
    length, set here by patching ``BLOCK_BYTES``, changes no bit of the
    records, the ``aux`` sums or the snapshots, and a failed check names
    its step wherever the step falls in its block."""

    STEPS = 10

    @pytest.fixture(scope="class")
    def family2d(self):
        return build_kernel_family(make_profile("polynomial-bump"), 2, 0.0)

    def problem(self, fam, dimension, problem):
        grid = Grid.line(40) if dimension == 1 else Grid.box(16)
        eps = 0.2 if dimension == 1 else 0.25
        op = build_nonlocal_operator(fam, eps, grid) if problem == "nonlocal" else None
        pot = make_double_well()
        return grid, op, pot, build_initial_data(op, grid, pot)

    def run(self, monkeypatch, grid, op, pot, data, length):
        """A 10-step run with blocks of ``length`` steps, and the number of
        blocks it recorded, the initial record's included."""
        monkeypatch.setattr(integrator, "BLOCK_BYTES", length * 8 * grid.num_cells)
        blocks = [0]
        close = integrator._Books.close

        def counted_close(books):
            blocks[0] += bool(books.block)
            close(books)

        monkeypatch.setattr(integrator._Books, "close", counted_close)
        cfg = SchemeConfig(dt=1e-3, T=self.STEPS * 1e-3, snapshots=self.STEPS)
        traj = solve_trajectory(
            op, data, pot, cfg, source=make_source("cosine-decay", 1.0)
        )
        return traj, blocks[0]

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("problem", ["nonlocal", "local"])
    def test_block_length_changes_no_bit(self, family, family2d, monkeypatch,
                                         dimension, problem):
        fam = family if dimension == 1 else family2d
        grid, op, pot, data = self.problem(fam, dimension, problem)
        runs = {}
        for length in (1, 3, self.STEPS + 2):
            traj, blocks = self.run(monkeypatch, grid, op, pot, data, length)
            assert blocks == 1 + -(-self.STEPS // length)
            runs[length] = traj
        ref = runs[1]
        assert len(ref.records) == len(ref.states) == self.STEPS + 1
        for traj in runs.values():
            assert traj.records == ref.records
            assert traj.aux == ref.aux
            assert list(traj.aux) == list(ref.aux)
            for a, b in zip(traj.states, ref.states):
                assert a.t == b.t
                for name in ("theta", "phi", "v"):
                    assert np.array_equal(getattr(a, name).data, getattr(b, name).data)
            for a, b in zip(traj.phi_tt_snapshots[1:], ref.phi_tt_snapshots[1:]):
                assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_records_are_stepwise_dot_sums(self, family, family2d, monkeypatch, dimension):
        # bit for bit the step-by-step arithmetic: each pairing one dot, each
        # term grouped as written here, each running sum in step order
        fam = family if dimension == 1 else family2d
        grid, op, pot, data = self.problem(fam, dimension, "nonlocal")
        traj, _ = self.run(monkeypatch, grid, op, pot, data, 3)
        source = make_source("cosine-decay", 1.0)
        vol, dt = grid.cell_volume, 1e-3
        aux = dict.fromkeys(("int_thetat_sq", "int_gradtheta_sq", "int_v_sq"), 0.0)
        aux.update(max_step_residual=0.0, max_mass_residual=0.0)
        for k, (st, rec) in enumerate(zip(traj.states, traj.records)):
            theta, phi, v = st.theta.data, st.phi.data, st.v.data
            theta_sq, grad_sq = vol * fields.dot(theta, theta), grad_inner(st.theta, st.theta)
            phi_sq, v_sq = vol * fields.dot(phi, phi), vol * fields.dot(v, v)
            energy = max(0.5 * vol * fields.dot(apply_B_array(op, grid, phi), phi), 0.0)
            beta_hat = vol * float(np.sum(pot.beta_hat(phi)))
            total = 0.5 * theta_sq + 0.5 * phi_sq + 0.5 * v_sq + energy + beta_hat
            mass, residual = float(np.sum(theta + phi)), 0.0
            if k:
                f = source(grid, st.t).data
                work = vol * fields.dot(phi - pot.pi(phi), v)
                work = vol * fields.dot(f, theta) + work
                residual = abs(total - prev[0] + dt * (grad_sq + v_sq) - dt * work)
                thetat = (theta - prev[1]) / dt
                aux["int_thetat_sq"] += dt * vol * fields.dot(thetat, thetat)
                aux["int_gradtheta_sq"] += dt * grad_sq
                aux["int_v_sq"] += dt * v_sq
                aux["max_step_residual"] = max(aux["max_step_residual"], residual)
                rate = (mass - prev[2]) * vol / dt
                gap = abs(rate - vol * float(np.sum(f)))
                aux["max_mass_residual"] = max(aux["max_mass_residual"], gap)
            norms = [math.sqrt(x) for x in (theta_sq, grad_sq, phi_sq, v_sq)]
            assert rec == integrator.EnergyRecord(
                st.t, *norms, energy, beta_hat, residual, total
            ), k
            prev = total, theta, mass
        assert {key: traj.aux[key] for key in aux} == aux

    @pytest.mark.parametrize("length", [1, 3, 32])
    def test_non_finite_state_names_its_step(self, family, monkeypatch, length):
        # theta comes out NaN at step 5, the middle of a block of 3 or 32;
        # step 6's Newton fails on it, but the check of step 5 comes first
        grid, op, pot, data = self.problem(family, 1, "nonlocal")
        theta_update = integrator._theta_update
        calls = [0]

        def nan_at_step_5(*args):
            theta, lap = theta_update(*args)
            calls[0] += 1
            if calls[0] == 5:
                theta = np.full_like(theta, np.nan)
            return theta, lap

        monkeypatch.setattr(integrator, "_theta_update", nan_at_step_5)
        with pytest.raises(SolverError, match=r"^step 5 \(t=0\.005\): .*not finite"):
            self.run(monkeypatch, grid, op, pot, data, length)

    @pytest.mark.parametrize("problem", ["nonlocal", "local"])
    def test_negative_energy_names_its_step(self, family, monkeypatch, problem):
        # B phi negated at step 3 makes E(phi) = 1/2 (B phi, phi)_H negative
        grid, op, pot, data = self.problem(family, 1, problem)
        phi_update = integrator._phi_update
        calls = [0]

        def negated_at_step_3(*args):
            phi, v, iters, B_phi = phi_update(*args)
            calls[0] += 1
            return phi, v, iters, -B_phi if calls[0] == 3 else B_phi

        monkeypatch.setattr(integrator, "_phi_update", negated_at_step_3)
        with pytest.raises(DegenerateFieldError, match=r"^step 3 \(t=0\.003\): .*negative"):
            self.run(monkeypatch, grid, op, pot, data, 32)


class TestStepCost:
    """A step builds fields only for the new state and evaluates ``pi`` once."""

    @pytest.mark.parametrize("problem", ["nonlocal", "local"])
    def test_field_constructions_and_pi_calls(self, family, problem, monkeypatch):
        grid = Grid.line(40)
        pot = make_double_well()
        op = build_nonlocal_operator(family, 0.2, grid) if problem == "nonlocal" else None
        data = build_initial_data(op, grid, pot)
        cfg = SchemeConfig(dt=1e-3, T=0.02, snapshots=4)

        pi_calls = [0]

        def counting_pi(r):
            pi_calls[0] += 1
            return pot.pi(r)

        fields_built = [0]
        post_init = Field.__post_init__

        def counting_post_init(self):
            fields_built[0] += 1
            post_init(self)

        monkeypatch.setattr(Field, "__post_init__", counting_post_init)
        traj = solve_trajectory(
            op, data, dataclasses.replace(pot, pi=counting_pi), cfg
        )
        assert len(traj.records) == cfg.num_steps + 1 == 21
        assert fields_built[0] <= 4 * cfg.num_steps
        assert pi_calls[0] <= cfg.num_steps + 1


class TestAppliedOnlyToNewDirections:
    """``B`` is applied to the CG directions and to each Newton trial only,
    plus the initial record and step 1's seed: later seeds get their image
    by linearity, and ``lap theta`` comes from the temperature solve."""

    STEPS = 20

    @pytest.fixture(scope="class")
    def family2d(self):
        return build_kernel_family(make_profile("polynomial-bump"), 2, 0.0)

    @staticmethod
    def smooth_problem(dimension, n=None):
        if n is None:
            n = 40 if dimension == 1 else 20
        grid = Grid.line(n) if dimension == 1 else Grid.box(n)
        pot = make_double_well()
        return grid, pot, build_initial_data(None, grid, pot)

    def counted_run(self, fam, dimension, problem, monkeypatch):
        """Calls of ``B`` (``apply_B_eps``, or ``laplacian`` for the local
        problem) in a smooth 20-step run, and its CG iterations plus its
        Newton iterations and backtracks."""
        grid, pot, data = self.smooth_problem(dimension)
        calls = {"B": 0, "beta": 0, "cg_iters": 0}

        def counted(fn, key):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)

            return wrapper

        def counting_cg(matvec, b, rtol, maxiter):
            def tick(_x):
                calls["cg_iters"] += 1

            return fields.cg(matvec, b, rtol, maxiter, callback=tick)

        if problem == "nonlocal":
            op = build_nonlocal_operator(fam, 0.2, grid)
            counting = counted(operators.apply_B_eps, "B")
            monkeypatch.setattr(operators, "apply_B_eps", counting)
        else:
            op = None
            lap = counted(fields.laplacian, "B")
            monkeypatch.setattr(operators, "laplacian", lap)
            monkeypatch.setattr(integrator, "laplacian", lap, raising=False)
        monkeypatch.setattr(integrator, "cg", counting_cg)
        cfg = SchemeConfig(dt=1e-3, T=self.STEPS * 1e-3, snapshots=4)
        pot = dataclasses.replace(pot, beta=counted(pot.beta, "beta"))
        traj = solve_trajectory(op, data, pot, cfg)
        assert len(traj.records) == cfg.num_steps + 1 == self.STEPS + 1
        # every residual evaluation calls beta once: each step's seed, then
        # one per Newton iteration and one per backtrack
        trials = calls["beta"] - cfg.num_steps
        assert trials >= cfg.num_steps
        return calls["B"], calls["cg_iters"] + trials

    @pytest.mark.parametrize("dimension", [1, 2], ids=["1d", "2d"])
    @pytest.mark.parametrize("problem", ["nonlocal", "local"])
    def test_B_calls_within_budget(
        self, family, family2d, dimension, problem, monkeypatch
    ):
        fam = family if dimension == 1 else family2d
        calls, budget = self.counted_run(fam, dimension, problem, monkeypatch)
        assert calls <= budget + 2

    @pytest.mark.parametrize(
        "dimension, problem, n, newton_iters, cg_iters",
        [(1, "nonlocal", 40, 40, 0), (1, "local", 40, 40, 0),
         (1, "nonlocal", 320, 40, 238), (1, "local", 320, 40, 1376),
         (2, "nonlocal", 20, 40, 240), (2, "local", 20, 40, 177)],
        ids=["1d-nonlocal", "1d-local", "1d-nonlocal-above-cutoff",
             "1d-local-above-cutoff", "2d-nonlocal", "2d-local"],
    )
    def test_iteration_totals(
        self, family, family2d, dimension, problem, n, newton_iters, cg_iters,
        monkeypatch,
    ):
        # Newton and CG totals of a fixed smooth 20-step run at dt = 1e-2;
        # CG's relative stopping test does not see the Newton system's
        # scale, so the dt^2-scaled system gives the same totals.  A 1D
        # grid of at most MAX_DENSE_CELLS cells solves every Newton
        # increment on its kept inverse and runs no CG.
        if dimension == 1:
            assert (n > MAX_DENSE_CELLS) == (cg_iters > 0)
        fam = family if dimension == 1 else family2d
        grid, pot, data = self.smooth_problem(dimension, n)
        op = build_nonlocal_operator(fam, 0.2, grid) if problem == "nonlocal" else None
        totals = {"newton": 0, "cg": 0}
        phi_update = integrator._phi_update

        def counting_phi_update(*args):
            out = phi_update(*args)
            totals["newton"] += out[2]
            return out

        def counting_cg(matvec, b, rtol, maxiter):
            def tick(_x):
                totals["cg"] += 1

            return fields.cg(matvec, b, rtol, maxiter, callback=tick)

        monkeypatch.setattr(integrator, "_phi_update", counting_phi_update)
        monkeypatch.setattr(integrator, "cg", counting_cg)
        solve_trajectory(op, data, pot, SchemeConfig(dt=1e-2, T=0.2, snapshots=4))
        assert totals == {"newton": newton_iters, "cg": cg_iters}

    @pytest.mark.parametrize("dimension", [1, 2], ids=["1d", "2d"])
    @pytest.mark.parametrize("problem", ["nonlocal", "local"])
    def test_predictor_image_by_linearity(self, family, family2d, dimension, problem):
        fam = family if dimension == 1 else family2d
        grid, pot, data = self.smooth_problem(dimension)
        op = build_nonlocal_operator(fam, 0.2, grid) if problem == "nonlocal" else None
        cfg = SchemeConfig(dt=1e-3, T=1.0)
        state = State(0.0, data.theta0, data.phi0, data.v0)
        for _ in range(3):
            state = integrator._advance(state, op, pot, None, cfg)
        image = 2.0 * state.B_phi - state.B_phi_prev
        direct = apply_B_array(op, grid, state.phi.data + cfg.dt * state.v.data)
        assert np.max(np.abs(image - direct)) <= 1e-12 * np.max(np.abs(direct))
        # the carried B phi is a direct application
        assert np.array_equal(state.B_phi, apply_B_array(op, grid, state.phi.data))

    @pytest.mark.parametrize("grid", [Grid.line(64), Grid.box(24)], ids=["1d", "2d"])
    @pytest.mark.parametrize("dt", [1e-3, 1e-2])
    def test_laplacian_from_temperature_solve(self, grid, dt, rng):
        smooth = smooth_field(grid, rng)
        state = State(0.0, smooth, smooth, smooth)
        v_new = rough_field(grid, rng, 0.1).data
        source = smooth_field(grid, rng).data
        for f_next in (None, source):
            theta, lap = integrator._theta_update(
                state, v_new, f_next, SchemeConfig(dt=dt, T=1.0)
            )
            exact = fields.laplacian(grid, theta)
            assert np.max(np.abs(lap - exact)) <= 1e-10 * np.max(np.abs(exact))

    def test_no_source_matches_zero_source_bit_for_bit(self, family):
        grid = Grid.line(40)
        pot = make_double_well()
        op = build_nonlocal_operator(family, 0.2, grid)
        data = build_initial_data(op, grid, pot)
        cfg = SchemeConfig(dt=1e-3, T=0.02, snapshots=20)
        bare = solve_trajectory(op, data, pot, cfg)
        zero = solve_trajectory(op, data, pot, cfg, source=lambda g, t: zeros(g))
        assert bare.records == zero.records
        for a, b in zip(bare.states, zero.states):
            assert np.array_equal(a.theta.data, b.theta.data)
            assert np.array_equal(a.phi.data, b.phi.data)
        assert bare.aux == zero.aux


class TestNewtonOverflow:
    def test_overflowed_norms_raise(self):
        # pi(phi) ~ 1e300 overflows |b|; the inf tolerance must not let
        # Newton accept the unsolved predictor, and the guard, not NumPy's
        # overflow warning, reports the failure
        grid = Grid.line(64)
        phi = field_from_function(grid, lambda x: np.cos(np.pi * x))
        state = State(0.0, zeros(grid), phi, zeros(grid))
        pot = make_linear_potential(-1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SolverError, match="overflowed"):
                _phi_update(state, None, pot, SchemeConfig(dt=0.1, T=0.5))


class TestPhaseCG:
    def test_integrator_uses_fields_cg(self):
        assert integrator.cg is fields.cg

    def test_exhausted_budget_raises(self, monkeypatch):
        # one CG iteration cannot solve (1.1 I - 0.01 lap_N) at n = 64; with
        # no kept inverse every Newton increment runs CG
        monkeypatch.setattr(fields, "MAX_DENSE_CELLS", 0)
        monkeypatch.setattr(
            integrator, "cg", lambda matvec, b, rtol, maxiter: fields.cg(matvec, b, rtol, 1)
        )
        grid = Grid.line(64)
        phi = field_from_function(grid, lambda x: np.cos(np.pi * x))
        state = State(0.0, zeros(grid), phi, zeros(grid))
        with pytest.raises(SolverError, match="phase CG did not converge in 1 iter"):
            _phi_update(state, None, make_double_well(), SchemeConfig(dt=0.1, T=0.5))


class TestDenseSolves:
    """Small 1D grids solve both linear systems of a step on kept dense
    inverses: the temperature by one product, each Newton increment by a
    Neumann series on ``(B + D0 I)^{-1}``, with CG only when the series'
    factor ``rho = max(beta', 0)/D0`` exceeds ``MAX_SERIES_RATIO``."""

    @staticmethod
    def counting_cg(monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return fields.cg(*args, **kwargs)

        monkeypatch.setattr(integrator, "cg", counting)
        return calls

    @pytest.mark.parametrize("rho", [0.0, 1e-3, 0.1, MAX_SERIES_RATIO])
    @pytest.mark.parametrize("rtol", [1e-12, 1e-8])
    @pytest.mark.parametrize("problem", ["nonlocal", "local"])
    def test_series_meets_cg_tolerance(self, family, problem, rho, rtol, rng):
        grid = Grid.line(64)
        op = build_nonlocal_operator(family, 0.1, grid) if problem == "nonlocal" else None
        shift = (1.0 + 0.05) / 0.05**2
        beta_plus = rng.random(grid.shape)
        beta_plus *= rho * shift / beta_plus.max()
        rhs = rough_field(grid, rng).data
        delta = _series_solve(dense_inverse(op, grid, shift), beta_plus, rhs, rho, rtol)
        residual = apply_B_array(op, grid, delta) + (shift + beta_plus) * delta - rhs
        assert np.linalg.norm(residual) <= rtol * np.linalg.norm(rhs)

    @pytest.mark.parametrize("problem", ["nonlocal", "local"])
    def test_large_rho_falls_back_to_cg(self, family, problem, monkeypatch):
        # at dt = 0.1, D0 = 110: beta' = 3 phi^2 reaches 48 for phi = 4 cos(pi x),
        # so rho = 0.44, while phi = cos(pi x) gives rho = 0.027
        grid = Grid.line(64)
        op = build_nonlocal_operator(family, 0.2, grid) if problem == "nonlocal" else None
        cfg = SchemeConfig(dt=0.1, T=0.5)
        calls = self.counting_cg(monkeypatch)
        for amplitude, runs_cg in ((4.0, True), (1.0, False)):
            phi = field_from_function(grid, lambda x: amplitude * np.cos(np.pi * x))
            state = State(0.0, zeros(grid), phi, zeros(grid))
            pot = make_double_well()
            calls.clear()
            dense = _phi_update(state, op, pot, cfg)
            assert bool(calls) == runs_cg
            # the CG reference: no grid keeps an inverse
            with monkeypatch.context() as patch:
                patch.setattr(fields, "MAX_DENSE_CELLS", 0)
                reference = _phi_update(state, op, pot, cfg)
            assert dense[2] == reference[2]
            scale = np.max(np.abs(reference[0]))
            assert np.max(np.abs(dense[0] - reference[0])) <= 1e-12 * scale

    @pytest.mark.parametrize("problem", ["nonlocal", "local"])
    def test_trajectory_matches_cg_run(self, family, problem, monkeypatch):
        grid = Grid.line(160)
        pot = make_double_well()
        op = build_nonlocal_operator(family, 0.05, grid) if problem == "nonlocal" else None
        data = build_initial_data(op, grid, pot)
        cfg = SchemeConfig(dt=1e-3, T=0.05, snapshots=5)
        calls = self.counting_cg(monkeypatch)
        dense = solve_trajectory(op, data, pot, cfg)
        assert calls == []
        # both systems leave their kept matrices: the phase runs CG and the
        # temperature the even-extension FFT
        monkeypatch.setattr(fields, "MAX_DENSE_CELLS", 0)
        reference = solve_trajectory(op, data, pot, cfg)
        assert len(calls) == cfg.num_steps
        for a, b in zip(dense.states, reference.states):
            for name in ("theta", "phi", "v"):
                x, y = getattr(a, name).data, getattr(b, name).data
                assert np.max(np.abs(x - y)) <= 1e-10 * np.max(np.abs(y))

    @pytest.mark.parametrize("problem", ["nonlocal", "local"])
    def test_direct_steps_take_the_trajectory_route(self, family, problem, monkeypatch):
        # _phi_update looks the kept inverse up itself, so steps made
        # outside solve_trajectory on a small 1D grid run no CG either
        grid = Grid.line(32)
        pot = make_double_well()
        op = build_nonlocal_operator(family, 0.2, grid) if problem == "nonlocal" else None
        data = build_initial_data(op, grid, pot)
        state = State(0.0, data.theta0, data.phi0, data.v0)
        cfg = SchemeConfig(dt=1e-3, T=1.0)
        calls = self.counting_cg(monkeypatch)
        newton = []
        phi_update = integrator._phi_update

        def counting_phi_update(*args):
            out = phi_update(*args)
            newton.append(out[2])
            return out

        monkeypatch.setattr(integrator, "_phi_update", counting_phi_update)
        for _ in range(3):
            state = integrator._advance(state, op, pot, None, cfg)
        assert min(newton) >= 1 and calls == []

    @pytest.mark.parametrize(
        "dimension, n, runs_cg",
        [(1, 40, False), (1, MAX_DENSE_CELLS, False), (1, MAX_DENSE_CELLS + 1, True),
         (2, 16, True)],
        ids=["1d-small", "1d-at-cutoff", "1d-above-cutoff", "2d"],
    )
    @pytest.mark.parametrize("problem", ["nonlocal", "local"])
    def test_routing(self, family, problem, dimension, n, runs_cg, monkeypatch):
        fam = family if dimension == 1 else build_kernel_family(
            make_profile("polynomial-bump"), 2, 0.0
        )
        grid = Grid.line(n) if dimension == 1 else Grid.box(n)
        pot = make_double_well()
        op = build_nonlocal_operator(fam, 0.25, grid) if problem == "nonlocal" else None
        data = build_initial_data(op, grid, pot)
        calls = self.counting_cg(monkeypatch)
        solve_trajectory(op, data, pot, SchemeConfig(dt=1e-3, T=3e-3))
        assert len(calls) == (3 if runs_cg else 0)


class TestSchemeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SchemeConfig(dt=0.2, T=0.1)
        with pytest.raises(ValueError):
            SchemeConfig(dt=1e-3, T=1.0, newton_tol=1e-3)

    @pytest.mark.parametrize("dt", [0.0, -1.0])
    def test_nonpositive_dt_rejected_without_steps(self, dt):
        with pytest.raises(ValueError):
            SchemeConfig(dt=dt, T=0.0)

    def test_num_steps(self):
        assert SchemeConfig(dt=1e-3, T=0.5).num_steps == 500
        assert SchemeConfig(dt=1e-3, T=0.0).num_steps == 0


class TestManufacturedSolution:
    """Forcing chosen so theta* = phi* = exp(-t) cos(pi x) solves the
    coupled system with beta = 0 and linear pi."""

    POT = make_linear_potential(-(math.pi**2 - 1.0))

    @staticmethod
    def source(grid, t):
        x = grid.meshgrid()[0]
        return Field(grid, (math.pi**2 - 2.0) * math.exp(-t) * np.cos(math.pi * x))

    RULE = InitialDataRule(
        theta0=lambda *x: np.cos(np.pi * x[0]),
        phi0=lambda *x: np.cos(np.pi * x[0]),
        v0=lambda *x: -np.cos(np.pi * x[0]),
    )

    def c0h_error(self, traj):
        errs = []
        for t, st in zip(traj.times, traj.states):
            exact = field_from_function(
                st.theta.grid, lambda x: math.exp(-t) * np.cos(np.pi * x)
            )
            errs.append(max(norm(st.theta - exact, "H"), norm(st.phi - exact, "H")))
        return max(errs)

    def run(self, n, dt, T=0.5):
        grid = Grid.line(n)
        data = build_initial_data(None, grid, self.POT, c1_bound=100.0, rule=self.RULE)
        return solve_trajectory(
            None,
            data,
            self.POT,
            SchemeConfig(dt=dt, T=T, snapshots=10),
            source=self.source,
        )

    def test_time_order(self):
        dts = (4e-3, 2e-3, 1e-3)
        errs = [self.c0h_error(self.run(512, dt)) for dt in dts]
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.2)

    def test_space_order_quick(self):
        # trimmed version (full-budget sweep lives in the acceptance suite)
        ns = (16, 32, 64)
        errs = [self.c0h_error(self.run(n, 2e-5, T=0.1)) for n in ns]
        slope = np.polyfit(np.log([1.0 / n for n in ns]), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)
