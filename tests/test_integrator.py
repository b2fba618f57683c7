import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import rough_field
from pfnl import fields, integrator
from pfnl.errors import SolverError
from pfnl.fields import (
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
    build_nonlocal_operator,
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
    SchemeConfig,
    State,
    _phi_update,
    energy_balance_residual,
    solve_trajectory,
    step_local,
    total_energy,
)

ODE_MATRIX = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [1.0, 0.0, -1.0]])


def ode_exact(y0, t):
    """Matrix-exponential oracle for the constant-field reduction
    (theta' = -v, phi' = v, v' = theta - v)."""
    return expm(ODE_MATRIX * t) @ np.asarray(y0)


@pytest.fixture(scope="module")
def family():
    return build_kernel_family(make_profile("polynomial-bump"), 1, 0.0)


def constant_data(grid, family, potential, y0, eps_list):
    mk = lambda c: Field(grid, np.full(grid.shape, c))
    return build_initial_data(
        "custom",
        grid,
        eps_list,
        family,
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
        data = constant_data(grid, family, pot, self.Y0, [0.5])
        traj = solve_trajectory(
            None, data, pot, SchemeConfig(dt=1e-4, T=1.0, snapshots=10)
        )
        assert self.trajectory_error(traj) <= 1e-3

    def test_nonlocal_matches_ode(self, family):
        grid = Grid.line(40)
        pot = make_linear_potential(0.0)
        data = constant_data(grid, family, pot, self.Y0, [0.2])
        op = build_nonlocal_operator(family, 0.2, grid)
        traj = solve_trajectory(
            op, data, pot, SchemeConfig(dt=1e-4, T=1.0, snapshots=10)
        )
        assert self.trajectory_error(traj) <= 1e-3

    def test_first_order_in_dt(self, family):
        grid = Grid.line(32)
        pot = make_linear_potential(0.0)
        data = constant_data(grid, family, pot, self.Y0, [0.5])
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
        data = constant_data(grid, family, pot, (0.0, 0.0, 0.0), [0.5])
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
        data = constant_data(grid, family, pot, (0.3, 0.1, 0.0), [0.5])
        traj = solve_trajectory(None, data, pot, SchemeConfig(dt=1e-2, T=0.0))
        assert len(traj.states) == 1
        assert traj.states[0].t == 0.0

    def test_nonlocal_and_local_agree_on_constants(self, family):
        # both operators annihilate constants, so the trajectories coincide
        grid = Grid.line(40)
        pot = make_linear_potential(0.0)
        data = constant_data(grid, family, pot, (0.4, -0.2, 0.1), [0.2])
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
        data = constant_data(grid, family, pot, (0.0, 0.0, 0.0), [0.5])
        traj = solve_trajectory(
            None, data, pot, SchemeConfig(dt=1e-2, T=0.1, snapshots=5)
        )
        assert all(r.residual == 0.0 for r in traj.records)

    def test_constant_data_residual_second_order(self, family):
        pot = make_linear_potential(0.0)
        grid = Grid.line(16)
        data = constant_data(grid, family, pot, (0.8, -0.5, 0.3), [0.5])
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
        data = build_initial_data("smooth-default", grid, [0.1], family, pot)
        op = build_nonlocal_operator(family, 0.1, grid)
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
        data = build_initial_data("smooth-default", grid, [0.1], family, pot)
        op = build_nonlocal_operator(family, 0.1, grid)
        traj = solve_trajectory(
            op, data, pot, SchemeConfig(dt=1e-3, T=1.0, snapshots=20)
        )
        assert all(r.residual <= 0.01 for r in traj.records)

    def test_residual_ratio_under_dt_halving(self, family):
        # quadratic per-step residual: halving dt divides the max by ~4
        pot = make_double_well()
        grid = Grid.line(80)
        data = build_initial_data("smooth-default", grid, [0.1], family, pot)
        op = build_nonlocal_operator(family, 0.1, grid)
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
        data = build_initial_data(
            "custom",
            grid,
            [0.1],
            family,
            pot,
            c1_bound=1e3,
            custom={
                "theta0": theta0,
                "phi0": smooth,
                "v0": rough_field(grid, rng, 0.5),
            },
        )
        op = build_nonlocal_operator(family, 0.1, grid)
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
        data = build_initial_data("smooth-default", grid, [0.1], family, pot)
        op = build_nonlocal_operator(family, 0.1, grid)
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
        data = build_initial_data("smooth-default", grid, [0.2], family, pot)
        if problem == "nonlocal":
            op = build_nonlocal_operator(family, 0.2, grid)
            energy_fn = lambda u: energy_nonlocal(op, u)
        else:
            op = None
            energy_fn = energy_local
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
                assert close(rec.residual, residuals[-1])
        assert traj.records[0].residual == 0.0

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


class TestStepCost:
    """A step builds fields only for the new state and evaluates ``pi`` once."""

    @pytest.mark.parametrize("problem", ["nonlocal", "local"])
    def test_field_constructions_and_pi_calls(self, family, problem, monkeypatch):
        grid = Grid.line(40)
        pot = make_double_well()
        data = build_initial_data("smooth-default", grid, [0.2], family, pot)
        op = build_nonlocal_operator(family, 0.2, grid) if problem == "nonlocal" else None
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
        # one CG iteration cannot solve (1.1 I - 0.01 lap_N) at n = 64
        monkeypatch.setattr(
            integrator, "cg", lambda matvec, b, rtol, maxiter: fields.cg(matvec, b, rtol, 1)
        )
        grid = Grid.line(64)
        phi = field_from_function(grid, lambda x: np.cos(np.pi * x))
        state = State(0.0, zeros(grid), phi, zeros(grid))
        with pytest.raises(SolverError, match="phase CG did not converge in 1 iter"):
            _phi_update(state, None, make_double_well(), SchemeConfig(dt=0.1, T=0.5))


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
        fam = build_kernel_family(make_profile("polynomial-bump"), 1, 0.0)
        data = build_initial_data(
            "smooth-default", grid, [0.5], fam, self.POT, c1_bound=100.0, rule=self.RULE
        )
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
