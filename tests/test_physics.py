import math

import numpy as np
import pytest

from pfnl.config import parse_config_text
from pfnl.errors import ConfigError
from pfnl.fields import Field, Grid, field_from_function
from pfnl import fields, physics
from pfnl.integrator import SchemeConfig, solve_trajectory
from pfnl.kernels import build_kernel_family, make_profile
from pfnl.operators import build_nonlocal_operator
from pfnl.physics import (
    PotentialSpec,
    build_initial_data,
    make_double_well,
    make_linear_potential,
    make_source,
    smooth_default_rule,
    validate_potential,
)

EPS_SWEEP = (0.2, 0.1, 0.05, 0.025)


@pytest.fixture(scope="module")
def family():
    return build_kernel_family(make_profile("polynomial-bump"), 1, 0.0)


class TestDoubleWell:
    def test_point_values(self):
        spec = make_double_well()
        assert float(spec.beta(np.array([2.0]))[0]) == 8.0
        assert float(spec.beta_hat(np.array([2.0]))[0]) == 4.0
        assert float(spec.pi(np.array([2.0]))[0]) == -2.0

    def test_growth_pairing(self):
        # |r^3|^{4/3} = r^4 <= 4 (1 + r^4/4) pointwise
        spec = make_double_well()
        r = np.linspace(-5.0, 5.0, 10_000)
        lhs = np.abs(spec.beta(r)) ** spec.q
        rhs = spec.c_beta * (1.0 + spec.beta_hat(r))
        assert np.all(lhs <= rhs * (1.0 + 1e-12))

    def test_primitive_derivative_at_sample(self):
        spec = make_double_well()
        r = 1.5
        dr = 1e-4
        fd = (spec.beta_hat(np.array([r + dr])) - spec.beta_hat(np.array([r - dr])))[
            0
        ] / (2.0 * dr)
        assert abs(fd - r**3) / r**3 <= 1e-6

    def test_validates_clean(self):
        assert validate_potential(make_double_well()) == []
        assert validate_potential(make_double_well(), d=3) == []

    def test_linear_potential_validates(self):
        assert validate_potential(make_linear_potential(-2.0)) == []


class TestValidatePotential:
    def test_decreasing_beta_flagged(self):
        spec = PotentialSpec(
            beta=lambda r: -r,
            beta_hat=lambda r: -0.5 * r**2,
            pi=lambda r: np.zeros_like(r),
            q=2.0,
            c_beta=1.0,
            pi_lipschitz=0.0,
            beta_prime=lambda r: -np.ones_like(r),
        )
        issues = validate_potential(spec)
        assert any(v.startswith("monotonicity") for v in issues)

    def test_bad_growth_exponent_flagged(self):
        # r^6 outgrows 1 + r^4/4: the lattice finds a witness
        spec = PotentialSpec(
            beta=lambda r: r**3,
            beta_hat=lambda r: 0.25 * r**4,
            pi=lambda r: -r,
            q=2.0,
            c_beta=1.0,
            pi_lipschitz=1.0,
            beta_prime=lambda r: 3.0 * r**2,
        )
        issues = validate_potential(spec)
        assert any(v.startswith("growth") for v in issues)

    def test_wrong_primitive_flagged(self):
        spec = PotentialSpec(
            beta=lambda r: r**3,
            beta_hat=lambda r: 0.5 * r**4,  # derivative 2 r^3 != beta
            pi=lambda r: -r,
            q=4.0 / 3.0,
            c_beta=4.0,
            pi_lipschitz=1.0,
            beta_prime=lambda r: 3.0 * r**2,
        )
        issues = validate_potential(spec)
        assert any(v.startswith("primitive derivative") for v in issues)

    def test_understated_lipschitz_flagged(self):
        spec = PotentialSpec(
            beta=lambda r: r**3,
            beta_hat=lambda r: 0.25 * r**4,
            pi=lambda r: -3.0 * r,
            q=4.0 / 3.0,
            c_beta=4.0,
            pi_lipschitz=1.0,
            beta_prime=lambda r: 3.0 * r**2,
        )
        issues = validate_potential(spec)
        assert any(v.startswith("lipschitz") for v in issues)

    def test_d3_exponent_floor(self):
        spec = PotentialSpec(
            beta=lambda r: r,
            beta_hat=lambda r: 0.5 * r**2,
            pi=lambda r: np.zeros_like(r),
            q=1.1,
            c_beta=3.0,
            pi_lipschitz=0.0,
            beta_prime=lambda r: np.ones_like(r),
        )
        issues = validate_potential(spec, d=3)
        assert any(v.startswith("exponent") for v in issues)


class TestSource:
    def test_zero_source(self):
        # source.kind = none is no source at all, not a zero field
        assert parse_config_text("source.kind = none").make_source() is None
        with pytest.raises(ConfigError):
            make_source("none")

    def test_cosine_decay(self):
        f = make_source("cosine-decay", amplitude=2.0)
        g = Grid.line(64)
        fld = f(g, 1.0)
        x = g.axis_centers(0)
        assert np.allclose(fld.data, 2.0 * np.cos(np.pi * x) * math.exp(-1.0))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_source("sawtooth")


class TestInitialData:
    def test_smooth_default_passes_bound(self, family):
        grid = Grid.line(512)
        data = build_initial_data(
            "smooth-default", grid, EPS_SWEEP, family, make_double_well(), c1_bound=10.0
        )
        assert data.flags == []
        for eps in EPS_SWEEP:
            assert data.a5_values[eps] <= 10.0

    def test_monitor_mild_fluctuation(self, family):
        # monitor may drift up slightly as the energy approaches its limit
        grid = Grid.line(512)
        data = build_initial_data(
            "smooth-default", grid, EPS_SWEEP, family, make_double_well()
        )
        vals = [data.a5_values[e] for e in EPS_SWEEP]
        for a, b in zip(vals, vals[1:]):
            assert b <= 1.05 * a

    def test_jump_data_flagged_unbounded(self, family):
        grid = Grid.line(512)
        x = grid.axis_centers(0)
        phi = Field(grid, np.where(x < 0.5, 1.0, -1.0))
        theta = field_from_function(grid, lambda s: 0.0 * s)
        v = theta.copy()
        data = build_initial_data(
            "custom",
            grid,
            EPS_SWEEP,
            family,
            make_double_well(),
            c1_bound=1e9,
            custom={"theta0": theta, "phi0": phi, "v0": v},
        )
        vals = [data.a5_values[e] for e in EPS_SWEEP]
        # energy of a jump grows like 1/eps along the sweep
        assert vals[-1] > 4.0 * vals[0]
        assert any("unbounded" in f for f in data.flags)

    def test_custom_violating_bound_raises(self, family):
        grid = Grid.line(512)
        x = grid.axis_centers(0)
        phi = Field(grid, np.where(x < 0.5, 1.0, -1.0))
        zero = Field(grid, np.zeros(grid.shape))
        with pytest.raises(ConfigError):
            build_initial_data(
                "custom",
                grid,
                EPS_SWEEP,
                family,
                make_double_well(),
                c1_bound=5.0,
                custom={"theta0": zero, "phi0": phi, "v0": zero},
            )

    def test_prebuilt_operators_are_reused(self, family, monkeypatch):
        grid = Grid.line(64)
        pot = make_double_well()
        fresh = build_initial_data("smooth-default", grid, (0.2, 0.1), family, pot)
        given = {0.2: build_nonlocal_operator(family, 0.2, grid)}
        built = []
        real = physics.build_nonlocal_operator

        def counting(family, eps, grid):
            built.append(eps)
            return real(family, eps, grid)

        monkeypatch.setattr(physics, "build_nonlocal_operator", counting)
        reused = build_initial_data(
            "smooth-default", grid, (0.2, 0.1), family, pot, operators=given
        )
        assert built == [0.1]
        assert reused.a5_values == fresh.a5_values

    def test_widths_share_the_initial_triple(self, family, monkeypatch):
        # building the data makes no Neumann solve, and a trajectory may run
        # at a width the data was not built for
        grid = Grid.line(64)
        pot = make_double_well()
        solves = []
        real = fields.neumann_solve

        def counting(*args):
            solves.append(args)
            return real(*args)

        monkeypatch.setattr(fields, "neumann_solve", counting)
        data = build_initial_data("smooth-default", grid, (0.2, 0.1), family, pot)
        assert solves == []
        op = build_nonlocal_operator(family, 0.25, grid)
        traj = solve_trajectory(op, data, pot, SchemeConfig(dt=1e-3, T=2e-3))
        assert np.array_equal(traj.states[0].phi.data, data.phi0.data)
        assert len(traj.records) == 3  # the initial record and two steps

    def test_default_rule_values(self):
        rule = smooth_default_rule()
        grid = Grid.line(64)
        theta = field_from_function(grid, rule.theta0)
        phi = field_from_function(grid, rule.phi0)
        assert np.allclose(theta.data, 0.5 * phi.data)
