import math
from dataclasses import replace

import numpy as np
import pytest

from pfnl.config import parse_config_text
from pfnl.errors import ConfigError
from pfnl.fields import Field, Grid, field_from_function
from pfnl import fields
from pfnl.integrator import SchemeConfig, solve_trajectory
from pfnl.kernels import build_kernel_family, make_profile
from pfnl.operators import build_nonlocal_operator, energy_local, energy_nonlocal
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


def _buildable_potentials():
    """Every potential the config can build, and the test-only linear one."""
    custom = "potential.kind = custom-polynomial\npotential.power = {}\n"
    yield "double-well", parse_config_text("").make_potential()
    for p in (1, 3, 5):
        yield f"power-{p}", parse_config_text(custom.format(p)).make_potential()
    yield "linear", make_linear_potential(-2.0)


@pytest.mark.parametrize(
    "spec", [pytest.param(spec, id=name) for name, spec in _buildable_potentials()]
)
@pytest.mark.parametrize(
    "shape", [(16,), (4, 5), (3, 16), (3, 4, 5)], ids=["1d", "2d", "stacked-1d", "stacked-2d"]
)
def test_potential_maps_return_float64_arrays_of_the_argument_shape(spec, shape):
    # callers use the maps' values as they are: no broadcast, no conversion
    r = np.random.default_rng(0).uniform(-2.0, 2.0, size=shape)
    for map_name in ("beta", "beta_hat", "beta_prime", "pi"):
        out = getattr(spec, map_name)(r)
        assert isinstance(out, np.ndarray), map_name
        assert out.dtype == np.float64 and out.shape == shape, map_name


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

    @pytest.mark.parametrize(
        "q, c_beta, flagged",
        [(1e300, 4.0, True), (1e300, 1e308, True), (4.0 / 3.0, 1e308, False)],
        ids=["huge-q", "huge-q-and-c_beta", "huge-c_beta"],
    )
    def test_overflowing_growth_sides(self, q, c_beta, flagged):
        # |beta|^q or c_beta (1 + beta_hat) overflows to inf on the lattice
        # without a warning (the suite turns RuntimeWarning into an error):
        # an infinite |beta|^q is the growth violation, and an infinite
        # bound holds for any finite |beta|^q
        spec = replace(make_double_well(), q=q, c_beta=c_beta)
        issues = validate_potential(spec)
        assert any(v.startswith("growth") for v in issues) == flagged
        assert all(v.startswith("growth") for v in issues)

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

    @pytest.mark.parametrize(
        "grid",
        [Grid.line(320), Grid.box(320), Grid((1.5,), (64,))],
        ids=["line", "box", "long-line"],
    )
    def test_cosine_decay_bits(self, grid):
        # the profile is sampled once per grid and scaled per call, with the
        # products of sampling the whole rule in the same order; the times
        # revisit the grid after another grid was sampled
        amplitude = -2.7
        f = make_source("cosine-decay", amplitude=amplitude)
        for t in (0.0, 1e-3, 0.37, 2.5, 0.37):
            f(Grid.line(16), t)
            want = field_from_function(
                grid, lambda *x: amplitude * np.cos(np.pi * x[0]) * math.exp(-t)
            )
            assert np.array_equal(f(grid, t).data, want.data), t

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_source("sawtooth")


def initial_data(family, grid, potential, **kwargs):
    """The initial data of each width of ``EPS_SWEEP`` on ``grid``, each
    built with that width's operator, keyed by width."""
    return {
        eps: build_initial_data(
            build_nonlocal_operator(family, eps, grid), grid, potential, **kwargs
        )
        for eps in EPS_SWEEP
    }


def jump_triple(grid):
    x = grid.axis_centers(0)
    zero = Field(grid, np.zeros(grid.shape))
    return {"theta0": zero, "phi0": Field(grid, np.where(x < 0.5, 1.0, -1.0)), "v0": zero}


class TestInitialData:
    def test_smooth_default_passes_bound(self, family):
        grid = Grid.line(512)
        pot = make_double_well()
        runs = list(initial_data(family, grid, pot, c1_bound=10.0).values())
        for data in runs + [build_initial_data(None, grid, pot, c1_bound=10.0)]:
            assert data.flags == []
            assert data.a5 <= 10.0

    def test_monitor_mild_fluctuation(self, family):
        # monitor may drift up slightly as the energy approaches its limit
        grid = Grid.line(512)
        runs = initial_data(family, grid, make_double_well())
        vals = [runs[e].a5 for e in EPS_SWEEP]
        for a, b in zip(vals, vals[1:]):
            assert b <= 1.05 * a

    def test_jump_data_flagged_unbounded(self, family):
        # energy of a jump grows like 1/eps along the sweep; each run stays
        # within its bound, and the sweep compares the widths' monitors
        grid = Grid.line(512)
        runs = initial_data(
            family, grid, make_double_well(), c1_bound=1e9, custom=jump_triple(grid)
        )
        vals = [runs[e].a5 for e in EPS_SWEEP]
        assert vals[-1] > 4.0 * vals[0]
        assert all(runs[e].flags == [] for e in EPS_SWEEP)

    def test_custom_violating_bound_raises(self, family):
        grid = Grid.line(512)
        ops = [None] + [build_nonlocal_operator(family, e, grid) for e in EPS_SWEEP]
        for op in ops:
            with pytest.raises(ConfigError, match="uniform bound violated"):
                build_initial_data(
                    op, grid, make_double_well(), c1_bound=5.0, custom=jump_triple(grid)
                )

    def test_monitor_uses_the_runs_own_B(self, family):
        # the kernel run's monitor holds B_eps's energy, the local run's
        # -lap_N's; the other four terms are shared
        grid = Grid.line(64)
        pot = make_double_well()
        op = build_nonlocal_operator(family, 0.2, grid)
        kernel, local = build_initial_data(op, grid, pot), build_initial_data(None, grid, pot)
        gap = energy_nonlocal(op, kernel.phi0) - energy_local(local.phi0)
        assert kernel.a5 - local.a5 == pytest.approx(gap, rel=1e-12)

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
        data = build_initial_data(build_nonlocal_operator(family, 0.2, grid), grid, pot)
        assert solves == []
        op = build_nonlocal_operator(family, 0.25, grid)
        traj = solve_trajectory(op, data, pot, SchemeConfig(dt=1e-3, T=2e-3))
        assert np.array_equal(traj.states[0].phi.data, data.phi0.data)
        assert len(traj.records) == 3  # the initial record and two steps

    def test_default_data_in_box_units(self):
        # the rule is sampled at x / L, so a longer box stretches the unit
        # box's data: phi0 = cos(pi x / L) is flat at the far wall
        pot = make_double_well()
        unit = build_initial_data(None, Grid((1.0,), (64,)), pot)
        long = build_initial_data(None, Grid((1.5,), (64,)), pot)
        for name in ("theta0", "phi0", "v0"):
            a, b = getattr(unit, name).data, getattr(long, name).data
            np.testing.assert_allclose(b, a, rtol=0.0, atol=1e-15, err_msg=name)

    def test_source_in_box_units(self):
        f = make_source("cosine-decay", amplitude=2.0)
        unit, long = f(Grid((1.0,), (64,)), 0.5), f(Grid((1.5,), (64,)), 0.5)
        np.testing.assert_allclose(long.data, unit.data, rtol=0.0, atol=1e-15)

    def test_default_rule_values(self):
        rule = smooth_default_rule()
        grid = Grid.line(64)
        theta = field_from_function(grid, rule.theta0)
        phi = field_from_function(grid, rule.phi0)
        assert np.allclose(theta.data, 0.5 * phi.data)
