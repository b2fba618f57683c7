"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the printed
PASS line for every criterion.  Tolerances are pinned here and nowhere
else; shared expensive artifacts (the default width sweep) live in
module-scoped fixtures.
"""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import expm

from pfnl import cli
from pfnl.analysis import (
    SweepConfig,
    bbm_ratio_suite,
    nonlocal_to_local_study,
    operator_convergence_suite,
    probe_fields,
)
from pfnl.fields import (
    Field,
    Grid,
    field_from_function,
    inner_product,
    norm,
    ones,
)
from pfnl.integrator import SchemeConfig, solve_trajectory
from pfnl.kernels import build_kernel_family, make_profile, moment_check, sphere_constant
from pfnl.operators import (
    apply_B,
    apply_B_eps,
    build_nonlocal_operator,
    energy_double_sum,
    energy_nonlocal,
    frechet_fd_residual,
    frechet_identity_residual,
)
from pfnl.physics import (
    InitialDataRule,
    build_initial_data,
    make_double_well,
    make_linear_potential,
)


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def family1d():
    return build_kernel_family(make_profile("polynomial-bump"), 1, 0.0)


@pytest.fixture(scope="module")
def family2d():
    return build_kernel_family(make_profile("polynomial-bump"), 2, 0.0)


@pytest.fixture(scope="module")
def default_study(family1d):
    sweep = SweepConfig(
        family=family1d,
        potential=make_double_well(),
        scheme=SchemeConfig(dt=1e-3, T=0.5, snapshots=20),
    )
    return nonlocal_to_local_study(sweep)


class TestCriterion01Kernels:
    def test_moment_residuals_and_constants(self):
        for d, alpha in [(1, 0.0), (2, 0.0), (2, 1.0)]:
            fam = build_kernel_family(make_profile("polynomial-bump"), d, alpha)
            assert moment_check(fam) <= 1e-10, (d, alpha)
        # analytic oracles for the sphere constant
        oracle2, _ = integrate.quad(lambda t: math.cos(t) ** 2, 0, 2 * math.pi)
        assert abs(sphere_constant(1) - 1.0) <= 1e-10
        assert abs(sphere_constant(2) - 2.0 / math.pi) <= 1e-10
        assert abs(sphere_constant(2) - 2.0 / oracle2) <= 1e-10
        assert abs(sphere_constant(3) - 3.0 / (2.0 * math.pi)) <= 1e-10
        report(1, "moment residual <= 1e-10 for (1,0),(2,0),(2,1); c_d exact")


class TestCriterion02Frechet:
    def test_identity_residuals(self):
        rng = np.random.default_rng(7)
        cases = [
            (build_kernel_family(make_profile("polynomial-bump"), 1, 0.0), Grid.line(32), 0.25),
            (build_kernel_family(make_profile("polynomial-bump"), 2, 0.0), Grid.box(16), 0.25),
        ]
        worst_double, worst_fd = 0.0, 0.0
        for fam, grid, eps in cases:
            op = build_nonlocal_operator(fam, eps, grid)
            for _ in range(50):
                u = Field(grid, rng.normal(size=grid.shape))
                v = Field(grid, rng.normal(size=grid.shape))
                worst_double = max(worst_double, frechet_identity_residual(op, u, v))
                value = abs(inner_product("H", apply_B(op, u), v))
                worst_fd = max(
                    worst_fd, frechet_fd_residual(op, u, v) / (1.0 + value)
                )
        assert worst_double <= 1e-12
        assert worst_fd <= 1e-6
        report(
            2,
            f"50 pairs in 1d and 2d: double-sum gap {worst_double:.2e} <= 1e-12, "
            f"finite-difference gap {worst_fd:.2e} <= 1e-6",
        )


class TestCriterion03OperatorAlgebra:
    def test_algebra(self, family1d):
        rng = np.random.default_rng(11)
        grid = Grid.line(64)
        op = build_nonlocal_operator(family1d, 0.25, grid)
        one = ones(grid)
        c = Field(grid, np.full(grid.shape, 1.7))
        assert np.max(np.abs(apply_B_eps(op, c.data))) <= 1e-12
        worst = 0.0
        for _ in range(20):
            u = Field(grid, rng.normal(size=grid.shape))
            w = Field(grid, rng.normal(size=grid.shape))
            Bu = apply_B(op, u)
            worst = max(worst, abs(inner_product("H", Bu, one)))
            sym = abs(
                inner_product("H", Bu, w) - inner_product("H", u, apply_B(op, w))
            )
            worst = max(worst, sym)
            assert inner_product("H", Bu, u) >= -1e-14
            gap = abs(energy_nonlocal(op, u) - energy_double_sum(op, u))
            worst = max(worst, gap)
        assert worst <= 1e-12
        report(3, f"symmetry/PSD/constants/mass/energy identity, worst gap {worst:.2e}")


class TestCriterion04GammaConvergence:
    EPS = (0.2, 0.1, 0.05, 0.025)

    def test_1d_cosine(self, family1d):
        target = math.pi**2 / 4.0
        gaps = []
        for eps in self.EPS:
            grid = Grid.line(round(8 / eps))
            u = field_from_function(grid, lambda x: np.cos(np.pi * x))
            op = build_nonlocal_operator(family1d, eps, grid)
            gaps.append(abs(energy_nonlocal(op, u) - target))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] / target <= 0.05
        report(
            4,
            f"1d energy gap monotone {gaps[0]:.3g} -> {gaps[-1]:.3g}, "
            f"final {gaps[-1] / target:.2%} <= 5%",
        )

    def test_2d_product_cosine(self, family2d):
        target = math.pi**2 / 4.0
        gaps = []
        for eps in self.EPS:
            grid = Grid.box(round(8 / eps))
            u = field_from_function(
                grid, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y)
            )
            op = build_nonlocal_operator(family2d, eps, grid)
            gaps.append(abs(energy_nonlocal(op, u) - target))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] / target <= 0.05
        report(4, f"2d energy gap monotone, final {gaps[-1] / target:.2%} <= 5%")


class TestCriterion05OperatorConvergence:
    def test_dual_gaps_and_ratio(self, family1d):
        rows, violations = operator_convergence_suite(family1d, strict=False)
        assert violations == []
        rrows, rviol = bbm_ratio_suite(family1d, strict=False)
        assert rviol == []
        spreads = {}
        for probe in probe_fields(1):
            ratios = [r["ratio"] for r in rrows if r["field"] == probe.name]
            spreads[probe.name] = max(ratios) / min(ratios)
        assert all(s <= 2.0 for s in spreads.values())
        report(
            5,
            f"dual-norm gaps decrease for 5 fields; ratio spread max "
            f"{max(spreads.values()):.3f} <= 2",
        )


class TestCriterion06ManufacturedSolution:
    POT = make_linear_potential(-(math.pi**2 - 1.0))
    RULE = InitialDataRule(
        theta0=lambda *x: np.cos(np.pi * x[0]),
        phi0=lambda *x: np.cos(np.pi * x[0]),
        v0=lambda *x: -np.cos(np.pi * x[0]),
    )

    @staticmethod
    def source(grid, t):
        x = grid.meshgrid()[0]
        return Field(grid, (math.pi**2 - 2.0) * math.exp(-t) * np.cos(math.pi * x))

    def run_error(self, family, n, dt, T):
        grid = Grid.line(n)
        data = build_initial_data(
            "smooth-default", grid, [0.5], family, self.POT, c1_bound=100.0,
            rule=self.RULE,
        )
        traj = solve_trajectory(
            None, data, self.POT, SchemeConfig(dt=dt, T=T, snapshots=10),
            source=self.source,
        )
        errs = []
        for t, st in zip(traj.times, traj.states):
            exact = field_from_function(
                grid, lambda x: math.exp(-t) * np.cos(np.pi * x)
            )
            errs.append(max(norm(st.theta - exact, "H"), norm(st.phi - exact, "H")))
        return max(errs)

    def test_time_order(self, family1d):
        dts = (4e-3, 2e-3, 1e-3)
        errs = [self.run_error(family1d, 512, dt, 0.5) for dt in dts]
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.2)
        report(6, f"time order {slope:.3f} within 1.0 +- 0.2")

    def test_space_order(self, family1d):
        ns = (32, 64, 128)
        errs = [self.run_error(family1d, n, 1e-5, 0.25) for n in ns]
        slope = np.polyfit(np.log([1.0 / n for n in ns]), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)
        report(6, f"space order {slope:.3f} within 2.0 +- 0.3")


class TestCriterion07OdeReduction:
    Y0 = (0.8, -0.5, 0.3)

    def max_error(self, traj):
        A = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [1.0, 0.0, -1.0]])
        worst = 0.0
        for t, st in zip(traj.times, traj.states):
            ex = expm(A * t) @ np.asarray(self.Y0)
            worst = max(
                worst,
                np.max(np.abs(st.theta.data - ex[0])),
                np.max(np.abs(st.phi.data - ex[1])),
                np.max(np.abs(st.v.data - ex[2])),
            )
        return worst

    def test_all_widths_and_local(self, family1d):
        pot = make_linear_potential(0.0)
        cfg = SchemeConfig(dt=1e-4, T=1.0, snapshots=10)
        worst = {}
        for eps in (0.2, 0.1, 0.05, 0.025):
            grid = Grid.line(int(math.ceil(4.0 / eps)))
            mk = lambda c: Field(grid, np.full(grid.shape, c))
            data = build_initial_data(
                "custom", grid, [eps], family1d, pot, c1_bound=100.0,
                custom={"theta0": mk(self.Y0[0]), "phi0": mk(self.Y0[1]), "v0": mk(self.Y0[2])},
            )
            op = build_nonlocal_operator(family1d, eps, grid)
            traj = solve_trajectory(op, data, pot, cfg)
            worst[eps] = self.max_error(traj)
            assert worst[eps] <= 1e-3, eps
        grid = Grid.line(32)
        mk = lambda c: Field(grid, np.full(grid.shape, c))
        data = build_initial_data(
            "custom", grid, [0.5], family1d, pot, c1_bound=100.0,
            custom={"theta0": mk(self.Y0[0]), "phi0": mk(self.Y0[1]), "v0": mk(self.Y0[2])},
        )
        local = solve_trajectory(None, data, pot, cfg)
        assert self.max_error(local) <= 1e-3
        report(7, f"ODE oracle gap <= {max(worst.values()):.2e} (<= 1e-3) for all runs")


class TestCriterion08EnergyBalance:
    def test_residual_second_order(self, family1d):
        pot = make_double_well()
        grid = Grid.line(80)
        data = build_initial_data("smooth-default", grid, [0.1], family1d, pot)
        op = build_nonlocal_operator(family1d, 0.1, grid)
        dts = (4e-3, 2e-3, 1e-3, 5e-4)
        maxima = []
        for dt in dts:
            traj = solve_trajectory(
                op, data, pot, SchemeConfig(dt=dt, T=0.5, snapshots=5)
            )
            maxima.append(traj.aux["max_step_residual"])
        slope = np.polyfit(np.log(dts), np.log(maxima), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)
        report(8, f"per-step balance residual order {slope:.3f} within 2.0 +- 0.3")


class TestCriterion09UniformEstimates:
    def test_monitor_spread(self, default_study):
        est = default_study.estimates
        worst_key, worst = None, 0.0
        for key in next(iter(est.values())).keys():
            vals = [est[e][key] for e in default_study.eps_list]
            spread = max(vals) / min(vals)
            assert spread <= 2.0, key
            if spread > worst:
                worst_key, worst = key, spread
        report(9, f"all monitors within factor 2 (worst {worst_key}: {worst:.3f})")


class TestCriterion10NonlocalToLocal:
    def test_study_columns(self, default_study):
        rep = default_study
        assert rep.violations == []
        for name in ("err_theta_C0H", "err_phi_C0H"):
            vals = rep.columns[name]
            assert all(a > b for a, b in zip(vals, vals[1:])), name
            assert vals[-1] / vals[0] <= 0.5, name
        v = rep.columns["err_v_C0Vstar"]
        assert all(a > b for a, b in zip(v, v[1:]))
        beta = rep.columns["err_beta_pairing"]
        assert all(a > b for a, b in zip(beta, beta[1:]))
        bpair = [rep.rows_extra[e]["err_B_pairing"] for e in rep.eps_list]
        assert all(a > b for a, b in zip(bpair, bpair[1:]))
        report(
            10,
            f"errors decrease; phi finest/coarsest "
            f"{rep.columns['err_phi_C0H'][-1] / rep.columns['err_phi_C0H'][0]:.3f} <= 0.5",
        )


class TestCriterion11Determinism:
    def test_converge_byte_identical(self, tmp_path):
        text = "output.dir = {out}\n"
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_a = tmp_path / "a.cfg"
        cfg_b = tmp_path / "b.cfg"
        cfg_a.write_text(text.format(out=out_a))
        cfg_b.write_text(text.format(out=out_b))
        assert cli.main(["converge", "--config", str(cfg_a)]) == 0
        assert cli.main(["converge", "--config", str(cfg_b)]) == 0
        ra = (out_a / "report.csv").read_bytes()
        rb = (out_b / "report.csv").read_bytes()
        assert ra == rb
        lines = ra.decode().strip().split("\n")
        assert len(lines) == 5  # header + four width rows
        report(11, "two converge runs produced byte-identical report.csv")
