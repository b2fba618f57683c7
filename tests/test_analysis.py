import math

import numpy as np
import pytest

from pfnl import analysis, physics
from pfnl.errors import ResolutionError
from pfnl.fields import Field, Grid, dual_norm, field_from_function
from pfnl.integrator import SchemeConfig, solve_trajectory
from pfnl.kernels import build_kernel_family, make_profile
from pfnl.operators import apply_B_eps, build_nonlocal_operator, energy_local
from pfnl.physics import build_initial_data, make_double_well, make_linear_potential
from pfnl.analysis import (
    ProbeField,
    SweepConfig,
    bbm_ratio_suite,
    cauchy_in_h_diagnostic,
    estimate_monitor,
    estimates_csv,
    gamma_convergence_suite,
    nonlocal_to_local_study,
    operator_convergence_suite,
    probe_fields,
    report_csv,
    sweep_grids,
)


@pytest.fixture(scope="module")
def family():
    return build_kernel_family(make_profile("polynomial-bump"), 1, 0.0)


@pytest.fixture(scope="module")
def family2d():
    return build_kernel_family(make_profile("polynomial-bump"), 2, 0.0)


@pytest.fixture(scope="module")
def small_study(family):
    sweep = SweepConfig(
        family=family,
        potential=make_double_well(),
        scheme=SchemeConfig(dt=2e-3, T=0.2, snapshots=10),
        eps_list=(0.2, 0.1, 0.05),
    )
    return nonlocal_to_local_study(sweep)


class TestSweepGrids:
    def test_multiples_of_coarsest(self):
        grids = sweep_grids((0.2, 0.1, 0.05, 0.025))
        ns = [grids[e].n[0] for e in sorted(grids, reverse=True)]
        assert ns == [40, 80, 160, 320]
        assert all(n % ns[0] == 0 for n in ns)

    def test_cap_keeps_resolution(self):
        grids = sweep_grids((0.2, 0.1), max_n=80)
        assert grids[0.1].n[0] == 80

    def test_under_resolved_cap_rejected(self):
        with pytest.raises(ResolutionError):
            sweep_grids((0.2, 0.02), max_n=80)

    def test_2d(self):
        grids = sweep_grids((0.2, 0.1), dimension=2)
        assert grids[0.1].dimension == 2
        assert grids[0.1].n == (80, 80)


class TestProbeFields:
    @pytest.mark.parametrize("dimension", [1, 2])
    def test_exact_energies_match_quadrature(self, dimension):
        # oracle: fine-grid discrete Dirichlet energy
        grid = Grid.line(4096) if dimension == 1 else Grid.box(512)
        for probe in probe_fields(dimension):
            if probe.exact_energy is None:
                continue
            exact = probe.exact_energy(grid.lengths)
            if exact is None:
                continue
            approx = energy_local(probe.on(grid))
            assert approx == pytest.approx(exact, rel=1e-4), probe.name

    def test_neumann_compatible(self):
        # vanishing normal derivative at both ends: first cell difference
        # is second order in h, not first
        grid = Grid.line(4096)
        for probe in probe_fields(1):
            u = probe.on(grid).data
            h = grid.spacing[0]
            assert abs(u[1] - u[0]) <= 100.0 * h * h * max(1.0, np.max(np.abs(u)))
            assert abs(u[-1] - u[-2]) <= 100.0 * h * h * max(1.0, np.max(np.abs(u)))


class TestGammaSuite:
    def test_default_passes(self, family):
        rows, violations = gamma_convergence_suite(family)
        assert violations == []
        cos1 = [r for r in rows if r["field"] == "cos1"]
        assert cos1[-1]["gap"] / (math.pi**2 / 4.0) <= 0.05

    def test_2d_passes(self, family2d):
        # the 5% endpoint needs the sweep to reach a reasonably small width
        rows, violations = gamma_convergence_suite(
            family2d, eps_list=(0.2, 0.1, 0.05), dimension=2, max_n=160
        )
        assert violations == []

    def test_flat_field_zero_energies(self, family):
        flat = (ProbeField("flat", lambda *x: np.ones_like(x[0])),)
        rows, violations = gamma_convergence_suite(family, fields=flat)
        assert violations == []
        assert all(r["energy_nonlocal"] <= 1e-12 for r in rows)

    def test_under_resolved_raises(self, family):
        with pytest.raises(ResolutionError):
            gamma_convergence_suite(family, eps_list=(0.2, 0.01), max_n=64)


class TestOperatorSuite:
    def test_default_passes(self, family):
        rows, violations = operator_convergence_suite(family)
        assert violations == []

    def test_orthogonal_pairing(self, family):
        # grad cos(pi x) is L2-orthogonal to grad cos(2 pi x); the kernel
        # pairing inherits the cancellation at every width
        rows, _ = operator_convergence_suite(family)
        cos1 = [r for r in rows if r["field"] == "cos1"]
        assert abs(cos1[0]["pairing_local"]) <= 1e-10
        assert all(abs(r["pairing_nonlocal"]) <= 1e-10 for r in cos1)

    def test_quadratic_pairing_limit(self, family):
        # pairing of the operator image with the field itself approaches
        # twice the Dirichlet energy: pi^2/2 for the first cosine mode
        rows, _ = gamma_convergence_suite(family)
        cos1 = [r for r in rows if r["field"] == "cos1"]
        assert 2.0 * cos1[-1]["energy_nonlocal"] == pytest.approx(
            math.pi**2 / 2.0, rel=0.01
        )


class TestBBMSuite:
    def test_default_passes(self, family):
        rows, violations = bbm_ratio_suite(family)
        assert violations == []
        assert all(r["ratio"] > 0 for r in rows)


class TestEstimateMonitor:
    def test_zero_trajectory(self, family):
        grid = Grid.line(40)
        pot = make_linear_potential(0.0)
        zero = field_from_function(grid, lambda x: 0.0 * x)
        data = build_initial_data(
            "custom", grid, [0.2], family, pot, c1_bound=10.0,
            custom={"theta0": zero, "phi0": zero, "v0": zero},
        )
        op = build_nonlocal_operator(family, 0.2, grid)
        traj = solve_trajectory(
            op, data, pot, SchemeConfig(dt=1e-2, T=0.1, snapshots=5)
        )
        mon = estimate_monitor(traj, "all", potential=pot)
        assert all(v == 0.0 for v in mon.values())

    def test_group_selection(self, family):
        grid = Grid.line(40)
        pot = make_double_well()
        data = build_initial_data("smooth-default", grid, [0.2], family, pot)
        op = build_nonlocal_operator(family, 0.2, grid)
        traj = solve_trajectory(
            op, data, pot, SchemeConfig(dt=2e-3, T=0.1, snapshots=5)
        )
        m1 = estimate_monitor(traj, "state-energy")
        assert "theta_LinfH" in m1 and "beta_Lq_Linf" not in m1
        with pytest.raises(ValueError):
            estimate_monitor(traj, "lemma")

    def test_operator_image_uses_trajectory_operator(self, family):
        # a kernel trajectory's B_phi monitor is the dual norm of B_eps phi,
        # not of the Laplacian image
        grid = Grid.line(40)
        pot = make_double_well()
        data = build_initial_data("smooth-default", grid, [0.2], family, pot)
        op = build_nonlocal_operator(family, 0.2, grid)
        traj = solve_trajectory(
            op, data, pot, SchemeConfig(dt=2e-3, T=0.1, snapshots=5)
        )
        mon = estimate_monitor(traj, "dual-derivative", potential=pot)
        expected = max(
            dual_norm(Field(grid, apply_B_eps(op, s.phi.data))) for s in traj.states
        )
        assert mon["B_phi_LinfVstar"] == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_beta_lq_pointwise_bound(self, family):
        # |beta|^q <= c_beta (1 + beta_hat) integrates to a computable cap
        grid = Grid.line(80)
        pot = make_double_well()
        data = build_initial_data("smooth-default", grid, [0.1], family, pot)
        op = build_nonlocal_operator(family, 0.1, grid)
        traj = solve_trajectory(
            op, data, pot, SchemeConfig(dt=2e-3, T=0.2, snapshots=10)
        )
        mon = estimate_monitor(traj, "dual-derivative", potential=pot)
        volume = grid.lengths[0]
        cap = max(
            (pot.c_beta * (volume + r.int_beta_hat)) ** (1.0 / pot.q)
            for r in traj.records
        )
        assert mon["beta_Lq_Linf"] <= cap * (1.0 + 1e-12)


class TestStudy:
    def test_small_study_monotone(self, small_study):
        assert small_study.violations == []
        for name in ("err_theta_C0H", "err_phi_C0H", "err_v_C0Vstar"):
            vals = small_study.columns[name]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_estimates_within_factor_two(self, small_study):
        est = small_study.estimates
        keys = next(iter(est.values())).keys()
        for k in keys:
            vals = [est[e][k] for e in small_study.eps_list]
            assert max(vals) / min(vals) <= 2.0

    def test_csv_shapes(self, small_study):
        text = report_csv(small_study)
        lines = text.strip().split("\n")
        assert lines[0].startswith("eps,err_theta_C0H")
        assert len(lines) == 1 + len(small_study.eps_list)
        etext = estimates_csv(small_study)
        assert etext.count("\n") == 1 + len(small_study.eps_list)

    def test_single_eps_note(self, family):
        sweep = SweepConfig(
            family=family,
            potential=make_double_well(),
            scheme=SchemeConfig(dt=4e-3, T=0.1, snapshots=5),
            eps_list=(0.2,),
        )
        rep = nonlocal_to_local_study(sweep)
        assert any("skipped" in n for n in rep.notes)
        assert rep.violations == []

    def test_constant_data_errors_at_solver_noise(self, family):
        from pfnl.physics import InitialDataRule

        rule = InitialDataRule(
            theta0=lambda *x: 0.4 + 0.0 * x[0],
            phi0=lambda *x: -0.2 + 0.0 * x[0],
            v0=lambda *x: 0.1 + 0.0 * x[0],
        )
        sweep = SweepConfig(
            family=family,
            potential=make_linear_potential(0.0),
            scheme=SchemeConfig(dt=1e-4, T=0.05, snapshots=5),
            eps_list=(0.2, 0.1),
            rule=rule,
        )
        rep = nonlocal_to_local_study(sweep)
        for name in ("err_theta_C0H", "err_phi_C0H"):
            assert max(rep.columns[name]) <= 1e-6

    def test_finest_eps_reference(self, family):
        sweep = SweepConfig(
            family=family,
            potential=make_double_well(),
            scheme=SchemeConfig(dt=2e-3, T=0.1, snapshots=5),
            eps_list=(0.2, 0.1, 0.05),
            reference="finest-eps",
        )
        rep = nonlocal_to_local_study(sweep)
        assert rep.eps_list == (0.2, 0.1)
        assert all(v > 0 for v in rep.columns["err_phi_C0H"])

    def test_eps_list_must_decrease(self, family):
        with pytest.raises(ValueError):
            SweepConfig(
                family=family,
                potential=make_double_well(),
                scheme=SchemeConfig(dt=1e-3, T=0.1),
                eps_list=(0.1, 0.2),
            )

    def test_one_operator_build_per_width(self, family, monkeypatch):
        # each width's operator serves both its a5 monitor and its solve;
        # the local reference has no width and builds none
        built = []
        real = analysis.build_nonlocal_operator

        def counting(family, eps, grid):
            built.append(eps)
            return real(family, eps, grid)

        monkeypatch.setattr(analysis, "build_nonlocal_operator", counting)
        monkeypatch.setattr(physics, "build_nonlocal_operator", counting)
        sweep = SweepConfig(
            family=family,
            potential=make_double_well(),
            scheme=SchemeConfig(dt=4e-3, T=0.02, snapshots=5),
            eps_list=(0.2, 0.1),
        )
        nonlocal_to_local_study(sweep)
        assert sorted(built) == [0.1, 0.2]

    def test_theta_error_stable_under_dt_halving(self, family):
        # the measured width gap dominates the time-stepping error
        errs = {}
        for dt in (2e-3, 1e-3):
            sweep = SweepConfig(
                family=family,
                potential=make_double_well(),
                scheme=SchemeConfig(dt=dt, T=0.2, snapshots=10),
                eps_list=(0.2, 0.1),
            )
            rep = nonlocal_to_local_study(sweep)
            errs[dt] = rep.columns["err_theta_C0H"][0]
        assert abs(errs[1e-3] - errs[2e-3]) <= 0.1 * errs[2e-3]


class TestCauchyDiagnostic:
    def run_eps(self, family, eps, rule=None, dt=2e-3, T=0.2):
        from pfnl.analysis import _solve

        pot = make_double_well()
        sweep = SweepConfig(
            family=family,
            potential=pot,
            scheme=SchemeConfig(dt=dt, T=T, snapshots=10),
            eps_list=(eps,),
            rule=rule,
        )
        grids = sweep_grids((eps,))
        op = build_nonlocal_operator(family, eps, grids[eps])
        return _solve(sweep, grids[eps], op)[1]

    def test_identical_pair_zero(self, family):
        traj = self.run_eps(family, 0.1)
        rows = cauchy_in_h_diagnostic(traj, traj)
        assert all(r["h_dist_sq"] == 0.0 for r in rows)

    def test_finer_pairs_closer(self, family):
        t1 = self.run_eps(family, 0.2)
        t2 = self.run_eps(family, 0.1)
        t3 = self.run_eps(family, 0.05)
        coarse_pair = max(r["h_dist_sq"] for r in cauchy_in_h_diagnostic(t1, t2))
        fine_pair = max(r["h_dist_sq"] for r in cauchy_in_h_diagnostic(t2, t3))
        assert fine_pair < coarse_pair
