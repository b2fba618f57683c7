import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from pfnl import analysis, operators
from pfnl.errors import AnalysisError, ResolutionError
from pfnl.fields import Field, Grid, dual_norm, field_from_function
from pfnl.integrator import SchemeConfig, solve_trajectory
from pfnl.kernels import build_kernel_family, make_profile
from pfnl.operators import apply_B_eps, build_nonlocal_operator, energy_local
from pfnl.physics import (
    InitialDataRule,
    build_initial_data,
    make_double_well,
    make_linear_potential,
)
from pfnl.analysis import (
    ProbeField,
    SweepConfig,
    bbm_ratio_suite,
    estimate_monitor,
    estimates_csv,
    frechet_identity_suite,
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
        grids=sweep_grids((0.2, 0.1, 0.05)),
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


    @pytest.mark.parametrize("lengths", [(2.0,), (2.0, 1.5)], ids=["1d", "2d"])
    def test_box_units(self, lengths):
        # each probe is the unit-box probe stretched over the box: its exact
        # energy matches the fine-grid quadrature, and it stays flat at x = L
        grid = Grid(lengths, (4096,) if len(lengths) == 1 else (512, 512))
        h = grid.spacing[0]
        for probe in probe_fields(len(lengths)):
            u = probe.on(grid)
            if probe.exact_energy is not None:
                exact = probe.exact_energy(grid.lengths)
                assert energy_local(u) == pytest.approx(exact, rel=1e-4), probe.name
            edge = np.abs(u.data[-1] - u.data[-2])
            assert np.max(edge) <= 100.0 * h * h * max(1.0, np.max(np.abs(u.data)))

    def test_gamma_suite_off_the_unit_box(self, family):
        rows, violations = gamma_convergence_suite(
            family, grids=sweep_grids((0.2, 0.1), length=2.0)
        )
        assert violations == []
        final = {r["field"]: r for r in rows if r["eps"] == 0.1}
        assert final["cos1"]["gap"] / final["cos1"]["energy_local"] <= 0.05
        assert final["cubic-ramp"]["energy_local"] == 0.3


class TestGammaSuite:
    def test_default_passes(self, family):
        rows, violations = gamma_convergence_suite(family)
        assert violations == []
        cos1 = [r for r in rows if r["field"] == "cos1"]
        assert cos1[-1]["gap"] / (math.pi**2 / 4.0) <= 0.05

    def test_2d_passes(self, family2d):
        # the 5% endpoint needs the sweep to reach a reasonably small width
        rows, violations = gamma_convergence_suite(
            family2d, grids=sweep_grids((0.2, 0.1, 0.05), dimension=2, max_n=160)
        )
        assert violations == []

    def test_flat_field_zero_energies(self, family):
        flat = (ProbeField("flat", lambda *x: np.ones_like(x[0])),)
        rows, violations = gamma_convergence_suite(family, fields=flat)
        assert violations == []
        assert all(r["energy_nonlocal"] <= 1e-12 for r in rows)

    def test_under_resolved_raises(self, family):
        with pytest.raises(ResolutionError):
            gamma_convergence_suite(family, grids=sweep_grids((0.2, 0.01), max_n=64))


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

    def test_2d_family_default_grids(self, family2d):
        # without grids the suite runs the default widths in the family's
        # own dimension
        rows, violations = bbm_ratio_suite(family2d, fields=probe_fields(2)[:1])
        assert violations == []
        assert [r["eps"] for r in rows] == list(analysis.DEFAULT_EPS_SWEEP)


class TestVerdicts:
    """Each probe verdict on hand-made rows, and the raise of a strict suite."""

    def test_energy_gap_must_fall_and_end_small(self):
        rows = [
            {"gap": 0.1, "energy_local": 1.0},
            {"gap": 0.05, "energy_local": 1.0},
            {"gap": 0.08, "energy_local": 1.0},
        ]
        assert analysis._energy_verdict("p", rows) == [
            "p: energy gap fails to decrease (0.05 -> 0.08)",
            "p: final relative gap 0.08 exceeds 5%",
        ]
        # a falling gap that ends at 5% of the limit passes
        assert analysis._energy_verdict("p", rows[:2]) == []

    def test_flat_field_energies_must_vanish(self):
        rows = [{"gap": 1e-13, "energy_local": 0.0}, {"gap": 2e-12, "energy_local": 1e-15}]
        assert analysis._energy_verdict("flat", rows) == [
            "flat: flat field should have zero energies"
        ]
        assert analysis._energy_verdict("flat", rows[:1]) == []

    def test_dual_gap_must_fall(self):
        rows = [{"dual_gap": g} for g in (0.4, 0.2, 0.3, 0.1)]
        assert analysis._operator_verdict("p", rows) == [
            "p: dual-norm gap fails to decrease (0.2 -> 0.3)"
        ]
        # an operator that vanishes on the probe has no gap to shrink
        flat = [{"dual_gap": g} for g in (1e-13, 5e-13)]
        assert analysis._operator_verdict("p", flat) == []

    def test_ratio_spread_at_most_two(self):
        rows = [{"ratio": r} for r in (1.0, 2.5, 1.5)]
        assert analysis._ratio_verdict("p", rows) == ["p: ratio spread 2.5 exceeds factor 2"]
        assert analysis._ratio_verdict("p", [{"ratio": r} for r in (1.0, 2.0)]) == []

    def test_strict_suite_raises_on_a_wrong_exact_energy(self, family):
        # twice cos1's Dirichlet energy: the kernel energies converge to
        # the true one, so the gap ends near 50% of the stated limit
        wrong = (
            ProbeField(
                "cos1-doubled",
                lambda *x: np.cos(np.pi * x[0]),
                lambda L: math.pi**2 / (2.0 * L[0]),
            ),
        )
        grids = sweep_grids((0.2, 0.1))
        with pytest.raises(AnalysisError) as err:
            gamma_convergence_suite(family, grids=grids, fields=wrong, strict=True)
        _, violations = gamma_convergence_suite(family, grids=grids, fields=wrong, strict=False)
        assert err.value.violations == violations
        assert any(v.startswith("cos1-doubled: final relative gap") for v in violations)
        assert str(err.value) == "; ".join(violations)


class TestFrechetSuite:
    def test_one_pairing_apply_per_trial(self, family, monkeypatch):
        result = frechet_identity_suite(family, n=16, trials=5)
        calls = []

        def counting(op, a):
            calls.append(a)
            return apply_B_eps(op, a)

        monkeypatch.setattr(operators, "apply_B_eps", counting)
        assert frechet_identity_suite(family, n=16, trials=5) == result
        # per trial: the pairing, then the two energies of the difference
        assert len(calls) == 3 * 5
        assert result["pass"]

    def test_setting_in_family_dimension(self, family2d):
        # the grid is the unit box in the family's dimension, and the
        # result names the setting it ran on
        result = frechet_identity_suite(family2d, n=16, trials=2)
        assert result["pass"]
        setting = {k: result[k] for k in ("eps", "n", "box_length", "trials")}
        assert setting == {"eps": 0.25, "n": 16, "box_length": 1.0, "trials": 2}


class TestEstimateMonitor:
    def test_zero_trajectory(self, family):
        grid = Grid.line(40)
        pot = make_linear_potential(0.0)
        zero = field_from_function(grid, lambda x: 0.0 * x)
        op = build_nonlocal_operator(family, 0.2, grid)
        data = build_initial_data(
            op, grid, pot, c1_bound=10.0,
            custom={"theta0": zero, "phi0": zero, "v0": zero},
        )
        traj = solve_trajectory(
            op, data, pot, SchemeConfig(dt=1e-2, T=0.1, snapshots=5)
        )
        mon = estimate_monitor(traj, pot)
        assert all(v == 0.0 for v in mon.values())

    def test_group_selection(self, family):
        grid = Grid.line(40)
        pot = make_double_well()
        op = build_nonlocal_operator(family, 0.2, grid)
        data = build_initial_data(op, grid, pot)
        traj = solve_trajectory(
            op, data, pot, SchemeConfig(dt=2e-3, T=0.1, snapshots=5)
        )
        mon = estimate_monitor(traj, pot)
        # every run reads all three groups: state and energy, temperature
        # regularity, dual bounds
        assert set(mon) == {
            "theta_LinfH", "grad_theta_L2H", "phi_LinfH", "v_LinfH", "v_L2H",
            "energy_Linf", "beta_hat_L1_Linf",
            "theta_t_L2H", "theta_LinfV", "lap_theta_L2H",
            "beta_Lq_Linf", "phi_tt_LinfVstar", "B_phi_LinfVstar",
        }
        assert all(math.isfinite(v) and v >= 0.0 for v in mon.values())

    def test_operator_image_uses_trajectory_operator(self, family):
        # a kernel trajectory's B_phi monitor is the dual norm of B_eps phi,
        # not of the Laplacian image
        grid = Grid.line(40)
        pot = make_double_well()
        op = build_nonlocal_operator(family, 0.2, grid)
        data = build_initial_data(op, grid, pot)
        traj = solve_trajectory(
            op, data, pot, SchemeConfig(dt=2e-3, T=0.1, snapshots=5)
        )
        mon = estimate_monitor(traj, pot)
        expected = max(
            dual_norm(Field(grid, apply_B_eps(op, s.phi.data))) for s in traj.states
        )
        assert mon["B_phi_LinfVstar"] == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_beta_lq_pointwise_bound(self, family):
        # |beta|^q <= c_beta (1 + beta_hat) integrates to a computable cap
        grid = Grid.line(80)
        pot = make_double_well()
        op = build_nonlocal_operator(family, 0.1, grid)
        data = build_initial_data(op, grid, pot)
        traj = solve_trajectory(
            op, data, pot, SchemeConfig(dt=2e-3, T=0.2, snapshots=10)
        )
        mon = estimate_monitor(traj, pot)
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
            grids=sweep_grids((0.2,)),
        )
        rep = nonlocal_to_local_study(sweep)
        assert any("skipped" in n for n in rep.notes)
        assert rep.violations == []

    def test_constant_data_errors_at_solver_noise(self, family):
        rule = InitialDataRule(
            theta0=lambda *x: 0.4 + 0.0 * x[0],
            phi0=lambda *x: -0.2 + 0.0 * x[0],
            v0=lambda *x: 0.1 + 0.0 * x[0],
        )
        sweep = SweepConfig(
            family=family,
            potential=make_linear_potential(0.0),
            scheme=SchemeConfig(dt=1e-4, T=0.05, snapshots=5),
            grids=sweep_grids((0.2, 0.1)),
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
            grids=sweep_grids((0.2, 0.1, 0.05)),
            reference="finest-eps",
        )
        rep = nonlocal_to_local_study(sweep)
        assert rep.eps_list == (0.2, 0.1)
        assert all(v > 0 for v in rep.columns["err_phi_C0H"])

    def test_one_operator_build_per_width(self, family, monkeypatch):
        # each width's operator serves both its a5 monitor and its solve;
        # the local reference has no width and builds none
        built = []
        real = analysis.build_nonlocal_operator

        def counting(family, eps, grid):
            built.append(eps)
            return real(family, eps, grid)

        monkeypatch.setattr(analysis, "build_nonlocal_operator", counting)
        sweep = SweepConfig(
            family=family,
            potential=make_double_well(),
            scheme=SchemeConfig(dt=4e-3, T=0.02, snapshots=5),
            grids=sweep_grids((0.2, 0.1)),
        )
        nonlocal_to_local_study(sweep)
        assert sorted(built) == [0.1, 0.2]

    def test_growing_monitor_noted(self, family):
        # the energy of jump data grows like 1/eps, so the a5 monitor of
        # the compared widths does too, and the sweep says so
        rule = InitialDataRule(
            theta0=lambda *x: 0.0 * x[0],
            phi0=lambda *x: np.where(x[0] < 0.5, 1.0, -1.0),
            v0=lambda *x: 0.0 * x[0],
        )
        sweep = SweepConfig(
            family=family,
            potential=make_double_well(),
            scheme=SchemeConfig(dt=2e-3, T=0.02, snapshots=5),
            grids=sweep_grids((0.2, 0.1, 0.05)),
            c1_bound=1e9,
            rule=rule,
        )
        rep = nonlocal_to_local_study(sweep)
        (note,) = [n for n in rep.notes if "grows" in n]
        assert note == (
            "monitor grows from 22.9514 (eps=0.2) to 88.0557 (eps=0.05): "
            "family looks unbounded"
        )

    def test_bounded_monitor_not_noted(self, small_study):
        assert not any("grows" in n for n in small_study.notes)

    def test_one_B_and_beta_per_snapshot(self, family, monkeypatch):
        # each run applies B and samples beta once per snapshot, and the
        # compared widths' estimates share them with the images
        calls = {"B": 0, "beta": 0}
        real_B = analysis.apply_B

        def counting_B(op, u):
            calls["B"] += 1
            return real_B(op, u)

        pot = make_double_well()
        real_beta = pot.beta

        def counting_beta(r):
            calls["beta"] += 1
            return real_beta(r)

        # the sweep's own potential samples only the snapshots; solve_trajectory
        # gets the original, so its per-step calls are not counted
        sweep_pot = dataclasses.replace(pot, beta=counting_beta)
        real_solve = analysis.solve_trajectory
        monkeypatch.setattr(analysis, "apply_B", counting_B)
        monkeypatch.setattr(
            analysis, "solve_trajectory",
            lambda op, data, potential, *a, **k: real_solve(op, data, pot, *a, **k),
        )
        sweep = SweepConfig(
            family=family,
            potential=sweep_pot,
            scheme=SchemeConfig(dt=4e-3, T=0.02, snapshots=5),
            grids=sweep_grids((0.2, 0.1)),
        )
        nonlocal_to_local_study(sweep)
        snapshots = 1 + 5  # the initial state and five snapshots per run
        assert calls == {"B": 3 * snapshots, "beta": 3 * snapshots}

    @pytest.mark.parametrize("reference", ["local-solve", "finest-eps"])
    def test_each_trajectory_released_before_the_next_solve(
        self, family, monkeypatch, reference
    ):
        # each run is reduced to its comparison-grid images as soon as its
        # solve returns, so no earlier trajectory outlives it
        refs, alive_at_start = [], []

        def tracking(*args, **kwargs):
            gc.collect()
            alive_at_start.append(sum(r() is not None for r in refs))
            traj = solve_trajectory(*args, **kwargs)
            refs.append(weakref.ref(traj))
            return traj

        monkeypatch.setattr(analysis, "solve_trajectory", tracking)
        sweep = SweepConfig(
            family=family,
            potential=make_double_well(),
            scheme=SchemeConfig(dt=4e-3, T=0.02, snapshots=5),
            grids=sweep_grids((0.2, 0.1)),
            reference=reference,
        )
        nonlocal_to_local_study(sweep)
        gc.collect()
        assert len(refs) == (3 if reference == "local-solve" else 2)
        assert alive_at_start == [0] * len(refs)
        assert all(r() is None for r in refs)

    def test_theta_error_stable_under_dt_halving(self, family):
        # the measured width gap dominates the time-stepping error
        errs = {}
        for dt in (2e-3, 1e-3):
            sweep = SweepConfig(
                family=family,
                potential=make_double_well(),
                scheme=SchemeConfig(dt=dt, T=0.2, snapshots=10),
                grids=sweep_grids((0.2, 0.1)),
            )
            rep = nonlocal_to_local_study(sweep)
            errs[dt] = rep.columns["err_theta_C0H"][0]
        assert abs(errs[1e-3] - errs[2e-3]) <= 0.1 * errs[2e-3]
