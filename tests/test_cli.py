import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import pfnl
from pfnl import analysis, cli, integrator
from pfnl.analysis import sweep_grids
from pfnl.config import SCHEMA, default_config, parse_config_text
from pfnl.errors import ConfigError
from pfnl.fields import Field, Grid, write_field, zeros
from pfnl.integrator import CSV_COLUMNS
from pfnl.kernels import tabulate_kernel


def _must_not_run(*args, **kwargs):
    raise AssertionError("the command started work before checking output.dir")


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_defaults_fill(self):
        cfg = default_config()
        assert cfg.kernel_profile == "polynomial-bump"
        assert cfg.sweep_eps == (0.2, 0.1, 0.05, 0.025)
        assert cfg.time_dt == 1e-3
        assert cfg.output_dir == "out"

    def test_values_parsed(self):
        cfg = parse_config_text(
            "kernel.alpha = 0.0\n"
            "grid.n = 64\n"
            "time.T = 0.25   # final time\n"
            "sweep.eps = 0.3, 0.15\n"
        )
        assert cfg.grid_n == 64
        assert cfg.time_T == 0.25
        assert cfg.sweep_eps == (0.3, 0.15)

    def test_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("grid.m = 10\n")
        assert "unknown key" in str(err.value)
        assert ":1:" in str(err.value)

    def test_duplicate_key_cites_both_lines(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("grid.n = 10\n\ngrid.n = 20\n")
        msg = str(err.value)
        assert "duplicate" in msg and "line 1" in msg and ":3:" in msg

    def test_alpha_range_names_bound(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("kernel.alpha = 2.5\ngrid.dimension = 2\n")
        msg = str(err.value)
        assert "[0, d-1]" in msg and "2.5" in msg

    def test_type_mismatch(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("grid.n = lots\n")
        assert "cannot parse" in str(err.value)

    def test_range_violation(self):
        with pytest.raises(ConfigError):
            parse_config_text("grid.n = 2\n")
        with pytest.raises(ConfigError):
            parse_config_text("solver.newton_tol = 0.5\n")

    def test_custom_initial_needs_files(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("initial.kind = custom\n")
        assert "initial.theta_file" in str(err.value)

    def test_eps_must_decrease(self):
        with pytest.raises(ConfigError):
            parse_config_text("sweep.eps = 0.1, 0.2\n")

    def test_resolution_rule_matches_the_runs(self):
        # 0.333333333333 is 4h at max_n = 12 to twelve digits: the sweep
        # grids and the kernel tabulation accept it, and so does the parser
        cfg = parse_config_text("sweep.eps = 0.333333333333\nsweep.max_n = 12\n")
        grid = sweep_grids(cfg.sweep_eps, max_n=cfg.sweep_max_n)[cfg.sweep_eps[0]]
        assert grid.n == (12,)
        tabulate_kernel(cfg.make_family(), cfg.sweep_eps[0], grid)
        with pytest.raises(ConfigError, match="under-resolved even at sweep.max_n"):
            parse_config_text("sweep.eps = 0.33\nsweep.max_n = 12\n")

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            cli.parse_config("/nonexistent/path.cfg")

    def test_readme_lists_every_key(self):
        # the README's key block documents exactly the keys the parser takes:
        # each dotted name, and each bare name that opens a line
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            block = fh.read().split("### Config keys", 1)[1].split("```")[1]
        documented = set(re.findall(r"\b[a-z]+\.\w+", block))
        documented |= set(re.findall(r"^([a-z_]+) \(", block, re.M))
        assert documented == set(SCHEMA)


class TestVerifyKernel:
    def test_runs_clean(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, f"output.dir = {tmp_path}/out\n"
        )
        code = cli.main(["verify-kernel", "--config", cfg])
        assert code == 0
        out = capsys.readouterr().out
        header, row = out.strip().split("\n")
        assert header == "c_d,normalization,moment_residual"
        c_d, normalization, residual = (float(x) for x in row.split(","))
        assert c_d == pytest.approx(1.0)
        assert normalization == pytest.approx(105.0 / 8.0, rel=1e-12)
        assert residual <= 1e-10
        assert (tmp_path / "out" / "kernel.csv").exists()
        assert (tmp_path / "out" / "manifest.json").exists()


SMALL_SIM = """
grid.n = 64
time.T = 0.02
time.dt = 2e-3
time.snapshots = 4
output.dir = {out}
"""


class TestSimulate:
    def test_nonlocal_run(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SIM.format(out=tmp_path / "out"))
        code = cli.main(["simulate", "--config", cfg, "--eps", "0.25"])
        assert code == 0
        outdir = tmp_path / "out"
        energy = (outdir / "energy.csv").read_text().strip().split("\n")
        assert energy[0].split(",")[-1] == "residual_a1"
        assert len(energy) == 1 + 1 + 10  # header + initial + steps
        snaps = sorted(os.listdir(outdir / "snapshots"))
        assert "phi_0000.csv" in snaps and "theta_0000.csv" in snaps
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert "config_sha256" in manifest

    def test_manifest_reports_mass_residual(self, tmp_path):
        # h^d sum(theta + phi) changes by exactly the source's mass each step
        cfg = write_config(
            tmp_path,
            SMALL_SIM.format(out=tmp_path / "out") + "source.kind = cosine-decay\n",
        )
        assert cli.main(["simulate", "--config", cfg, "--eps", "0.25"]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert 0.0 <= manifest["max_mass_residual"] <= 1e-9
        assert "max_energy_residual" in manifest

    def test_nonlocal_run_builds_operator_once(self, tmp_path, monkeypatch):
        built = []
        real = cli.build_nonlocal_operator

        def counting(family, eps, grid):
            built.append(eps)
            return real(family, eps, grid)

        monkeypatch.setattr(cli, "build_nonlocal_operator", counting)
        cfg = write_config(tmp_path, SMALL_SIM.format(out=tmp_path / "out"))
        assert cli.main(["simulate", "--config", cfg, "--eps", "0.25"]) == 0
        assert built == [0.25]

    def test_local_run(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SIM.format(out=tmp_path / "out"))
        assert cli.main(["simulate", "--config", cfg, "--local"]) == 0

    @staticmethod
    def _count_builds(monkeypatch):
        built = []
        real = cli.build_nonlocal_operator

        def counting(family, eps, grid):
            built.append(eps)
            return real(family, eps, grid)

        monkeypatch.setattr(cli, "build_nonlocal_operator", counting)
        return built

    def test_local_run_on_default_data_builds_no_operator(self, tmp_path, monkeypatch):
        built = self._count_builds(monkeypatch)
        cfg = write_config(tmp_path, SMALL_SIM.format(out=tmp_path / "out"))
        assert cli.main(["simulate", "--config", cfg, "--local"]) == 0
        assert built == []

    @pytest.mark.parametrize("c1, code", [(1e3, 0), (1e-3, 2)], ids=["within", "over"])
    def test_local_run_on_custom_data_checks_c1_bound(
        self, tmp_path, capsys, monkeypatch, c1, code
    ):
        grid = Grid.line(64)
        paths = {}
        for name in ("theta", "phi", "v"):
            paths[name] = tmp_path / f"{name}0.csv"
            write_field(Field(grid, np.full(grid.shape, 0.5)), paths[name])
        cfg = write_config(
            tmp_path,
            SMALL_SIM.format(out=tmp_path / "out")
            + f"initial.kind = custom\ninitial.c1 = {c1}\n"
            + "".join(f"initial.{k}_file = {p}\n" for k, p in paths.items()),
        )
        built = self._count_builds(monkeypatch)
        assert cli.main(["simulate", "--config", cfg, "--local"]) == code
        assert built == []
        err = capsys.readouterr().err
        if code:
            assert "uniform bound violated" in err and "Traceback" not in err
            assert not (tmp_path / "out" / "energy.csv").exists()

    def test_local_run_on_custom_data_needs_no_kernel_width(self, tmp_path):
        # the monitor of a local run uses -lap_N, so a grid too coarse for
        # any kernel width (4h = 2 > 1) still runs
        grid = Grid.line(4, length=2.0)
        paths = {}
        for name in ("theta", "phi", "v"):
            paths[name] = tmp_path / f"{name}0.csv"
            write_field(Field(grid, np.full(grid.shape, 0.5)), paths[name])
        cfg = write_config(
            tmp_path,
            SMALL_SIM.format(out=tmp_path / "out").replace("grid.n = 64", "grid.n = 4")
            + "grid.length = 2\ninitial.kind = custom\ninitial.c1 = 1e3\n"
            + "".join(f"initial.{k}_file = {p}\n" for k, p in paths.items()),
        )
        assert cli.main(["simulate", "--config", cfg, "--local"]) == 0
        assert (tmp_path / "out" / "energy.csv").exists()

    def test_under_resolved_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_SIM.format(out=tmp_path / "out"))
        code = cli.main(["simulate", "--config", cfg, "--eps", "0.01"])
        assert code == 2
        assert "eps >= 4h" in capsys.readouterr().err

    def test_needs_problem_choice(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_SIM.format(out=tmp_path / "out"))
        assert cli.main(["simulate", "--config", cfg]) == 2

    def test_overflowing_newton_exits_1(self, tmp_path, capsys):
        # pi(phi) ~ 1e300 overflows the Newton norms on the first step; the
        # run must fail, not march on with the unsolved predictor
        cfg = write_config(
            tmp_path,
            "grid.n = 64\n"
            "time.dt = 0.1\n"
            "potential.kind = custom-polynomial\n"
            "potential.pi_slope = -1e300\n"
            f"output.dir = {tmp_path / 'out'}\n",
        )
        code = cli.main(["simulate", "--config", cfg, "--eps", "0.1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "step 1" in err and "overflowed" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "energy.csv").exists()

    def test_non_finite_state_exits_1(self, tmp_path, capsys, monkeypatch):
        # a temperature solve that returns NaN at step 5 of 10, inside the
        # first block of records, fails the run with exit 1 and no traceback
        theta_update = integrator._theta_update
        calls = [0]

        def nan_at_step_5(*args):
            theta, lap = theta_update(*args)
            calls[0] += 1
            return (np.full_like(theta, np.nan) if calls[0] == 5 else theta), lap

        monkeypatch.setattr(integrator, "_theta_update", nan_at_step_5)
        cfg = write_config(tmp_path, SMALL_SIM.format(out=tmp_path / "out"))
        assert cli.main(["simulate", "--config", cfg, "--eps", "0.25"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("run failed: step 5 (t=0.01): ")
        assert "not finite" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "energy.csv").exists()

    @pytest.mark.parametrize(
        "problem", [["--eps", "0.1"], ["--local"]], ids=["nonlocal", "local"]
    )
    def test_overflowing_beta_exits_1(self, tmp_path, capsys, problem):
        # pi(phi) ~ 1e150 keeps |b| finite, but beta = phi^3 of the first
        # Newton trial overflows; the no-improvement guard, not NumPy's
        # RuntimeWarning, reports the failure
        cfg = write_config(
            tmp_path,
            "grid.n = 64\n"
            "time.dt = 0.1\n"
            "potential.kind = custom-polynomial\n"
            "potential.pi_slope = -1e150\n"
            f"output.dir = {tmp_path / 'out'}\n",
        )
        assert cli.main(["simulate", "--config", cfg, *problem]) == 1
        err = capsys.readouterr().err
        assert "cannot improve" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err

    @pytest.mark.parametrize(
        "command", [["simulate", "--eps", "0.2"], ["converge"]], ids=["simulate", "converge"]
    )
    def test_growth_violation_exits_2(self, tmp_path, capsys, command):
        # c_beta = 0.001 breaks |beta|^q <= c_beta (1 + beta_hat) for the
        # double well, so the run must not start
        cfg = write_config(
            tmp_path,
            SMALL_SIM.format(out=tmp_path / "out") + "potential.c_beta = 0.001\n",
        )
        assert cli.main([command[0], "--config", cfg, *command[1:]]) == 2
        err = capsys.readouterr().err
        assert "growth" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "line", ["potential.pi_slope = -1e300", "potential.power = 5"]
    )
    def test_double_well_rejects_custom_polynomial_keys(self, tmp_path, capsys, line):
        # the double well has no use for these keys; ignoring them would run
        # a different model from the one the file describes
        cfg = write_config(
            tmp_path,
            f"grid.n = 64\ntime.dt = 0.1\n{line}\noutput.dir = {tmp_path / 'out'}\n",
        )
        code = cli.main(["simulate", "--config", cfg, "--eps", "0.1"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{cfg}:3: {line.split(' =')[0]} applies only to" in err
        assert "custom-polynomial" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "energy.csv").exists()

    def test_no_partial_output_on_failure(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SMALL_SIM.format(out=out))
        code = cli.main(["simulate", "--config", cfg, "--eps", "0.01"])
        assert code == 2
        assert not (out / "energy.csv").exists()

    def test_energy_report_roundtrip(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_SIM.format(out=tmp_path / "out"))
        assert cli.main(["simulate", "--config", cfg, "--eps", "0.25"]) == 0
        capsys.readouterr()
        code = cli.main(
            ["energy-report", "--config", cfg, "--run", str(tmp_path / "out")]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["steps"] == 10
        assert summary["max_residual"] >= 0.0
        assert (tmp_path / "out" / "energy_report.json").exists()

    @pytest.mark.parametrize("steps", [0, 2])
    def test_energy_report_mean_is_over_steps(self, tmp_path, capsys, steps):
        # the t = 0 record's residual is 0 and balances no step, so it is
        # left out of the mean; a run without steps reports 0.0
        text = SMALL_SIM.replace("time.T = 0.02", f"time.T = {steps * 2e-3!r}")
        cfg = write_config(tmp_path, text.format(out=tmp_path / "out"))
        assert cli.main(["simulate", "--config", cfg, "--eps", "0.25"]) == 0
        capsys.readouterr()
        lines = (tmp_path / "out" / "energy.csv").read_text().split()
        column = lines[0].split(",").index("residual_a1")
        residuals = [float(line.split(",")[column]) for line in lines[2:]]
        assert len(residuals) == steps
        assert cli.main(
            ["energy-report", "--config", cfg, "--run", str(tmp_path / "out")]
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["steps"] == steps
        expected = sum(residuals) / steps if steps else 0.0
        assert summary["mean_residual"] == expected
        if steps:
            assert expected > 0.0

    def test_energy_report_without_records_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_SIM.format(out=tmp_path / "out"))
        run = tmp_path / "run"
        run.mkdir()
        (run / "energy.csv").write_text(",".join(CSV_COLUMNS) + "\n")
        code = cli.main(["energy-report", "--config", cfg, "--run", str(run)])
        assert code == 2
        assert "holds no energy records" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row",
        [
            "0,1,2",
            ",".join("abc" if c == "residual_a1" else "0" for c in CSV_COLUMNS),
            ",".join("nan" if c == "residual_a1" else "0" for c in CSV_COLUMNS),
            ",".join("inf" if c == "energy_phi" else "0" for c in CSV_COLUMNS),
        ],
        ids=["short-row", "bad-number", "nan-residual", "inf-energy"],
    )
    def test_energy_report_malformed_row_exits_2(self, tmp_path, capsys, row):
        cfg = write_config(tmp_path, SMALL_SIM.format(out=tmp_path / "out"))
        good = ",".join(["0"] * len(CSV_COLUMNS))
        run = tmp_path / "run"
        run.mkdir()
        (run / "energy.csv").write_text(
            ",".join(CSV_COLUMNS) + "\n" + good + "\n" + row + "\n"
        )
        code = cli.main(["energy-report", "--config", cfg, "--run", str(run)])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "energy.csv" in err and "line 3" in err

    def test_unusable_output_dir_exits_2(self, tmp_path, capsys, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = write_config(tmp_path, SMALL_SIM.format(out=blocker / "out"))
        monkeypatch.setattr(cli, "solve_trajectory", _must_not_run)
        code = cli.main(["simulate", "--config", cfg, "--eps", "0.25"])
        assert code == 2
        assert str(blocker / "out") in capsys.readouterr().err

    def test_unusable_snapshot_dir_exits_2(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        (out / "snapshots").write_text("")
        cfg = write_config(tmp_path, SMALL_SIM.format(out=out))
        monkeypatch.setattr(cli, "solve_trajectory", _must_not_run)
        code = cli.main(["simulate", "--config", cfg, "--local"])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "configuration error" in err and str(out / "snapshots") in err

    def test_unwritable_snapshot_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "snapshots" / "phi_0000.csv").mkdir(parents=True)
        cfg = write_config(tmp_path, SMALL_SIM.format(out=out))
        code = cli.main(["simulate", "--config", cfg, "--local"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("run failed:") and "phi_0000.csv" in err
        assert os.listdir(out / "snapshots") == ["phi_0000.csv"]

    def test_failed_write_removes_this_runs_files(self, tmp_path, capsys):
        # energy.csv and phi_0000.csv are written before the write of
        # theta_0000.csv fails on the directory in its place
        out = tmp_path / "out"
        (out / "snapshots" / "theta_0000.csv").mkdir(parents=True)
        (out / "notes.txt").write_text("kept\n")
        cfg = write_config(tmp_path, SMALL_SIM.format(out=out))
        code = cli.main(["simulate", "--config", cfg, "--local"])
        assert code == 1
        assert capsys.readouterr().err.startswith("run failed:")
        assert sorted(os.listdir(out)) == ["notes.txt", "snapshots"]
        assert (out / "notes.txt").read_text() == "kept\n"
        assert os.listdir(out / "snapshots") == ["theta_0000.csv"]

    def test_truncated_custom_initial_exits_2(self, tmp_path, capsys):
        grid = Grid.line(64)
        paths = {}
        for name in ("theta", "phi", "v"):
            paths[name] = tmp_path / f"{name}0.csv"
            write_field(zeros(grid), paths[name])
        rows = paths["phi"].read_text().splitlines()
        paths["phi"].write_text("\n".join(rows[:40]) + "\n")
        cfg = write_config(
            tmp_path,
            SMALL_SIM.format(out=tmp_path / "out")
            + "initial.kind = custom\n"
            + "".join(f"initial.{k}_file = {p}\n" for k, p in paths.items()),
        )
        code = cli.main(["simulate", "--config", cfg, "--local"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(paths["phi"]) in err and "cell (40,) missing" in err


SMALL_SWEEP = """
time.T = 0.2
time.dt = 2e-3
time.snapshots = 5
sweep.eps = 0.2, 0.1, 0.05
output.dir = {out}
"""

SMALL_SWEEP_2D = """
grid.dimension = 2
sweep.eps = 0.2, 0.1, 0.05
sweep.max_n = 160
time.T = 0.05
time.snapshots = 5
output.dir = {out}
"""


class TestConverge:
    def test_small_sweep(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SWEEP.format(out=tmp_path / "out"))
        code = cli.main(["converge", "--config", cfg])
        assert code == 0
        report = (tmp_path / "out" / "report.csv").read_text().strip().split("\n")
        assert report[0].startswith("eps,err_theta_C0H")
        assert len(report) == 4  # header + one row per width
        estimates = (tmp_path / "out" / "estimates.csv").read_text()
        assert estimates.startswith("eps,")

    def test_unusable_output_dir_exits_2(self, tmp_path, capsys, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = write_config(tmp_path, SMALL_SWEEP.format(out=blocker / "out"))
        monkeypatch.setattr(cli, "nonlocal_to_local_study", _must_not_run)
        assert cli.main(["converge", "--config", cfg]) == 2
        assert str(blocker / "out") in capsys.readouterr().err

    def test_custom_initial_data_exits_2(self, tmp_path, capsys, monkeypatch):
        # every sweep run starts from the closed-form default data on its
        # own grid, so custom data files would be silently ignored
        paths = {}
        for name in ("theta", "phi", "v"):
            paths[name] = tmp_path / f"{name}0.csv"
            write_field(Field(Grid.line(40), np.full(40, 0.5)), paths[name])
        cfg = write_config(
            tmp_path,
            SMALL_SWEEP.format(out=tmp_path / "out")
            + "initial.kind = custom\n"
            + "".join(f"initial.{k}_file = {p}\n" for k, p in paths.items()),
        )
        monkeypatch.setattr(cli, "nonlocal_to_local_study", _must_not_run)
        assert cli.main(["converge", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "initial.kind = custom" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_deterministic_reports(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_a = write_config(tmp_path, SMALL_SWEEP.format(out=out_a), "a.cfg")
        cfg_b = write_config(tmp_path, SMALL_SWEEP.format(out=out_b), "b.cfg")
        assert cli.main(["converge", "--config", cfg_a]) == 0
        assert cli.main(["converge", "--config", cfg_b]) == 0
        assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
        assert (
            out_a / "estimates.csv"
        ).read_bytes() == (out_b / "estimates.csv").read_bytes()

    def test_zero_time_exits_2(self, tmp_path, capsys, monkeypatch):
        # a sweep of 0-step runs leaves no errors to compare
        cfg = write_config(tmp_path, f"time.T = 0\noutput.dir = {tmp_path / 'out'}\n")
        monkeypatch.setattr(cli, "nonlocal_to_local_study", _must_not_run)
        assert cli.main(["converge", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "time.T" in err
        assert not (tmp_path / "out").exists()

    def test_single_width_finest_eps_exits_2(self, tmp_path, capsys, monkeypatch):
        # a finest-eps sweep compares every width but its finest, so a
        # single width leaves nothing to compare
        cfg = write_config(
            tmp_path,
            "sweep.reference = finest-eps\nsweep.eps = 0.2\ntime.T = 0.01\n"
            f"output.dir = {tmp_path / 'out'}\n",
        )
        monkeypatch.setattr(cli, "nonlocal_to_local_study", _must_not_run)
        assert cli.main(["converge", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "finest-eps" in err
        assert not (tmp_path / "out").exists()

    def test_two_width_finest_eps_runs(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "sweep.reference = finest-eps\nsweep.eps = 0.2, 0.1\ntime.T = 0.01\n"
            f"output.dir = {tmp_path / 'out'}\n",
        )
        assert cli.main(["converge", "--config", cfg]) == 0
        report = (tmp_path / "out" / "report.csv").read_text().strip().split("\n")
        assert len(report) == 2  # header + the coarser width

    def test_2d_sweep(self, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            text = SMALL_SWEEP_2D.format(out=out)
            cfg = write_config(tmp_path, text, f"{out.name}.cfg")
            assert cli.main(["converge", "--config", cfg]) == 0
        lines = (outs[0] / "report.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
        assert len(rows) == 3
        for name in ("err_phi_C0H", "err_theta_C0H"):
            assert rows[0][name] > rows[1][name] > rows[2][name]
        for name in ("report.csv", "estimates.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("command", ["converge", "verify-lemmas"])
@pytest.mark.parametrize(
    "sweep",
    [
        # the coarsest grid, ceil(8 L / eps) cells, would have 1 cell
        "grid.length = 0.1\nsweep.eps = 1.0, 0.5\n",
        # parses at h = L / max_n, but the sweep caps its grids at
        # (max_n // n0) n0 = 80 cells, too coarse for eps = 0.04
        "sweep.eps = 0.2, 0.04\nsweep.max_n = 100\n",
    ],
    ids=["short-box", "capped-grid"],
)
def test_unusable_sweep_exits_2_without_output_dir(tmp_path, capsys, command, sweep):
    cfg = write_config(tmp_path, sweep + f"output.dir = {tmp_path / 'out'}\n")
    assert cli.main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, text",
    [("converge", SMALL_SWEEP),
     ("verify-lemmas", "sweep.eps = 0.2, 0.1\noutput.dir = {out}\n")],
    ids=["converge", "verify-lemmas"],
)
def test_sweep_grids_picked_once(tmp_path, monkeypatch, command, text):
    # the command picks its sweep grids once and passes them down
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return sweep_grids(*args, **kwargs)

    monkeypatch.setattr(cli, "sweep_grids", counting)
    monkeypatch.setattr(analysis, "sweep_grids", counting)
    cfg = write_config(tmp_path, text.format(out=tmp_path / "out"))
    assert cli.main([command, "--config", cfg]) == 0
    assert len(calls) == 1


class TestVerifyLemmas:
    def test_all_suites_pass(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            f"sweep.eps = 0.2, 0.1, 0.05\noutput.dir = {tmp_path}/out\n",
        )
        code = cli.main(["verify-lemmas", "--config", cfg])
        assert code == 0
        results = json.loads((tmp_path / "out" / "lemmas.json").read_text())
        for name in (
            "gamma_convergence",
            "operator_convergence",
            "bbm_ratio",
            "frechet_identity",
        ):
            assert results[name]["pass"], name

    def test_frechet_setting_named(self, tmp_path):
        # the Frechet suite runs on its own unit box and width, whatever
        # grid.length and sweep.eps say, and lemmas.json names that setting
        cfg = write_config(
            tmp_path,
            f"grid.length = 2.0\nsweep.eps = 0.4\noutput.dir = {tmp_path}/out\n",
        )
        # the probe suites' verdicts on this box do not matter here
        cli.main(["verify-lemmas", "--config", cfg])
        results = json.loads((tmp_path / "out" / "lemmas.json").read_text())
        frechet = results["frechet_identity"]
        setting = {k: frechet[k] for k in ("eps", "n", "box_length", "trials")}
        assert setting == {"eps": 0.25, "n": 32, "box_length": 1.0, "trials": 50}


class TestOutputWrites:
    """Every command writes its files and ``manifest.json`` through one
    writer: a failed write removes what the command wrote and exits 1,
    while a verdict failure exits 1 and keeps its outputs."""

    CONFIGS = {
        "converge": "time.T = 0.02\ntime.dt = 2e-3\nsweep.eps = 0.2, 0.1\n",
        "verify-kernel": "",
        "verify-lemmas": "sweep.eps = 0.2, 0.1\n",
        "energy-report": "",
    }

    @pytest.mark.parametrize(
        "command, blocked",
        [("converge", "estimates.csv"), ("verify-kernel", "manifest.json"),
         ("verify-lemmas", "manifest.json"), ("energy-report", "manifest.json")],
    )
    def test_failed_write_removes_the_commands_files(
        self, tmp_path, capsys, command, blocked
    ):
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        (out / "notes.txt").write_text("kept\n")
        cfg = write_config(tmp_path, self.CONFIGS[command] + f"output.dir = {out}\n")
        argv = [command, "--config", cfg]
        if command == "energy-report":
            run = tmp_path / "run"
            run.mkdir()
            row = ",".join(["0"] * len(CSV_COLUMNS))
            (run / "energy.csv").write_text(",".join(CSV_COLUMNS) + f"\n{row}\n{row}\n")
            argv += ["--run", str(run)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("run failed:") and blocked in err
        assert "Traceback" not in err
        assert sorted(os.listdir(out)) == sorted([blocked, "notes.txt"])
        assert (out / "notes.txt").read_text() == "kept\n"

    def test_verdict_failure_keeps_outputs(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, f"output.dir = {out}\n")
        monkeypatch.setattr(cli, "moment_check", lambda family: 1.0)
        assert cli.main(["verify-kernel", "--config", cfg]) == 1
        assert sorted(os.listdir(out)) == ["kernel.csv", "manifest.json"]

    def test_rerun_with_failed_write_leaves_no_manifest(self, tmp_path, capsys):
        # a rerun into an earlier run's output.dir removes its manifest
        # first, so a manifest never names files that a failed rerun removed
        out = tmp_path / "out"
        cfg = write_config(tmp_path, self.CONFIGS["converge"] + f"output.dir = {out}\n")
        cli.main(["converge", "--config", cfg])  # a verdict keeps the outputs
        assert (out / "manifest.json").is_file()
        (out / "estimates.csv").unlink()
        (out / "estimates.csv").mkdir()
        assert cli.main(["converge", "--config", cfg]) == 1
        assert "run failed:" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


def _python_output(code, **env):
    """Standard output of ``python -c code`` run against this source tree,
    with ``env`` added to the environment."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pfnl.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src, **env),
    )
    return out.stdout.strip()


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS splits a ddot of more than 10000 entries across its threads;
    # every pairing goes through fields.dot, whose order of summation is
    # fixed, so a 2D simulate on 128^2 cells and a 2D sweep whose finest
    # grid has 160^2 cells write the same bytes under one BLAS thread and
    # two; so does a 1D simulate on 160 cells, whose phase solves are
    # products with a kept dense inverse
    steps = "time.dt = 0.01\ntime.T = 0.05\n"
    written = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        sim = write_config(
            tmp_path,
            f"grid.dimension = 2\ngrid.n = 128\n{steps}output.dir = {out / 'sim'}\n",
            f"sim{threads}.cfg",
        )
        sim_1d = write_config(
            tmp_path,
            f"grid.n = 160\ntime.T = 0.05\ntime.snapshots = 2\noutput.dir = {out / 'sim1d'}\n",
            f"sim1d{threads}.cfg",
        )
        sweep = write_config(
            tmp_path,
            "grid.dimension = 2\nsweep.eps = 0.2, 0.1, 0.05\nsweep.max_n = 160\n"
            f"{steps}output.dir = {out / 'sweep'}\n",
            f"sweep{threads}.cfg",
        )
        commands = [
            ["simulate", "--config", sim, "--eps", "0.25"],
            ["converge", "--config", sweep],
            ["simulate", "--config", sim_1d, "--eps", "0.1"],
        ]
        code = (
            "from pfnl import cli\n"
            f"print([cli.main(argv) for argv in {commands!r}])\n"
        )
        assert _python_output(code, OPENBLAS_NUM_THREADS=threads) == "[0, 0, 0]"
        # manifest.json holds the wall time and the config's hash
        written[threads] = {
            path.relative_to(out): path.read_bytes()
            for path in sorted(out.rglob("*"))
            if path.is_file() and path.name != "manifest.json"
        }
    # each simulate's energy.csv and snapshots (12 in 2D, 6 in 1D), and the sweep's 2
    assert len(written["1"]) == 22
    assert written["1"].keys() == written["2"].keys()
    for name, data in written["1"].items():
        assert data == written["2"][name], f"{name} depends on the BLAS thread count"


def test_no_command_imports_scipy(tmp_path):
    # scipy serves only the tests' oracles; every CLI command, in 1D and
    # 2D, runs without importing it, so neither scipy.sparse nor scipy.fft
    # (whose import lengthens start-up) is loaded: the Neumann solves and
    # the convolutions run on numpy's FFT
    sim = write_config(tmp_path, SMALL_SIM.format(out=tmp_path / "sim"), "sim.cfg")
    sim_2d = write_config(
        tmp_path,
        "grid.dimension = 2\ngrid.n = 16\n"
        + SMALL_SIM.replace("grid.n = 64\n", "").format(out=tmp_path / "sim2d"),
        "sim2d.cfg",
    )
    sweep = write_config(
        tmp_path,
        SMALL_SWEEP.replace("time.T = 0.2", "time.T = 0.02").format(
            out=tmp_path / "sweep"
        ),
        "sweep.cfg",
    )
    commands = [
        ["simulate", "--config", sim, "--eps", "0.2"],
        ["energy-report", "--config", sim, "--run", str(tmp_path / "sim")],
        ["converge", "--config", sweep],
        ["verify-kernel", "--config", sweep],
        ["verify-lemmas", "--config", sweep],
        ["simulate", "--config", sim_2d, "--eps", "0.25"],
        ["verify-lemmas", "--config", sim_2d],
    ]
    code = (
        "import sys\n"
        "from pfnl import cli\n"
        f"for argv in {commands!r}:\n"
        "    code = cli.main(argv)\n"
        "    print('probe', argv[0], code, 'scipy' in sys.modules)\n"
    )
    probes = [
        line for line in _python_output(code).splitlines() if line.startswith("probe")
    ]
    assert probes == [f"probe {argv[0]} 0 False" for argv in commands]
