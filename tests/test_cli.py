import json
import os
import subprocess
import sys

import pytest

import pfnl
from pfnl import cli, physics
from pfnl.config import default_config, parse_config_text
from pfnl.errors import ConfigError
from pfnl.fields import Grid, write_field, zeros
from pfnl.integrator import CSV_COLUMNS


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

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            cli.parse_config("/nonexistent/path.cfg")


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

    def test_nonlocal_run_builds_operator_once(self, tmp_path, monkeypatch):
        built = []
        real = cli.build_nonlocal_operator

        def counting(family, eps, grid):
            built.append(eps)
            return real(family, eps, grid)

        monkeypatch.setattr(cli, "build_nonlocal_operator", counting)
        monkeypatch.setattr(physics, "build_nonlocal_operator", counting)
        cfg = write_config(tmp_path, SMALL_SIM.format(out=tmp_path / "out"))
        assert cli.main(["simulate", "--config", cfg, "--eps", "0.25"]) == 0
        assert built == [0.25]

    def test_local_run(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SIM.format(out=tmp_path / "out"))
        assert cli.main(["simulate", "--config", cfg, "--local"]) == 0

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
        ["0,1,2", ",".join("abc" if c == "residual_a1" else "0" for c in CSV_COLUMNS)],
        ids=["short-row", "bad-number"],
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


def test_import_leaves_scipy_sparse_unloaded():
    # nothing in pfnl needs scipy.sparse; importing it would cost start-up
    # time and resident memory in every run
    src = os.path.dirname(os.path.dirname(os.path.abspath(pfnl.__file__)))
    code = "import sys, pfnl.cli; print('scipy.sparse' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.stdout.strip() == "False"
