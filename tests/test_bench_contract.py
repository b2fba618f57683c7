"""The benchmark's traced child (``bench/child.py``) wraps ``pfnl``
functions by name and reads some of their positional arguments; these
tests run it on tiny simulations so that a rename or a signature change
in ``src/`` that would break the benchmark fails here first."""

import json
import os
import subprocess
import sys

import pytest

from pfnl.fields import MAX_DENSE_CELLS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "bench", "child.py")
STEPS = 5
# a 1D grid above MAX_DENSE_CELLS runs the phase CG; one at or below it
# solves on kept dense inverses and runs none
N_CG, N_DENSE = 320, 32

PROBLEMS = {
    "nonlocal": (["--eps", "0.2"], "integrator.step_nonlocal"),
    "local": (["--local"], "integrator.step_local"),
}


def traced_simulate(tmp_path, problem, n):
    """Spans of a traced ``simulate`` of ``STEPS`` steps on ``n`` cells."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"grid.n = {n}\ntime.dt = 0.01\ntime.T = {STEPS * 0.01!r}\n"
        f"output.dir = {tmp_path / 'out'}\n"
    )
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, CHILD, "trace", str(spans_path), "--", "simulate",
         "--config", str(cfg), *PROBLEMS[problem][0]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text())["spans"]
    check_snapshot_spans(spans, tmp_path / "out" / "snapshots")
    return spans


def check_snapshot_spans(spans, snapdir):
    """One ``fields.write_field`` span per snapshot file, valued at the
    file's size: ``fields.write_field_s`` and ``fields.bytes_written``."""
    sizes = sorted(os.path.getsize(snapdir / name) for name in os.listdir(snapdir))
    assert sizes
    assert sorted(s[4] for s in spans if s[0] == "fields.write_field") == sizes


def check_step_spans(spans, problem, n):
    step = PROBLEMS[problem][1]
    names = {s[0] for s in spans}
    # physics.build_initial_data's span is physics.initial_data_s
    expected = {step, "integrator._phi_update", "physics.build_initial_data"}
    if step == "integrator.step_nonlocal":
        expected.add("operators.apply_B_eps")
    assert expected <= names
    steps = [s for s in spans if s[0] == step]
    assert len(steps) == STEPS
    # the span values read solve_trajectory's args[1].grid and args[3].num_steps,
    # and _phi_update's Newton count at result[2]
    (traj,) = [s for s in spans if s[0] == "integrator.solve_trajectory"]
    assert traj[4] == n * STEPS
    newton = [s[4] for s in spans if s[0] == "integrator._phi_update"]
    assert len(newton) == STEPS
    assert all(isinstance(k, int) and k >= 1 for k in newton)
    return names


@pytest.mark.parametrize("problem", ["nonlocal", "local"])
def test_traced_simulate_spans(tmp_path, problem):
    assert N_CG > MAX_DENSE_CELLS
    spans = traced_simulate(tmp_path, problem, N_CG)
    assert "integrator.cg" in check_step_spans(spans, problem, N_CG)


@pytest.mark.parametrize("problem", ["nonlocal", "local"])
def test_traced_simulate_spans_dense(tmp_path, problem):
    assert N_DENSE <= MAX_DENSE_CELLS
    spans = traced_simulate(tmp_path, problem, N_DENSE)
    assert "integrator.cg" not in check_step_spans(spans, problem, N_DENSE)
