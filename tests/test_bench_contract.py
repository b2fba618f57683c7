"""The benchmark's traced child (``bench/child.py``) wraps ``pfnl``
functions by name and reads some of their positional arguments; these
tests run it on tiny simulations so that a rename or a signature change
in ``src/`` that would break the benchmark fails here first."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "bench", "child.py")
N, STEPS = 32, 5


@pytest.mark.parametrize(
    "problem, step",
    [(["--eps", "0.2"], "integrator.step_nonlocal"), (["--local"], "integrator.step_local")],
    ids=["nonlocal", "local"],
)
def test_traced_simulate_spans(tmp_path, problem, step):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"grid.n = {N}\ntime.dt = 0.01\ntime.T = {STEPS * 0.01!r}\n"
        f"output.dir = {tmp_path / 'out'}\n"
    )
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, CHILD, "trace", str(spans_path), "--", "simulate",
         "--config", str(cfg), *problem],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text())["spans"]
    names = {s[0] for s in spans}
    expected = {step, "integrator._phi_update", "integrator.cg"}
    if step == "integrator.step_nonlocal":
        expected.add("operators.apply_B_eps")
    assert expected <= names
    steps = [s for s in spans if s[0] == step]
    assert len(steps) == STEPS
    # the span values read solve_trajectory's args[1].grid and args[3].num_steps,
    # and _phi_update's Newton count at result[2]
    (traj,) = [s for s in spans if s[0] == "integrator.solve_trajectory"]
    assert traj[4] == N * STEPS
    assert all(
        isinstance(s[4], int) and s[4] >= 1
        for s in spans if s[0] == "integrator._phi_update"
    )
