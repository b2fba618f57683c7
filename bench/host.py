"""Speed of the host, from a fixed calibration workload.

The shared host the benchmark runs on is not equally fast all the time.
Each vCPU is either fast or about twice as slow, switching every few
seconds, and the share of slow time ranges from none to most of it over
tens of minutes, as the host's load changes.  The slowdown shows in CPU
time as much as in wall time.  An operation of a few seconds averages over
the switches, so its time follows its CPU's share of slow time, and so
would the medians of two sets of runs taken at different loads.

``Sampler`` runs this module as a separate process for the whole of a
run, pinned to the CPU that ``run.py`` pins every operation to.  It times
a fixed unit of work again and again, in CPU time so that the time the
operation holds the CPU does not count, and rests nineteen times as long
as each unit took.  So it takes a twentieth of the CPU and samples it a few
times a second.  The mean time of the units that ran during an operation
follows that operation's share of slow time.  ``run.py`` scales the
operation's timings by ``mean / NOMINAL_S``.

The unit uses no ``pfnl`` code, so a change to the program cannot change
it.  It mixes the three kinds of work the benchmark's workloads do:
interpreted Python, many NumPy calls on small arrays, and 2D FFTs.

Usage (as ``Sampler`` starts it)::

    python3 bench/host.py SAMPLES_FILE CPU
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import numpy as np

# about the CPU time of one unit when the host is quiet (2 vCPUs, Intel
# Xeon), set so that scaled `converge` times on a busy host match those
# measured on a quiet one: the scaled timings read as seconds on a quiet host
NOMINAL_S = 0.007
# rest after each unit, in units of the unit's time: the sampler takes a
# twentieth of the CPU it shares with the operation
REST = 19.0
# a sampler outlives no run: runs end within 180 s
MAX_S = 200.0

_rng = np.random.default_rng(0)
_line = _rng.standard_normal((2, 320))
_plane = _rng.standard_normal((256, 256))


def _unit():
    s = 0
    for i in range(50_000):
        s += i * i % 7
    a = _line[0]
    for _ in range(400):
        a = np.cumsum(a * 0.5 + _line[1]) * 1e-3
    for _ in range(2):
        np.fft.irfft2(np.fft.rfft2(_plane) * 0.5, s=_plane.shape)
    return s


def _sample(path, cpu):
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    _unit()  # fills NumPy's FFT caches
    end = time.monotonic() + MAX_S
    with open(path, "w", buffering=1) as out:
        while time.monotonic() < end and os.getppid() == parent:
            start = time.thread_time()
            _unit()
            took = time.thread_time() - start
            out.write(f"{time.monotonic()!r} {took!r}\n")
            time.sleep(REST * took)


class Sampler:
    """Context manager that samples the speed of one CPU while it is open."""

    def __init__(self, path, cpu):
        self.path = path
        self.cpu = cpu
        self.proc = None

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), self.path, str(self.cpu)]
        )
        return self

    def __exit__(self, *exc):
        self.proc.terminate()
        self.proc.wait()

    def mean_s(self, start, end):
        """Mean time of the units that ended between ``start`` and ``end``
        (``time.monotonic`` values), or of all units so far if none did, as
        after an operation that failed at once."""
        with open(self.path) as fh:
            samples = [line.split() for line in fh if line.endswith("\n")]
        if not samples:
            raise RuntimeError("the host sampler took no samples")
        took = [float(t) for stamp, t in samples if start <= float(stamp) <= end]
        return statistics.mean(took or [float(t) for _, t in samples])


if __name__ == "__main__":
    _sample(sys.argv[1], int(sys.argv[2]))
