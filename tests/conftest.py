import tracemalloc

import numpy as np
import pytest

from pfnl.fields import Field


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def smooth_field(grid, rng, modes=3, amplitude=1.0):
    """Random low-mode cosine series; Neumann-compatible and smooth."""
    data = np.zeros(grid.shape)
    X = grid.meshgrid()
    for k in range(1, modes + 1):
        coeffs = rng.normal(size=grid.dimension)
        term = np.ones(grid.shape)
        for axis, (x, L) in enumerate(zip(X, grid.lengths)):
            term = term * np.cos(k * np.pi * x / L)
        data += amplitude * coeffs[0] * term / k
    data += rng.normal() * amplitude * 0.2
    return Field(grid, data)


def ones(grid):
    """The constant field 1."""
    return Field(grid, np.ones(grid.shape))


def rough_field(grid, rng, amplitude=1.0):
    """Independent normal samples per cell."""
    return Field(grid, amplitude * rng.normal(size=grid.shape))


def traced_peak(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the peak of the memory that
    ``tracemalloc`` saw allocated during the call, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
