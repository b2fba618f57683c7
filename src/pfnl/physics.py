"""Nonlinearities, source terms, and initial-data construction.

The phase nonlinearity is split as ``beta + pi`` with ``beta`` monotone
(carrying a convex primitive ``beta_hat``, ``beta_hat' = beta``,
``beta_hat(0) = 0``) and ``pi`` Lipschitz.  The growth pairing
``|beta(r)|^q <= c_beta (1 + beta_hat(r))`` is what keeps the
phase-nonlinearity monitors meaningful, so it is validated on a lattice
rather than trusted.

Initial data come with the uniform-bound monitor of the run they start:
the sum

    |theta0|_V^2 + |phi0|_H^2 + E(phi0) + int beta_hat(phi0) + |v0|_H^2

with ``E`` the energy ``1/2 (B phi0, phi0)_H`` of the run's own ``B``
(``B_eps`` of a kernel operator, ``-lap_N`` for the Laplacian system),
must stay below a declared constant.  Whether the monitor stays bounded
as eps falls is a comparison across widths, which the sweep makes
(:func:`pfnl.analysis.nonlocal_to_local_study`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .fields import Field, field_from_function, inner_product
from .operators import apply_B_array, energy_from_applied


@dataclass(frozen=True)
class PotentialSpec:
    """Monotone/Lipschitz splitting of the potential derivative.

    ``beta``, ``beta_hat``, ``pi`` and ``beta_prime`` (the derivative of
    ``beta``, which feeds the Newton Jacobian) are array maps: each takes a
    float64 array of any shape, such as a field's data or a stack of them,
    and returns a float64 array of that shape, which callers use as it is.
    ``q`` and ``c_beta`` calibrate the growth inequality.
    """

    beta: callable
    beta_hat: callable
    pi: callable
    q: float
    c_beta: float
    pi_lipschitz: float
    beta_prime: callable


def make_double_well():
    """Classical quartic double well: ``beta(r) = r^3``, ``pi(r) = -r``.

    ``q = 4/3`` with ``c_beta = 4`` satisfies ``r^4 <= 4 (1 + r^4/4)``
    pointwise, and meets the dimensional floor q >= 6/5.
    """
    return PotentialSpec(
        beta=lambda r: r * r * r,
        beta_hat=lambda r: 0.25 * ((r * r) * (r * r)),
        pi=lambda r: -r,
        q=4.0 / 3.0,
        c_beta=4.0,
        pi_lipschitz=1.0,
        beta_prime=lambda r: 3.0 * (r * r),
    )


def _zeros(r):
    return np.zeros_like(r, dtype=np.float64)


def make_linear_potential(pi_slope=0.0):
    """Degenerate spec with ``beta = 0`` and linear ``pi``; used by the
    linear/constant-data scenarios.  ``beta``, ``beta_hat`` and
    ``beta_prime`` return zero arrays of the argument's shape, like every
    other potential's maps."""
    return PotentialSpec(
        beta=_zeros,
        beta_hat=_zeros,
        pi=lambda r: pi_slope * r,
        q=2.0,
        c_beta=1.0,
        pi_lipschitz=abs(pi_slope),
        beta_prime=_zeros,
    )


_LATTICE = np.linspace(-5.0, 5.0, 10_000)


def validate_potential(spec, d=None):
    """Check the potential invariants on the sample lattice.

    Returns a list of violation strings (empty when the spec is sound);
    violations are data, not exceptions.
    """
    out = []
    r = _LATTICE
    b = spec.beta(r)
    bh = spec.beta_hat(r)

    steps = np.diff(b)
    if np.min(steps) < -1e-10:
        k = int(np.argmin(steps))
        out.append(f"monotonicity: beta decreases near r={r[k]:.3f}")

    b0 = float(spec.beta_hat(np.zeros(1))[0])
    if abs(b0) > 1e-12:
        out.append(f"primitive origin: beta_hat(0) = {b0:g} != 0")
    if np.min(bh) < -1e-12:
        out.append("nonnegativity: beta_hat takes negative values")

    second = bh[:-2] - 2.0 * bh[1:-1] + bh[2:]
    if np.min(second) < -1e-10:
        k = int(np.argmin(second))
        out.append(f"convexity: beta_hat second difference negative near r={r[k + 1]:.3f}")

    dr = 1e-4
    fd = (spec.beta_hat(r + dr) - spec.beta_hat(r - dr)) / (2.0 * dr)
    scale = np.max(np.abs(b))
    smooth = np.abs(b) >= 1e-3 * max(scale, 1e-12)
    if scale > 0 and np.any(smooth):
        rel = np.abs(fd[smooth] - b[smooth]) / np.abs(b[smooth])
        if np.max(rel) > 1e-6:
            out.append("primitive derivative: beta_hat' deviates from beta")

    growth = np.abs(b) ** spec.q - spec.c_beta * (1.0 + bh)
    tol = 1e-9 * np.maximum(1.0, spec.c_beta * (1.0 + bh))
    if np.any(growth > tol):
        k = int(np.argmax(growth))
        out.append(f"growth: |beta|^q exceeds c_beta(1+beta_hat) at r={r[k]:.3f}")

    p = spec.pi(r)
    lip = np.abs(np.diff(p)) / np.diff(r)
    if np.max(lip) > spec.pi_lipschitz * (1.0 + 1e-10) + 1e-12:
        out.append(f"lipschitz: pi slope {np.max(lip):.6g} exceeds declared {spec.pi_lipschitz:g}")

    if spec.q <= 1.0:
        out.append(f"exponent: q = {spec.q:g} must exceed 1")
    if d == 3 and spec.q < 6.0 / 5.0 - 1e-12:
        out.append(f"exponent: q = {spec.q:g} below the d=3 floor 6/5")
    return out


# --- source terms -------------------------------------------------------------


def make_source(kind, amplitude=1.0):
    """Time-dependent source for the temperature equation: ``cosine-decay``
    gives ``A cos(pi x_1) exp(-t)``, with ``x_1`` in box units
    (:func:`~pfnl.fields.field_from_function`).  ``source.kind = none``
    builds no source; the run gets ``source=None``.
    """
    if kind == "cosine-decay":

        def f(grid, t):
            return field_from_function(
                grid, lambda *x: amplitude * np.cos(np.pi * x[0]) * math.exp(-t)
            )

        return f
    raise ConfigError(f"unknown source kind {kind!r}")


# --- initial data --------------------------------------------------------------


@dataclass(frozen=True)
class InitialDataRule:
    """Closed-form initial data, evaluated on whatever grid a run uses, in
    box units (:func:`~pfnl.fields.field_from_function`): ``x_i`` runs over
    ``[0, 1]`` whatever the box's lengths."""

    theta0: callable
    phi0: callable
    v0: callable


def smooth_default_rule():
    return InitialDataRule(
        theta0=lambda *x: 0.5 * np.cos(np.pi * x[0]),
        phi0=lambda *x: np.cos(np.pi * x[0]),
        v0=lambda *x: np.zeros_like(x[0]),
    )


@dataclass
class ProblemData:
    """Initial triple plus its uniform-bound monitor ``a5`` and any flags."""

    theta0: Field
    phi0: Field
    v0: Field
    a5: float
    flags: list = field(default_factory=list)

    @property
    def grid(self):
        return self.theta0.grid


def build_initial_data(op, grid, potential, c1_bound=10.0, rule=None, custom=None):
    """Construct the initial triple of the run ``op`` selects and evaluate
    its uniform-bound monitor once.

    ``custom={"theta0": ..., "phi0": ..., "v0": ...}`` takes explicit
    fields; otherwise ``rule`` (by default :func:`smooth_default_rule`,
    eps-independent cosine profiles with zero velocity) is evaluated on
    ``grid`` in box units, so ``cos(pi x_1)`` is flat at both walls of
    any box.  The monitor's energy uses the run's own ``B``: ``B_eps`` of
    ``op``, or ``-lap_N`` when ``op`` is ``None``, as in
    :func:`pfnl.integrator.solve_trajectory`.  A monitor above
    ``c1_bound`` raises :class:`ConfigError` for custom data and is
    recorded in ``flags`` for rule data.
    """
    if custom is not None:
        theta0, phi0, v0 = custom["theta0"], custom["phi0"], custom["v0"]
    else:
        rule = rule or smooth_default_rule()
        theta0 = field_from_function(grid, rule.theta0)
        phi0 = field_from_function(grid, rule.phi0)
        v0 = field_from_function(grid, rule.v0)

    a5 = (
        inner_product("V", theta0, theta0)
        + inner_product("H", phi0, phi0)
        + energy_from_applied(op, phi0, apply_B_array(op, grid, phi0.data))
        + grid.cell_volume * float(np.sum(potential.beta_hat(phi0.data)))
        + inner_product("H", v0, v0)
    )
    flags = []
    if a5 > c1_bound:
        msg = f"uniform bound violated: monitor {a5:.6g} > declared {c1_bound:g}"
        if custom is not None:
            raise ConfigError(msg)
        flags.append(msg)
    return ProblemData(theta0=theta0, phi0=phi0, v0=v0, a5=a5, flags=flags)
