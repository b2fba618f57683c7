"""The nonlocal operator ``B_eps`` and energy ``E_eps`` plus their local
counterparts.

One convention picks the problem everywhere: an ``op`` argument is either
a :class:`NonlocalOperator`, meaning ``B = B_eps`` of that operator, or
``None``, meaning the Laplacian limit ``B = -lap_N``.  :func:`apply_B`
(on fields), :func:`apply_B_array` (on arrays) and
:func:`energy_from_applied` dispatch on it, and the integrator and the
sweep studies pass it down unchanged.  :func:`apply_B_eps` takes and
returns arrays, so the time step applies ``B`` without building fields.

The domain-restricted convolution ``(J_eps * u)(x) = int_D J_eps(x-y) u(y) dy``
is computed by zero-extending ``u`` and performing a linear (padded) FFT
convolution; since the integrand vanishes outside the box this is exact
for the restricted integral up to the shared midpoint quadrature.  The
kernel is stored and padded by its compact support, not by the box: the
``(2w+1)^d`` window is wrapped onto a lattice of ``n + w`` cells per axis
(rounded up to a fast FFT size), so the cost of an application depends
on ``n + w`` rather than ``2n - 1``.  In 1D a window of at most
``MAX_DIRECT_TAPS`` (129) taps skips the FFT: ``np.convolve`` sums the
``2w + 1`` taps directly.  A sweep with ``h`` proportional to ``eps`` keeps
``w`` fixed (17 taps at the default widths), where direct taps are several
times faster than the FFT.  One
quadrature (cell centers, with the origin cell of the kernel carrying its
cell average) is used for everything, so the discrete identity

    E_eps(u) = 1/2 (B_eps u, u)_H

holds to roundoff against the direct double sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft as sfft

from .errors import DegenerateFieldError
from .fields import (
    Field,
    dual_norm,
    inner_product,
    laplacian,
    ones,
)
from .kernels import EvaluatedKernel, tabulate_kernel

# 1D windows of at most this many taps are convolved directly.  Against the
# padded FFT (numpy 2.4, scipy 1.17, one core), direct taps won at 129 taps
# for n = 512 ... 32768 and lost at 257 taps for n = 4096 and at 513 taps.
MAX_DIRECT_TAPS = 129


@dataclass(frozen=True)
class ConvolutionPlan:
    """Precomputed data for the padded linear convolution.

    ``padded_shape`` and ``kernel_hat`` describe the FFT lattice; a 1D
    plan with ``direct`` set convolves by the taps and leaves them unused.
    ``tap_window`` (1D plans only) cuts the box out of the full
    ``np.convolve`` output.
    """

    grid: object
    kernel: EvaluatedKernel
    padded_shape: tuple
    kernel_hat: np.ndarray
    direct: bool
    tap_window: slice

    def apply(self, data):
        """Linear convolution with the kernel window, truncated to the box:
        direct taps for a ``direct`` plan, otherwise the circular product on
        the padded lattice."""
        if self.direct:
            return np.convolve(data, self.kernel.values)[self.tap_window]
        out = sfft.irfftn(
            sfft.rfftn(data, s=self.padded_shape) * self.kernel_hat, s=self.padded_shape
        )
        return out[tuple(slice(0, m) for m in self.grid.n)]


def build_plan(kernel):
    """Wrap the kernel's support window onto a padded lattice and cache its FFT.

    With support halfwidth ``w``, padding to at least ``n + w`` per axis
    keeps the circular product equal to the linear convolution for every
    in-box pair: an in-box offset ``o`` satisfies ``|o| <= n - 1``, so no
    stored offset ``|o'| <= w`` aliases onto it.
    """
    grid = kernel.grid
    w = kernel.halfwidth
    padded_shape = tuple(sfft.next_fast_len(m + k) for m, k in zip(grid.n, w))
    wrapped = np.zeros(padded_shape)
    # offset o (stored at index o + w) goes to lattice index o mod padded size
    wrapped[np.ix_(*(np.arange(-k, k + 1) % p for k, p in zip(w, padded_shape)))] = (
        kernel.values
    )
    direct = grid.dimension == 1 and kernel.values.size <= MAX_DIRECT_TAPS
    # the full 1D convolution starts w cells before the box
    tap_window = slice(w[0], w[0] + grid.n[0]) if grid.dimension == 1 else None
    return ConvolutionPlan(
        grid, kernel, padded_shape, sfft.rfftn(wrapped), direct, tap_window
    )


def convolve(plan, u):
    """Midpoint-rule restricted convolution ``J_eps * u`` as a field."""
    return Field(u.grid, plan.apply(u.data) * u.grid.cell_volume)


@dataclass(frozen=True)
class NonlocalOperator:
    """``B_eps u = a_eps u - J_eps * u`` with the precomputed ``a_eps``."""

    plan: ConvolutionPlan
    a_eps: Field

    @property
    def grid(self):
        return self.plan.grid

    @property
    def eps(self):
        return self.plan.kernel.eps

    @cached_property
    def kernel_matrix(self):
        """Dense matrix ``J_eps(x_i - x_j)`` over all cell pairs (small
        grids), built once per operator and read-only."""
        kernel = self.plan.kernel
        # a ring of zeros around the window: offsets beyond the support read 0
        ringed = np.pad(kernel.values, 1)
        cells = np.indices(self.grid.shape).reshape(self.grid.dimension, -1)
        idx = tuple(
            np.clip(c[:, None] - c[None, :] + k + 1, 0, 2 * k + 2)
            for c, k in zip(cells, kernel.halfwidth)
        )
        J = ringed[idx]
        J.flags.writeable = False
        return J


def build_nonlocal_operator(family, eps, grid):
    kernel = tabulate_kernel(family, eps, grid)
    plan = build_plan(kernel)
    return NonlocalOperator(plan, convolve(plan, ones(grid)))


def apply_B_eps(op, a):
    """Apply the nonlocal operator to the array ``a`` of the operator
    grid's shape and return the array ``B_eps a``; annihilates constants
    exactly.  Every ``B_eps`` application goes through here."""
    conv = op.plan.apply(a) * op.grid.cell_volume
    return op.a_eps.data * a - conv


def apply_B_array(op, grid, a):
    """``B a`` on the array ``a`` of ``grid``'s shape, for the problem ``op``
    selects: ``B_eps`` of ``op``, or ``-lap_N`` when ``op`` is ``None``."""
    if op is None:
        out = laplacian(grid, a)
        return np.negative(out, out=out)
    return apply_B_eps(op, a)


def apply_B(op, u):
    """``B u`` as a field, for the problem ``op`` selects (see
    :func:`apply_B_array`)."""
    return Field(u.grid, apply_B_array(op, u.grid, u.data))


def energy_nonlocal(op, u):
    """Nonlocal energy through the quadratic form ``1/2 (B_eps u, u)_H``."""
    return energy_from_applied(op, u, apply_B_eps(op, u.data))


def energy_from_applied(op, u, Bu):
    """``1/2 (B u, u)_H`` from the array ``Bu = B u`` already at hand, where
    ``B`` is ``B_eps`` of ``op``, or ``-lap_N`` when ``op`` is ``None``.

    Negative roundoff is clamped; a value below ``-1e-14`` times the largest
    diagonal entry of ``B`` (at least 1) raises.
    """
    val = 0.5 * u.grid.cell_volume * float(np.vdot(Bu, u.data))
    if op is None:
        diagonal = sum(2.0 / (h * h) for h in u.grid.spacing)
    else:
        diagonal = float(np.max(op.a_eps.data))
    if val < -1e-14 * max(1.0, diagonal):
        raise DegenerateFieldError(f"energy 1/2 (B u, u)_H came out negative: {val}")
    return max(val, 0.0)


def energy_double_sum(op, u):
    """Direct quartic double sum for the nonlocal energy (O(N^2) check)."""
    J = op.kernel_matrix
    uu = u.data.ravel()
    diff = uu[:, None] - uu[None, :]
    return 0.25 * op.grid.cell_volume**2 * float(np.sum(J * diff * diff))


def frechet_identity_residual(op, u, v):
    """Gap between the operator pairing and the direct double sum.

    Evaluates ``|(B_eps u, v)_H - 1/2 sum_ij J_ij (u_i-u_j)(v_i-v_j) h^{2d}|``
    with the double sum formed pairwise; both routes share one kernel
    tabulation, so agreement is a pure algebra/roundoff statement.
    """
    pairing = inner_product("H", apply_B(op, u), v)
    J = op.kernel_matrix
    uu, vv = u.data.ravel(), v.data.ravel()
    double = 0.5 * op.grid.cell_volume**2 * float(
        np.sum(J * (uu[:, None] - uu[None, :]) * (vv[:, None] - vv[None, :]))
    )
    return abs(pairing - double)


def frechet_fd_residual(op, u, v, delta=1e-6):
    """Gap between the pairing and a centered difference of the energy.

    The energy is quadratic, so the centered difference is exact up to
    roundoff amplified by ``1/delta``.
    """
    pairing = inner_product("H", apply_B(op, u), v)
    plus = energy_nonlocal(op, Field(u.grid, u.data + delta * v.data))
    minus = energy_nonlocal(op, Field(u.grid, u.data - delta * v.data))
    return abs(pairing - (plus - minus) / (2.0 * delta))


def apply_B_local(u):
    """Strong Neumann form of the local operator (minus the Laplacian)."""
    return apply_B(None, u)


def energy_local(u):
    """Dirichlet energy ``1/2 (-lap_N u, u)_H``; it equals the face-gradient
    form ``1/2 (grad u, grad u)_H`` up to roundoff (exact summation by parts)."""
    return energy_from_applied(None, u, apply_B_array(None, u.grid, u.data))


def bbm_bound_ratio(op, u):
    """Ratio ``dual_norm(B_eps u) / sqrt(E_eps(u))``.

    Bounded uniformly in eps for fixed smooth fields; raises on constant
    input where the energy degenerates.
    """
    energy = energy_nonlocal(op, u)
    scale = inner_product("H", u, u) * float(np.max(op.a_eps.data))
    if energy <= 1e-28 * max(1.0, scale):
        raise DegenerateFieldError("degenerate: nonlocal energy vanishes")
    return dual_norm(apply_B(op, u)) / math.sqrt(energy)
