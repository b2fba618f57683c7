"""The nonlocal operator ``B_eps`` and energy ``E_eps`` plus their local
counterparts.

One convention picks the problem everywhere: an ``op`` argument is either
a :class:`NonlocalOperator`, meaning ``B = B_eps`` of that operator, or
``None``, meaning the Laplacian limit ``B = -lap_N``.  :func:`apply_B`
(on fields), :func:`apply_B_array` (on arrays), :func:`shifted_matvec`
(the phase Newton's product ``B x + D x``) and :func:`energy_from_applied`
dispatch on it, and the integrator and the sweep studies pass it down
unchanged.  :func:`apply_B_eps` takes and returns arrays, so the time
step applies ``B`` without building fields.

The domain-restricted convolution ``(J_eps * u)(x) = int_D J_eps(x-y) u(y) dy``
is computed by zero-extending ``u`` and performing a linear (padded) FFT
convolution; since the integrand vanishes outside the box this is exact
for the restricted integral up to the shared midpoint quadrature.  The
kernel is stored and padded by its compact support, not by the box: the
``(2w+1)^d`` window is wrapped onto a lattice of ``n + w`` cells per axis
(rounded up to a 7-smooth size, :func:`_fast_len`), so the cost of an
application depends on ``n + w`` rather than ``2n - 1``.  The plan
derives all of this from the tabulated kernel, its one field; the
window's transform is one ``rfftn``, and an application's transforms are
numpy's, taken one axis at a time in work arrays that the plan keeps,
the input copied into a kept zero-padded real lattice (see
:meth:`ConvolutionPlan.apply`).  :func:`apply_B_eps` can write into a
given array, and the kernel operator keeps the one array that its CG
products (:func:`shifted_matvec`) are written into, so neither an
application nor a CG iteration needs a fresh lattice-sized array.  In
1D a window of at most ``MAX_DIRECT_TAPS`` (129) taps skips the FFT:
``np.convolve`` sums the ``2w + 1`` taps directly, and the plan never
transforms its window.  A
sweep with ``h`` proportional to ``eps`` keeps ``w`` fixed (17 taps at the
default widths), where direct taps are several times faster than the
FFT.  One quadrature (cell centers, with the origin cell of the kernel
carrying its cell average) is used for everything: the plan's weights are
the window times ``h^d`` and ``a_eps`` is the plan applied to ones, so
``B_eps a = a_eps a - conv(a)`` annihilates constants exactly, and the
discrete identity

    E_eps(u) = 1/2 (B_eps u, u)_H

holds to roundoff against the direct double sum.

On a 1D grid that :func:`pfnl.fields.is_dense_grid` accepts the phase
Newton solves on the dense inverse of its ``a I + B`` instead
(:func:`dense_inverse`, kept per shift on the kernel operator).  The kernel
operator's is ``diag(a + a_eps)`` minus :attr:`NonlocalOperator.kernel_matrix`,
inverted by banded elimination in NumPy; the Laplacian's is the kept
matrix of the cosine-basis solve.  The plan's weights build that one
kernel matrix, which the double-sum oracles read too, so every route to
``B_eps`` reads one window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateFieldError
from .fields import (
    Field,
    dot,
    dual_norm,
    inner_product,
    is_dense_grid,
    laplacian,
    neumann_inverse,
)
from .kernels import EvaluatedKernel, tabulate_kernel

# 1D windows of at most this many taps are convolved directly.  Against the
# padded FFT on 7-smooth sizes (numpy 2.4, one core, best of 7, two runs),
# the FFT took 1.14-1.87 times as long as direct taps at 129 taps for
# n = 512 ... 32768 (one run gave 0.93 at n = 2048), and 0.56-0.91 times
# at 257 taps for n = 1024 ... 16384 (about 1.0 at 512 and 32768).
MAX_DIRECT_TAPS = 129


def _fast_len(target):
    """Smallest 7-smooth size ``>= target`` (no prime factor above 7).
    On the default 2D run's lattice that is 336 = 2^4*3*7, where the
    11-smooth rule gave 330 = 2*3*5*11, whose row and column transforms
    took about 5% and 10% longer (numpy 2.4, one core)."""
    size = target
    while True:
        rest = size
        for p in (2, 3, 5, 7):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return size
        size += 1


@dataclass(frozen=True)
class ConvolutionPlan:
    """The padded linear convolution with ``kernel``, the plan's one field;
    the rest is derived from it, once.

    With support halfwidth ``w``, padding to at least ``n + w`` per axis
    (:attr:`padded_shape`) keeps the circular product equal to the linear
    convolution for every in-box pair: an in-box offset ``o`` satisfies
    ``|o| <= n - 1``, so no stored offset ``|o'| <= w`` aliases onto it.
    A :attr:`direct` plan (a 1D window of at most ``MAX_DIRECT_TAPS``
    taps) convolves by the taps and never computes :attr:`kernel_hat`.
    """

    kernel: EvaluatedKernel

    @property
    def grid(self):
        return self.kernel.grid

    @cached_property
    def padded_shape(self):
        return tuple(_fast_len(m + k) for m, k in zip(self.grid.n, self.kernel.halfwidth))

    @cached_property
    def direct(self):
        return self.grid.dimension == 1 and self.kernel.values.size <= MAX_DIRECT_TAPS

    @cached_property
    def _taps(self):
        # the box's slice of the full 1D convolution, which starts w cells early
        (w,) = self.kernel.halfwidth
        return slice(w, w + self.grid.n[0])

    @cached_property
    def weights(self):
        """The window times the cell volume ``h^d``: the midpoint-rule
        weights that both paths convolve with."""
        return self.kernel.values * self.grid.cell_volume

    @cached_property
    def kernel_hat(self):
        """Real FFT of the weights wrapped onto the padded lattice (offset
        ``o`` at index ``o`` modulo the padded size), taken in
        :attr:`_spectrum`; the window is even, so its transform is real."""
        w, p = self.kernel.halfwidth, self.padded_shape
        lattice = np.zeros(p)
        lattice[np.ix_(*(np.arange(-k, k + 1) % m for k, m in zip(w, p)))] = self.weights
        return np.fft.rfftn(lattice, out=self._spectrum).real.copy()

    @cached_property
    def _spectrum(self):
        """The FFT path's complex work array, shaped like :attr:`kernel_hat`."""
        *rows, last = self.padded_shape
        return np.empty((*rows, last // 2 + 1), dtype=complex)

    @cached_property
    def _lattice(self):
        """The FFT path's real work array: the lattice rows holding the box.
        An application copies its input in, zero-padded along the last
        axis, and gets its output back in the same array."""
        return np.empty(self.grid.n[:-1] + self.padded_shape[-1:])

    def apply(self, data):
        """Midpoint-rule convolution ``h^d sum_k J(z_k) data(x - z_k)``,
        truncated to the box: direct taps for a ``direct`` plan, otherwise
        the circular product on the padded lattice.

        The FFT path copies ``data`` into the zero-padded lattice rows
        that the plan keeps and transforms one axis at a time, in place
        in the plan's work arrays, so an application allocates only its
        output; it never forms the whole padded lattice, and the
        transform skips its all-zero rows.  One plan must therefore not
        be applied from two threads at once.
        """
        conv = self._convolution(data)
        return conv if self.direct else conv.copy()

    def _convolution(self, data):
        """:meth:`apply`'s result; on the FFT path a view of :attr:`_lattice`,
        which the plan's next application overwrites."""
        if self.direct:
            return np.convolve(data, self.weights)[self._taps]
        n, last = self.grid.n, self.padded_shape[-1]
        kernel_hat = self.kernel_hat  # computed in the work array: before its use
        spectrum, lattice = self._spectrum, self._lattice
        rows = tuple(slice(0, m) for m in n[:-1])  # the lattice rows holding the box
        if rows:
            # lattice rows past the box hold zeros, and so does their transform
            spectrum[n[0] :] = 0.0
        # past the box the last application left its circular product
        lattice[..., : n[-1]] = data
        lattice[..., n[-1] :] = 0.0
        np.fft.rfft(lattice, out=spectrum[rows])
        for axis in range(len(n) - 1):
            np.fft.fft(spectrum, axis=axis, out=spectrum)
        spectrum *= kernel_hat
        for axis in range(len(n) - 1):
            np.fft.ifft(spectrum, axis=axis, out=spectrum)
        np.fft.irfft(spectrum[rows], n=last, out=lattice)
        return lattice[..., : n[-1]]


@dataclass(frozen=True)
class NonlocalOperator:
    """``B_eps u = a_eps u - J_eps * u`` of ``plan``, the operator's one field."""

    plan: ConvolutionPlan

    @property
    def grid(self):
        return self.plan.grid

    @cached_property
    def a_eps(self):
        """``J_eps * 1``, the plan applied to ones (a copy, which the field
        owns), so ``B_eps`` annihilates constants exactly."""
        return Field(self.grid, self.plan.apply(np.ones(self.grid.shape)))

    @cached_property
    def a_eps_max(self):
        """Largest entry of ``a_eps``, the largest diagonal entry of ``B_eps``."""
        return float(np.max(self.a_eps.data))

    @cached_property
    def kernel_matrix(self):
        """Dense matrix of the plan's weights ``h^d J_eps(x_i - x_j)`` over
        all cell pairs (small grids), built once per operator and
        read-only."""
        # a ring of zeros around the window: offsets beyond the support read 0
        ringed = np.pad(self.plan.weights, 1)
        cells = np.indices(self.grid.shape).reshape(self.grid.dimension, -1)
        idx = tuple(
            np.clip(c[:, None] - c[None, :] + k + 1, 0, 2 * k + 2)
            for c, k in zip(cells, self.plan.kernel.halfwidth)
        )
        J = ringed[idx]
        J.flags.writeable = False
        return J

    @cached_property
    def _product(self):
        """The array every :func:`shifted_matvec` product of this operator
        is written into, kept so that a phase CG allocates no product; one
        operator must therefore not run two such solves at once."""
        return np.empty(self.grid.shape)

    @cached_property
    def dense_inverses(self):
        """The read-only matrices ``(a I + B_eps)^{-1}`` by shift ``a``, kept
        by :func:`dense_inverse`."""
        return {}


def build_nonlocal_operator(family, eps, grid):
    op = NonlocalOperator(ConvolutionPlan(tabulate_kernel(family, eps, grid)))
    op.a_eps  # noqa: B018 (computed with the build, whose cost it is part of)
    return op


def apply_B_eps(op, a, diagonal=None, out=None):
    """Apply the nonlocal operator to the array ``a`` of the operator
    grid's shape and return the array ``B_eps a``; annihilates constants
    exactly, since ``a_eps`` is the same plan applied to ones.  Every
    ``B_eps`` application goes through here.  It allocates only its
    result; with ``out`` (an array of the grid's shape, which may be
    ``a`` itself) the result is written there, and the FFT path
    allocates nothing of the lattice's size.

    With ``diagonal`` (an array of the grid's shape, or a scalar) in
    place of ``a_eps``, it returns ``diagonal a - J_eps * a``, that is
    ``B_eps a + (diagonal - a_eps) a``, at the cost of one application."""
    conv = op.plan._convolution(a)  # first: ``out`` may be ``a``
    out = np.multiply(op.a_eps.data if diagonal is None else diagonal, a, out=out)
    out -= conv
    return out


def apply_B_array(op, grid, a):
    """``B a`` on the array ``a`` of ``grid``'s shape, for the problem ``op``
    selects: ``B_eps`` of ``op``, or ``-lap_N`` when ``op`` is ``None``."""
    if op is None:
        out = laplacian(grid, a)
        return np.negative(out, out=out)
    return apply_B_eps(op, a)


def shifted_matvec(op, grid, shift, scratch):
    """The matvec ``x -> B x + shift x`` on arrays of ``grid``'s shape, for
    the problem ``op`` selects, with the diagonal ``shift`` (an array of
    the grid's shape, or a scalar) folded in once.

    For the kernel operator ``a_eps + shift`` is formed here, once, and
    each product is one :func:`apply_B_eps` with that diagonal,
    ``(a_eps + shift) x - J_eps * x``, written into the one array the
    operator keeps for it (``NonlocalOperator._product``): each product
    overwrites the last.  For the Laplacian each product subtracts
    :func:`~pfnl.fields.laplacian` from ``shift x``, formed in
    ``scratch`` (an array of the grid's shape that the caller does not
    read meanwhile), in the Laplacian's own output array, a new array
    per product.  Either way the caller may overwrite a product, as
    :func:`~pfnl.fields.cg` does.
    """
    if op is None:

        def matvec(x):
            out = laplacian(grid, x)
            return np.subtract(np.multiply(shift, x, out=scratch), out, out=out)

        return matvec
    diagonal = op.a_eps.data + shift
    return lambda x: apply_B_eps(op, x, diagonal, out=op._product)


def dense_inverse(op, grid, a):
    """``(a I + B)^{-1}`` as a dense read-only matrix, for the problem
    ``op`` selects: ``B_eps`` of ``op``, or ``-lap_N`` when ``op`` is
    ``None``; needs ``a > 0``.  ``None`` on a grid that
    :func:`~pfnl.fields.is_dense_grid` rejects.

    For ``-lap_N`` it is the kept matrix :func:`~pfnl.fields.neumann_solve`
    applies (:func:`~pfnl.fields.neumann_inverse`).  For ``B_eps`` it is
    kept on the operator per shift (:attr:`NonlocalOperator.dense_inverses`):
    the matrix ``a I + B_eps`` is ``diag(a + a_eps)`` minus the operator's
    one :attr:`~NonlocalOperator.kernel_matrix` (so a rescaled window
    reaches it too), inverted by :func:`_banded_inverse`.
    """
    if not is_dense_grid(grid):
        return None
    if op is None:
        return neumann_inverse(grid, a, 1.0)
    if a in op.dense_inverses:
        return op.dense_inverses[a]
    matrix = np.negative(op.kernel_matrix)
    matrix.flat[:: len(matrix) + 1] += a + op.a_eps.data
    (w,) = op.plan.kernel.halfwidth
    inverse = op.dense_inverses[a] = _banded_inverse(matrix, w)
    inverse.flags.writeable = False
    return inverse


def _banded_inverse(matrix, w):
    """Inverse of the symmetric positive definite ``matrix`` of
    half-bandwidth ``w``, which is overwritten.

    Gaussian elimination without pivoting (stable for such matrices)
    leaves the upper factor ``U`` of ``matrix = L U`` in ``matrix`` and
    builds ``L^{-1}`` in the result, a band of multipliers per pivot; back
    substitution by ``U`` then turns the result into the inverse, one row
    at a time.  No ``n x n`` work array beyond ``matrix`` and the result is
    allocated, and no LAPACK routine is called: on the default 1D
    ``converge``, ``np.linalg.inv`` raised the peak resident memory by
    about 1 MB, the work buffers and code that it leaves resident.
    """
    n = len(matrix)
    inverse = np.eye(n)
    for k in range(n - 1):
        rows = slice(k + 1, min(k + w + 1, n))
        multipliers = matrix[rows, k] / matrix[k, k]
        matrix[rows, rows] -= np.multiply.outer(multipliers, matrix[k, rows])
        inverse[rows, : k + 1] -= np.multiply.outer(multipliers, inverse[k, : k + 1])
    for k in range(n - 1, -1, -1):
        rows = slice(k + 1, min(k + w + 1, n))
        inverse[k] -= matrix[k, rows] @ inverse[rows]
        inverse[k] /= matrix[k, k]
    return inverse


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

    Negative roundoff is clamped; a value below :func:`energy_floor` raises.
    """
    val = 0.5 * u.grid.cell_volume * dot(Bu, u.data)
    if val < energy_floor(op, u.grid):
        raise DegenerateFieldError(f"energy 1/2 (B u, u)_H came out negative: {val}")
    return max(val, 0.0)


def energy_floor(op, grid):
    """The least ``1/2 (B u, u)_H`` roundoff may give on ``grid``: ``-1e-14``
    times the largest diagonal entry of ``B`` (at least 1)."""
    diagonal = sum(2.0 / (h * h) for h in grid.spacing) if op is None else op.a_eps_max
    return -1e-14 * max(1.0, diagonal)


def _double_sum(op, u, v):
    """``h^d sum_ij J_ij (u_i - u_j)(v_i - v_j)`` over the operator's
    :attr:`~NonlocalOperator.kernel_matrix` ``J_ij = h^d J_eps(x_i - x_j)``:
    the direct O(N^2) route that the double-sum oracles take."""
    J = op.kernel_matrix
    uu, vv = u.data.ravel(), v.data.ravel()
    return op.grid.cell_volume * float(
        np.sum(J * (uu[:, None] - uu[None, :]) * (vv[:, None] - vv[None, :]))
    )


def energy_double_sum(op, u):
    """Nonlocal energy as a quarter of the direct double sum (O(N^2) check)."""
    return 0.25 * _double_sum(op, u, u)


def frechet_identity_residual(op, u, v, pairing=None):
    """Gap between the operator pairing and half the direct double sum.

    Evaluates ``|(B_eps u, v)_H - 1/2 sum_ij J_ij (u_i-u_j)(v_i-v_j) h^{2d}|``;
    both routes share the plan's weights ``h^d J``, so agreement is a pure
    algebra/roundoff statement.  ``pairing``, when given, is
    ``(B_eps u, v)_H`` already at hand.
    """
    if pairing is None:
        pairing = inner_product("H", apply_B(op, u), v)
    return abs(pairing - 0.5 * _double_sum(op, u, v))


def frechet_fd_residual(op, u, v, delta=1e-6, pairing=None):
    """Gap between the pairing and a centered difference of the energy.

    The energy is quadratic, so the centered difference is exact up to
    roundoff amplified by ``1/delta``.  ``pairing``, when given, is
    ``(B_eps u, v)_H`` already at hand.
    """
    if pairing is None:
        pairing = inner_product("H", apply_B(op, u), v)
    plus = energy_nonlocal(op, Field(u.grid, u.data + delta * v.data))
    minus = energy_nonlocal(op, Field(u.grid, u.data - delta * v.data))
    return abs(pairing - (plus - minus) / (2.0 * delta))


def energy_local(u):
    """Dirichlet energy ``1/2 (-lap_N u, u)_H``; it equals the face-gradient
    form ``1/2 (grad u, grad u)_H`` up to roundoff (exact summation by parts)."""
    return energy_from_applied(None, u, apply_B_array(None, u.grid, u.data))


def bbm_bound_ratio(op, u):
    """Ratio ``dual_norm(B_eps u) / sqrt(E_eps(u))``.

    Bounded uniformly in eps for fixed smooth fields; raises on constant
    input where the energy degenerates.  One application of ``B_eps``
    serves the energy and the dual norm.
    """
    Bu = apply_B(op, u)
    energy = energy_from_applied(op, u, Bu.data)
    scale = inner_product("H", u, u) * op.a_eps_max
    if energy <= 1e-28 * max(1.0, scale):
        raise DegenerateFieldError("degenerate: nonlocal energy vanishes")
    return dual_norm(Bu) / math.sqrt(energy)
