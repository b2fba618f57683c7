"""Grids on box domains, scalar fields, and the L2/H1/dual norm toolbox.

All fields are cell-centered samples on a uniform tensor grid over
``[0, L_1] x ... x [0, L_d]`` with homogeneous Neumann boundary behaviour
realized by ghost-cell reflection.  The discrete gradient lives on cell
faces so that ``(-lap(u), w)_H == (grad u, grad w)_H`` holds to machine
precision; that exact integration-by-parts is what makes the energy
identities downstream hold at the discrete level.

Every ``(a I - b lap_N)`` solve goes through :func:`neumann_solve`, the
temperature step and the Riesz map behind every dual norm alike: the
cosine basis diagonalizes the reflected-ghost-cell Laplacian exactly, so
the solve is a transform pair and one multiply by gains kept per
``(grid, a, b)`` (:func:`neumann_gains`).  Both paths run on numpy's FFT,
so no run imports ``scipy``.  A 1D solve transforms the even extension; a
2D solve goes through a :class:`CosinePlan`, Makhoul's DCT-II by a real
FFT of the same size, kept per cell counts (:func:`cosine_plan`) with its
work arrays.  On a 1D grid of at most :data:`MAX_DENSE_CELLS` cells
(:func:`is_dense_grid`) the solve is instead one product with
:func:`neumann_inverse`, the dense matrix of the 1D transform solve, built
from the same gains and kept per ``(grid, a, b)``.

Dual-space machinery: the pivot identification of L2 with its dual turns
the H1 Riesz map into the SPD operator ``F = I - lap_N``.  ``dual_norm``
evaluates ``sqrt((u, F^{-1} u)_H)``.

SPD systems that no transform diagonalizes (the phase Newton's Jacobian,
outside small 1D grids) go through :func:`cg`, plain conjugate gradients
on arrays of the grid's shape.  It starts from ``x = 0`` and stops once
``|r|_2 < rtol |b|_2``, tested before each iteration: the rule of scipy's
``cg`` with ``atol = 0``, so it takes the same iterations.

Snapshots go through :func:`write_field`.  Its CSV values carry the bytes
of Python's ``'%.17g'`` but are formatted in NumPy, a block of cells at a
time: the 17 digits come from a double-double product with a power of
ten (:func:`_significands`), the few cells it cannot decide are handed to
``'%.17g'`` itself, and the rows are gathered from a byte matrix.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, GridMismatchError, SolverError

# 1D grids of at most this many cells apply dense inverses: the Neumann
# solve's (:func:`neumann_inverse`) and the phase Newton's
# (:func:`pfnl.operators.dense_inverse`).  Against the phase CG on direct
# taps and the temperature's FFT round trip (numpy 2.4, one core, 500 steps
# at dt = 1e-3 and h = eps/8, the build included), runs on the kept
# inverses won at 160 and 256 cells, kernel and Laplacian alike; at 320
# cells the two paths came within the host's run-to-run noise of each
# other.
MAX_DENSE_CELLS = 256

# Pairings of more entries than this are summed in blocks of this many.
# OpenBLAS splits a ``ddot`` of more than 10000 entries across its threads,
# so the order of its sum, and the last bits of every 2D pairing, would
# change with ``OPENBLAS_NUM_THREADS``; a block stays below that split.
DOT_BLOCK = 8192


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered tensor grid on a box.

    Parameters
    ----------
    lengths : tuple of float
        Box edge lengths ``L_i > 0``, one per axis.
    n : tuple of int
        Cell counts per axis, at least 4 each.  Cell centers sit at
        ``(k + 1/2) * h_i``.
    """

    lengths: tuple
    n: tuple

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(float(L) for L in self.lengths))
        object.__setattr__(self, "n", tuple(int(m) for m in self.n))
        if len(self.lengths) != len(self.n):
            raise ValueError("lengths and n must have matching dimension")
        if self.dimension not in (1, 2):
            raise ValueError(f"grid dimension must be 1 or 2, got {self.dimension}")
        if any(m < 4 for m in self.n):
            raise ValueError("need at least 4 cells per axis")
        if any(L <= 0 for L in self.lengths):
            raise ValueError("box lengths must be positive")

    @classmethod
    def line(cls, n, length=1.0):
        return cls((length,), (n,))

    @classmethod
    def box(cls, n, lengths=(1.0, 1.0)):
        if isinstance(n, int):
            n = (n, n)
        return cls(tuple(lengths), tuple(n))

    @property
    def dimension(self):
        return len(self.n)

    @cached_property
    def spacing(self):
        return tuple(L / m for L, m in zip(self.lengths, self.n))

    @property
    def shape(self):
        return self.n

    @cached_property
    def cell_volume(self):
        return math.prod(self.spacing)

    @cached_property
    def num_cells(self):
        return math.prod(self.n)

    def axis_centers(self, axis):
        h = self.spacing[axis]
        return (np.arange(self.n[axis]) + 0.5) * h

    def meshgrid(self):
        axes = [self.axis_centers(k) for k in range(self.dimension)]
        return np.meshgrid(*axes, indexing="ij")

    @cached_property
    def faces(self):
        """Per axis ``(below, above, h^2)``: the index tuples of the cells
        below and above each interior face along that axis, and the squared
        spacing."""
        out = []
        for axis, h in enumerate(self.spacing):
            below = [slice(None)] * self.dimension
            above = [slice(None)] * self.dimension
            below[axis], above[axis] = slice(None, -1), slice(1, None)
            out.append((tuple(below), tuple(above), h * h))
        return tuple(out)

    @cached_property
    def csv_prefixes(self):
        """A ``(num_cells, width)`` ``uint8`` matrix whose row ``c``, its
        NUL bytes dropped, is the ``"i[,j],"`` prefix of cell ``c`` of the
        raveled data (last axis fastest, like ``ravel``).  Each index is
        written right-aligned in its axis's width, NUL in place of its
        leading zeros.  Built from per-axis digit columns by broadcasting
        and cached on the instance, so only the values are formatted per
        file."""
        parts = []
        for axis, m in enumerate(self.n):
            width = len(str(m - 1))
            place = 10 ** np.arange(width - 1, -1, -1)
            i = np.arange(m)[:, None]
            # the digits of i and a comma; a digit shows from i's first
            # nonzero one on, and the units digit always
            text = np.full((m, width + 1), ord(","), dtype=np.uint8)
            text[:, :width] = np.where(
                (i >= place) | (place == 1), ord("0") + i // place % 10, 0
            )
            view = [1] * self.dimension + [width + 1]
            view[axis] = m
            parts.append(np.broadcast_to(text.reshape(view), self.n + (width + 1,)))
        return np.concatenate(parts, axis=-1).reshape(self.num_cells, -1)


@dataclass
class Field:
    """Scalar samples (one per cell) on a :class:`Grid`."""

    grid: Grid
    data: np.ndarray

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.data.shape != self.grid.shape:
            raise ValueError(
                f"data shape {self.data.shape} does not match grid {self.grid.shape}"
            )
        if not np.isfinite(self.data).all():
            raise ValueError("field contains non-finite entries")

    @classmethod
    def unchecked(cls, grid, data):
        """A field on a float64 array of the grid's shape, not checked."""
        u = object.__new__(cls)
        u.grid, u.data = grid, data
        return u

    def copy(self):
        return Field(self.grid, self.data.copy())

    def __add__(self, other):
        _require_same_grid(self, other)
        return Field(self.grid, self.data + other.data)

    def __sub__(self, other):
        _require_same_grid(self, other)
        return Field(self.grid, self.data - other.data)

    def __mul__(self, scalar):
        return Field(self.grid, self.data * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return Field(self.grid, -self.data)


def _require_same_grid(u, w):
    if u.grid != w.grid:
        raise GridMismatchError("fields live on different grids")


def zeros(grid):
    return Field(grid, np.zeros(grid.shape))


def field_from_function(grid, fn):
    """Sample ``fn(x1[, x2])`` at the cell centers."""
    return Field(grid, np.asarray(fn(*grid.meshgrid()), dtype=np.float64))


def dot(a, b):
    """``sum(a * b)`` over all entries of two arrays of one size, as a float,
    summed in an order that does not depend on the BLAS thread count.

    Every pairing in the package goes through here, or through
    :func:`dots` for stacked rows.  Up to
    :data:`DOT_BLOCK` entries this is ``np.vdot``, one single-threaded
    ``ddot``.  A longer array is cut into whole blocks of
    :data:`DOT_BLOCK` entries and a shorter tail; each block is one
    ``ddot`` (a stacked ``np.matmul`` of ``1 x DOT_BLOCK`` rows and
    columns), and ``math.fsum`` adds the block sums exactly rounded.
    """
    n = a.size
    if n <= DOT_BLOCK:
        return float(np.vdot(a, b))
    k, tail = divmod(n, DOT_BLOCK)
    m = n - tail
    a, b = a.reshape(-1), b.reshape(-1)
    blocks = np.matmul(
        a[:m].reshape(k, 1, DOT_BLOCK), b[:m].reshape(k, DOT_BLOCK, 1)
    ).ravel().tolist()
    blocks.append(float(np.vdot(a[m:], b[m:])))
    return math.fsum(blocks)


def dots(a, b):
    """``dot(a[i], b[i])`` for each row ``i`` of two arrays of one shape
    ``(K, ...)``, as a float array.  Rows of at most :data:`DOT_BLOCK`
    entries are one stacked ``np.matmul``, a ``ddot`` per row as in
    ``np.vdot``; longer rows go through :func:`dot` one at a time."""
    rows = a.shape[0]
    n = a.size // rows
    if n > DOT_BLOCK:
        return np.array([dot(x, y) for x, y in zip(a, b)])
    return np.matmul(a.reshape(rows, 1, n), b.reshape(rows, n, 1)).reshape(rows)


def inner_product(space, u1, u2):
    """Inner product of two fields.

    ``space="H"`` is the midpoint-rule L2 product ``h^d sum(u1*u2)``,
    one :func:`dot`; ``space="V"`` adds the face-centered gradient term.
    """
    _require_same_grid(u1, u2)
    if space == "H":
        return u1.grid.cell_volume * dot(u1.data, u2.data)
    if space == "V":
        return inner_product("H", u1, u2) + grad_inner(u1, u2)
    raise ValueError(f"unknown space {space!r} (expected 'H' or 'V')")


def grad_inner(u1, u2):
    """Face-centered gradient product ``(grad u1, grad u2)_H``: per axis,
    one :func:`dot` of the interior-face differences (Neumann faces drop
    out).  The grid check is skipped when both arguments are one field."""
    if u2 is not u1:
        _require_same_grid(u1, u2)
    vol = u1.grid.cell_volume
    total = 0.0
    for lo, hi, h_sq in u1.grid.faces:
        d1 = u1.data[hi] - u1.data[lo]
        d2 = d1 if u2 is u1 else u2.data[hi] - u2.data[lo]
        total += vol / h_sq * dot(d1, d2)
    return total


def norm(u, space="H"):
    """Norm of a field in H or V."""
    return math.sqrt(max(inner_product(space, u, u), 0.0))


def neumann_laplacian(u):
    """Second-difference Laplacian with reflected (Neumann) ghost cells,
    as a field (see :func:`laplacian`)."""
    return Field(u.grid, laplacian(u.grid, u.data))


def laplacian(grid, a):
    """Neumann Laplacian of the array ``a`` of the grid's shape.

    Each interior face flux ``(a_{i+1} - a_i)/h^2`` is added to the cell
    below the face and subtracted from the cell above it; boundary faces
    carry no flux.  The stencil is therefore conservative: the output sums
    to zero up to roundoff, and ``(-lap u, w)_H == (grad u, grad w)_H`` to
    machine precision.
    """
    out = np.zeros(grid.shape)
    for lo, hi, h_sq in grid.faces:
        flux = (a[hi] - a[lo]) / h_sq
        out[lo] += flux
        out[hi] -= flux
    return out


class CosinePlan:
    """Kept data of the Neumann solve on an ``n[0] x n[1]`` grid.

    The solve runs Makhoul's two-dimensional DCT-II (J. Makhoul, "A fast
    cosine transform in one and two dimensions", IEEE Trans. ASSP 28,
    1980) on numpy's FFT.  Along each axis the cells are reordered as
    ``v = (x_0, x_2, x_4, ..., x_5, x_3, x_1)``.  With ``H`` the real FFT
    of ``v`` along axis 1 followed by the FFT along axis 0, and
    ``A = w_0(k_0) w_1(k_1) H``, ``w_j(k) = exp(-i pi k / 2 n_j)``, the
    cosine sums ``C = sum x cos(pi k_0 (2i+1)/2n_0) cos(pi k_1 (2j+1)/2n_1)``
    are, for ``k_1 < m = n_1 // 2 + 1``::

        2 C[k_0, k_1]       =  Re A[k_0, k_1] - Im A[-k_0, k_1]
        2 C[k_0, n_1 - k_1] = -Re A[-k_0, k_1] - Im A[k_0, k_1]   (k_1 > 0)

    where row ``-k_0`` is taken mod ``n_0``, except that row ``-0`` is row
    ``n_0`` of ``A``, ``w_0(n_0) H[0] = -i w_0(0) H[0]``.  The inverse
    recovers ``H`` from ``C`` as::

        i w_0 w_1 H = (C[-k_0, k_1] + C[k_0, -k_1]) + i (C[k_0, k_1] - C[-k_0, -k_1])

    where index ``-0`` reads a zero row or column.  The plan keeps:

    * the twiddles ``w_0 w_1`` and ``-i conj(w_0 w_1)`` as tables of the
      complex work array's shape;
    * one real work array with a zero last row and column (index
      ``-0`` above) and one complex work array with the extra row ``n_0``.

    A solve multiplies by gains it is given (:func:`neumann_gains`) and
    allocates only its result.  One plan must therefore not solve from
    two threads at once.
    """

    def __init__(self, n):
        n0, n1 = n
        m = n1 // 2 + 1
        self.n = n
        self._work = np.zeros((n0 + 1, n1 + 1))
        self._spectrum = np.empty((n0 + 1, m), dtype=complex)
        # as tables: a multiply by a full table takes about half the time
        # of two broadcast multiplies by the per-axis vectors
        self._twiddle = np.outer(
            np.exp(-0.5j * np.pi * np.arange(n0 + 1) / n0),
            np.exp(-0.5j * np.pi * np.arange(m) / n1),
        )
        self._inverse_twiddle = -1j * np.conj(self._twiddle[:n0])
        # per axis: (reordered slice, cells) for the even cells in order,
        # then the odd cells in reverse order
        halves = [
            (
                (slice(0, (k + 1) // 2), slice(0, None, 2)),
                (slice((k + 1) // 2, k), slice(k - 1 - k % 2, 0, -2)),
            )
            for k in n
        ]
        self._quadrants = tuple(
            ((r0, r1), (c0, c1)) for r0, c0 in halves[0] for r1, c1 in halves[1]
        )

    def solve(self, rhs, gains):
        """``w`` with ``(a I - b lap_N) w = rhs``, as a new array, where
        ``gains`` is the grid's :func:`neumann_gains` of ``(a, b)``."""
        n0, n1 = self.n
        m = n1 // 2 + 1
        q = n1 - m  # columns m ... n1 - 1 hold k_1 = q ... 1
        work, spectrum = self._work, self._spectrum
        cells, half = work[:n0, :n1], spectrum[:n0]
        for reordered, source in self._quadrants:
            cells[reordered] = rhs[source]
        np.fft.rfft(cells, axis=1, out=half)
        np.fft.fft(half, axis=0, out=half)
        spectrum[n0] = spectrum[0]  # H is periodic in k_0
        spectrum *= self._twiddle
        re, im = spectrum.real, spectrum.imag
        # 2C, and -2C in the columns m ...
        np.subtract(re[:n0], im[n0:0:-1], out=cells[:, :m])
        np.add(re[n0:0:-1, q:0:-1], im[:n0, q:0:-1], out=cells[:, m:])
        cells *= gains
        np.add(work[n0:0:-1, :m], work[:n0, n1:q:-1], out=half.real)
        np.subtract(work[:n0, :m], work[n0:0:-1, n1:q:-1], out=half.imag)
        half *= self._inverse_twiddle
        np.fft.ifft(half, axis=0, out=half)
        np.fft.irfft(half, n=n1, axis=1, out=cells)
        w = np.empty(self.n)
        for reordered, source in self._quadrants:
            w[source] = cells[reordered]
        return w


def _neumann_symbol(n, h, count):
    """``lambda_k = (4/h^2) sin^2(pi k / 2n)`` for ``k < count``: the
    eigenvalues of ``-lap_N`` on ``n`` cells of width ``h``."""
    return (4.0 / (h * h)) * np.sin(np.pi * np.arange(count) / (2.0 * n)) ** 2


@functools.lru_cache(maxsize=16)
def neumann_gains(grid, a, b):
    """The gains of the ``(a I - b lap_N)`` solve on ``grid``, kept
    read-only per ``(grid, a, b)`` value, the last 16.

    In 1D they are ``1/(a + b lambda_k)``, ``k = 0 ... n``, the
    coefficients of the real-FFT basis of the even extension (length
    ``2n``).  In 2D they are the :class:`CosinePlan`'s: ``1/2`` over
    ``a + b lambda_{k_0} + b lambda_{k_1}``, negated in the columns
    ``n_1 // 2 + 1 ...`` that hold ``-2C``.
    """
    if grid.dimension == 1:
        (m,), (h,) = grid.n, grid.spacing
        gains = 1.0 / (a + b * _neumann_symbol(m, h, m + 1))
    else:
        lam0, lam1 = (_neumann_symbol(k, h, k) for k, h in zip(grid.n, grid.spacing))
        gains = 0.5 / (a + b * lam0[:, None] + b * lam1)
        gains[:, grid.n[1] // 2 + 1 :] *= -1.0
    gains.flags.writeable = False
    return gains


@functools.lru_cache(maxsize=8)
def cosine_plan(n):
    """The :class:`CosinePlan` of a 2D grid's cell counts, shared by grids
    of equal counts; the last 8 are kept."""
    return CosinePlan(n)


def is_dense_grid(grid):
    """Whether ``grid`` is a 1D grid of at most :data:`MAX_DENSE_CELLS`
    cells, on which a linear solve is one product with a kept dense
    inverse: one matrix-vector product there costs less than NumPy's
    per-call overhead on a transform pair or a CG loop."""
    return grid.dimension == 1 and grid.num_cells <= MAX_DENSE_CELLS


def neumann_solve(grid, rhs, a, b):
    """Solve ``(a I - b lap_N) w = rhs`` exactly for ``a > 0, b >= 0``.

    ``rhs`` is an array of the grid's shape.  The cosine basis
    diagonalizes ``lap_N``, so ``w`` is the inverse transform of the
    transformed ``rhs`` divided by ``a`` plus ``b`` times the symbol of
    ``-lap_N``.  The constant mode is divided by ``a`` alone, which makes
    ``sum(w) == sum(rhs) / a`` up to roundoff.

    In 1D the transform is numpy's real FFT of the even extension
    ``(rhs, rhs[::-1])``, on which the periodic second difference equals
    the reflected-ghost-cell one (the DCT-II up to scaling; Strang, SIAM
    Review 1999), and the coefficients are multiplied by gains kept per
    ``(grid, a, b)`` (:func:`neumann_gains`); on a grid that
    :func:`is_dense_grid` accepts, the solve is one product with the kept
    matrix of that transform solve (:func:`neumann_inverse`).  In 2D it is
    Makhoul's DCT-II on numpy's FFT, run by the grid's :func:`cosine_plan`
    in the plan's kept work arrays, so a solve allocates only its result;
    one plan, and so one grid value, must not be solved on from two
    threads at once.
    """
    if is_dense_grid(grid):
        return neumann_inverse(grid, a, b) @ rhs
    gains = neumann_gains(grid, a, b)
    if grid.dimension == 1:
        n = grid.n[0]
        coeffs = np.fft.rfft(np.concatenate((rhs, rhs[::-1])))
        coeffs *= gains
        return np.fft.irfft(coeffs, 2 * n)[:n]
    return cosine_plan(grid.n).solve(rhs, gains)


@functools.lru_cache(maxsize=8)
def neumann_inverse(grid, a, b):
    """``(a I - b lap_N)^{-1}`` on the 1D ``grid`` as a dense matrix: the
    matrix of the even-extension transform solve, built from the same
    gains.  Kept read-only per ``(grid, a, b)`` value, the last 8.

    The 1D solve is the circular convolution of the even extension with
    ``t = irfft(gains)`` (length ``2n``), so entry ``(i, j)`` is
    ``t[i - j] + t[i + j + 1]``, indices mod ``2n``: a Toeplitz plus a
    Hankel matrix.  Both are views of ``t``, added into the one ``n x n``
    array this allocates.
    """
    (n,) = grid.n
    t = np.fft.irfft(neumann_gains(grid, a, b), 2 * n)
    # row i of the Toeplitz view reads t[(i - j) mod 2n] at column j
    toeplitz = sliding_window_view(np.concatenate((t[n + 1 :], t[:n])), n)[:, ::-1]
    hankel = sliding_window_view(t[1:], n)
    inverse = np.add(toeplitz, hankel)
    inverse.flags.writeable = False
    return inverse


def cg(matvec, b, rtol, maxiter, callback=None):
    """Conjugate gradients for ``A x = b``, ``A`` SPD and given by ``matvec``
    on arrays of ``b``'s shape (any shape; dot products run over all
    entries).

    Starts from ``x = 0`` and stops once ``|r|_2 < rtol |b|_2``, tested
    before each iteration.  ``matvec``'s result is scaled in place and then
    holds ``alpha p`` for the update of ``x``, so the loop itself
    allocates nothing per iteration; it must be a new array that the
    caller does not read again.  Calls
    ``callback(x)`` once per iteration.
    Returns ``(x, 0)`` on convergence, or ``(x, maxiter)`` with the last
    iterate when the budget runs out.
    """
    x = np.zeros_like(b)
    b_norm = math.sqrt(dot(b, b))
    if b_norm == 0.0:
        return x, 0
    atol = rtol * b_norm
    r = b.copy()
    p = None
    for _ in range(maxiter):
        rho = dot(r, r)
        if math.sqrt(rho) < atol:
            return x, 0
        if p is None:
            p = r.copy()
        else:
            p *= rho / rho_prev
            p += r
        q = matvec(p)
        alpha = rho / dot(p, q)
        q *= alpha  # q is not read again: scale it in place for r -= alpha q
        r -= q
        x += np.multiply(p, alpha, out=q)  # and reuse it for alpha p
        rho_prev = rho
        if callback is not None:
            callback(x)
    return x, maxiter


def riesz_inverse(u):
    """Solve ``(I - lap_N) w = u`` exactly (see :func:`neumann_solve`)."""
    return Field(u.grid, neumann_solve(u.grid, u.data, 1.0, 1.0))


def dual_norm(u):
    """Dual (negative-order) norm ``sqrt((u, F^{-1} u)_H)``.

    Tiny negative pairings from roundoff are clamped to zero; anything
    below -1e-14 indicates a broken solve and raises.
    """
    w = riesz_inverse(u)
    val = inner_product("H", u, w)
    if val < -1e-14:
        raise SolverError(f"dual-norm pairing came out negative: {val}")
    return math.sqrt(max(val, 0.0))


def restrict(u, coarse):
    """Cell-average restriction onto a coarser grid of the same box.

    Requires each fine cell count to be an integer multiple of the
    coarse one; exact averaging keeps the restriction H-stable.
    """
    fine = u.grid
    if fine.dimension != coarse.dimension or fine.lengths != coarse.lengths:
        raise GridMismatchError("restriction requires the same box")
    factors = []
    for nf, nc in zip(fine.n, coarse.n):
        if nf % nc != 0:
            raise GridMismatchError(
                f"fine cells {nf} not an integer multiple of coarse cells {nc}"
            )
        factors.append(nf // nc)
    if all(f == 1 for f in factors):
        return Field(coarse, u.data.copy())
    # one (coarse cell, factor) axis pair per grid axis; average the factors
    blocks = u.data.reshape([m for pair in zip(coarse.n, factors) for m in pair])
    return Field(coarse, blocks.mean(axis=tuple(range(1, blocks.ndim, 2))))


def atomic_write(path, payload):
    """Write ``payload`` (str, bytes, or an iterable of str or of bytes
    chunks written one after another) to a temp file, then rename it to
    ``path``, so an interrupted write never leaves a partial file there.
    The file is opened in binary mode when the first chunk is bytes."""
    tmp = f"{path}.tmp.{os.getpid()}"
    chunks = iter((payload,) if isinstance(payload, (str, bytes)) else payload)
    try:
        first = next(chunks, "")
        with open(tmp, "wb" if isinstance(first, bytes) else "w") as fh:
            fh.write(first)
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_field(u, path, fmt="csv"):
    """Serialize a field atomically: CSV rows ``"{coords},{value:.17g}"``
    (comma-joined cell indices, row-major order), or raw little-endian
    float64 in row-major order.  The CSV is formatted and written in
    blocks of :data:`_CSV_BLOCK_CELLS` cells (see :func:`_csv_blocks`), so
    no whole-file string is built.  Every finite value gets the bytes of
    ``'%.17g'``: the digits come from a double-double product off the exact
    one by less than ``2^-47``, and a cell whose rounding fraction lies
    within ``2^-30`` of ``1/2`` is formatted by ``'%.17g'`` itself (see
    :func:`_significands`)."""
    if fmt == "csv":
        atomic_write(path, _csv_blocks(u))
    elif fmt == "binary":
        atomic_write(path, u.data.astype("<f8").tobytes())
    else:
        raise ValueError(f"unknown field format {fmt!r}")


# --- snapshot CSV formatting -------------------------------------------------

# cells per block of a snapshot CSV file; the largest temporary of a block
# is the index array of its gather, 8 bytes per byte written
_CSV_BLOCK_CELLS = 4096

# the fast path takes |x| in [1e-280, 1e280], so that no product below
# overflows or underflows; it scales by 10^p for p = 16 - k, k within one
# of floor(log10 |x|)
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_POW_MIN, _POW_MAX = -265, 298

# one value's columns: sign, the "0.000" that fixed notation puts before
# the digits of |x| < 1, the digits d_0 ... d_16 with a decimal point
# after each of d_0 ... d_15, and the exponent "e+ddd"; a value keeps a
# subset of them in order
_VALUE_TEMPLATE = b"-0.000" + b"0." * 16 + b"0" + b"e+000"
_LEAD = 6  # column of d_0
_EXP = _LEAD + 33  # column of the "e"
_LAYOUTS = 23  # fixed point for k = -4 ... 16, then "e+dd" and "e+ddd"


@functools.cache
def _powers_of_ten():
    """Columns ``hi, lo, hi_big, hi_small`` for ``p = _POW_MIN ... _POW_MAX``.
    ``hi`` is the double nearest ``10^p`` and ``lo`` the double nearest
    ``10^p - hi``, both from exact integer arithmetic (CPython rounds
    ``int / int`` and ``float(int)`` correctly), so ``hi + lo`` is ``10^p``
    to within ``2^-106`` relative.  ``hi_big + hi_small == hi`` is
    Veltkamp's split of ``hi``."""
    rows = []
    for p in range(_POW_MIN, _POW_MAX + 1):
        if p >= 0:
            hi = float(10**p)
            lo = float(10**p - int(hi))
        else:
            q = 10**-p
            hi = 1 / q
            num, den = hi.as_integer_ratio()
            lo = (den - num * q) / (den * q)
        rows.append((hi, lo))
    hi, lo = np.array(rows).T
    return (hi, lo, *_veltkamp_split(hi))


def _veltkamp_split(a):
    """``(big, small)`` with ``big + small == a`` exactly, each of at most
    26 significant bits, so the product of two halves is exact."""
    t = a * 134217729.0  # 2^27 + 1
    big = t - (t - a)
    return big, a - big


@functools.cache
def _digit_groups():
    """``(text, last)`` for ``g = 0 ... 9999``: ``text[g]`` is a ``uint32``
    whose four bytes are the ASCII digits of ``g`` with leading zeros, and
    ``last[g]`` the place (1 ... 4) of its last nonzero digit, or -99 for
    ``g = 0``."""
    g = np.arange(10000)
    digits = (ord("0") + g[:, None] // [1000, 100, 10, 1] % 10).astype(np.uint8)
    last = 4 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    return digits.view(np.uint32).ravel(), np.where(g > 0, last, -99).astype(np.int16)


@functools.cache
def _value_masks():
    """Which :data:`_VALUE_TEMPLATE` columns a value keeps, by the ``%g``
    rules, one row per ``(layout * 18 + s) * 2 + negative``; each row is
    one void item, so a gather copies whole rows.

    Layouts ``0 ... 20`` are fixed point with decimal exponent
    ``k = layout - 4``: integer digits ``d_0 ... d_k`` (kept even when
    zero), or ``"0."`` and ``-k - 1`` zeros when ``k < 0``.  Layouts 21 and
    22 are ``d_0.d_1...e±dd`` and ``e±ddd``.  Of the 17 digits the first
    ``s`` (the significant ones, at least 1) are kept, and the decimal
    point only when a digit follows it."""
    layout, s, neg = (
        g.ravel()
        for g in np.meshgrid(
            np.arange(_LAYOUTS), np.arange(18), np.arange(2), indexing="ij"
        )
    )
    fixed = layout < 21
    k = layout - 4
    small = fixed & (k < 0)
    s = np.where(fixed & (k >= 0), np.maximum(s, k + 1), s)
    point = np.where(fixed, np.where(k >= 0, k, -1), 0)  # digit before the point
    i = np.arange(17)
    keep = np.zeros((layout.size, len(_VALUE_TEMPLATE)), dtype=bool)
    keep[:, 0] = neg
    keep[:, 1:3] = small[:, None]
    keep[:, 3:_LEAD] = small[:, None] & (i[:3] < (-k - 1)[:, None])
    keep[:, _LEAD:_EXP:2] = i < s[:, None]
    keep[:, _LEAD + 1 : _EXP : 2] = (i[:16] == point[:, None]) & (
        i[:16] + 1 < s[:, None]
    )
    keep[:, _EXP : _EXP + 2] = ~fixed[:, None]
    keep[:, _EXP + 2] = layout == 22
    keep[:, _EXP + 3 :] = ~fixed[:, None]
    return keep.view(np.dtype((np.void, keep.shape[1]))).ravel()


def _significands(x):
    """``(n, k, decided)``: the 17 significant digits ``'%.17g'`` prints
    for each float64 in ``x``, as the integer ``n = round(|x| 10^(16-k))``
    in ``[10^16, 10^17)``, and its decimal exponent ``k``, where
    ``decided`` holds; elsewhere ``n = k = 0``, which is the text of
    ``+-0.0``.

    With ``k = floor(log10 |x|)``, ``|x| 10^(16-k)`` comes as ``P + r``
    (see :func:`_times_power_of_ten`), ``P`` an integer and ``|r| < 20``,
    off the exact product by less than ``2^-47``.  Rounding it is
    therefore exact unless the fraction of ``r`` lies within ``2^-47`` of
    ``1/2``.  A cell is left undecided when that fraction is within
    ``2^-30`` of ``1/2`` (ties), when ``floor(P + r)`` falls below
    ``10^16`` or its rounding reaches ``10^17`` (``log10`` rounded across
    a power of ten), or when ``|x|`` lies outside ``[1e-280, 1e280]``,
    where the products could overflow or underflow.
    """
    a = np.abs(x)
    inside = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a[~inside] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    whole, rest = _times_power_of_ten(a, 16 - k)
    floor = np.floor(rest)
    rest -= floor  # now the fraction
    n = whole.astype(np.int64) + floor.astype(np.int64)
    decided = inside & (n >= 10**16) & (np.abs(rest - 0.5) > 2.0**-30)
    n += rest > 0.5
    decided &= n < 10**17
    return np.where(decided, n, 0), np.where(decided, k, 0), decided


def _times_power_of_ten(a, p):
    """``a 10^p`` for ``1e-280 <= a <= 1e280`` and ``a 10^p`` in about
    ``[10^16, 10^17]``, as a double-double ``(P, r)``: Dekker's product
    (Numer. Math. 18, 1971) gives ``a hi`` exactly as ``P + e`` (``P``
    exceeds ``2^53``, so it is an integer), and ``r = e + a lo``.  The
    error is below ``2^-47``: the ``2^-106`` relative error of ``hi + lo``,
    one rounding of ``a lo`` and one of the sum, each at most ``2^-49``
    since ``P < 10^17 < 2^57`` and ``|r| < 20``."""
    hi, lo, hi_big, hi_small = (t.take(p - _POW_MIN) for t in _powers_of_ten())
    big, small = _veltkamp_split(a)
    whole = a * hi
    rest = (
        ((big * hi_big - whole) + big * hi_small) + small * hi_big
    ) + small * hi_small
    rest += a * lo
    return whole, rest


def _format_values(x, value, keep):
    """Write the ``'%.17g'`` text of each float64 in ``x`` into the rows
    of ``value`` (preset to :data:`_VALUE_TEMPLATE`) and the columns it
    keeps into ``keep``.

    The digits come from :func:`_significands`.  The cells it leaves
    undecided, other than ``+-0.0``, are formatted by Python's
    ``'%.17g'`` and spliced in, so every finite value gets the bytes of
    ``'%.17g'``.
    """
    text, last = _digit_groups()
    n, k, decided = _significands(x)
    # d_0 as the group "000d", then d_1 ... d_16 as four groups; s counts
    # the digits up to the last nonzero one (1 for zero)
    quads = np.empty((x.size, 5), dtype=np.uint32)
    quads[:, 0] = text.take(n // 10**16)
    s = np.ones(x.size, dtype=np.int16)
    for j, scale in enumerate((10**12, 10**8, 10**4, 1)):
        g = n // scale % 10**4
        quads[:, j + 1] = text.take(g)
        s = np.maximum(s, 4 * j + 1 + last.take(g))
    value[:, _LEAD:_EXP:2] = quads.view(np.uint8)[:, 3:]
    # the exponent's digits as "0ddd", whose "0" the sign overwrites
    value[:, _EXP + 1 :] = text.take(np.abs(k)).view(np.uint8).reshape(-1, 4)
    value[:, _EXP + 1] = np.where(k < 0, ord("-"), ord("+"))
    exponential = (k < -4) | (k >= 17)
    layout = np.where(exponential, 21 + (np.abs(k) >= 100), k + 4)
    code = (layout * 18 + s) * 2 + np.signbit(x)
    keep[:] = _value_masks().take(code).view(bool).reshape(keep.shape)

    for c in np.flatnonzero(~decided & (x != 0.0)):
        line = b"%.17g" % float(x[c])
        value[c, : len(line)] = np.frombuffer(line, np.uint8)
        keep[c] = False
        keep[c, : len(line)] = True


def _csv_blocks(u):
    """The bytes of ``u``'s snapshot CSV, one chunk per block of
    :data:`_CSV_BLOCK_CELLS` cells.  A block is a ``uint8`` matrix with
    one row per cell (its :attr:`Grid.csv_prefixes` row, its value
    columns from :func:`_format_values` and a newline) and a ``bool``
    matrix of the bytes kept, which one ``np.compress`` gathers; so
    temporaries stay within a few hundred bytes per cell of a block."""
    text = u.grid.csv_prefixes
    flat = u.data.ravel()
    width = text.shape[1]
    rows = np.empty(
        (min(_CSV_BLOCK_CELLS, flat.size), width + len(_VALUE_TEMPLATE) + 1), np.uint8
    )
    take = np.empty(rows.shape, dtype=bool)
    rows[:, -1], take[:, -1] = ord("\n"), True
    for start in range(0, flat.size, _CSV_BLOCK_CELLS):
        stop = min(start + _CSV_BLOCK_CELLS, flat.size)
        block, mask = rows[: stop - start], take[: stop - start]
        block[:, :width] = text[start:stop]
        np.not_equal(block[:, :width], 0, out=mask[:, :width])
        block[:, width:-1] = np.frombuffer(_VALUE_TEMPLATE, np.uint8)
        _format_values(flat[start:stop], block[:, width:-1], mask[:, width:-1])
        yield np.compress(mask.ravel(), block.ravel()).tobytes()


def read_field(grid, path, fmt="csv"):
    """Read a field snapshot written by :func:`write_field`.

    Every cell must be given exactly once: a missing, repeated or
    out-of-range cell, a malformed CSV row, a binary file of the wrong
    size or a non-finite value raises :class:`ConfigError` naming the
    path and the first bad cell.
    """
    readers = {"csv": _read_csv_cells, "binary": _read_binary_cells}
    if fmt not in readers:
        raise ValueError(f"unknown field format {fmt!r}")
    try:
        data = readers[fmt](grid, path)
    except OSError as err:
        raise ConfigError(f"cannot read field file {path!r}: {err}") from err
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        raise ConfigError(
            f"field file {path!r}: non-finite value at cell {_cell(bad[0])}"
        )
    return Field(grid, data)


def _cell(index):
    return tuple(int(i) for i in index)


def _read_binary_cells(grid, path):
    with open(path, "rb") as fh:
        raw = fh.read()
    expected = 8 * grid.num_cells
    if len(raw) != expected:
        raise ConfigError(
            f"field file {path!r} holds {len(raw)} bytes, expected {expected} "
            f"for {grid.num_cells} float64 cells"
        )
    return np.frombuffer(raw, dtype="<f8").reshape(grid.shape).astype(np.float64)


def _read_csv_cells(grid, path):
    data = np.zeros(grid.shape)
    seen = np.zeros(grid.shape, dtype=bool)
    ncols = grid.dimension + 1
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"field file {path!r} line {lineno}"
            parts = line.split(",")
            if len(parts) != ncols:
                raise ConfigError(f"{where}: expected {ncols} columns, got {len(parts)}")
            try:
                idx = tuple(int(p) for p in parts[:-1])
                value = float(parts[-1])
            except ValueError as err:
                raise ConfigError(f"{where}: cannot parse {line!r}") from err
            if any(not 0 <= i < m for i, m in zip(idx, grid.shape)):
                raise ConfigError(f"{where}: cell {idx} outside the grid {grid.shape}")
            if seen[idx]:
                raise ConfigError(f"{where}: cell {idx} repeated")
            seen[idx] = True
            data[idx] = value
    missing = np.argwhere(~seen)
    if missing.size:
        raise ConfigError(f"field file {path!r}: cell {_cell(missing[0])} missing")
    return data
