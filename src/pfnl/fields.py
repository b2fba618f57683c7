"""Grids on box domains, scalar fields, and the L2/H1/dual norm toolbox.

All fields are cell-centered samples on a uniform tensor grid over
``[0, L_1] x ... x [0, L_d]`` with homogeneous Neumann boundary behaviour
realized by ghost-cell reflection.  The discrete gradient lives on cell
faces so that ``(-lap(u), w)_H == (grad u, grad w)_H`` holds to machine
precision; that exact integration-by-parts is what makes the energy
identities downstream hold at the discrete level.

Every ``(a I - b lap_N)`` solve goes through :func:`neumann_solve`: the
orthonormal DCT-II diagonalizes the reflected-ghost-cell Laplacian exactly,
so the solve is a transform pair and one division, in 1D and 2D alike.

Dual-space machinery: the pivot identification of L2 with its dual turns
the H1 Riesz map into the SPD operator ``F = I - lap_N``.  ``dual_norm``
evaluates ``sqrt((u, F^{-1} u)_H)``.

SPD systems that no transform diagonalizes (the phase Newton's Jacobian)
go through :func:`cg`, plain conjugate gradients on arrays of the grid's
shape.  It starts from ``x = 0`` and stops once ``|r|_2 < rtol |b|_2``,
tested before each iteration: the rule of scipy's ``cg`` with
``atol = 0``, so it takes the same iterations.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.fft import dct, dctn, idct, idctn

from .errors import ConfigError, GridMismatchError, SolverError


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
    def neumann_symbol(self):
        """Eigenvalues of ``-lap_N`` in the orthonormal DCT-II basis.

        Per axis ``(4/h^2) sin^2(pi k / 2n)``, summed over the axes.  Cached
        on the instance; the cache takes no part in equality or hashing.
        """
        per_axis = [
            (4.0 / (h * h)) * np.sin(np.pi * np.arange(m) / (2.0 * m)) ** 2
            for m, h in zip(self.n, self.spacing)
        ]
        return sum(np.ix_(*per_axis))

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
    def csv_template(self):
        """``%``-template of a snapshot CSV file: one ``"i[,j],%.17g"`` row
        per cell in row-major order (last axis fastest, like ``ravel``).
        Cached on the instance, so only the values are formatted per file."""
        coords = itertools.product(*([str(i) for i in range(m)] for m in self.n))
        return "".join(f"{','.join(c)},%.17g\n" for c in coords)


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


def ones(grid):
    return Field(grid, np.ones(grid.shape))


def field_from_function(grid, fn):
    """Sample ``fn(x1[, x2])`` at the cell centers."""
    return Field(grid, np.asarray(fn(*grid.meshgrid()), dtype=np.float64))


def inner_product(space, u1, u2):
    """Inner product of two fields.

    ``space="H"`` is the midpoint-rule L2 product ``h^d sum(u1*u2)``,
    one ``np.vdot`` reduction; ``space="V"`` adds the face-centered
    gradient term.
    """
    _require_same_grid(u1, u2)
    if space == "H":
        return u1.grid.cell_volume * float(np.vdot(u1.data, u2.data))
    if space == "V":
        return inner_product("H", u1, u2) + grad_inner(u1, u2)
    raise ValueError(f"unknown space {space!r} (expected 'H' or 'V')")


def grad_inner(u1, u2):
    """Face-centered gradient product ``(grad u1, grad u2)_H``: per axis,
    one ``np.vdot`` of the interior-face differences (Neumann faces drop
    out)."""
    _require_same_grid(u1, u2)
    vol = u1.grid.cell_volume
    total = 0.0
    for lo, hi, h_sq in u1.grid.faces:
        d1 = u1.data[hi] - u1.data[lo]
        d2 = d1 if u2 is u1 else u2.data[hi] - u2.data[lo]
        total += vol / h_sq * float(np.vdot(d1, d2))
    return total


def norm(u, space="H"):
    """Norm of a field in H, V, or W (W uses the Neumann Laplacian)."""
    if space == "H":
        return math.sqrt(max(inner_product("H", u, u), 0.0))
    if space == "V":
        return math.sqrt(max(inner_product("V", u, u), 0.0))
    if space == "W":
        lap = neumann_laplacian(u)
        return math.sqrt(
            max(inner_product("H", lap, lap) + inner_product("H", u, u), 0.0)
        )
    raise ValueError(f"unknown space {space!r}")


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


def riesz_apply(u):
    """Apply ``F = I - lap_N`` (the H1 Riesz map under the L2 pivot)."""
    return Field(u.grid, u.data - laplacian(u.grid, u.data))


def neumann_solve(grid, rhs, a, b):
    """Solve ``(a I - b lap_N) w = rhs`` exactly for ``a > 0, b >= 0``.

    ``rhs`` is an array of the grid's shape.  The orthonormal DCT-II
    diagonalizes ``lap_N``, so ``w`` is the inverse transform of the
    transformed ``rhs`` divided by ``a + b * grid.neumann_symbol``.  The
    constant mode is divided by ``a`` alone, which makes
    ``sum(w) == sum(rhs) / a`` up to roundoff.  A 1D grid calls the 1D
    transforms, which give the same result with less call overhead.
    """
    forward, inverse = (dct, idct) if grid.dimension == 1 else (dctn, idctn)
    coeffs = forward(rhs, type=2, norm="ortho")
    coeffs /= a + b * grid.neumann_symbol
    return inverse(coeffs, type=2, norm="ortho", overwrite_x=True)


def cg(matvec, b, rtol, maxiter, callback=None):
    """Conjugate gradients for ``A x = b``, ``A`` SPD and given by ``matvec``
    on arrays of ``b``'s shape (any shape; dot products run over all
    entries).

    Starts from ``x = 0`` and stops once ``|r|_2 < rtol |b|_2``, tested
    before each iteration.  Calls ``callback(x)`` once per iteration.
    Returns ``(x, 0)`` on convergence, or ``(x, maxiter)`` with the last
    iterate when the budget runs out.
    """
    x = np.zeros_like(b)
    b_norm = math.sqrt(float(np.vdot(b, b)))
    if b_norm == 0.0:
        return x, 0
    atol = rtol * b_norm
    r = b.copy()
    p = None
    for _ in range(maxiter):
        rho = float(np.vdot(r, r))
        if math.sqrt(rho) < atol:
            return x, 0
        if p is None:
            p = r.copy()
        else:
            p *= rho / rho_prev
            p += r
        q = matvec(p)
        alpha = rho / float(np.vdot(p, q))
        x += alpha * p
        r -= alpha * q
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
    if fine.dimension == 1:
        data = u.data.reshape(coarse.n[0], factors[0]).mean(axis=1)
    else:
        data = u.data.reshape(
            coarse.n[0], factors[0], coarse.n[1], factors[1]
        ).mean(axis=(1, 3))
    return Field(coarse, data)


def atomic_write(path, payload):
    """Write ``payload`` (str or bytes) to a temp file, then rename it to
    ``path``, so an interrupted write never leaves a partial file there."""
    tmp = f"{path}.tmp.{os.getpid()}"
    mode = "wb" if isinstance(payload, bytes) else "w"
    try:
        with open(tmp, mode) as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_field(u, path, fmt="csv"):
    """Serialize a field atomically: CSV rows ``"{coords},{value:.17g}"``
    (comma-joined cell indices, row-major order), or raw little-endian
    float64 in row-major order."""
    if fmt == "csv":
        atomic_write(path, u.grid.csv_template % tuple(u.data.ravel().tolist()))
    elif fmt == "binary":
        atomic_write(path, u.data.astype("<f8").tobytes())
    else:
        raise ValueError(f"unknown field format {fmt!r}")


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
