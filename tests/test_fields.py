import math
import os
import tempfile
import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ones, rough_field, smooth_field, traced_peak
from pfnl import fields as fields_module
from pfnl.errors import ConfigError, GridMismatchError
from pfnl.fields import (
    DOT_BLOCK,
    MAX_DENSE_CELLS,
    Field,
    Grid,
    atomic_write,
    cg,
    cosine_plan,
    dot,
    dots,
    dual_norm,
    field_from_function,
    grad_inner,
    inner_product,
    laplacian,
    neumann_inverse,
    neumann_gains,
    neumann_laplacian,
    neumann_solve,
    norm,
    read_field,
    restrict,
    riesz_inverse,
    write_field,
    zeros,
)


def discrete_neumann_eigenvalue(grid, k=1, axis=0):
    """Exact eigenvalue of the reflected 3-point stencil for cos(k pi x / L)."""
    h = grid.spacing[axis]
    L = grid.lengths[axis]
    return (2.0 / h**2) * (1.0 - math.cos(k * math.pi * h / L))


def spd_system(rng, shape, condition=10.0):
    """Dense SPD matrix with eigenvalues spread over ``[1, condition]`` and a
    random right-hand side of ``shape``."""
    n = math.prod(shape)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    A = (q * np.geomspace(1.0, condition, n)) @ q.T
    return 0.5 * (A + A.T), rng.normal(size=shape)


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid.line(3)
        with pytest.raises(ValueError):
            Grid((1.0,), (8, 8))
        with pytest.raises(ValueError):
            Grid((-1.0,), (8,))

    def test_cell_centers(self):
        g = Grid.line(4, 2.0)
        assert np.allclose(g.axis_centers(0), [0.25, 0.75, 1.25, 1.75])
        assert g.cell_volume == pytest.approx(0.5)

    def test_field_shape_and_finiteness(self):
        g = Grid.line(8)
        with pytest.raises(ValueError):
            Field(g, np.zeros(7))
        bad = np.zeros(8)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            Field(g, bad)


class TestInnerProducts:
    def test_constants(self):
        g = Grid.line(64)
        u = ones(g)
        assert inner_product("H", u, u) == pytest.approx(1.0, abs=1e-14)
        assert inner_product("V", u, u) == pytest.approx(1.0, abs=1e-14)

    def test_cosine_h_norm(self):
        g = Grid.line(512)
        u = field_from_function(g, lambda x: np.cos(np.pi * x))
        assert inner_product("H", u, u) == pytest.approx(0.5, abs=1e-4)

    def test_cosine_v_norm(self):
        g = Grid.line(512)
        u = field_from_function(g, lambda x: np.cos(np.pi * x))
        assert inner_product("V", u, u) == pytest.approx(
            0.5 + math.pi**2 / 2.0, abs=1e-2
        )

    def test_grid_mismatch(self):
        u = ones(Grid.line(8))
        w = ones(Grid.line(16))
        with pytest.raises(GridMismatchError):
            inner_product("H", u, w)

    def test_integration_by_parts_exact(self, rng):
        # (-lap u, w)_H == (grad u, grad w)_H by the staggered construction
        for grid in [Grid.line(32), Grid.box(12)]:
            u = rough_field(grid, rng)
            w = rough_field(grid, rng)
            lhs = -inner_product("H", neumann_laplacian(u), w)
            rhs = grad_inner(u, w)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("grid", [Grid.line(40), Grid((1.0, 2.5), (12, 17))])
    def test_vdot_reductions_match_sum_formulas(self, grid, rng):
        # one fields.dot per pairing gives the np.sum(a*b) formulas to roundoff
        vol = grid.cell_volume
        close = lambda a, b: a == pytest.approx(b, rel=1e-14, abs=0.0)
        for _ in range(5):
            u, w = rough_field(grid, rng), rough_field(grid, rng)
            h_uw = vol * float(np.sum(u.data * w.data))
            grad_uw = sum(
                vol / (h * h)
                * float(np.sum(np.diff(u.data, axis=k) * np.diff(w.data, axis=k)))
                for k, h in enumerate(grid.spacing)
            )
            grad_uu = sum(
                vol / (h * h) * float(np.sum(np.diff(u.data, axis=k) ** 2))
                for k, h in enumerate(grid.spacing)
            )
            h_uu = vol * float(np.sum(u.data * u.data))
            assert close(inner_product("H", u, w), h_uw)
            assert close(grad_inner(u, w), grad_uw)
            assert close(grad_inner(u, u), grad_uu)
            assert close(inner_product("V", u, w), h_uw + grad_uw)
            assert close(norm(u, "H"), math.sqrt(h_uu))
            assert close(norm(u, "V"), math.sqrt(h_uu + grad_uu))


class TestDot:
    @pytest.mark.parametrize(
        "shape", [(1,), (40,), (320,), (DOT_BLOCK,), (12, 17), (64, 128)]
    )
    def test_up_to_a_block_is_vdot(self, shape, rng):
        # the 1D hot path and small 2D grids keep np.vdot's bits
        a, b = rng.standard_normal(shape), rng.standard_normal(shape)
        assert dot(a, b) == float(np.vdot(a, b))

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.one_of(
            st.integers(DOT_BLOCK - 64, DOT_BLOCK + 64),
            st.integers(2 * DOT_BLOCK - 3, 2 * DOT_BLOCK + 3),
            st.integers(12 * DOT_BLOCK, 13 * DOT_BLOCK),
        ),
        seed=st.integers(0, 2**32 - 1),
        offset=st.sampled_from([0.0, 1.0, -3.0]),
    )
    def test_matches_exact_sum(self, n, seed, offset):
        # either side of the block size, within the a priori bound of any
        # summation order: n eps sum |a b|
        gen = np.random.default_rng(seed)
        a = gen.standard_normal(n) + offset
        b = gen.standard_normal(n)
        products = a * b
        exact = math.fsum(products)
        bound = n * np.finfo(float).eps * math.fsum(np.abs(products))
        assert abs(dot(a, b) - exact) <= bound
        assert dot(a.reshape(-1, 1), b.reshape(-1, 1)) == dot(a, b)

    @pytest.mark.parametrize(
        "shape", [(1, 40), (51, 40), (6, 320), (3, 12, 17), (2, 128, 128)]
    )
    def test_dots_is_dot_per_row(self, shape, rng):
        # stacked rows keep each row's dot bits, either side of DOT_BLOCK
        a, b = rng.standard_normal(shape), rng.standard_normal(shape)
        assert dots(a, b).tolist() == [dot(x, y) for x, y in zip(a, b)]
        assert dots(a[:, ::-1], a[:, ::-1]).tolist() == [dot(x, x) for x in a[:, ::-1]]


class TestLaplacian:
    def test_constant(self):
        g = Grid.line(32)
        assert np.max(np.abs(neumann_laplacian(ones(g)).data)) == 0.0

    def test_conservative(self, rng):
        for grid in [Grid.line(64), Grid.box(16)]:
            u = rough_field(grid, rng)
            total = np.sum(neumann_laplacian(u).data)
            assert abs(total) <= 1e-10 * np.max(np.abs(u.data)) / grid.cell_volume

    def test_cosine_eigenfunction(self):
        g = Grid.line(512)
        u = field_from_function(g, lambda x: np.cos(np.pi * x))
        lap = neumann_laplacian(u)
        err = np.max(np.abs(lap.data + math.pi**2 * u.data))
        assert err <= 1e-3

    def test_cosine_eigen_discrete_exact(self):
        # cell-centered cosine modes are exact discrete eigenvectors
        g = Grid.line(128)
        u = field_from_function(g, lambda x: np.cos(np.pi * x))
        lam = discrete_neumann_eigenvalue(g)
        lap = neumann_laplacian(u)
        assert np.max(np.abs(lap.data + lam * u.data)) <= 1e-9 * lam

    def test_2d_eigenfunction(self):
        g = Grid.box(128)
        u = field_from_function(
            g, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y)
        )
        lap = neumann_laplacian(u)
        assert np.max(np.abs(lap.data + 2.0 * math.pi**2 * u.data)) <= 5e-3

    def test_symmetric_negative_semidefinite(self, rng):
        g = Grid.line(48)
        for _ in range(10):
            u = rough_field(g, rng)
            w = rough_field(g, rng)
            a = inner_product("H", neumann_laplacian(u), w)
            b = inner_product("H", u, neumann_laplacian(w))
            assert a == pytest.approx(b, rel=1e-11, abs=1e-11)
            assert inner_product("H", neumann_laplacian(u), u) <= 1e-12


    @pytest.mark.parametrize(
        "grid", [Grid.line(33), Grid((1.0, 2.5), (12, 20))], ids=["1d", "2d"]
    )
    def test_matches_ghost_cell_stencil(self, grid, rng):
        # reference: (u[i+1] - 2 u[i] + u[i-1]) / h^2 on edge-padded data
        u = rough_field(grid, rng)
        ref = np.zeros(grid.shape)
        for axis, h in enumerate(grid.spacing):
            pad = [(1, 1) if k == axis else (0, 0) for k in range(grid.dimension)]
            padded = np.pad(u.data, pad, mode="edge")
            m = grid.n[axis]
            up = np.take(padded, np.arange(2, m + 2), axis=axis)
            down = np.take(padded, np.arange(0, m), axis=axis)
            ref += (up - 2.0 * u.data + down) / (h * h)
        lap = neumann_laplacian(u).data
        assert np.max(np.abs(lap - ref)) <= 1e-12 * np.max(np.abs(ref))


def fft_calls(monkeypatch):
    """A list that gets one entry per call of numpy's FFT functions."""
    calls = []
    for name in ("rfft", "irfft", "fft", "ifft"):
        real = getattr(np.fft, name)

        def counting(*args, _real=real, **kwargs):
            calls.append(_real.__name__)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    return calls


def dense_laplacian(grid):
    """``lap_N`` assembled column by column from :func:`neumann_laplacian`."""
    cols = []
    for j in range(grid.num_cells):
        e = np.zeros(grid.num_cells)
        e[j] = 1.0
        cols.append(neumann_laplacian(Field(grid, e.reshape(grid.shape))).data.ravel())
    return np.column_stack(cols)


class TestNeumannSolve:
    @pytest.mark.parametrize(
        "grid", [Grid.line(5), Grid.line(7), Grid((1.0, 2.5), (5, 7))]
    )
    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (1.0, 1e-3)])
    def test_matches_dense_solve(self, grid, a, b, rng):
        matrix = a * np.eye(grid.num_cells) - b * dense_laplacian(grid)
        rhs = rng.normal(size=grid.shape)
        w = neumann_solve(grid, rhs, a, b)
        ref = np.linalg.solve(matrix, rhs.ravel()).reshape(grid.shape)
        assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(ref))
        # the constant mode sees only ``a``: mass is conserved exactly
        assert np.sum(w) == pytest.approx(np.sum(rhs) / a, rel=0.0, abs=1e-13)

    @pytest.mark.parametrize("n", [4, 5, 7, 64, 320, 1000])
    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (1.0, 1e-3)])
    def test_1d_matches_scipy_dct(self, n, a, b, rng):
        # the 1D solve runs on numpy's FFT of the even extension; scipy's
        # orthonormal DCT-II pair is the oracle
        from scipy.fft import dct, idct

        grid = Grid.line(n)
        rhs = rng.normal(size=n)
        w = neumann_solve(grid, rhs, a, b)
        symbol = (4.0 / grid.spacing[0] ** 2) * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2
        ref = idct(dct(rhs, norm="ortho") / (a + b * symbol), norm="ortho")
        assert np.max(np.abs(w - ref)) <= 1e-13 * np.max(np.abs(ref))
        roundoff = 16 * np.finfo(np.float64).eps * np.sum(np.abs(rhs))
        assert np.sum(w) == pytest.approx(np.sum(rhs) / a, rel=0.0, abs=roundoff)

    @pytest.mark.parametrize("n", [4, 5, 40, 161, 256])
    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (1.0, 1e-3), (1.001e6, 1.0)])
    def test_1d_inverse_is_the_solve(self, n, a, b, rng, monkeypatch):
        # the dense matrix applies the even-extension solve: equal to
        # roundoff, with the column sums 1/a, so a product conserves mass
        # like the solve
        grid = Grid.line(n)
        inverse = neumann_inverse(grid, a, b)
        rhs = rng.normal(size=n)
        monkeypatch.setattr(fields_module, "MAX_DENSE_CELLS", 0)
        w = neumann_solve(grid, rhs, a, b)
        assert np.max(np.abs(inverse @ rhs - w)) <= 1e-14 * np.max(np.abs(w))
        assert np.max(np.abs(inverse.sum(axis=0) * a - 1.0)) <= 1e-14

    @pytest.mark.parametrize("n", [40, MAX_DENSE_CELLS, MAX_DENSE_CELLS + 1, 320])
    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (1.0, 1e-3)])
    def test_1d_routing(self, n, a, b, rng, monkeypatch):
        # up to MAX_DENSE_CELLS cells the solve is the kept matrix's
        # product, bit for bit and with no FFT; above it, the even extension
        grid = Grid.line(n)
        rhs = rng.normal(size=n)
        dense = n <= MAX_DENSE_CELLS
        if dense:
            kept = neumann_inverse(grid, a, b) @ rhs
        calls = fft_calls(monkeypatch)
        w = neumann_solve(grid, rhs, a, b)
        if dense:
            assert calls == []
            assert np.array_equal(w, kept)
        else:
            assert calls == ["rfft", "irfft"]

    def test_1d_inverse_kept_read_only(self):
        inverse = neumann_inverse(Grid.line(40), 1.0, 1e-3)
        assert neumann_inverse(Grid.line(40), 1.0, 1e-3) is inverse
        assert not inverse.flags.writeable

    @pytest.mark.parametrize(
        "n",
        [(4, 4), (5, 7), (16, 23), (160, 160), (320, 320)],
        ids=lambda n: f"{n[0]}x{n[1]}",
    )
    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (1.0, 1e-3)])
    def test_2d_matches_scipy_dctn(self, n, a, b, rng):
        # the 2D solve runs Makhoul's transform on numpy's FFT; scipy's
        # orthonormal DCT-II pair is the oracle
        from scipy.fft import dctn, idctn

        grid = Grid((1.0, 2.5), n)
        rhs = rng.normal(size=n)
        w = neumann_solve(grid, rhs, a, b)
        symbol = sum(
            np.ix_(
                *(
                    (4.0 / h**2) * np.sin(np.pi * np.arange(m) / (2 * m)) ** 2
                    for m, h in zip(grid.n, grid.spacing)
                )
            )
        )
        ref = idctn(dctn(rhs, norm="ortho") / (a + b * symbol), norm="ortho")
        assert np.max(np.abs(w - ref)) <= 1e-13 * np.max(np.abs(ref))
        roundoff = 16 * np.finfo(np.float64).eps * np.sum(np.abs(rhs))
        assert np.sum(w) == pytest.approx(np.sum(rhs) / a, rel=0.0, abs=roundoff)

    def test_2d_results_do_not_alias_the_plan(self, rng):
        # the plan's work arrays are reused by every solve: each result
        # must be a new array that the next solve leaves as it was
        grid = Grid((1.0, 2.5), (16, 23))
        matrix = np.eye(grid.num_cells) - 1e-2 * dense_laplacian(grid)
        rhs1, rhs2 = rng.normal(size=grid.shape), rng.normal(size=grid.shape)
        w1 = neumann_solve(grid, rhs1, 1.0, 1e-2)
        kept = w1.copy()
        w2 = neumann_solve(grid, rhs2, 1.0, 1e-2)
        assert not np.shares_memory(w1, w2)
        np.testing.assert_array_equal(w1, kept)
        for w, rhs in ((w1, rhs1), (w2, rhs2)):
            ref = np.linalg.solve(matrix, rhs.ravel()).reshape(grid.shape)
            assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_equal_grids_share_one_plan(self):
        first, second = Grid.box(12), Grid.box(12)
        assert first is not second
        plan = cosine_plan(first.n)
        assert cosine_plan(second.n) is plan
        assert cosine_plan((12, 13)) is not plan

    def test_equal_counts_share_the_plan_not_the_gains(self, rng):
        # the plan is keyed on the cell counts alone; a box of other lengths
        # solves on the same plan with its own gains
        grid = Grid((1.0, 2.5), (12, 12))
        assert cosine_plan(grid.n) is cosine_plan(Grid.box(12).n)
        assert neumann_gains(grid, 1.0, 1e-2) is not neumann_gains(Grid.box(12), 1.0, 1e-2)
        matrix = np.eye(grid.num_cells) - 1e-2 * dense_laplacian(grid)
        rhs = rng.normal(size=grid.shape)
        ref = np.linalg.solve(matrix, rhs.ravel()).reshape(grid.shape)
        w = neumann_solve(grid, rhs, 1.0, 1e-2)
        assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("grid", [Grid.line(300), Grid.box(12)], ids=["1d", "2d"])
    def test_gains_kept_read_only(self, grid):
        gains = neumann_gains(grid, 1.0, 1e-3)
        assert neumann_gains(grid, 1.0, 1e-3) is gains
        assert not gains.flags.writeable


class TestRiesz:
    def test_constant_fixed_point(self):
        g = Grid.line(32)
        u = Field(g, np.full(g.shape, 3.5))
        w = riesz_inverse(u)
        assert np.max(np.abs(w.data - 3.5)) <= 1e-12

    def test_cosine_eigen_relation(self):
        g = Grid.line(512)
        u = field_from_function(g, lambda x: np.cos(np.pi * x))
        w = riesz_inverse(u)
        assert np.max(np.abs(w.data - u.data / (1.0 + math.pi**2))) <= 1e-4

    @pytest.mark.parametrize("grid", [Grid.line(64), Grid.box(16)])
    def test_round_trip(self, grid, rng):
        u = rough_field(grid, rng)
        w = riesz_inverse(u).data
        back = w - laplacian(grid, w)  # F = I - lap_N
        assert np.max(np.abs(back - u.data)) <= 1e-8 * max(
            1.0, np.max(np.abs(u.data))
        )

    def test_linearity(self, rng):
        g = Grid.line(64)
        u, w = rough_field(g, rng), rough_field(g, rng)
        combo = riesz_inverse(Field(g, 2.0 * u.data - 3.0 * w.data))
        parts = Field(
            g, 2.0 * riesz_inverse(u).data - 3.0 * riesz_inverse(w).data
        )
        assert np.max(np.abs(combo.data - parts.data)) <= 1e-10

    def test_pairing_symmetry(self, rng):
        g = Grid.line(64)
        for _ in range(10):
            u, w = rough_field(g, rng), rough_field(g, rng)
            a = inner_product("H", u, riesz_inverse(w))
            b = inner_product("H", w, riesz_inverse(u))
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


class TestDualNorm:
    def test_zero(self):
        g = Grid.line(16)
        assert dual_norm(zeros(g)) == 0.0

    def test_constant(self):
        g = Grid.line(32)
        u = Field(g, np.full(g.shape, -2.0))
        assert dual_norm(u) == pytest.approx(2.0, rel=1e-12)

    def test_cosine_eigen_oracle(self):
        g = Grid.line(512)
        u = field_from_function(g, lambda x: np.cos(np.pi * x))
        lam = discrete_neumann_eigenvalue(g)
        oracle = norm(u, "H") / math.sqrt(1.0 + lam)
        val = dual_norm(u)
        assert val == pytest.approx(oracle, rel=1e-10)
        # continuum value 1/sqrt(2 (1+pi^2)) ~ 0.2145
        assert val == pytest.approx(1.0 / math.sqrt(2.0 * (1.0 + math.pi**2)), abs=1e-3)

    def test_small_1d_runs_no_fft(self, rng, monkeypatch):
        u = rough_field(Grid.line(40), rng)
        first = dual_norm(u)  # builds the kept matrix of I - lap_N
        calls = fft_calls(monkeypatch)
        assert dual_norm(u) == first
        assert calls == []

    def test_norm_chain_on_smooth_fields(self, rng):
        g = Grid.line(128)
        for _ in range(100):
            u = smooth_field(g, rng)
            d, h, v = dual_norm(u), norm(u, "H"), norm(u, "V")
            assert d <= h + 1e-12
            assert h <= v + 1e-12


class TestRestrictionAndIO:
    def test_restrict_average(self):
        fine = Grid.line(8)
        coarse = Grid.line(4)
        u = Field(fine, np.arange(8, dtype=float))
        r = restrict(u, coarse)
        assert np.allclose(r.data, [0.5, 2.5, 4.5, 6.5])

    def test_restrict_2d_constant(self):
        fine = Grid.box(16)
        coarse = Grid.box(4)
        r = restrict(ones(fine), coarse)
        assert np.allclose(r.data, 1.0)

    def test_restrict_mismatch(self):
        with pytest.raises(GridMismatchError):
            restrict(ones(Grid.line(9, 1.0)), Grid.line(4, 1.0))
        with pytest.raises(GridMismatchError):
            restrict(ones(Grid.line(8, 2.0)), Grid.line(4, 1.0))

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_io_round_trip(self, fmt, data):
        n = data.draw(st.lists(st.integers(4, 9), min_size=1, max_size=2))
        grid = Grid(tuple(1.0 for _ in n), tuple(n))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        values = data.draw(hnp.arrays(np.float64, grid.shape, elements=finite))
        u = Field(grid, values)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, f"field.{fmt}")
            write_field(u, path, fmt=fmt)
            back = read_field(grid, path, fmt=fmt)
            assert os.listdir(tmp) == [f"field.{fmt}"]
        assert np.array_equal(back.data, u.data)

    def test_csv_bytes_follow_documented_format(self, tmp_path, rng):
        for grid in (Grid.line(7), Grid((1.0, 2.0), (4, 6))):
            scales = 10.0 ** rng.integers(-30, 30, grid.shape)
            u = Field(grid, rng.normal(size=grid.shape) * scales)
            path = tmp_path / "u.csv"
            write_field(u, path)
            expected = "".join(
                ",".join(str(i) for i in idx) + f",{float(u.data[idx]):.17g}\n"
                for idx in np.ndindex(grid.shape)
            )
            assert path.read_bytes() == expected.encode()

    def test_write_is_atomic(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(os, "replace", fail)
        path = tmp_path / "phi.csv"
        with pytest.raises(OSError):
            write_field(ones(Grid.line(8)), path)
        assert not path.exists()
        assert os.listdir(tmp_path) == []

    @staticmethod
    def _written_chunks(u, path, monkeypatch):
        """The chunks that ``write_field(u, path)`` hands to ``atomic_write``."""
        chunks = []
        real_atomic_write = fields_module.atomic_write

        def recording(path, payload):
            payload = list(payload)
            chunks.extend(payload)
            real_atomic_write(path, payload)

        monkeypatch.setattr(fields_module, "atomic_write", recording)
        write_field(u, path)
        return chunks

    @pytest.mark.parametrize(
        "grid",
        [
            Grid.box(6),
            Grid((1.0, 2.0), (4, 7)),
            Grid((3.0, 1.0), (11, 5)),
            Grid((1.0, 2.0), (100, 90)),
            Grid((1.0, 1.0), (1000, 7)),
        ],
        ids=["square", "wide", "tall", "several-blocks", "ragged-prefixes"],
    )
    def test_2d_csv_streams_in_blocks(self, grid, tmp_path, rng, monkeypatch):
        u = rough_field(grid, rng)
        path = tmp_path / "u.csv"
        chunks = self._written_chunks(u, path, monkeypatch)
        block = fields_module._CSV_BLOCK_CELLS
        assert len(chunks) == -(-grid.num_cells // block)
        # the per-cell oracle, row-major with the last axis fastest, cut
        # into blocks of cells
        lines = [
            f"{i},{j},{u.data[i, j]:.17g}\n".encode()
            for i in range(grid.n[0])
            for j in range(grid.n[1])
        ]
        assert chunks == [
            b"".join(lines[s : s + block]) for s in range(0, grid.num_cells, block)
        ]
        assert path.read_bytes() == b"".join(lines)

    @pytest.mark.parametrize("n", [9, 1024, 2500, 4096, 10000])
    def test_1d_csv_streams_in_blocks(self, n, tmp_path, rng, monkeypatch):
        u = rough_field(Grid.line(n), rng)
        path = tmp_path / "u.csv"
        chunks = self._written_chunks(u, path, monkeypatch)
        block = fields_module._CSV_BLOCK_CELLS
        assert len(chunks) == -(-n // block)
        # the per-cell oracle, cut into blocks of cells
        lines = [f"{i},{u.data[i]:.17g}\n".encode() for i in range(n)]
        assert chunks == [b"".join(lines[s : s + block]) for s in range(0, n, block)]
        assert path.read_bytes() == b"".join(lines)

    def test_chunked_write_failing_midway_leaves_no_file(self, tmp_path):
        for first in ("0,1\n", b"0,1\n"):

            def chunks():
                yield first
                raise OSError("simulated formatting failure")

            path = tmp_path / "phi.csv"
            with pytest.raises(OSError, match="formatting"):
                atomic_write(path, chunks())
            assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "chunks", [["ab\n", "c"], [b"ab\n", b"c"], []], ids=["str", "bytes", "none"]
    )
    def test_chunk_type_sets_the_file_mode(self, chunks, tmp_path):
        path = tmp_path / "u.csv"
        atomic_write(path, iter(chunks))
        assert path.read_bytes() == b"".join(
            c.encode() if isinstance(c, str) else c for c in chunks
        )


def _csv_oracle(values):
    """The per-cell ``'%.17g'`` oracle of a 1D snapshot CSV file."""
    return "".join(f"{i},{float(v):.17g}\n" for i, v in enumerate(values)).encode()


def _csv_bytes(values):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "u.csv")
        write_field(Field(Grid.line(len(values)), np.asarray(values)), path)
        with open(path, "rb") as fh:
            return fh.read()


@pytest.fixture
def printf_cells(monkeypatch):
    """The values that the writer hands to Python's ``'%.17g'``."""
    seen = []
    real = fields_module._printf_row

    def counting(v):
        seen.append(float(v))
        return real(v)

    monkeypatch.setattr(fields_module, "_printf_row", counting)
    return seen


class TestCsvValues:
    """The block writer against the per-cell ``'%.17g'`` oracle."""

    EDGES = [
        0.0,
        -0.0,
        5e-324,
        2.2250738585072014e-308,
        1.7976931348623157e308,
        1e-5,
        9.9999999999999995e-05,
        1e16,
        1e17,
        123456789012345678.0,
        1171187299615171.25,  # an exact tie at 17 digits
        # round up into the next power of ten
        0.99999999999999999,
        9.9999999999999999e-5,
        99999999999999999.0,
        9.99999999999999999e22,
        np.nextafter(1e-4, 0.0),
        np.nextafter(1e17, 0.0),
        # the ends of the fast path's range, and just past them
        1e-280,
        1e280,
        np.nextafter(1e-280, 0.0),
        np.nextafter(1e280, np.inf),
    ]

    def test_edge_values(self):
        values = np.array(self.EDGES + [-v for v in self.EDGES])
        assert _csv_bytes(values) == _csv_oracle(values)

    def test_powers_of_ten_and_their_neighbours(self):
        powers = 10.0 ** np.arange(-323, 309)
        values = np.concatenate(
            (powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf))
        )
        assert _csv_bytes(values) == _csv_oracle(values)

    def test_one_block_mixes_every_layout(self, rng):
        # both notations at every decimal exponent from -130 to 130, and 1
        # to 17 significant digits (the powers of two), with both signs
        # and zeros
        exponents = np.arange(-130, 131)
        values = np.concatenate(
            (
                10.0**exponents,
                1.25 * 10.0**exponents,
                rng.normal(size=exponents.size) * 10.0**exponents,
                2.0 ** np.arange(-60, 80),
                rng.integers(1, 10**17, 40).astype(float),
            )
        )
        values = np.concatenate((values, -values, [0.0, -0.0]))
        assert values.size <= fields_module._CSV_BLOCK_CELLS
        assert _csv_bytes(values) == _csv_oracle(values)

    def test_wide_random_values_in_several_blocks(self, rng):
        n = 3 * fields_module._CSV_BLOCK_CELLS + 17
        values = rng.normal(size=n) * 10.0 ** rng.uniform(-60.0, 60.0, n)
        assert _csv_bytes(values) == _csv_oracle(values)

    @settings(max_examples=60, deadline=None)
    @given(
        values=hnp.arrays(
            np.float64,
            st.integers(4, 64),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    def test_any_finite_values(self, values):
        assert _csv_bytes(values) == _csv_oracle(values)

    @settings(max_examples=60, deadline=None)
    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=4, max_size=64))
    def test_any_bit_pattern(self, bits):
        # uniform over the bit patterns: every binade, subnormals included
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)]
        if values.size >= 4:
            assert _csv_bytes(values) == _csv_oracle(values)

    # two cells that the fast path leaves to '%.17g': a tie at 17 digits
    # and a subnormal
    PRINTF = (1171187299615171.25, 5e-324)

    def test_block_buffer_reuse_1d(self, rng, printf_cells):
        # the first block's rows 3 and 5 go through '%.17g'; the same rows
        # of the later blocks, the partial last one included, hold
        # ordinary values
        block = fields_module._CSV_BLOCK_CELLS
        values = rng.normal(size=2 * block + 7)
        values[[3, 5]] = self.PRINTF
        assert _csv_bytes(values) == _csv_oracle(values)
        assert printf_cells == list(self.PRINTF)

    def test_block_buffer_reuse_2d(self, tmp_path, rng, printf_cells):
        grid = Grid((1.0, 2.0), (100, 90))  # two blocks and 808 cells
        assert 2 * fields_module._CSV_BLOCK_CELLS < grid.num_cells
        u = rough_field(grid, rng)
        u.data.ravel()[[3, 5]] = self.PRINTF
        path = tmp_path / "u.csv"
        write_field(u, path)
        assert path.read_bytes() == "".join(
            f"{i},{j},{u.data[i, j]:.17g}\n" for i, j in np.ndindex(grid.shape)
        ).encode()
        assert printf_cells == list(self.PRINTF)

    def test_snapshot_range_values_stay_on_the_fast_path(self, rng, printf_cells):
        values = rng.normal(size=10**5) * 10.0 ** rng.uniform(-8.0, 8.0, 10**5)
        assert _csv_bytes(values) == _csv_oracle(values)
        assert printf_cells == []

    def test_warm_write_stays_small(self, tmp_path, rng):
        # a second write on a 320^2 grid, its row prefixes built; the
        # masked-gather writer that this replaced peaked at 1.58 MB here
        u = rough_field(Grid.box(320), rng)
        write_field(u, tmp_path / "u.csv")
        _, peak = traced_peak(write_field, u, tmp_path / "u.csv")
        assert peak <= 1.6e6

    def test_first_write_on_a_fresh_grid_stays_small(self, tmp_path, rng):
        # the first write on a 320^2 grid builds the row prefixes; the
        # per-row template writer that this replaced peaked at 8.7 MB here
        u = rough_field(Grid.box(320), rng)
        tracemalloc.start()
        try:
            write_field(u, tmp_path / "u.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.35e6


def _csv_rows(grid, tmp_path):
    path = tmp_path / "u.csv"
    write_field(Field(grid, np.arange(1.0, grid.num_cells + 1).reshape(grid.shape)), path)
    return path, path.read_text().splitlines()


class TestReadFieldRejects:
    def _rejects(self, grid, path, *fragments, fmt="csv"):
        with pytest.raises(ConfigError) as err:
            read_field(grid, path, fmt=fmt)
        msg = str(err.value)
        assert str(path) in msg
        for fragment in fragments:
            assert fragment in msg

    def test_missing_cell(self, tmp_path):
        grid = Grid.line(8)
        path, rows = _csv_rows(grid, tmp_path)
        path.write_text("\n".join(rows[:5]) + "\n")
        self._rejects(grid, path, "cell (5,) missing")

    def test_repeated_cell(self, tmp_path):
        grid = Grid.box(4)
        path, rows = _csv_rows(grid, tmp_path)
        path.write_text("\n".join(rows + [rows[3]]) + "\n")
        self._rejects(grid, path, "line 17", "cell (0, 3) repeated")

    def test_index_out_of_range(self, tmp_path):
        grid = Grid.line(8)
        path, rows = _csv_rows(grid, tmp_path)
        rows[2] = "8,3.0"
        path.write_text("\n".join(rows) + "\n")
        self._rejects(grid, path, "line 3", "cell (8,) outside")

    def test_wrong_column_count(self, tmp_path):
        grid = Grid.line(8)
        path, rows = _csv_rows(grid, tmp_path)
        rows[4] = "4,0,5.0"
        path.write_text("\n".join(rows) + "\n")
        self._rejects(grid, path, "line 5", "expected 2 columns, got 3")

    def test_binary_wrong_size(self, tmp_path):
        grid = Grid.line(8)
        path = tmp_path / "u.bin"
        write_field(ones(grid), path, fmt="binary")
        path.write_bytes(path.read_bytes()[:-8])
        self._rejects(grid, path, "56 bytes, expected 64", fmt="binary")

    def test_non_finite_value(self, tmp_path):
        grid = Grid.line(8)
        path, rows = _csv_rows(grid, tmp_path)
        rows[6] = "6,nan"
        path.write_text("\n".join(rows) + "\n")
        self._rejects(grid, path, "non-finite value at cell (6,)")


class TestCG:
    @pytest.mark.parametrize("shape", [(40,), (6, 9)], ids=["1d", "2d-shaped"])
    def test_matches_dense_solve(self, shape, rng):
        A, b = spd_system(rng, shape)
        x, info = cg(lambda p: (A @ p.ravel()).reshape(shape), b, 1e-14, 1000)
        assert info == 0 and x.shape == shape
        exact = np.linalg.solve(A, b.ravel()).reshape(shape)
        assert np.max(np.abs(x - exact)) <= 1e-12 * np.max(np.abs(exact))

    def test_iterations_match_scipy(self, rng):
        from scipy.sparse.linalg import cg as scipy_cg

        A, b = spd_system(rng, (40,), condition=1e4)
        ours, theirs = [], []
        x, info = cg(lambda p: A @ p, b, 1e-10, 1000, callback=ours.append)
        ref, ref_info = scipy_cg(
            A, b, rtol=1e-10, atol=0.0, maxiter=1000, callback=theirs.append
        )
        assert info == ref_info == 0
        assert len(ours) == len(theirs) > 10
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_iterates_match_the_allocating_loop(self, rng):
        # cg writes alpha p into the matvec's result; the iterates must be
        # bit-identical to the loop that allocates x += alpha * p
        A, b = spd_system(rng, (6, 9), condition=1e4)

        def matvec(p):
            return (A @ p.ravel()).reshape(p.shape)

        ours = []
        cg(matvec, b, 1e-10, 1000, callback=lambda xk: ours.append(xk.copy()))
        x, r, p, ref = np.zeros_like(b), b.copy(), None, []
        for _ in ours:
            rho = float(np.vdot(r, r))
            p = r.copy() if p is None else p * (rho / rho_prev) + r
            q = matvec(p)
            alpha = rho / float(np.vdot(p, q))
            x += alpha * p
            r -= alpha * q
            rho_prev = rho
            ref.append(x.copy())
        assert len(ours) > 10
        for mine, theirs in zip(ours, ref):
            np.testing.assert_array_equal(mine, theirs)

    def test_callback_once_per_iteration(self, rng):
        A, b = spd_system(rng, (40,), condition=1e4)
        matvecs, iterates = [], []

        def matvec(p):
            matvecs.append(1)
            return A @ p

        x, info = cg(matvec, b, 1e-10, 1000, callback=lambda xk: iterates.append(xk.copy()))
        assert info == 0 and len(iterates) == len(matvecs) > 10
        np.testing.assert_array_equal(iterates[-1], x)

    def test_budget_exhausted(self, rng):
        A, b = spd_system(rng, (40,), condition=1e4)
        calls = []
        x, info = cg(lambda p: A @ p, b, 1e-10, 3, callback=calls.append)
        assert info == 3 and len(calls) == 3
        assert np.linalg.norm(b - A @ x) > 1e-10 * np.linalg.norm(b)

    def test_zero_rhs(self):
        x, info = cg(lambda p: p, np.zeros((6, 9)), 1e-12, 10)
        assert info == 0 and not x.any()
