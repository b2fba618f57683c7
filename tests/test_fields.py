import math
import os
import tempfile

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rough_field, smooth_field
from pfnl.errors import ConfigError, GridMismatchError
from pfnl.fields import (
    Field,
    Grid,
    cg,
    dual_norm,
    field_from_function,
    grad_inner,
    inner_product,
    neumann_laplacian,
    neumann_solve,
    norm,
    ones,
    read_field,
    restrict,
    riesz_apply,
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
        # one np.vdot per pairing gives the np.sum(a*b) formulas to roundoff
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
        back = riesz_apply(riesz_inverse(u))
        assert np.max(np.abs(back.data - u.data)) <= 1e-8 * max(
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

    def test_norm_chain_on_smooth_fields(self, rng):
        g = Grid.line(128)
        for _ in range(100):
            u = smooth_field(g, rng)
            d, h, v = dual_norm(u), norm(u, "H"), norm(u, "V")
            assert d <= h + 1e-12
            assert h <= v + 1e-12

    def test_w_norm_monitoring(self):
        g = Grid.line(256)
        u = field_from_function(g, lambda x: np.cos(np.pi * x))
        expected = math.sqrt((1.0 + math.pi**4) * 0.5)
        assert norm(u, "W") == pytest.approx(expected, rel=1e-3)


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
