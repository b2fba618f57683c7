import dataclasses
import functools
import math

import numpy as np
import pytest

from conftest import ones, rough_field, smooth_field, traced_peak
from pfnl import operators
from pfnl.errors import DegenerateFieldError
from pfnl.fields import (
    MAX_DENSE_CELLS,
    Field,
    Grid,
    cg,
    dual_norm,
    field_from_function,
    grad_inner,
    inner_product,
    norm,
    zeros,
)
from pfnl.kernels import (
    build_kernel_family,
    kernel_value,
    make_profile,
    tabulate_kernel,
)
from pfnl.operators import (
    MAX_DIRECT_TAPS,
    ConvolutionPlan,
    NonlocalOperator,
    _fast_len,
    apply_B,
    apply_B_eps,
    bbm_bound_ratio,
    build_nonlocal_operator,
    dense_inverse,
    energy_double_sum,
    energy_local,
    energy_nonlocal,
    frechet_fd_residual,
    frechet_identity_residual,
    shifted_matvec,
)


@pytest.fixture(scope="module")
def family1d():
    return build_kernel_family(make_profile("polynomial-bump"), 1, 0.0)


@pytest.fixture(scope="module")
def family2d():
    return build_kernel_family(make_profile("polynomial-bump"), 2, 0.0)


@pytest.fixture(scope="module")
def op32(family1d):
    return build_nonlocal_operator(family1d, 0.25, Grid.line(32))


@pytest.fixture(scope="module")
def op2d(family2d):
    return build_nonlocal_operator(family2d, 0.25, Grid.box(16))


def direct_convolution(op, u):
    """Brute-force restricted convolution; the oracle for the FFT path.

    Every offset but the origin reads the pointwise ``kernel_value``, so
    the oracle does not depend on the tabulated support window; the origin
    cell takes the tabulated cell average.
    """
    grid = u.grid
    ker = op.plan.kernel

    @functools.cache
    def J(offset):
        if not any(offset):
            return ker.value_at(offset)
        z = [o * h for o, h in zip(offset, grid.spacing)]
        return kernel_value(ker.family, ker.eps, z)

    out = np.zeros(grid.shape)
    for i in np.ndindex(grid.shape):
        acc = 0.0
        for j in np.ndindex(grid.shape):
            acc += J(tuple(a - b for a, b in zip(i, j))) * u.data[j]
        out[i] = acc * grid.cell_volume
    return Field(grid, out)


class TestConvolve:
    def test_zero(self, op32):
        out = op32.plan.apply(zeros(op32.grid).data)
        assert np.max(np.abs(out)) == 0.0

    def test_ones_matches_direct_sum(self, op32):
        direct = direct_convolution(op32, ones(op32.grid))
        assert np.max(np.abs(op32.a_eps.data - direct.data)) <= 1e-12

    def test_random_matches_direct_sum(self, op32, rng):
        u = rough_field(op32.grid, rng)
        fftd = op32.plan.apply(u.data)
        direct = direct_convolution(op32, u)
        assert np.max(np.abs(fftd - direct.data)) <= 1e-12 * np.max(
            np.abs(direct.data) + 1.0
        )

    def test_random_matches_direct_sum_2d(self, op2d, rng):
        u = rough_field(op2d.grid, rng)
        fftd = op2d.plan.apply(u.data)
        direct = direct_convolution(op2d, u)
        assert np.max(np.abs(fftd - direct.data)) <= 1e-11 * np.max(
            np.abs(direct.data) + 1.0
        )

    @pytest.mark.parametrize(
        "alpha, lengths, n, eps, radius, halfwidth",
        [
            (0.0, (1.0,), (40,), 0.2, 1.0, (8,)),
            (0.0, (1.0, 2.5), (12, 20), 0.5, 1.0, (6, 4)),
            (1.0, (1.0, 1.0), (16, 16), 0.3, 1.0, (5, 5)),
            (0.0, (1.0,), (16,), 0.5, 3.0, (15,)),
            (0.0, (1.0, 1.0), (10, 12), 0.5, 3.0, (9, 11)),
            (0.0, (1.0,), (128,), 0.5, 3.0, (127,)),
        ],
        ids=["1d", "2d-nonsquare", "2d-alpha1", "1d-wide", "2d-wide", "1d-fft"],
    )
    def test_compact_plan_matches_direct_sum(
        self, alpha, lengths, n, eps, radius, halfwidth, rng
    ):
        grid = Grid(lengths, n)
        family = build_kernel_family(
            make_profile("polynomial-bump", radius), grid.dimension, alpha
        )
        op = build_nonlocal_operator(family, eps, grid)
        assert op.plan.kernel.halfwidth == halfwidth
        u = rough_field(grid, rng)
        direct = direct_convolution(op, u)
        scale = np.max(np.abs(direct.data) + 1.0)
        assert np.max(np.abs(op.plan.apply(u.data) - direct.data)) <= 1e-12 * scale
        a = energy_nonlocal(op, u)
        assert abs(a - energy_double_sum(op, u)) <= 1e-12 * max(1.0, a)

    @pytest.mark.parametrize(
        "n, eps, radius, direct",
        [(40, 0.2, 1.0, True), (16, 0.5, 3.0, True), (128, 0.5, 3.0, False)],
    )
    def test_1d_path_follows_tap_count(self, n, eps, radius, direct, rng, monkeypatch):
        grid = Grid.line(n)
        family = build_kernel_family(make_profile("polynomial-bump", radius), 1, 0.0)
        plan = build_nonlocal_operator(family, eps, grid).plan
        assert plan.direct == direct
        taps = plan.kernel.values.size
        assert (taps <= MAX_DIRECT_TAPS) == direct
        # the other path, by a cap that puts the window on its other side,
        # gives the same convolution to roundoff
        monkeypatch.setattr(operators, "MAX_DIRECT_TAPS", taps - 1 if direct else taps)
        other = ConvolutionPlan(plan.kernel)
        assert other.direct != direct
        u = rough_field(grid, rng).data
        scale = np.max(np.abs(plan.apply(u))) + 1.0
        assert np.max(np.abs(plan.apply(u) - other.apply(u))) <= 1e-12 * scale

    def test_2d_plans_use_fft(self, op2d):
        assert not op2d.plan.direct

    def test_direct_plan_never_transforms_its_window(self, op32, rng):
        u = rough_field(op32.grid, rng)
        apply_B(op32, u)
        energy_nonlocal(op32, u)
        assert op32.plan.direct
        assert "kernel_hat" not in vars(op32.plan)

    def test_fft_plan_transforms_its_window_on_first_apply(self):
        grid = Grid.line(128)
        family = build_kernel_family(make_profile("polynomial-bump", 3.0), 1, 0.0)
        plan = ConvolutionPlan(tabulate_kernel(family, 0.5, grid))
        assert not plan.direct and "kernel_hat" not in vars(plan)
        plan.apply(np.ones(grid.shape))
        assert vars(plan)["kernel_hat"].shape == (plan.padded_shape[0] // 2 + 1,)

    @pytest.mark.parametrize(
        "grid, eps, radius, padded",
        [
            (Grid.line(128), 0.5, 3.0, None),
            (Grid.box(24), 0.25, 1.0, None),
            (Grid((1.0, 2.0), (16, 30)), 0.3, 1.0, None),
            (Grid((2.0, 1.0), (30, 16)), 0.3, 1.0, None),
            # n + w = 44 = 4 * 11 pads to 45 = 3^2 * 5
            (Grid.box(36), 0.2, 1.0, 45),
            # 155 taps, n + w = 231 = 3 * 7 * 11 pads to 240
            (Grid.line(154), 0.5, 1.0, 240),
        ],
        ids=["1d", "square", "wide", "tall", "2d-n+w-44", "1d-n+w-231"],
    )
    def test_fft_path_matches_dense_sum(self, grid, eps, radius, padded, rng):
        # the axis-by-axis transform in the plan's work array, with the
        # window's transform stored real, against h^d sum_j J(x_i - x_j) u_j
        profile = make_profile("polynomial-bump", radius)
        family = build_kernel_family(profile, grid.dimension, 0.0)
        op = build_nonlocal_operator(family, eps, grid)
        plan = op.plan
        assert not plan.direct
        if padded is not None:
            assert set(plan.padded_shape) == {padded}
        u, v = rough_field(grid, rng).data, rough_field(grid, rng).data
        first = plan.apply(u)
        second = plan.apply(v)
        for data, out in ((u, first), (v, second)):
            dense = op.kernel_matrix @ data.ravel()
            dense = dense.reshape(grid.shape)
            assert np.max(np.abs(out - dense)) <= 1e-13 * np.max(np.abs(dense))
        assert plan.kernel_hat.dtype == np.float64
        assert np.all(apply_B_eps(op, np.ones(grid.shape)) == 0.0)

    @pytest.mark.parametrize("op", ["op32", "op2d"])
    def test_padded_shape_is_fast_len_of_n_plus_w(self, op, request):
        plan = request.getfixturevalue(op).plan
        assert all(type(p) is int for p in plan.padded_shape)
        assert plan.padded_shape == tuple(
            _fast_len(m + k) for m, k in zip(plan.grid.n, plan.kernel.halfwidth)
        )

    def test_fast_len_is_least_7_smooth_size(self):
        # every 2^a 3^b 5^c 7^d up to 2^15, the first above 20000
        smooth = sorted(
            2**a * 3**b * 5**c * 7**d
            for a in range(16)
            for b in range(10)
            for c in range(7)
            for d in range(6)
            if 2**a * 3**b * 5**c * 7**d <= 2**15
        )
        targets = range(1, 20001)
        expected = [next(m for m in smooth if m >= t) for t in targets]
        assert [_fast_len(t) for t in targets] == expected

    @pytest.mark.parametrize("op", ["op32", "op2d"])
    def test_plan_and_operator_store_only_their_inputs(self, op, request):
        # everything else is derived, so nothing can disagree with the kernel
        op = request.getfixturevalue(op)
        assert [f.name for f in dataclasses.fields(ConvolutionPlan)] == ["kernel"]
        assert [f.name for f in dataclasses.fields(NonlocalOperator)] == ["plan"]
        assert op.grid is op.plan.kernel.grid
        assert np.array_equal(op.a_eps.data, op.plan.apply(np.ones(op.grid.shape)))

    @pytest.mark.parametrize("op", ["op32", "op2d"])
    def test_a_eps_max_is_cached_max(self, op, request):
        op = request.getfixturevalue(op)
        assert op.a_eps_max == float(np.max(op.a_eps.data))
        assert "a_eps_max" in vars(op)

    def test_a_eps_positive_and_symmetric(self, op32):
        assert np.min(op32.a_eps.data) > 0.0
        assert np.max(np.abs(op32.a_eps.data - op32.a_eps.data[::-1])) <= 1e-12


class TestApplyBEps:
    def test_annihilates_constants(self, op32):
        c = Field(op32.grid, np.full(op32.grid.shape, 2.7))
        out = apply_B_eps(op32, c.data)
        assert np.max(np.abs(out)) <= 1e-11

    def test_mass_conservation(self, op32, op2d, rng):
        for op in (op32, op2d):
            for _ in range(5):
                u = rough_field(op.grid, rng)
                assert abs(inner_product("H", apply_B(op, u), ones(op.grid))) <= 1e-12

    def test_symmetric(self, op32, rng):
        for _ in range(5):
            u, w = rough_field(op32.grid, rng), rough_field(op32.grid, rng)
            a = inner_product("H", apply_B(op32, u), w)
            b = inner_product("H", u, apply_B(op32, w))
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_positive_semidefinite(self, op32, rng):
        for _ in range(5):
            u = rough_field(op32.grid, rng)
            assert inner_product("H", apply_B(op32, u), u) >= -1e-14

    def test_converges_to_local_on_cosine(self, family1d):
        # oracle: the local operator; the gap shrinks along eps
        errs = []
        for eps in [0.2, 0.1, 0.05]:
            grid = Grid.line(round(8 / eps))
            u = field_from_function(grid, lambda x: np.cos(np.pi * x))
            op = build_nonlocal_operator(family1d, eps, grid)
            target = Field(grid, math.pi**2 * u.data)
            errs.append(norm(apply_B(op, u) - target, "H"))
        assert errs[0] > errs[1] > errs[2]
        assert errs[1] <= 0.75  # measured 0.704
        assert errs[2] / errs[0] <= 0.6


class TestEnergies:
    def test_constant_zero(self, op32):
        c = Field(op32.grid, np.full(op32.grid.shape, -1.2))
        assert energy_nonlocal(op32, c) <= 1e-12

    def test_quadratic_form_equals_double_sum(self, op32, rng):
        for _ in range(5):
            u = rough_field(op32.grid, rng)
            a = energy_nonlocal(op32, u)
            b = energy_double_sum(op32, u)
            assert abs(a - b) <= 1e-12 * max(1.0, a)

    def test_quadratic_form_equals_double_sum_2d(self, op2d, rng):
        u = rough_field(op2d.grid, rng)
        a = energy_nonlocal(op2d, u)
        b = energy_double_sum(op2d, u)
        assert abs(a - b) <= 1e-11 * max(1.0, a)

    def test_cosine_energy_approaches_dirichlet(self, family1d):
        target = math.pi**2 / 4.0
        gaps = []
        for eps in [0.2, 0.1, 0.05]:
            grid = Grid.line(round(8 / eps))
            u = field_from_function(grid, lambda x: np.cos(np.pi * x))
            op = build_nonlocal_operator(family1d, eps, grid)
            gaps.append(abs(energy_nonlocal(op, u) - target))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] / target <= 0.05

    def test_local_energy_constant(self):
        assert energy_local(ones(Grid.line(16))) == 0.0

    def test_local_energy_cosine(self):
        grid = Grid.line(512)
        u = field_from_function(grid, lambda x: np.cos(np.pi * x))
        assert energy_local(u) == pytest.approx(math.pi**2 / 4.0, abs=1e-3)

    def test_local_energy_is_half_quadratic_form(self, rng):
        grid = Grid.line(64)
        u = rough_field(grid, rng)
        a = energy_local(u)
        b = 0.5 * inner_product("H", apply_B(None, u), u)
        assert a == pytest.approx(b, rel=1e-12)


class TestFrechetIdentity:
    def test_constant_inputs(self, op32):
        c = Field(op32.grid, np.full(op32.grid.shape, 1.5))
        u = Field(op32.grid, np.linspace(0.0, 1.0, 32))
        assert frechet_identity_residual(op32, c, u) <= 1e-12
        assert frechet_identity_residual(op32, u, c) <= 1e-12

    def test_random_pairs(self, op32, op2d, rng):
        for op in (op32, op2d):
            for _ in range(5):
                u, v = rough_field(op.grid, rng), rough_field(op.grid, rng)
                assert frechet_identity_residual(op, u, v) <= 1e-12 * max(
                    1.0, float(np.max(op.a_eps.data))
                )

    def test_finite_difference_cross_check(self, op32, rng):
        for _ in range(5):
            u, v = rough_field(op32.grid, rng), rough_field(op32.grid, rng)
            value = abs(inner_product("H", apply_B(op32, u), v))
            assert frechet_fd_residual(op32, u, v) <= 1e-6 * (1.0 + value)

    def test_kernel_matrix_built_once(self, family1d):
        op = build_nonlocal_operator(family1d, 0.25, Grid.line(16))
        J = op.kernel_matrix
        assert op.kernel_matrix is J
        assert not J.flags.writeable
        # row i holds h J_eps(x_i - x_j): the plan's weights, zero beyond them
        w = op.plan.kernel.halfwidth[0]
        assert np.array_equal(J[w, : 2 * w + 1], op.plan.weights[::-1])
        assert np.all(J[0, w + 1 :] == 0.0)


class TestShiftedMatvec:
    """The phase Newton's product ``x -> B x + D x``, with ``D`` the size
    of ``(1+dt)/dt^2 + beta'`` at dt = 0.1."""

    @pytest.mark.parametrize("dimension", [1, 2], ids=["1d", "2d"])
    @pytest.mark.parametrize("problem", ["nonlocal", "local"])
    @pytest.mark.parametrize("kind", ["array", "scalar"])
    def test_equals_B_plus_diagonal(self, op32, op2d, dimension, problem, kind, rng):
        op = op32 if dimension == 1 else op2d
        grid = op.grid
        op = op if problem == "nonlocal" else None
        x = rough_field(grid, rng).data
        diagonal = 110.0 + (3.0 * rng.random(grid.shape) if kind == "array" else 0.0)
        kept = np.copy(diagonal)
        expected = apply_B(op, Field(grid, x)).data + diagonal * x
        got = shifted_matvec(op, grid, diagonal, np.empty(grid.shape))(x)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
        assert np.array_equal(diagonal, kept)


class TestKeptArrays:
    """The 2D FFT path and the kernel operator's CG products reuse the
    arrays the plan and the operator keep, so they allocate nothing of the
    lattice's size."""

    def test_apply_into_out_allocates_no_lattice(self, op2d, rng):
        a = rough_field(op2d.grid, rng).data
        expected = apply_B_eps(op2d, a)
        buf = np.empty(op2d.grid.shape)
        result, peak = traced_peak(apply_B_eps, op2d, a, out=buf)
        assert result is buf
        assert np.array_equal(buf, expected)
        assert peak < 64 * 1024
        # the result may overwrite the input
        assert np.array_equal(apply_B_eps(op2d, a, out=a), expected)

    def test_products_share_one_array(self, op2d, rng):
        grid = op2d.grid
        diagonal = 110.0 + 3.0 * rng.random(grid.shape)
        matvec = shifted_matvec(op2d, grid, diagonal, np.empty(grid.shape))
        x, y = rough_field(grid, rng).data, rough_field(grid, rng).data
        first = matvec(x)
        kept = first.copy()
        assert matvec(y) is first
        assert np.array_equal(kept, apply_B_eps(op2d, x, op2d.a_eps.data + diagonal))

    @pytest.mark.parametrize("dimension", [1, 2], ids=["1d-320", "2d"])
    def test_cg_matches_fresh_products(self, op2d, family1d, dimension, rng):
        # the phase Newton's system at dt = 0.1, solved by CG with the kept
        # product and with a product allocated per call: the same bits,
        # and one array less at the peak
        op = op2d if dimension == 2 else build_nonlocal_operator(
            family1d, 0.025, Grid.line(320)
        )
        grid = op.grid
        diagonal = 110.0 + 3.0 * rng.random(grid.shape)
        b = rough_field(grid, rng).data
        kept = shifted_matvec(op, grid, diagonal, np.empty(grid.shape))
        kept(b)  # the operator makes its kept array on first use
        full = op.a_eps.data + diagonal

        def fresh(x):
            return apply_B_eps(op, x, full)

        (x, info), peak = traced_peak(cg, kept, b, 1e-12, 1000)
        (x_fresh, info_fresh), peak_fresh = traced_peak(cg, fresh, b, 1e-12, 1000)
        assert info == info_fresh == 0
        assert np.array_equal(x, x_fresh)
        assert peak <= peak_fresh - b.nbytes


class TestDenseInverse:
    """The kept ``(s I + B)^{-1}`` of a small 1D run, against ``B``
    assembled column by column from :func:`apply_B`.  A pair ``(a, b)``
    checks ``(a I + b B)^{-1} = (s I + B)^{-1} / b`` with ``s = a / b``: the
    phase Newton's shift ``s = (1+dt)/dt^2`` at dt = 1e-3 and 0.1, and
    ``s = 1000`` (dt of about 0.032)."""

    @pytest.mark.parametrize("a, b", [(1.001e6, 1.0), (110.0, 1.0), (1.0, 1e-3)])
    @pytest.mark.parametrize("eps", [0.5, 0.1, None], ids=["eps0.5", "eps0.1", "local"])
    def test_inverts_shifted_B(self, family1d, eps, a, b):
        grid = Grid.line(64)
        op = None if eps is None else build_nonlocal_operator(family1d, eps, grid)
        identity = np.eye(grid.num_cells)
        shifted = np.stack(
            [a * e + b * apply_B(op, Field(grid, e)).data for e in identity], axis=1
        )
        inverse = dense_inverse(op, grid, a / b) / b
        assert np.max(np.abs(shifted @ inverse - identity)) <= 1e-12

    @pytest.mark.parametrize(
        "grid", [Grid.line(MAX_DENSE_CELLS + 1), Grid.box(16)], ids=["1d-257", "2d"]
    )
    @pytest.mark.parametrize("problem", ["nonlocal", "local"])
    def test_none_off_small_1d_grids(self, family1d, grid, problem):
        family = family1d if grid.dimension == 1 else build_kernel_family(
            make_profile("polynomial-bump"), 2, 0.0
        )
        op = build_nonlocal_operator(family, 0.25, grid) if problem == "nonlocal" else None
        assert dense_inverse(op, grid, 110.0) is None

    @pytest.mark.parametrize("problem", ["nonlocal", "local"])
    def test_kept_per_shift(self, family1d, problem):
        # each Newton of a run looks its inverse up: built once per shift
        grid = Grid.line(64)
        op = build_nonlocal_operator(family1d, 0.2, grid) if problem == "nonlocal" else None
        inverse = dense_inverse(op, grid, 110.0)
        assert dense_inverse(op, grid, 110.0) is inverse
        assert dense_inverse(op, grid, 1.001e6) is not inverse
        assert not inverse.flags.writeable


class TestApplyBLocal:
    def test_constant(self):
        out = apply_B(None, ones(Grid.line(16)))
        assert np.max(np.abs(out.data)) == 0.0

    def test_weak_form_exact(self, rng):
        grid = Grid.line(64)
        for _ in range(5):
            u, w = rough_field(grid, rng), rough_field(grid, rng)
            a = inner_product("H", apply_B(None, u), w)
            b = grad_inner(u, w)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_cosine(self):
        grid = Grid.line(512)
        u = field_from_function(grid, lambda x: np.cos(np.pi * x))
        out = apply_B(None, u)
        assert np.max(np.abs(out.data - math.pi**2 * u.data)) <= 1e-3


class TestBBMRatio:
    def test_bounded_across_sweep(self, family1d):
        ratios = []
        for eps in [0.2, 0.1, 0.05, 0.025]:
            grid = Grid.line(round(8 / eps))
            u = field_from_function(grid, lambda x: np.cos(np.pi * x))
            op = build_nonlocal_operator(family1d, eps, grid)
            ratios.append(bbm_bound_ratio(op, u))
        assert max(ratios) / min(ratios) <= 2.0
        assert max(ratios) <= 2.0  # measured ~1.35

    def test_degenerate_on_constants(self, op32):
        c = Field(op32.grid, np.full(op32.grid.shape, 4.0))
        with pytest.raises(DegenerateFieldError):
            bbm_bound_ratio(op32, c)

    def test_one_apply_per_ratio(self, op32, rng, monkeypatch):
        u = smooth_field(op32.grid, rng)
        ratio = bbm_bound_ratio(op32, u)
        calls = []

        def counting(op, a, *diagonal):
            calls.append(a)
            return apply_B_eps(op, a, *diagonal)

        monkeypatch.setattr(operators, "apply_B_eps", counting)
        assert bbm_bound_ratio(op32, u) == ratio
        # one application serves the energy and the dual norm
        assert len(calls) == 1

    def test_scale_invariance(self, op32, rng):
        u = smooth_field(op32.grid, rng)
        r1 = bbm_bound_ratio(op32, u)
        r2 = bbm_bound_ratio(op32, Field(op32.grid, -17.3 * u.data))
        assert r1 == pytest.approx(r2, rel=1e-10)


class TestOperatorConvergence:
    def test_dual_norm_gap_decreases(self, family1d):
        gaps = []
        for eps in [0.2, 0.1, 0.05, 0.025]:
            grid = Grid.line(round(8 / eps))
            v = field_from_function(grid, lambda x: np.cos(np.pi * x))
            op = build_nonlocal_operator(family1d, eps, grid)
            gaps.append(dual_norm(apply_B(op, v) - apply_B(None, v)))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_plan_reproduces_a_eps_on_reference_grid(self, family1d):
        grid = Grid.line(32)
        kernel = tabulate_kernel(family1d, 0.25, grid)
        plan = ConvolutionPlan(kernel)
        direct = np.zeros(grid.shape)
        h = grid.spacing[0]
        for i in range(grid.n[0]):
            for j in range(grid.n[0]):
                direct[i] += kernel.value_at((i - j,)) * h
        assert np.max(np.abs(plan.apply(ones(grid).data) - direct)) <= 1e-12
