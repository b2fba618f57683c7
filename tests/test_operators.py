import dataclasses
import functools
import math

import numpy as np
import pytest

from conftest import rough_field, smooth_field
from pfnl.errors import DegenerateFieldError
from pfnl.fields import (
    Field,
    Grid,
    dual_norm,
    field_from_function,
    grad_inner,
    inner_product,
    norm,
    ones,
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
    apply_B,
    apply_B_eps,
    apply_B_local,
    bbm_bound_ratio,
    build_nonlocal_operator,
    build_plan,
    convolve,
    energy_double_sum,
    energy_local,
    energy_nonlocal,
    frechet_fd_residual,
    frechet_identity_residual,
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
        out = convolve(op32.plan, zeros(op32.grid))
        assert np.max(np.abs(out.data)) == 0.0

    def test_ones_matches_direct_sum(self, op32):
        direct = direct_convolution(op32, ones(op32.grid))
        assert np.max(np.abs(op32.a_eps.data - direct.data)) <= 1e-12

    def test_random_matches_direct_sum(self, op32, rng):
        u = rough_field(op32.grid, rng)
        fftd = convolve(op32.plan, u)
        direct = direct_convolution(op32, u)
        assert np.max(np.abs(fftd.data - direct.data)) <= 1e-12 * np.max(
            np.abs(direct.data) + 1.0
        )

    def test_random_matches_direct_sum_2d(self, op2d, rng):
        u = rough_field(op2d.grid, rng)
        fftd = convolve(op2d.plan, u)
        direct = direct_convolution(op2d, u)
        assert np.max(np.abs(fftd.data - direct.data)) <= 1e-11 * np.max(
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
        assert np.max(np.abs(convolve(op.plan, u).data - direct.data)) <= 1e-12 * scale
        a = energy_nonlocal(op, u)
        assert abs(a - energy_double_sum(op, u)) <= 1e-12 * max(1.0, a)

    @pytest.mark.parametrize(
        "n, eps, radius, direct",
        [(40, 0.2, 1.0, True), (16, 0.5, 3.0, True), (128, 0.5, 3.0, False)],
    )
    def test_1d_path_follows_tap_count(self, n, eps, radius, direct, rng):
        grid = Grid.line(n)
        family = build_kernel_family(make_profile("polynomial-bump", radius), 1, 0.0)
        plan = build_nonlocal_operator(family, eps, grid).plan
        assert plan.direct == direct
        assert (plan.kernel.values.size <= MAX_DIRECT_TAPS) == direct
        # the other path gives the same convolution to roundoff
        other = dataclasses.replace(plan, direct=not direct)
        u = rough_field(grid, rng).data
        scale = np.max(np.abs(plan.apply(u))) + 1.0
        assert np.max(np.abs(plan.apply(u) - other.apply(u))) <= 1e-12 * scale

    def test_2d_plans_use_fft(self, op2d):
        assert not op2d.plan.direct

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
        b = 0.5 * inner_product("H", apply_B_local(u), u)
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
        # row i holds J_eps(x_i - x_j): the stored window, zero beyond it
        w = op.plan.kernel.halfwidth[0]
        assert np.array_equal(J[w, : 2 * w + 1], op.plan.kernel.values[::-1])
        assert np.all(J[0, w + 1 :] == 0.0)


class TestApplyBLocal:
    def test_constant(self):
        out = apply_B_local(ones(Grid.line(16)))
        assert np.max(np.abs(out.data)) == 0.0

    def test_weak_form_exact(self, rng):
        grid = Grid.line(64)
        for _ in range(5):
            u, w = rough_field(grid, rng), rough_field(grid, rng)
            a = inner_product("H", apply_B_local(u), w)
            b = grad_inner(u, w)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_cosine(self):
        grid = Grid.line(512)
        u = field_from_function(grid, lambda x: np.cos(np.pi * x))
        out = apply_B_local(u)
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
            gaps.append(dual_norm(apply_B(op, v) - apply_B_local(v)))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_plan_reproduces_a_eps_on_reference_grid(self, family1d):
        grid = Grid.line(32)
        kernel = tabulate_kernel(family1d, 0.25, grid)
        plan = build_plan(kernel)
        direct = np.zeros(grid.shape)
        h = grid.spacing[0]
        for i in range(grid.n[0]):
            for j in range(grid.n[0]):
                direct[i] += kernel.value_at((i - j,)) * h
        assert np.max(np.abs(convolve(plan, ones(grid)).data - direct)) <= 1e-12
