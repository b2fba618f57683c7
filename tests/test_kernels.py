import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from pfnl.errors import KernelError, ResolutionError, SingularKernelError
from pfnl.fields import Grid
from pfnl.kernels import (
    MollifierProfile,
    adaptive_gauss_legendre,
    build_kernel_family,
    kernel_value,
    make_profile,
    moment_check,
    sphere_constant,
    tabulate_kernel,
)


def bump_family(d=1, alpha=0.0, radius=1.0):
    return build_kernel_family(make_profile("polynomial-bump", radius), d, alpha)


class TestSphereConstant:
    def test_d1_counting_measure(self):
        # S^0 = {-1, +1}: the second moment is exactly 2.
        assert sphere_constant(1) == pytest.approx(1.0, abs=1e-14)

    def test_d2_against_quadrature(self):
        moment, _ = integrate.quad(lambda t: math.cos(t) ** 2, 0.0, 2.0 * math.pi)
        assert sphere_constant(2) == pytest.approx(2.0 / moment, rel=1e-12)

    def test_d3_against_quadrature(self):
        # second moment of sigma_1 over S^2 in spherical coordinates
        moment, _ = integrate.dblquad(
            lambda phi, theta: (math.sin(theta) * math.cos(phi)) ** 2
            * math.sin(theta),
            0.0,
            math.pi,
            0.0,
            2.0 * math.pi,
        )
        assert moment == pytest.approx(4.0 * math.pi / 3.0, rel=1e-10)
        assert sphere_constant(3) == pytest.approx(2.0 / moment, rel=1e-10)

    def test_unsupported_dimension(self):
        with pytest.raises(KernelError):
            sphere_constant(4)


class TestBuildFamily:
    def test_bump_normalization_exact(self):
        # moment integral of (1-s^2)^2 s^2 on [0,1] is exactly 8/105
        fam = bump_family(1, 0.0)
        exact_moment = 8.0 / 105.0
        assert fam.normalization == pytest.approx(
            sphere_constant(1) / exact_moment, rel=1e-12
        )

    @pytest.mark.parametrize(
        "shape,d,alpha",
        [
            ("polynomial-bump", 1, 0.0),
            ("polynomial-bump", 2, 0.0),
            ("polynomial-bump", 2, 1.0),
            ("polynomial-bump", 3, 1.0),
            ("compact-bump", 2, 0.5),
            ("gaussian-truncated", 2, 1.0),
            ("gaussian-truncated", 3, 2.0),
        ],
    )
    def test_moment_residual_by_construction(self, shape, d, alpha):
        fam = build_kernel_family(make_profile(shape), d, alpha)
        assert moment_check(fam) <= 1e-10

    def test_gaussian_truncated_oracle_quadrature(self):
        fam = build_kernel_family(make_profile("gaussian-truncated"), 2, 1.0)
        moment, _ = integrate.quad(
            lambda s: float(fam.rho(s)) * s ** (fam.dimension + 1 - fam.alpha),
            0.0,
            fam.profile.support_radius,
            epsabs=1e-14,
            epsrel=1e-13,
        )
        assert abs(moment - fam.c_d) / fam.c_d <= 1e-10

    def test_doubled_normalization_residual(self):
        fam = bump_family(2, 1.0)
        doubled = dataclasses.replace(fam, normalization=2.0 * fam.normalization)
        assert moment_check(doubled) == pytest.approx(1.0, rel=1e-10)

    def test_zero_profile_rejected(self):
        dead = MollifierProfile(
            "custom", 1.0, lambda s: np.zeros_like(s), lambda s: np.zeros_like(s)
        )
        with pytest.raises(KernelError):
            build_kernel_family(dead, 1, 0.0)

    def test_alpha_out_of_range(self):
        with pytest.raises(KernelError):
            bump_family(2, 1.5)
        with pytest.raises(KernelError):
            bump_family(1, -0.2)

    def test_divergent_derivative_moment_rejected(self):
        # rho ~ 1/s near the origin: the derivative moment int |rho'| ds
        # diverges like 1/s, while the normalization moment stays finite
        def raw(s):
            return np.where(s < 1.0, (1.0 - s) ** 2 / np.maximum(s, 1e-300), 0.0)

        def raw_derivative(s):
            return np.where(s < 1.0, -(1.0 - s) * (1.0 + s) / s**2, 0.0)

        steep = MollifierProfile("custom", 1.0, raw, raw_derivative)
        with pytest.raises(KernelError, match="derivative moment"):
            build_kernel_family(steep, 1, 0.0)

    def test_negative_profile_rejected(self):
        bad = MollifierProfile(
            "custom",
            1.0,
            lambda s: np.where(s < 1.0, -1.0 + 0.0 * s, 0.0),
            lambda s: np.zeros_like(s),
        )
        with pytest.raises(KernelError):
            build_kernel_family(bad, 1, 0.0)

    def test_gaussian_truncated_is_c1_and_nonnegative(self):
        prof = make_profile("gaussian-truncated", 1.0)
        s = np.linspace(0.0, 1.0, 20001)
        assert np.min(prof(s)) >= -1e-15
        assert abs(float(prof(np.array([1.0 - 1e-9]))[0])) < 1e-8
        assert abs(float(prof.derivative(np.array([1.0 - 1e-9]))[0])) < 1e-6


class TestKernelValue:
    def test_zero_beyond_support(self):
        fam = bump_family(1, 0.0)
        assert kernel_value(fam, 0.5, [0.5]) == 0.0
        assert kernel_value(fam, 0.5, [3.0]) == 0.0

    def test_unit_eps_alpha_zero_is_profile(self):
        fam = bump_family(1, 0.0)
        z = 0.37
        assert kernel_value(fam, 1.0, [z]) == pytest.approx(
            float(fam.rho(z)), rel=1e-14
        )

    def test_scaled_point_value(self):
        # alpha=0, d=1: J_eps(z) = eps^-(d+2) rho(|z|/eps)
        fam = bump_family(1, 0.0)
        eps, z = 0.5, 0.25
        expected = eps ** (-3.0) * float(fam.rho(z / eps))
        assert kernel_value(fam, eps, [z]) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_scaled_point_value_singular(self, alpha):
        # d=2, polynomial bump on [0, 1]: rho = c_2 (1 - s^2)^2 / M with
        # M = int_0^1 (1 - s^2)^2 s^(3-alpha) ds = 1/a - 2/(a+2) + 1/(a+4),
        # a = 4 - alpha, and J_eps(z) = eps^-2 rho(r/eps) / (eps^(2-alpha) r^alpha).
        # The family's M is an adaptive quadrature to 1e-12, hence rel=1e-10.
        fam = bump_family(2, alpha)
        a = 4.0 - alpha
        rho0 = (2.0 / math.pi) / (1.0 / a - 2.0 / (a + 2.0) + 1.0 / (a + 4.0))
        for eps, z in [(0.5, (0.1, 0.2)), (0.25, (-0.05, 0.03)), (1.0, (0.0, 0.9))]:
            r = math.hypot(*z)
            rho = rho0 * (1.0 - (r / eps) ** 2) ** 2
            expected = rho / eps**2 / (eps ** (2.0 - alpha) * r**alpha)
            assert kernel_value(fam, eps, list(z)) == pytest.approx(expected, rel=1e-10)

    def test_singular_origin(self):
        fam = bump_family(2, 1.0)
        with pytest.raises(SingularKernelError):
            kernel_value(fam, 0.5, [0.0, 0.0])

    def test_origin_with_vanishing_profile(self):
        prof = MollifierProfile(
            "custom",
            1.0,
            lambda s: np.where(s < 1.0, s**2 * (1.0 - s**2) ** 2, 0.0),
            lambda s: np.where(s < 1.0, 2.0 * s * (1.0 - s**2) * (1.0 - 3.0 * s**2), 0.0),
        )
        fam = build_kernel_family(prof, 2, 1.0)
        assert kernel_value(fam, 0.5, [0.0, 0.0]) == 0.0

    def test_scaling_single_path(self):
        fam = bump_family(2, 1.0)
        u = 0.4  # profile argument
        for e1, e2 in [(0.3, 0.7), (0.05, 1.0)]:
            lhs = float(fam.rho_eps(e1, u * e1)) * e1**2
            rhs = float(fam.rho_eps(e2, u * e2)) * e2**2
            assert lhs == pytest.approx(rhs, rel=1e-13)


class TestTabulation:
    def test_resolution_gate(self):
        fam = bump_family(1, 0.0)
        grid = Grid.line(16)  # h = 1/16, 4h = 0.25
        with pytest.raises(ResolutionError):
            tabulate_kernel(fam, 0.2, grid)

    def test_radial_symmetry_exact(self):
        fam = bump_family(1, 0.0)
        grid = Grid.line(32)
        ker = tabulate_kernel(fam, 0.5, grid)
        assert np.array_equal(ker.values, ker.values[::-1])

    def test_radial_symmetry_2d(self):
        fam = build_kernel_family(make_profile("polynomial-bump"), 2, 1.0)
        grid = Grid.box(16)
        ker = tabulate_kernel(fam, 0.3, grid)
        assert np.array_equal(ker.values, ker.values[::-1, :])
        assert np.array_equal(ker.values, ker.values[:, ::-1])

    def test_nonnegative_and_compact(self):
        # only the (2w+1)^d support window is stored
        for grid, eps in [(Grid.line(64), 0.25), (Grid((1.0, 2.5), (16, 20)), 0.5)]:
            fam = bump_family(grid.dimension, 0.0)
            ker = tabulate_kernel(fam, eps, grid)
            reach = eps * fam.profile.support_radius
            w = ker.halfwidth
            assert w == tuple(math.ceil(reach / h) for h in grid.spacing)
            assert ker.values.shape == tuple(2 * k + 1 for k in w)
            assert np.min(ker.values) >= 0.0
            axes = np.meshgrid(
                *(np.arange(-k, k + 1) * h for k, h in zip(w, grid.spacing)),
                indexing="ij",
            )
            outside = np.sqrt(sum(a * a for a in axes)) >= reach
            assert outside.any() and np.max(ker.values[outside]) == 0.0
            for axis, k in enumerate(w):
                for o in (k + 1, -(k + 1), grid.n[axis] - 1):
                    offset = tuple(o if a == axis else 0 for a in range(grid.dimension))
                    assert ker.value_at(offset) == 0.0

    def test_origin_cell_average_1d_oracle(self):
        fam = bump_family(1, 0.0)
        grid = Grid.line(64)
        eps = 0.25
        ker = tabulate_kernel(fam, eps, grid)
        h = grid.spacing[0]
        oracle, _ = integrate.quad(
            lambda z: kernel_value(fam, eps, [z]), -0.5 * h, 0.5 * h, epsabs=1e-14
        )
        assert ker.value_at((0,)) == pytest.approx(oracle / h, rel=1e-10)

    def test_origin_cell_average_2d_singular_oracle(self):
        fam = build_kernel_family(make_profile("polynomial-bump"), 2, 1.0)
        grid = Grid.box(16)
        eps = 0.3
        ker = tabulate_kernel(fam, eps, grid)
        h = grid.spacing[0]

        # independent oracle: polar coordinates absorb the 1/r singularity
        def radial(theta):
            rmax = 0.5 * h / max(abs(math.cos(theta)), abs(math.sin(theta)))
            val, _ = integrate.quad(
                lambda r: kernel_value(fam, eps, [r * math.cos(theta), r * math.sin(theta)])
                * r,
                0.0,
                rmax,
                epsabs=1e-13,
            )
            return val

        oracle, _ = integrate.quad(radial, 0.0, 2.0 * math.pi, epsabs=1e-12, limit=200)
        assert ker.value_at((0, 0)) == pytest.approx(oracle / h**2, rel=1e-6)


class TestQuadrature:
    def test_polynomial_exactness(self):
        val = adaptive_gauss_legendre(lambda s: s**6 - 2.0 * s**4 + s**2, 0.0, 1.0)
        assert val == pytest.approx(8.0 / 105.0, rel=1e-14)

    def test_oscillatory(self):
        val = adaptive_gauss_legendre(lambda s: np.sin(40.0 * s), 0.0, 1.0)
        exact = (1.0 - math.cos(40.0)) / 40.0
        assert val == pytest.approx(exact, abs=1e-12)
