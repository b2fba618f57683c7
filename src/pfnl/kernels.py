"""Radial mollifier profiles and the scaled convolution-kernel family.

A family is built from an unnormalized C1 profile ``rho_tilde`` supported
on ``[0, R]``.  The stored normalization factor rescales it so that the
moment condition

    integral_0^inf rho(s) s^(d+1-alpha) ds = c_d,
    c_d = 2 / integral_{S^(d-1)} |e1 . sigma|^2 dS,

holds; that calibration is exactly what makes the induced nonlocal
energy reproduce the Dirichlet energy in the small-width limit.  The
kernel itself is

    J_eps(z) = rho_eps(|z|) / (eps^(2-alpha) |z|^alpha),
    rho_eps(r) = eps^(-d) rho(r / eps),

with a single evaluation path for the scaling so that rescalings are
bit-consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import KernelError, ResolutionError, SingularKernelError
from .fields import Grid

# --- sphere constant -------------------------------------------------------

#: integral_{S^(d-1)} |e1 . sigma|^2 over the unit sphere: 2 (counting
#: measure on {-1,+1}), pi, and 4*pi/3 for d = 1, 2, 3.
_SPHERE_SECOND_MOMENT = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}


def sphere_constant(d):
    """Moment-normalization constant ``c_d`` (1, 2/pi, 3/(2*pi))."""
    if d not in _SPHERE_SECOND_MOMENT:
        raise KernelError(f"unsupported dimension {d} (need 1, 2, or 3)")
    return 2.0 / _SPHERE_SECOND_MOMENT[d]


# --- adaptive Gauss-Legendre quadrature -------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _gl_panel(f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.sum(_GL_WEIGHTS * f(mid + half * _GL_NODES)))


def adaptive_gauss_legendre(f, a, b, tol=1e-12, max_depth=48):
    """Adaptive bisected 20-point Gauss-Legendre quadrature of ``f``."""

    def recurse(lo, hi, whole, depth):
        mid = 0.5 * (lo + hi)
        left = _gl_panel(f, lo, mid)
        right = _gl_panel(f, mid, hi)
        if depth >= max_depth or abs(left + right - whole) <= tol * max(
            1.0, abs(left + right)
        ):
            return left + right
        return recurse(lo, mid, left, depth + 1) + recurse(mid, hi, right, depth + 1)

    if b <= a:
        return 0.0
    return recurse(a, b, _gl_panel(f, a, b), 0)


# --- mollifier profiles ------------------------------------------------------


def _gaussian(R):
    """``sigma^2`` of the truncated Gaussian (``sigma = R/3``) and the
    Gaussian's value at ``R``, which the shape subtracts."""
    var = (R / 3.0) * (R / 3.0)
    return var, math.exp(-R * R / (2.0 * var))


def _gaussian_value(s, R):
    var, tail = _gaussian(R)
    return np.exp(-s * s / (2.0 * var)) - tail * (1.0 + R * (R - s) / var)


def _gaussian_derivative(s, R):
    var, tail = _gaussian(R)
    return -(s / var) * np.exp(-s * s / (2.0 * var)) + tail * R / var


# shape -> (value, derivative) of rho_tilde at the radii s inside the
# support radius R, as functions of (s, R); see make_profile
_SHAPES = {
    "polynomial-bump": (
        lambda s, R: (1.0 - (s / R) ** 2) ** 2,
        lambda s, R: -4.0 * (s / R) * (1.0 - (s / R) ** 2) / R,
    ),
    "compact-bump": (
        lambda s, R: np.exp(-1.0 / (1.0 - (s / R) ** 2)),
        lambda s, R: (
            np.exp(-1.0 / (1.0 - (s / R) ** 2))
            * (-2.0 * (s / R) / R)
            / (1.0 - (s / R) ** 2) ** 2
        ),
    ),
    "gaussian-truncated": (_gaussian_value, _gaussian_derivative),
}

PROFILE_SHAPES = tuple(_SHAPES)


@dataclass(frozen=True)
class MollifierProfile:
    """Unnormalized radial profile ``rho_tilde`` supported on [0, R].

    ``raw`` must be vectorized over numpy arrays and vanish (with its
    derivative) at the support radius so the profile is C1;
    ``raw_derivative``, vectorized too, is that derivative.
    """

    shape: str
    support_radius: float
    raw: callable
    raw_derivative: callable

    def __call__(self, s):
        return self.raw(np.asarray(s, dtype=np.float64))

    def derivative(self, s):
        return self.raw_derivative(np.asarray(s, dtype=np.float64))


def make_profile(shape, support_radius=1.0):
    """Construct one of the named profile shapes, each one entry of the
    shape table, zero from the support radius ``R`` on.

    polynomial-bump
        ``(1 - (s/R)^2)^2`` on [0, R]; all moments of interest are exact
        polynomial integrals, which the test oracles exploit.
    compact-bump
        the classic smooth bump ``exp(-1/(1 - (s/R)^2))``.
    gaussian-truncated
        a Gaussian (sigma = R/3) with a linear correction making both the
        value and slope vanish at R.
    """
    R = float(support_radius)
    if R <= 0:
        raise KernelError("support radius must be positive")
    if shape not in _SHAPES:
        raise KernelError(
            f"unknown profile shape {shape!r} (expected one of {PROFILE_SHAPES})"
        )
    value, derivative = _SHAPES[shape]
    return MollifierProfile(shape, R, _supported(value, R), _supported(derivative, R))


def _supported(f, R):
    """``f(s, R)`` at the radii ``s`` with ``s / R < 1``, zero elsewhere."""

    def on_support(s):
        out = np.zeros_like(s)
        inside = s / R < 1.0
        with np.errstate(divide="ignore", over="ignore"):
            out[inside] = f(s[inside], R)
        return out

    return on_support


# --- kernel family -----------------------------------------------------------


@dataclass(frozen=True)
class KernelFamily:
    """Normalized mollifier family for one (dimension, alpha) pair."""

    profile: MollifierProfile
    dimension: int
    alpha: float
    normalization: float

    @property
    def c_d(self):
        return sphere_constant(self.dimension)

    def rho(self, s):
        """Normalized profile ``rho = normalization * rho_tilde``."""
        return self.normalization * self.profile(s)

    def rho_eps(self, eps, r):
        """Rescaled mollifier ``eps^-d rho(r/eps)`` (single scaling path)."""
        return self.profile(np.asarray(r, dtype=np.float64) / eps) * (
            self.normalization / eps**self.dimension
        )


def _moment_integrand(profile, exponent):
    def f(s):
        return profile(s) * s**exponent

    return f


def _cutoff_integral(f, lo, hi):
    if hi <= lo:
        return 0.0
    return adaptive_gauss_legendre(f, lo, hi, tol=1e-10, max_depth=30)


def _check_integrability(profile, d, alpha):
    """Finite-quadrature sanity check of the two radial integrability
    requirements, with a shrinking lower cutoff to catch hard (power-law)
    divergences near zero; borderline logarithmic growth is tolerated.
    """
    R = profile.support_radius
    checks = [
        ("derivative moment", lambda s: np.abs(profile.derivative(s)) * s ** (d - 1 - alpha)),
        ("profile moment", lambda s: profile(s) * s ** (d - 2 - alpha)),
    ]
    for name, f in checks:
        eta = 1e-8
        total = _cutoff_integral(f, eta, R)
        if not np.isfinite(total):
            raise KernelError(f"{name} integral is not finite")
        refined = total + _cutoff_integral(f, eta / 2.0, eta)
        if refined > 2.0 * max(total, 1e-300):
            raise KernelError(
                f"{name} integral diverges near the origin "
                f"(cutoff refinement doubled the value)"
            )


def build_kernel_family(profile, d, alpha):
    """Normalize a profile into a :class:`KernelFamily`.

    Raises :class:`KernelError` for alpha outside [0, d-1], profiles that
    are negative / identically zero / unsupported-for-integrability, or a
    vanishing moment integral.
    """
    d = int(d)
    alpha = float(alpha)
    c_d = sphere_constant(d)
    if alpha < -1e-12 or alpha > d - 1 + 1e-12:
        raise KernelError(
            f"alpha must lie in [0, d-1]; got alpha={alpha} with d={d}"
        )
    alpha = min(max(alpha, 0.0), float(d - 1))

    R = profile.support_radius
    samples = np.linspace(0.0, R * 1.01, 4097)
    vals = profile(samples)
    if np.min(vals) < -1e-12:
        raise KernelError("profile must be nonnegative on its support")
    if np.max(np.abs(vals[samples >= R])) > 1e-12:
        raise KernelError("profile must vanish beyond its support radius")

    raw_moment = adaptive_gauss_legendre(
        _moment_integrand(profile, d + 1 - alpha), 0.0, R, tol=1e-12
    )
    if raw_moment <= 1e-300:
        raise KernelError("degenerate profile: moment integral vanishes")

    _check_integrability(profile, d, alpha)
    return KernelFamily(profile, d, alpha, c_d / raw_moment)


def moment_check(family):
    """Relative residual of the moment condition for a built family."""
    d, alpha = family.dimension, family.alpha
    moment = adaptive_gauss_legendre(
        lambda s: family.rho(s) * s ** (d + 1 - alpha),
        0.0,
        family.profile.support_radius,
        tol=1e-12,
    )
    return abs(moment - family.c_d) / family.c_d


def kernel_value(family, eps, z):
    """Pointwise kernel value ``J_eps(z)`` for an offset vector ``z``.

    Returns 0 beyond the scaled support.  At ``z = 0`` with alpha > 0 the
    kernel is singular: by convention the value is 0 when the profile
    vanishes at the origin, otherwise evaluation is refused (tabulated
    kernels handle that cell by cell-averaging instead).
    """
    if not 0.0 < eps <= 1.0:
        raise KernelError(f"eps must lie in (0, 1], got {eps}")
    r = float(np.linalg.norm(np.atleast_1d(np.asarray(z, dtype=np.float64))))
    if r == 0.0 and family.alpha > 0.0:
        if float(family.rho(0.0)) == 0.0:
            return 0.0
        raise SingularKernelError(
            "kernel is singular at z=0 for alpha > 0 with rho(0) != 0"
        )
    return float(_radial_values(family, eps, np.array([r]))[0])


def _radial_values(family, eps, r):
    """Vectorized ``J_eps`` on an array of radii (no r=0 entries when
    alpha > 0), zero from the scaled support radius ``eps R`` on: the one
    place where ``rho_eps / (eps^(2-alpha) r^alpha)`` is written."""
    r = np.asarray(r, dtype=np.float64)
    out = np.zeros_like(r)
    inside = r < eps * family.profile.support_radius
    ri = r[inside]
    scale = eps ** (2.0 - family.alpha)
    if family.alpha > 0.0:
        out[inside] = family.rho_eps(eps, ri) / (scale * ri**family.alpha)
    else:
        out[inside] = family.rho_eps(eps, ri) / scale
    return out


# --- tabulation on a grid ----------------------------------------------------


@dataclass(frozen=True)
class EvaluatedKernel:
    """Kernel values tabulated on the offsets of its compact support.

    ``J_eps`` vanishes beyond ``w = ceil(eps R / h)`` cells per axis
    (clipped to ``n - 1``, the largest in-box offset), so only the
    ``(2w+1)^d`` window is stored: ``values[o + w]`` (per axis) holds
    ``J_eps`` at offset vector ``o * h``.  The origin cell stores the
    cell-average of the kernel so that singular kernels stay summable.
    Immutable and shareable.
    """

    family: KernelFamily
    eps: float
    grid: Grid
    values: np.ndarray

    @property
    def halfwidth(self):
        """Support halfwidth ``w`` in cells per axis."""
        return tuple((m - 1) // 2 for m in self.values.shape)

    def value_at(self, offset):
        """``J_eps`` at an integer offset; 0 outside the stored window."""
        w = self.halfwidth
        if any(abs(o) > k for o, k in zip(offset, w)):
            return 0.0
        return float(self.values[tuple(o + k for o, k in zip(offset, w))])


def is_resolved(eps, h):
    """The resolution rule ``eps >= 4h`` for a kernel width ``eps`` on
    cells of size ``h``, with a slack of 1e-12 so that a width written in
    decimal (``0.333333333333`` for ``4/12``) passes."""
    return eps >= 4.0 * h - 1e-12


def tabulate_kernel(family, eps, grid):
    """Evaluate ``J_eps`` on its support window, enforcing ``eps >= 4h``.

    Under-resolved kernels degenerate to a scaled identity and silently
    break the local-limit diagnostics, hence the hard resolution gate.
    """
    if not 0.0 < eps <= 1.0:
        raise KernelError(f"eps must lie in (0, 1], got {eps}")
    if family.dimension != grid.dimension:
        raise KernelError(
            f"kernel family dimension {family.dimension} does not match "
            f"grid dimension {grid.dimension}"
        )
    hmax = max(grid.spacing)
    if not is_resolved(eps, hmax):
        raise ResolutionError(
            f"kernel width eps={eps} under-resolved on grid with h={hmax}: "
            f"need eps >= 4h = {4.0 * hmax}"
        )

    reach = eps * family.profile.support_radius
    w = tuple(min(math.ceil(reach / h), m - 1) for m, h in zip(grid.n, grid.spacing))
    offsets = [np.arange(-k, k + 1) * h for k, h in zip(w, grid.spacing)]
    if grid.dimension == 1:
        radii = np.abs(offsets[0])
    else:
        radii = np.sqrt(offsets[0][:, None] ** 2 + offsets[1][None, :] ** 2)

    values = _radial_values(family, eps, np.where(radii == 0.0, 1.0, radii))
    values[w] = _origin_cell_average(family, eps, grid.spacing)
    return EvaluatedKernel(family, eps, grid, values)


def _origin_cell_average(family, eps, spacing):
    """Cell-average of ``J_eps`` over the origin cell.

    For alpha = 0 the integrand is smooth and one tensor Gauss panel per
    half-axis suffices; for alpha > 0 the integrable singularity at the
    center is handled by peeling off geometrically shrinking boxes.
    """
    d = family.dimension
    cell_vol = math.prod(spacing)
    if family.alpha == 0.0:
        if d == 1:
            val = adaptive_gauss_legendre(
                lambda r: _radial_values(family, eps, np.abs(r)),
                -0.5 * spacing[0],
                0.5 * spacing[0],
                tol=1e-12,
            )
        else:
            val = _gl_panel_2d(
                family, eps, -0.5 * spacing[0], 0.5 * spacing[0], -0.5 * spacing[1], 0.5 * spacing[1]
            )
        return val / cell_vol

    # alpha > 0 occurs only for d >= 2: integrate over nested box annuli.
    total = 0.0
    hx, hy = 0.5 * spacing[0], 0.5 * spacing[1]
    for _ in range(60):
        shell = _box_shell_integral(family, eps, hx, hy)
        total += shell
        hx *= 0.5
        hy *= 0.5
        if shell < 1e-16 * max(total, 1e-300):
            break
    return total / cell_vol


def _gl_panel_2d(family, eps, ax, bx, ay, by):
    nodes, weights = _GL_NODES, _GL_WEIGHTS
    xm, xh = 0.5 * (ax + bx), 0.5 * (bx - ax)
    ym, yh = 0.5 * (ay + by), 0.5 * (by - ay)
    X = xm + xh * nodes[:, None]
    Y = ym + yh * nodes[None, :]
    vals = _radial_values(family, eps, np.sqrt(X * X + Y * Y))
    return xh * yh * float(weights @ vals @ weights)


def _box_shell_integral(family, eps, hx, hy):
    """Integral over the box [-hx,hx]x[-hy,hy] minus its half-size copy."""
    top = _gl_panel_2d(family, eps, -hx, hx, 0.5 * hy, hy)
    bottom = _gl_panel_2d(family, eps, -hx, hx, -hy, -0.5 * hy)
    left = _gl_panel_2d(family, eps, -hx, -0.5 * hx, -0.5 * hy, 0.5 * hy)
    right = _gl_panel_2d(family, eps, 0.5 * hx, hx, -0.5 * hy, 0.5 * hy)
    return top + bottom + left + right
