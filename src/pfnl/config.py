"""Flat dotted-key run configuration.

The format is one ``key = value`` pair per line, ``#`` comments, no
nesting; every key is validated against the schema below and unknown or
duplicate keys are rejected with line numbers.  Defaults are filled for
anything omitted, so a minimal file can be empty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fields import Grid
from .integrator import SchemeConfig
from .kernels import PROFILE_SHAPES, build_kernel_family, make_profile
from .physics import PotentialSpec, make_double_well, make_source


def _positive(x):
    return x > 0


def _nonnegative(x):
    return x >= 0


def _tolerance(x):
    return 0.0 < x <= 1e-6


def _parse_eps_list(text):
    vals = tuple(float(p) for p in str(text).split(",") if p.strip())
    if not vals:
        raise ValueError("empty list")
    return vals


# key -> (attribute, converter, validator, default, description-of-range)
SCHEMA = {
    "kernel.profile": ("kernel_profile", str, lambda s: s in PROFILE_SHAPES, "polynomial-bump", f"one of {PROFILE_SHAPES}"),
    "kernel.support_radius": ("kernel_support_radius", float, _positive, 1.0, "> 0"),
    "kernel.alpha": ("kernel_alpha", float, _nonnegative, 0.0, ">= 0"),
    "grid.dimension": ("grid_dimension", int, lambda d: d in (1, 2), 1, "1 or 2"),
    "grid.length": ("grid_length", float, _positive, 1.0, "> 0"),
    "grid.n": ("grid_n", int, lambda n: n >= 4, 512, ">= 4"),
    "time.T": ("time_T", float, _nonnegative, 0.5, ">= 0"),
    "time.dt": ("time_dt", float, _positive, 1e-3, "> 0"),
    "time.snapshots": ("time_snapshots", int, lambda n: n >= 1, 20, ">= 1"),
    "solver.newton_tol": ("newton_tol", float, _tolerance, 1e-10, "in (0, 1e-6]"),
    "solver.newton_max_iter": ("newton_max_iter", int, lambda n: n >= 1, 25, ">= 1"),
    "solver.cg_tol": ("cg_tol", float, _tolerance, 1e-12, "in (0, 1e-6]"),
    "potential.kind": ("potential_kind", str, lambda s: s in ("double-well", "custom-polynomial"), "double-well", "double-well or custom-polynomial"),
    "potential.power": ("potential_power", int, lambda p: p >= 1 and p % 2 == 1, 3, "odd integer >= 1"),
    "potential.pi_slope": ("potential_pi_slope", float, lambda x: True, -1.0, "any real"),
    "potential.q": ("potential_q", float, lambda q: q > 1.0 or q == 0.0, 0.0, "> 1 (0 = derive from kind)"),
    "potential.c_beta": ("potential_c_beta", float, _nonnegative, 0.0, ">= 0 (0 = derive from kind)"),
    "initial.kind": ("initial_kind", str, lambda s: s in ("smooth-default", "custom"), "smooth-default", "smooth-default or custom"),
    "initial.theta_file": ("initial_theta_file", str, lambda s: True, "", "path"),
    "initial.phi_file": ("initial_phi_file", str, lambda s: True, "", "path"),
    "initial.v_file": ("initial_v_file", str, lambda s: True, "", "path"),
    "initial.c1": ("initial_c1", float, _positive, 10.0, "> 0"),
    "source.kind": ("source_kind", str, lambda s: s in ("none", "cosine-decay"), "none", "none or cosine-decay"),
    "source.amplitude": ("source_amplitude", float, lambda x: True, 1.0, "any real"),
    "sweep.eps": ("sweep_eps", _parse_eps_list, lambda v: all(0.0 < e <= 1.0 for e in v) and all(a > b for a, b in zip(v, v[1:])), (0.2, 0.1, 0.05, 0.025), "strictly decreasing values in (0, 1]"),
    "sweep.max_n": ("sweep_max_n", int, lambda n: n >= 4, 512, ">= 4"),
    "sweep.reference": ("sweep_reference", str, lambda s: s in ("local-solve", "finest-eps"), "local-solve", "local-solve or finest-eps"),
    "output.dir": ("output_dir", str, lambda s: bool(s), "out", "non-empty path"),
    "output.format": ("output_format", str, lambda s: s in ("csv", "binary"), "csv", "csv or binary"),
    "seed": ("seed", int, _nonnegative, 0, ">= 0"),
}


@dataclass
class RunConfig:
    """Validated configuration with object factories for the run."""

    kernel_profile: str
    kernel_support_radius: float
    kernel_alpha: float
    grid_dimension: int
    grid_length: float
    grid_n: int
    time_T: float
    time_dt: float
    time_snapshots: int
    newton_tol: float
    newton_max_iter: int
    cg_tol: float
    potential_kind: str
    potential_power: int
    potential_pi_slope: float
    potential_q: float
    potential_c_beta: float
    initial_kind: str
    initial_theta_file: str
    initial_phi_file: str
    initial_v_file: str
    initial_c1: float
    source_kind: str
    source_amplitude: float
    sweep_eps: tuple
    sweep_max_n: int
    sweep_reference: str
    output_dir: str
    output_format: str
    seed: int
    raw_text: str = ""

    def make_profile(self):
        return make_profile(self.kernel_profile, self.kernel_support_radius)

    def make_family(self):
        return build_kernel_family(
            self.make_profile(), self.grid_dimension, self.kernel_alpha
        )

    def make_grid(self):
        if self.grid_dimension == 1:
            return Grid.line(self.grid_n, self.grid_length)
        return Grid.box(self.grid_n, (self.grid_length, self.grid_length))

    def make_scheme(self):
        return SchemeConfig(
            dt=self.time_dt,
            T=self.time_T,
            phi_solver_tol=self.cg_tol,
            newton_max_iter=self.newton_max_iter,
            newton_tol=self.newton_tol,
            snapshots=self.time_snapshots,
        )

    def make_potential(self):
        if self.potential_kind == "double-well":
            spec = make_double_well()
        else:
            p = self.potential_power
            slope = self.potential_pi_slope

            def beta(r):
                return np.sign(r) * np.abs(r) ** p

            spec = PotentialSpec(
                beta=beta,
                beta_hat=lambda r: np.abs(r) ** (p + 1) / (p + 1.0),
                pi=lambda r: slope * r,
                q=(p + 1.0) / p,
                c_beta=p + 1.0,
                pi_lipschitz=abs(slope),
                beta_prime=lambda r: p * np.abs(r) ** (p - 1),
            )
        if self.potential_q or self.potential_c_beta:
            q = self.potential_q or spec.q
            c = self.potential_c_beta or spec.c_beta
            spec = PotentialSpec(
                beta=spec.beta, beta_hat=spec.beta_hat, pi=spec.pi,
                q=q, c_beta=c, pi_lipschitz=spec.pi_lipschitz,
                beta_prime=spec.beta_prime,
            )
        return spec

    def make_source(self):
        if self.source_kind == "none":
            return None
        return make_source(self.source_kind, self.source_amplitude)


def parse_config_text(text, origin="<config>"):
    """Parse and validate the flat key=value format.

    Raises :class:`ConfigError` carrying one message per problem, with
    line numbers for syntax errors, duplicates, and bad values.
    """
    errors = []
    seen = {}
    values = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"{origin}:{lineno}: expected 'key = value', got {line!r}")
            continue
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in seen:
            errors.append(
                f"{origin}:{lineno}: duplicate key {key!r} (first set on line {seen[key]})"
            )
            continue
        seen[key] = lineno
        if key not in SCHEMA:
            errors.append(f"{origin}:{lineno}: unknown key {key!r}")
            continue
        attr, convert, check, _default, expect = SCHEMA[key]
        try:
            val = convert(raw)
        except (TypeError, ValueError):
            errors.append(
                f"{origin}:{lineno}: cannot parse {key} value {raw!r} "
                f"(expected {convert.__name__})"
            )
            continue
        if not check(val):
            errors.append(
                f"{origin}:{lineno}: {key} = {raw} out of range (expected {expect})"
            )
            continue
        values[attr] = val

    if errors:
        raise ConfigError(errors)

    kwargs = {attr: default for (attr, _c, _v, default, _e) in SCHEMA.values()}
    kwargs.update(values)
    cfg = RunConfig(raw_text=text, **kwargs)

    # cross-key constraints
    cross = []
    if cfg.kernel_alpha > cfg.grid_dimension - 1 + 1e-12:
        cross.append(
            f"kernel.alpha = {cfg.kernel_alpha} out of range: the kernel "
            f"exponent must lie in [0, d-1] = [0, {cfg.grid_dimension - 1}] "
            f"for grid.dimension = {cfg.grid_dimension}"
        )
    if cfg.time_T > 0 and cfg.time_dt > cfg.time_T:
        cross.append(f"time.dt = {cfg.time_dt} exceeds time.T = {cfg.time_T}")
    if cfg.potential_kind == "double-well":
        for key in ("potential.power", "potential.pi_slope"):
            if key in seen:
                cross.append(
                    f"{origin}:{seen[key]}: {key} applies only to potential.kind "
                    "= custom-polynomial; the double well ignores it"
                )
    if cfg.initial_kind == "custom" and not (
        cfg.initial_theta_file and cfg.initial_phi_file and cfg.initial_v_file
    ):
        cross.append(
            "initial.kind = custom requires initial.theta_file, "
            "initial.phi_file, and initial.v_file"
        )
    for eps in cfg.sweep_eps:
        h = cfg.grid_length / cfg.sweep_max_n
        if eps < 4.0 * h:
            cross.append(
                f"sweep.eps value {eps} under-resolved even at sweep.max_n "
                f"= {cfg.sweep_max_n} (need eps >= 4h)"
            )
    if cross:
        raise ConfigError(cross)
    return cfg


def parse_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError([f"cannot read config file {path!r}: {err}"]) from err
    return parse_config_text(text, origin=str(path))


def default_config():
    return parse_config_text("", origin="<defaults>")
