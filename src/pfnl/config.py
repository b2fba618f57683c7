"""Flat dotted-key run configuration.

The format is one ``key = value`` pair per line, ``#`` comments, no
nesting; every key is validated against its :class:`RunConfig` field,
and unknown or duplicate keys are rejected with line numbers.  Defaults
are filled for anything omitted, so a minimal file can be empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .analysis import DEFAULT_EPS_SWEEP
from .errors import ConfigError
from .fields import Grid
from .integrator import SchemeConfig
from .kernels import PROFILE_SHAPES, build_kernel_family, is_resolved, make_profile
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


def _key(key, convert, check, default, expect):
    """The :class:`RunConfig` field of the config key ``key``."""
    return field(
        default=default,
        metadata=dict(key=key, convert=convert, check=check, expect=expect),
    )


@dataclass
class RunConfig:
    """Validated configuration with object factories for the run.  Each
    field but ``raw_text`` declares one config key by :func:`_key`: its
    converter, range check, default and range text (:data:`SCHEMA`)."""

    kernel_profile: str = _key("kernel.profile", str, lambda s: s in PROFILE_SHAPES, "polynomial-bump", f"one of {PROFILE_SHAPES}")
    kernel_support_radius: float = _key("kernel.support_radius", float, _positive, 1.0, "> 0")
    kernel_alpha: float = _key("kernel.alpha", float, _nonnegative, 0.0, ">= 0")
    grid_dimension: int = _key("grid.dimension", int, lambda d: d in (1, 2), 1, "1 or 2")
    grid_length: float = _key("grid.length", float, _positive, 1.0, "> 0")
    grid_n: int = _key("grid.n", int, lambda n: n >= 4, 512, ">= 4")
    time_T: float = _key("time.T", float, _nonnegative, 0.5, ">= 0")
    time_dt: float = _key("time.dt", float, _positive, 1e-3, "> 0")
    time_snapshots: int = _key("time.snapshots", int, lambda n: n >= 1, 20, ">= 1")
    newton_tol: float = _key("solver.newton_tol", float, _tolerance, 1e-10, "in (0, 1e-6]")
    newton_max_iter: int = _key("solver.newton_max_iter", int, lambda n: n >= 1, 25, ">= 1")
    cg_tol: float = _key("solver.cg_tol", float, _tolerance, 1e-12, "in (0, 1e-6]")
    potential_kind: str = _key("potential.kind", str, lambda s: s in ("double-well", "custom-polynomial"), "double-well", "double-well or custom-polynomial")
    potential_power: int = _key("potential.power", int, lambda p: p >= 1 and p % 2 == 1, 3, "odd integer >= 1")
    potential_pi_slope: float = _key("potential.pi_slope", float, lambda x: True, -1.0, "any real")
    potential_q: float = _key("potential.q", float, lambda q: q > 1.0 or q == 0.0, 0.0, "> 1 (0 = derive from kind)")
    potential_c_beta: float = _key("potential.c_beta", float, _nonnegative, 0.0, ">= 0 (0 = derive from kind)")
    initial_kind: str = _key("initial.kind", str, lambda s: s in ("smooth-default", "custom"), "smooth-default", "smooth-default or custom")
    initial_theta_file: str = _key("initial.theta_file", str, lambda s: True, "", "path")
    initial_phi_file: str = _key("initial.phi_file", str, lambda s: True, "", "path")
    initial_v_file: str = _key("initial.v_file", str, lambda s: True, "", "path")
    initial_c1: float = _key("initial.c1", float, _positive, 10.0, "> 0")
    source_kind: str = _key("source.kind", str, lambda s: s in ("none", "cosine-decay"), "none", "none or cosine-decay")
    source_amplitude: float = _key("source.amplitude", float, lambda x: True, 1.0, "any real")
    sweep_eps: tuple = _key("sweep.eps", _parse_eps_list, lambda v: all(0.0 < e <= 1.0 for e in v) and all(a > b for a, b in zip(v, v[1:])), DEFAULT_EPS_SWEEP, "strictly decreasing values in (0, 1]")
    sweep_max_n: int = _key("sweep.max_n", int, lambda n: n >= 4, 512, ">= 4")
    sweep_reference: str = _key("sweep.reference", str, lambda s: s in ("local-solve", "finest-eps"), "local-solve", "local-solve or finest-eps")
    output_dir: str = _key("output.dir", str, lambda s: bool(s), "out", "non-empty path")
    output_format: str = _key("output.format", str, lambda s: s in ("csv", "binary"), "csv", "csv or binary")
    seed: int = _key("seed", int, _nonnegative, 0, ">= 0")
    raw_text: str = ""

    def make_profile(self):
        return make_profile(self.kernel_profile, self.kernel_support_radius)

    def make_family(self):
        return build_kernel_family(
            self.make_profile(), self.grid_dimension, self.kernel_alpha
        )

    def make_grid(self):
        d = self.grid_dimension
        return Grid((self.grid_length,) * d, (self.grid_n,) * d)

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
        return replace(spec, q=self.potential_q or spec.q,
                       c_beta=self.potential_c_beta or spec.c_beta)

    def make_source(self):
        if self.source_kind == "none":
            return None
        return make_source(self.source_kind, self.source_amplitude)


# config key -> its RunConfig field, in declaration order
SCHEMA = {f.metadata["key"]: f for f in fields(RunConfig) if f.metadata}


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
        spec = SCHEMA[key]
        convert, check, expect = (spec.metadata[k] for k in ("convert", "check", "expect"))
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
        values[spec.name] = val

    if errors:
        raise ConfigError(errors)

    cfg = RunConfig(raw_text=text, **values)

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
        if not is_resolved(eps, cfg.grid_length / cfg.sweep_max_n):
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
