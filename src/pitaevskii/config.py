"""Line-based run configuration: ``section.key = value`` pairs.

The format is deliberately primitive so any tool can read and write it:
one assignment per line, ``#`` starts a comment, arrays are comma lists,
booleans are ``true``/``false``.  Unknown keys, type mismatches and
constraint violations are collected with their line numbers and reported
together.

Sections:

* ``grid``        -- d, n, len
* ``params``      -- lambda, mu, nu, m, M, epsilon, delta, gamma
* ``integrator``  -- dt_init, dt_min, dt_max, cfl, adaptive, dealias
* ``ic``          -- family, amplitude, seed, mode, wave_amp, wave_phase,
                     velocity, rho0, path
* ``output``      -- dir, timeseries, snapshot_every, csv_every
* ``experiment``  -- T, target, mode, delta_p, bundle
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .grid import make_grid
from .integrator import StepConfig
from .model import Params

IC_FAMILIES = ("smooth", "plane-wave", "random-smooth", "floor-breach", "snapshot")
TARGETS = ("psi", "u", "rho", "all")
BUNDLE_NAMES = ("full", "core")


class ConfigError(ValueError):
    """Carries a list of (line_number, message) pairs; line 0 = global."""

    def __init__(self, errors):
        self.errors = list(errors)
        lines = "; ".join(f"line {ln}: {msg}" if ln else msg for ln, msg in self.errors)
        super().__init__(lines)


@dataclass(frozen=True)
class GridConfig:
    d: int = 2
    n: tuple = (64, 64)
    lengths: tuple = (2 * np.pi, 2 * np.pi)

    def build(self):
        return make_grid(self.d, self.n, self.lengths)


@dataclass(frozen=True)
class IcConfig:
    family: str = "smooth"
    amplitude: float = 0.4
    seed: int = 1234
    mode: tuple = (1,)
    wave_amp: float = 0.5
    wave_phase: float = 0.0
    velocity: tuple = (0.3,)
    rho0: float = 1.0
    path: str = ""


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "out"
    timeseries: str = "series.csv"
    snapshot_every: int = 0
    csv_every: int = 1


@dataclass(frozen=True)
class ExperimentConfig:
    horizon: float = 0.5
    target: str = "psi"
    mode: tuple = (1,)
    delta_p: float = 1e-6
    bundle: str = "full"


@dataclass(frozen=True)
class Config:
    grid: GridConfig = field(default_factory=GridConfig)
    params: Params = field(default_factory=lambda: Params(
        lam=1.0, mu=1.0, nu=0.1, m=0.8, M=1.2, eps=0.4, delta=0.25, gamma=1.0))
    integrator: StepConfig = field(default_factory=lambda: StepConfig(
        dt_init=5e-4, dt_min=1e-9, dt_max=1e-2))
    ic: IcConfig = field(default_factory=IcConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)


def _parse_int(tok):
    tok = tok.strip()
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"expected an integer, got {tok!r}")


def _parse_float(tok):
    tok = tok.strip()
    try:
        v = float(tok)
    except ValueError:
        raise ValueError(f"expected a number, got {tok!r}")
    if not np.isfinite(v):
        raise ValueError(f"expected a finite number, got {tok!r}")
    return v


def _parse_bool(tok):
    tok = tok.strip().lower()
    if tok in ("true", "yes", "on", "1"):
        return True
    if tok in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected true/false, got {tok!r}")


def _parse_int_list(tok):
    return tuple(_parse_int(t) for t in tok.split(","))


def _parse_float_list(tok):
    return tuple(_parse_float(t) for t in tok.split(","))


def _parse_str(tok):
    return tok.strip()


# key -> (target section attribute, field name, parser)
SCHEMA = {
    "grid.d": ("grid", "d", _parse_int),
    "grid.n": ("grid", "n", _parse_int_list),
    "grid.len": ("grid", "lengths", _parse_float_list),
    "params.lambda": ("params", "lam", _parse_float),
    "params.mu": ("params", "mu", _parse_float),
    "params.nu": ("params", "nu", _parse_float),
    "params.m": ("params", "m", _parse_float),
    "params.M": ("params", "M", _parse_float),
    "params.epsilon": ("params", "eps", _parse_float),
    "params.delta": ("params", "delta", _parse_float),
    "params.gamma": ("params", "gamma", _parse_float),
    "integrator.dt_init": ("integrator", "dt_init", _parse_float),
    "integrator.dt_min": ("integrator", "dt_min", _parse_float),
    "integrator.dt_max": ("integrator", "dt_max", _parse_float),
    "integrator.cfl": ("integrator", "cfl", _parse_float),
    "integrator.adaptive": ("integrator", "adaptive", _parse_bool),
    "integrator.dealias": ("integrator", "dealias", _parse_bool),
    "ic.family": ("ic", "family", _parse_str),
    "ic.amplitude": ("ic", "amplitude", _parse_float),
    "ic.seed": ("ic", "seed", _parse_int),
    "ic.mode": ("ic", "mode", _parse_int_list),
    "ic.wave_amp": ("ic", "wave_amp", _parse_float),
    "ic.wave_phase": ("ic", "wave_phase", _parse_float),
    "ic.velocity": ("ic", "velocity", _parse_float_list),
    "ic.rho0": ("ic", "rho0", _parse_float),
    "ic.path": ("ic", "path", _parse_str),
    "output.dir": ("output", "dir", _parse_str),
    "output.timeseries": ("output", "timeseries", _parse_str),
    "output.snapshot_every": ("output", "snapshot_every", _parse_int),
    "output.csv_every": ("output", "csv_every", _parse_int),
    "experiment.T": ("experiment", "horizon", _parse_float),
    "experiment.target": ("experiment", "target", _parse_str),
    "experiment.mode": ("experiment", "mode", _parse_int_list),
    "experiment.delta_p": ("experiment", "delta_p", _parse_float),
    "experiment.bundle": ("experiment", "bundle", _parse_str),
}

_SECTION_TYPES = {
    "grid": GridConfig,
    "params": Params,
    "integrator": StepConfig,
    "ic": IcConfig,
    "output": OutputConfig,
    "experiment": ExperimentConfig,
}


def _cross_validate(raw, lines):
    """Constraints spanning several keys; returns a list of (line, message)."""
    errors = []

    def line_of(key):
        return lines.get(key, 0)

    g = raw["grid"]
    d = g.get("d", 2)
    if d not in (1, 2, 3):
        errors.append((line_of("grid.d"), "grid.d must be 1, 2 or 3"))
    else:
        n = g["n"]
        lens = g["lengths"]
        if len(n) != d:
            errors.append((line_of("grid.n"), f"grid.n needs {d} entries, got {len(n)}"))
        else:
            for v in n:
                if v < 4 or v % 2:
                    errors.append((line_of("grid.n"), f"grid points must be even and >= 4, got {v}"))
                    break
        if len(lens) != d:
            errors.append((line_of("grid.len"), f"grid.len needs {d} entries, got {len(lens)}"))
        elif any(not v > 0 for v in lens):
            errors.append((line_of("grid.len"), "grid lengths must be positive"))

    p = raw["params"]
    m = p.get("m", 0.8)
    big_m = p.get("M", 1.2)
    eps = p.get("eps", 0.4)
    delta = p.get("delta", 0.25)
    for key, name in (("lam", "lambda"), ("mu", "mu"), ("nu", "nu")):
        if p.get(key, 1.0) < 0:
            errors.append((line_of(f"params.{name}"), f"{name} must be >= 0"))
    if not 0 < m <= big_m:
        errors.append((line_of("params.m"), "density bounds must satisfy 0 < m <= M"))
    if not 0 < eps < m:
        errors.append((line_of("params.epsilon"), "epsilon must lie in (0, m)"))
    if not 0 < delta < 0.5:
        errors.append((line_of("params.delta"), "delta must lie in (0, 0.5)"))

    it = raw["integrator"]
    dt_init = it.get("dt_init", 5e-4)
    dt_min = it.get("dt_min", 1e-9)
    dt_max = it.get("dt_max", 1e-2)
    if not 0 < dt_min <= dt_init <= dt_max:
        errors.append((line_of("integrator.dt_init"),
                       "need 0 < dt_min <= dt_init <= dt_max"))
    if not 0 < it.get("cfl", 0.4) <= 1:
        errors.append((line_of("integrator.cfl"), "cfl must lie in (0, 1]"))

    ic = raw["ic"]
    fam = ic.get("family", "smooth")
    if fam not in IC_FAMILIES:
        errors.append((line_of("ic.family"), f"unknown ic family {fam!r}; "
                       f"choose from {', '.join(IC_FAMILIES)}"))
    if fam == "snapshot" and not ic.get("path", ""):
        errors.append((line_of("ic.family"), "ic.path is required for the snapshot family"))
    if ic.get("amplitude", 0.4) < 0:
        errors.append((line_of("ic.amplitude"), "amplitude must be >= 0"))
    if fam == "plane-wave" and not errors:
        if not m <= ic.get("rho0", 1.0) <= big_m:
            errors.append((line_of("ic.rho0"), "rho0 must lie in [m, M]"))

    out = raw["output"]
    if out.get("snapshot_every", 0) < 0:
        errors.append((line_of("output.snapshot_every"), "snapshot_every must be >= 0"))
    if out.get("csv_every", 1) < 1:
        errors.append((line_of("output.csv_every"), "csv_every must be >= 1"))

    ex = raw["experiment"]
    if ex.get("horizon", 0.5) < 0:
        errors.append((line_of("experiment.T"), "T must be >= 0"))
    if ex.get("target", "psi") not in TARGETS:
        errors.append((line_of("experiment.target"),
                       f"target must be one of {', '.join(TARGETS)}"))
    if ex.get("delta_p", 0.0) < 0:
        errors.append((line_of("experiment.delta_p"), "delta_p must be >= 0"))
    if ex.get("bundle", "full") not in BUNDLE_NAMES:
        errors.append((line_of("experiment.bundle"),
                       f"bundle must be one of {', '.join(BUNDLE_NAMES)}"))
    return errors


def parse_config(text):
    """Parse and fully validate; raises ConfigError listing every problem."""
    raw = {name: {} for name in _SECTION_TYPES}
    lines = {}
    errors = []
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append((ln, f"expected 'section.key = value', got {stripped!r}"))
            continue
        key, _, value = stripped.partition("=")
        key = key.strip()
        entry = SCHEMA.get(key)
        if entry is None:
            errors.append((ln, f"unknown key {key!r}"))
            continue
        section, attr, parser = entry
        if key in lines:
            errors.append((ln, f"duplicate key {key!r} (first at line {lines[key]})"))
            continue
        lines[key] = ln
        try:
            raw[section][attr] = parser(value)
        except ValueError as exc:
            errors.append((ln, f"{key}: {exc}"))
    if not errors:
        # default n/len track a non-default dimension
        d = raw["grid"].get("d", 2)
        raw["grid"].setdefault("n", (64,) * d)
        raw["grid"].setdefault("lengths", (2 * np.pi,) * d)
        errors = _cross_validate(raw, lines)
    if errors:
        raise ConfigError(errors)
    defaults = Config()
    sections = {}
    for name in _SECTION_TYPES:
        try:
            sections[name] = replace(getattr(defaults, name), **raw[name])
        except ValueError as exc:
            raise ConfigError([(0, f"{name}: {exc}")])
    return Config(**sections)


def _format_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, tuple):
        return ", ".join(_format_value(x) for x in v)
    return str(v)


def serialize_config(config):
    """Canonical text form; parse(serialize(c)) == c."""
    out = []
    for key, (section, attr, _) in SCHEMA.items():
        value = getattr(getattr(config, section), attr)
        out.append(f"{key} = {_format_value(value)}")
    return "\n".join(out) + "\n"


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
