"""Line-based run configuration: ``section.key = value`` pairs.

The format is deliberately primitive so any tool can read and write it:
one assignment per line, ``#`` starts a comment, arrays are comma lists,
booleans are ``true``/``false``.  README.md lists every key with its
default.

Each key is declared once, as a field of a Config section dataclass: the
key is ``section.field`` (four are renamed, see RENAMES) and the field's
type picks its parser.  Each constraint is checked once, by the object
that owns it (Grid, Params, StepConfig, PerturbationSpec, the
initial-condition families, the section dataclasses below), which reports
every violated constraint with the fields it reads.  parse_config builds
each section from the defaults plus the parsed values and makes only the
checks that span sections.  Unknown keys and type mismatches, or else
every constraint violation, are reported together, each at the line of
the first of its keys that the file sets (line 0: none).
"""

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .grid import ConstraintError, check_constraints, check_grid, make_grid
from .initial_conditions import family_constraint, padded
from .integrator import StepConfig
from .model import Params
from .stability import BUNDLES, PerturbationSpec


class ConfigError(ValueError):
    """Carries a list of (line_number, message) pairs; line 0 = global."""

    def __init__(self, errors):
        self.errors = list(errors)
        lines = "; ".join(f"line {ln}: {msg}" if ln else msg for ln, msg in self.errors)
        super().__init__(lines)


@dataclass(frozen=True)
class GridConfig:
    d: int = 2
    n: tuple[int, ...] = (64, 64)
    lengths: tuple[float, ...] = (2 * np.pi, 2 * np.pi)

    def __post_init__(self):
        check_grid(self.d, self.n, self.lengths)

    def build(self):
        return make_grid(self.d, self.n, self.lengths)


@dataclass(frozen=True)
class IcConfig:
    family: str = "smooth"
    amplitude: float = 0.4
    seed: int = 1234
    mode: tuple[int, ...] = (1,)
    wave_amp: float = 0.5
    wave_phase: float = 0.0
    velocity: tuple[float, ...] = (0.3,)
    rho0: float = 1.0
    path: str = ""

    def __post_init__(self):
        check_constraints([
            family_constraint(self.family),
            (("family", "path"), "ic.path is required for the snapshot family",
             self.family != "snapshot" or self.path),
            (("amplitude",), "amplitude must be >= 0", self.amplitude >= 0),
        ])


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "out"
    timeseries: str = "series.csv"
    snapshot_every: int = 0
    csv_every: int = 1

    def __post_init__(self):
        check_constraints([
            (("snapshot_every",), "snapshot_every must be >= 0", self.snapshot_every >= 0),
            (("csv_every",), "csv_every must be >= 1", self.csv_every >= 1),
        ])


@dataclass(frozen=True)
class ExperimentConfig:
    horizon: float = 0.5
    target: str = "psi"
    mode: tuple[int, ...] = (1,)
    delta_p: float = 1e-6
    bundle: str = "full"

    def __post_init__(self):
        target, amplitude = PerturbationSpec.constraints(self.target, self.delta_p)
        check_constraints([
            (("horizon",), "T must be >= 0", self.horizon >= 0),
            target,
            (("delta_p",), *amplitude[1:]),   # the spec's amplitude is delta_p
            (("bundle",), f"bundle must be one of {', '.join(BUNDLES)}", self.bundle in BUNDLES),
        ])


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


_PARSERS = {
    int: _parse_int,
    float: _parse_float,
    bool: _parse_bool,
    str: _parse_str,
    tuple[int, ...]: _parse_int_list,
    tuple[float, ...]: _parse_float_list,
}

# section.field -> key, where the key is not the field's own name
RENAMES = {
    "grid.lengths": "grid.len",
    "params.lam": "params.lambda",
    "params.eps": "params.epsilon",
    "experiment.horizon": "experiment.T",
}

# key -> (section, field name, parser), in declaration order
SCHEMA = {
    RENAMES.get(f"{s.name}.{f.name}", f"{s.name}.{f.name}"): (s.name, f.name, _PARSERS[f.type])
    for s in fields(Config) for f in fields(s.type)
}
_KEYS = {(section, attr): key for key, (section, attr, _) in SCHEMA.items()}


def _blame(keys, lines):
    """Line of the first of keys that the file sets, 0 if it sets none."""
    return next((lines[key] for key in keys if key in lines), 0)


def _cross_section_errors(sections, lines):
    """The checks spanning sections, on the sections that were built."""
    errors = []
    if {"grid", "ic", "experiment"} <= sections.keys():
        d = sections["grid"].d
        for key in ("ic.mode", "ic.velocity", "experiment.mode"):
            section, attr, _ = SCHEMA[key]
            try:
                padded(getattr(sections[section], attr), d, attr)
            except ValueError as exc:
                errors.append((_blame([key], lines), f"{section}.{exc}"))
    if {"params", "ic"} <= sections.keys() and sections["ic"].family == "plane-wave":
        p = sections["params"]
        if not p.m <= sections["ic"].rho0 <= p.M:
            errors.append((_blame(["ic.rho0", "params.m", "params.M"], lines),
                           "rho0 must lie in [m, M]"))
    return errors


def parse_config(text):
    """Parse and fully validate; raises ConfigError listing every problem."""
    raw = {s.name: {} for s in fields(Config)}
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
    if errors:
        raise ConfigError(errors)
    # default n/len track a non-default dimension (past 3 only d is reported)
    d = min(raw["grid"].get("d", 2), 3)
    raw["grid"].setdefault("n", (64,) * d)
    raw["grid"].setdefault("lengths", (2 * np.pi,) * d)
    defaults = Config()
    sections = {}
    for name, values in raw.items():
        try:
            sections[name] = replace(getattr(defaults, name), **values)
        except ConstraintError as exc:
            errors += [(_blame([_KEYS[name, f] for f in fs], lines), msg) for fs, msg in exc.violations]
    errors += _cross_section_errors(sections, lines)
    if errors:
        raise ConfigError(errors)
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
