"""Property test of the configuration round trip over every key:
parse_config(serialize_config(c)) == c for each Config c that the API
builds.

Each case varies one key of the schema from the defaults, either to any
value of its field's type (NaN, infinities, empty lists and arbitrary text
included) or to a value its section accepts, together with the keys the
section checks it against (the grid's d, n and lengths, the density
bounds, the step sizes, the snapshot family and its path).  A value that
the API rejects is not a Config and is discarded.  hypothesis runs
derandomized, so every run of the suite sees the same examples.
"""

import math
from dataclasses import fields, replace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from pitaevskii.config import SCHEMA, Config, parse_config, serialize_config
from pitaevskii.initial_conditions import FAMILIES
from pitaevskii.stability import BUNDLES, TARGETS

# most strings drawn for ic.family name no family and are filtered
PROPERTIES = settings(derandomize=True, deadline=None, database=None, max_examples=20,
                      suppress_health_check=[HealthCheck.filter_too_much])

# any float, the non-finite ones drawn often
ANY_FLOAT = st.one_of(st.sampled_from((math.inf, -math.inf, math.nan)), st.floats())
ANY = {
    int: st.integers(),
    float: ANY_FLOAT,
    bool: st.booleans(),
    str: st.text(),
    tuple[int, ...]: st.lists(st.integers(), max_size=3).map(tuple),
    tuple[float, ...]: st.lists(ANY_FLOAT, max_size=3).map(tuple),
}
FINITE = st.floats(allow_nan=False, allow_infinity=False)
NONNEGATIVE = st.floats(0.0, 1e300)
POSITIVE = st.floats(1e-300, 1e300)
UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def grids(draw):
    d = draw(st.integers(1, 3))
    n = tuple(draw(st.integers(2, 512)) * 2 for _ in range(d))
    return {"d": d, "n": n, "lengths": tuple(draw(st.floats(1e-3, 1e3)) for _ in range(d))}


@st.composite
def densities(draw):
    m = draw(st.floats(1e-6, 1e6))
    return {"m": m, "M": m * draw(st.floats(1.0, 1e6)), "eps": m * draw(UNIT)}


@st.composite
def steps(draw):
    dt_min, dt_init, dt_max = sorted(draw(POSITIVE) for _ in range(3))
    return {"dt_min": dt_min, "dt_init": dt_init, "dt_max": dt_max}


def family_and_path(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    return {"family": family, "path": draw(st.text(min_size=family == "snapshot"))}


# key -> overrides of its section that the section accepts, the key's among them
VALID = {
    **dict.fromkeys(("grid.d", "grid.n", "grid.len"), grids()),
    **dict.fromkeys(("params.m", "params.M", "params.epsilon"), densities()),
    **dict.fromkeys(("integrator.dt_init", "integrator.dt_min", "integrator.dt_max"), steps()),
    **dict.fromkeys(("ic.family", "ic.path"), st.composite(family_and_path)()),
    "params.lambda": st.fixed_dictionaries({"lam": NONNEGATIVE}),
    "params.mu": st.fixed_dictionaries({"mu": NONNEGATIVE}),
    "params.nu": st.fixed_dictionaries({"nu": NONNEGATIVE}),
    "params.delta": st.fixed_dictionaries({"delta": st.floats(0.0, 0.5, exclude_min=True,
                                                              exclude_max=True)}),
    "params.gamma": st.fixed_dictionaries({"gamma": FINITE}),
    "integrator.cfl": st.fixed_dictionaries({"cfl": st.floats(0.0, 1.0, exclude_min=True)}),
    "ic.amplitude": st.fixed_dictionaries({"amplitude": NONNEGATIVE}),
    "ic.mode": st.fixed_dictionaries({"mode": st.lists(st.integers(), max_size=2).map(tuple)}),
    "ic.velocity": st.fixed_dictionaries({"velocity": st.lists(FINITE, max_size=2).map(tuple)}),
    "output.snapshot_every": st.fixed_dictionaries({"snapshot_every": st.integers(0)}),
    "output.csv_every": st.fixed_dictionaries({"csv_every": st.integers(1)}),
    "experiment.T": st.fixed_dictionaries({"horizon": NONNEGATIVE}),
    "experiment.target": st.fixed_dictionaries({"target": st.sampled_from(TARGETS)}),
    "experiment.mode": st.fixed_dictionaries({"mode": st.lists(st.integers(), max_size=2)
                                              .map(tuple)}),
    "experiment.delta_p": st.fixed_dictionaries({"delta_p": NONNEGATIVE}),
    "experiment.bundle": st.fixed_dictionaries({"bundle": st.sampled_from(BUNDLES)}),
}


def overrides(key):
    """Overrides of key's section: the key alone at any value of its type,
    or a set the section accepts (VALID; the key alone at a finite value
    where VALID has no entry).  The target and the bundle take their few
    valid values only, each once."""
    section, attr, _ = SCHEMA[key]
    kind = {f.name: f.type for f in fields(getattr(Config(), section))}[attr]
    valid = VALID.get(key, st.fixed_dictionaries({attr: FINITE if kind is float else ANY[kind]}))
    if key in ("experiment.target", "experiment.bundle"):
        return valid
    return st.one_of(st.fixed_dictionaries({attr: ANY[kind]}), valid)


@pytest.mark.parametrize("key", SCHEMA)
@PROPERTIES
@given(data=st.data())
def test_serialized_config_parses_back_to_itself(key, data):
    section, _, _ = SCHEMA[key]
    values = data.draw(overrides(key))
    try:
        config = replace(Config(), **{section: replace(getattr(Config(), section), **values)})
    except ValueError:
        assume(False)   # not a Config
    assert parse_config(serialize_config(config)) == config
