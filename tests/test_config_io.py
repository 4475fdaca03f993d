from dataclasses import replace

import numpy as np
import pytest

from pitaevskii import config
from pitaevskii.config import SCHEMA, Config, ConfigError, GridConfig, parse_config, serialize_config
from pitaevskii.grid import make_grid
from pitaevskii.integrator import StepConfig, run
from pitaevskii.model import Params, State
from pitaevskii.snapshot_io import (
    SnapshotError,
    read_snapshot,
    read_snapshot_meta,
    read_timeseries,
    write_snapshot,
    write_timeseries,
)

from conftest import random_state_fields

PARAMS = Params(lam=1.0, mu=0.5, nu=0.2, m=0.8, M=1.2, eps=0.3)


# -- config ----------------------------------------------------------------

def test_minimal_config_defaults():
    cfg = parse_config("grid.d = 2\ngrid.n = 64, 64\n")
    assert cfg.grid.d == 2 and cfg.grid.n == (64, 64)
    assert cfg.params.lam == 1.0 and cfg.params.eps == 0.4
    assert cfg.integrator.dt_init == 5e-4
    assert cfg.ic.family == "smooth"
    assert cfg.experiment.horizon == 0.5
    assert cfg == Config()


def test_config_epsilon_constraint_message():
    with pytest.raises(ConfigError) as err:
        parse_config("params.epsilon = 2.0\nparams.m = 1.0\n")
    (line, msg), = err.value.errors
    assert msg == "epsilon must lie in (0, m)"
    assert line == 1


def test_config_unknown_key_and_type_errors():
    text = "grid.q = 3\ngrid.d = fast\nintegrator.adaptive = maybe\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msgs = {ln: msg for ln, msg in err.value.errors}
    assert "unknown key" in msgs[1]
    assert "expected an integer" in msgs[2]
    assert "true/false" in msgs[3]


def test_config_duplicate_key():
    with pytest.raises(ConfigError) as err:
        parse_config("grid.d = 2\ngrid.d = 3\n")
    assert any("duplicate" in msg for _, msg in err.value.errors)


def test_config_dimension_defaults_follow_d():
    cfg = parse_config("grid.d = 3\n")
    assert cfg.grid.n == (64, 64, 64)
    assert len(cfg.grid.lengths) == 3


def test_config_comments_and_blank_lines():
    cfg = parse_config("# header\n\ngrid.d = 1   # trailing\ngrid.n = 16\n")
    assert cfg.grid.d == 1 and cfg.grid.n == (16,)


def test_config_round_trip():
    text = """
grid.d = 3
grid.n = 16, 32, 8
grid.len = 1.0, 2.5, 6.283185307179586
params.lambda = 0.7
params.epsilon = 0.31
integrator.dt_init = 0.00017
integrator.adaptive = true
ic.family = plane-wave
ic.mode = 1, 0, 2
ic.velocity = 0.25, 0.0, -0.125
output.snapshot_every = 7
experiment.delta_p = 1e-07
experiment.bundle = core
"""
    cfg = parse_config(text)
    assert parse_config(serialize_config(cfg)) == cfg


def _verbatim_message(key, value):
    return (f"{key} must hold no '#' or line break and neither start nor end with "
            f"whitespace, got {value!r}")


@pytest.mark.parametrize("key", ["ic.path", "output.dir", "output.timeseries"])
@pytest.mark.parametrize("value", ["runs/snap#3.pitv", "out#1", " out", "out ", "a\nb"])
def test_config_rejects_strings_that_do_not_round_trip(key, value):
    # each string value must parse back from its serialized line as itself:
    # '#' started a comment, so `ic.path = runs/snap#3.pitv` silently loaded
    # runs/snap, and the parser strips a value's outer whitespace.  The
    # owning section rejects such a value built through the API, and the
    # parser reports it at its line
    section, attr, _ = SCHEMA[key]
    with pytest.raises(ValueError) as err:
        replace(getattr(Config(), section), **{attr: value})
    assert str(err.value) == _verbatim_message(key, value)
    if "#" in value:
        with pytest.raises(ConfigError) as err:
            parse_config(f"grid.d = 2\n{key} = {value}\n")
        assert err.value.errors == [(2, _verbatim_message(key, value))]


def test_config_comment_needs_whitespace_before_it():
    # '#' starts a comment at the start of a line or after whitespace; a
    # string with a space inside it round-trips
    cfg = parse_config("# header\n  # indented\noutput.dir = my out  # the run's files\n"
                       "ic.family = snapshot\nic.path = runs/snap 3.pitv\t# tab\n")
    assert cfg.output.dir == "my out" and cfg.ic.path == "runs/snap 3.pitv"
    assert parse_config(serialize_config(cfg)) == cfg


def test_config_scheme_validation():
    # the single-valued scheme keys are gone: each is an unknown key
    names = ("scheme_wave", "scheme_fluid", "scheme_density")
    with pytest.raises(ConfigError) as err:
        parse_config("".join(f"integrator.{name} = x\n" for name in names))
    assert err.value.errors == [(i + 1, f"unknown key 'integrator.{name}'")
                                for i, name in enumerate(names)]
    # so is experiment.sync_every, which nothing read
    with pytest.raises(ConfigError) as err:
        parse_config("grid.d = 2\nexperiment.sync_every = 1\n")
    assert err.value.errors == [(2, "unknown key 'experiment.sync_every'")]
    # and integrator.dealias: every product is truncated by the 2/3 rule
    with pytest.raises(ConfigError) as err:
        parse_config("grid.d = 2\ngrid.n = 16, 16\nintegrator.dealias = false\n")
    assert err.value.errors == [(3, "unknown key 'integrator.dealias'")]


@pytest.mark.parametrize("key, value", [
    ("ic.mode", "1, 2, 3"),
    ("experiment.mode", "1, 0, 5"),
    ("ic.velocity", "0.1, 0.2, 0.3"),
])
def test_config_rejects_more_entries_than_dimensions(key, value):
    with pytest.raises(ConfigError) as err:
        parse_config(f"grid.d = 2\nic.family = plane-wave\n{key} = {value}\n")
    assert err.value.errors == [(3, f"{key} needs at most 2 entries, got 3")]


# Every constraint the parser checks, with the (line, message) pair it
# reports for a file that breaks only that one.
CONSTRAINT_CASES = [
    ("grid.d = 4\n", (1, "grid.d must be 1, 2 or 3")),
    ("grid.d = 2\ngrid.n = 16, 16, 16\n", (2, "grid.n needs 2 entries, got 3")),
    ("grid.d = 2\ngrid.n = 16, 15\n", (2, "grid points must be even and >= 4, got 15")),
    ("grid.len = 1.0\n", (1, "grid.len needs 2 entries, got 1")),
    ("grid.len = 1.0, -2.0\n", (1, "grid lengths must be positive")),
    ("grid.d = 1\nic.mode = 1, 2\n", (2, "ic.mode needs at most 1 entries, got 2")),
    ("grid.d = 1\nic.velocity = 0.1, 0.2\n", (2, "ic.velocity needs at most 1 entries, got 2")),
    ("grid.d = 1\nexperiment.mode = 1, 0\n", (2, "experiment.mode needs at most 1 entries, got 2")),
    ("params.lambda = -1\n", (1, "lambda must be >= 0")),
    ("params.mu = -0.5\n", (1, "mu must be >= 0")),
    ("params.nu = -0.1\n", (1, "nu must be >= 0")),
    ("params.m = 1.5\nparams.M = 1.2\n", (1, "density bounds must satisfy 0 < m <= M")),
    ("params.epsilon = 0.9\n", (1, "epsilon must lie in (0, m)")),
    ("params.delta = 0.5\n", (1, "delta must lie in (0, 0.5)")),
    ("integrator.dt_init = 0.02\n", (1, "need 0 < dt_min <= dt_init <= dt_max")),
    ("integrator.cfl = 0\n", (1, "cfl must lie in (0, 1]")),
    ("ic.family = nope\n", (1, "unknown ic family 'nope'; choose from smooth, plane-wave, "
                            "random-smooth, floor-breach, snapshot")),
    ("ic.family = snapshot\n", (1, "ic.path is required for the snapshot family")),
    ("ic.amplitude = -0.1\n", (1, "amplitude must be >= 0")),
    ("ic.family = plane-wave\nic.rho0 = 2.0\n", (2, "rho0 must lie in [m, M]")),
    ("output.snapshot_every = -1\n", (1, "snapshot_every must be >= 0")),
    ("output.csv_every = 0\n", (1, "csv_every must be >= 1")),
    ("experiment.T = -1\n", (1, "T must be >= 0")),
    ("experiment.target = vorticity\n", (1, "target must be one of psi, u, rho, all")),
    ("experiment.delta_p = -1e-6\n", (1, "delta_p must be >= 0")),
    ("experiment.bundle = tiny\n", (1, "bundle must be one of full, core")),
    ("grid.d = 1\ngrid.n = 8\ngrid.len = 1e-300\n",
     (3, "grid lengths must give a positive cell volume, a finite volume and finite Sobolev "
         "weights and inverse Laplacian")),
]


@pytest.mark.parametrize("text, pair", CONSTRAINT_CASES)
def test_config_reports_each_constraint_at_its_line(text, pair):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.errors == [pair]


def test_config_reports_every_violation_together_in_line_order():
    text = "params.lambda = -1\nparams.mu = -1\nintegrator.cfl = 2\noutput.csv_every = 0\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.errors == [(1, "lambda must be >= 0"), (2, "mu must be >= 0"),
                                (3, "cfl must lie in (0, 1]"), (4, "csv_every must be >= 1")]


@pytest.mark.parametrize("text, pair", [
    ("integrator.dt_min = 1\n", (1, "need 0 < dt_min <= dt_init <= dt_max")),
    ("integrator.dt_max = 1e-5\n", (1, "need 0 < dt_min <= dt_init <= dt_max")),
    ("grid.d = 2\nintegrator.dt_max = 1e-5\nintegrator.dt_min = 1e-3\n",
     (3, "need 0 < dt_min <= dt_init <= dt_max")),
    ("params.m = 0.3\n", (1, "epsilon must lie in (0, m)")),
    ("params.M = 0.5\n", (1, "density bounds must satisfy 0 < m <= M")),
    ("ic.family = plane-wave\nparams.m = 1.1\nparams.M = 1.5\nparams.epsilon = 0.5\n",
     (2, "rho0 must lie in [m, M]")),
    ("ic.family = plane-wave\nparams.M = 0.9\n", (2, "rho0 must lie in [m, M]")),
])
def test_config_blames_a_constraint_on_the_first_key_the_file_sets(text, pair):
    # a constraint on several keys points at the first of them that the file
    # sets, in its order (dt_init, dt_min, dt_max; epsilon, m; m, M; rho0, m, M)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.errors == [pair]


def test_owners_report_every_violated_constraint_with_its_fields():
    from pitaevskii.grid import GridError

    with pytest.raises(ValueError) as err:
        Params(lam=-1.0, mu=1.0, nu=-1.0, m=0.8, M=1.2, eps=0.9)
    assert err.value.violations == [(("lam",), "lambda must be >= 0"), (("nu",), "nu must be >= 0"),
                                    (("eps", "m"), "epsilon must lie in (0, m)")]
    assert str(err.value) == "lambda must be >= 0; nu must be >= 0; epsilon must lie in (0, m)"
    with pytest.raises(ValueError) as err:
        StepConfig(dt_init=1e-3, dt_min=1e-2, cfl=1.5)
    assert [fields for fields, _ in err.value.violations] == [("dt_init", "dt_min", "dt_max"), ("cfl",)]
    # the grid's checks read the values alone: no array of 2^66 points is tried
    with pytest.raises(GridError) as err:
        make_grid(3, [2 ** 22] * 3, [1.0, 1.0, float("inf")])
    assert err.value.violations == [
        (("lengths",), "grid lengths must be finite"),
        (("n",), "total point count exceeds the platform index range"),
    ]
    with pytest.raises(GridError, match="^grid points must be even and >= 4, got 15$"):
        GridConfig(d=2, n=(16, 15))


DEFAULT_CONFIG_TEXT = """\
grid.d = 2
grid.n = 64, 64
grid.len = 6.283185307179586, 6.283185307179586
params.lambda = 1.0
params.mu = 1.0
params.nu = 0.1
params.m = 0.8
params.M = 1.2
params.epsilon = 0.4
params.delta = 0.25
params.gamma = 1.0
integrator.dt_init = 0.0005
integrator.dt_min = 1e-09
integrator.dt_max = 0.01
integrator.cfl = 0.4
integrator.adaptive = false
ic.family = smooth
ic.amplitude = 0.4
ic.seed = 1234
ic.mode = 1
ic.wave_amp = 0.5
ic.wave_phase = 0.0
ic.velocity = 0.3
ic.rho0 = 1.0
ic.path = 
output.dir = out
output.timeseries = series.csv
output.snapshot_every = 0
output.csv_every = 1
experiment.T = 0.5
experiment.target = psi
experiment.mode = 1
experiment.delta_p = 1e-06
experiment.bundle = full
"""


def test_serialized_default_config_is_pinned():
    assert serialize_config(Config()) == DEFAULT_CONFIG_TEXT


def test_key_table_names_each_field_and_its_parser():
    expected = [
        ("grid.d", "grid", "d", "_parse_int"),
        ("grid.n", "grid", "n", "_parse_int_list"),
        ("grid.len", "grid", "lengths", "_parse_float_list"),
        ("params.lambda", "params", "lam", "_parse_float"),
        ("params.mu", "params", "mu", "_parse_float"),
        ("params.nu", "params", "nu", "_parse_float"),
        ("params.m", "params", "m", "_parse_float"),
        ("params.M", "params", "M", "_parse_float"),
        ("params.epsilon", "params", "eps", "_parse_float"),
        ("params.delta", "params", "delta", "_parse_float"),
        ("params.gamma", "params", "gamma", "_parse_float"),
        ("integrator.dt_init", "integrator", "dt_init", "_parse_float"),
        ("integrator.dt_min", "integrator", "dt_min", "_parse_float"),
        ("integrator.dt_max", "integrator", "dt_max", "_parse_float"),
        ("integrator.cfl", "integrator", "cfl", "_parse_float"),
        ("integrator.adaptive", "integrator", "adaptive", "_parse_bool"),
        ("ic.family", "ic", "family", "_parse_str"),
        ("ic.amplitude", "ic", "amplitude", "_parse_float"),
        ("ic.seed", "ic", "seed", "_parse_int"),
        ("ic.mode", "ic", "mode", "_parse_int_list"),
        ("ic.wave_amp", "ic", "wave_amp", "_parse_float"),
        ("ic.wave_phase", "ic", "wave_phase", "_parse_float"),
        ("ic.velocity", "ic", "velocity", "_parse_float_list"),
        ("ic.rho0", "ic", "rho0", "_parse_float"),
        ("ic.path", "ic", "path", "_parse_str"),
        ("output.dir", "output", "dir", "_parse_str"),
        ("output.timeseries", "output", "timeseries", "_parse_str"),
        ("output.snapshot_every", "output", "snapshot_every", "_parse_int"),
        ("output.csv_every", "output", "csv_every", "_parse_int"),
        ("experiment.T", "experiment", "horizon", "_parse_float"),
        ("experiment.target", "experiment", "target", "_parse_str"),
        ("experiment.mode", "experiment", "mode", "_parse_int_list"),
        ("experiment.delta_p", "experiment", "delta_p", "_parse_float"),
        ("experiment.bundle", "experiment", "bundle", "_parse_str"),
    ]
    assert [(key, section, attr, parser.__name__)
            for key, (section, attr, parser) in SCHEMA.items()] == expected
    assert all(parser is getattr(config, parser.__name__) for _, _, parser in SCHEMA.values())


def test_readme_lists_every_key_with_its_default():
    import pathlib

    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration format", 1)[1]
    block = section.split("```ini\n", 1)[1].split("```", 1)[0]
    lines = [ln.split("#", 1)[0].rstrip() for ln in block.splitlines()]
    assert [ln for ln in lines if ln] == [ln.rstrip() for ln in serialize_config(Config()).splitlines()]


# -- snapshots ---------------------------------------------------------------

def random_state(grid, rng):
    psi, u, rho = random_state_fields(grid, rng, amp=0.7)
    return State(0.0, psi, u, rho, grid)


def test_snapshot_round_trip_bitwise(tmp_path, grid2d, rng):
    st = random_state(grid2d, rng)
    st.t = 0.625
    path = tmp_path / "state.pitv"
    write_snapshot(st, PARAMS, path)
    back = read_snapshot(path)
    assert back.t == st.t
    assert back.psi.tobytes() == st.psi.tobytes()
    assert back.u.tobytes() == st.u.tobytes()
    assert back.rho.tobytes() == st.rho.tobytes()
    assert back.grid.n == grid2d.n and back.grid.lengths == grid2d.lengths

    grid, t, constants = read_snapshot_meta(path)
    assert t == 0.625
    assert constants["lam"] == PARAMS.lam and constants["eps"] == PARAMS.eps


def test_snapshot_truncation_detected(tmp_path, grid2d, rng):
    st = random_state(grid2d, rng)
    path = tmp_path / "state.pitv"
    write_snapshot(st, PARAMS, path)
    data = path.read_bytes()
    (tmp_path / "cut.pitv").write_bytes(data[: len(data) // 2])
    with pytest.raises(SnapshotError, match="truncated"):
        read_snapshot(tmp_path / "cut.pitv")


def test_snapshot_bad_magic_and_version(tmp_path, grid2d, rng):
    st = random_state(grid2d, rng)
    path = tmp_path / "state.pitv"
    write_snapshot(st, PARAMS, path)
    data = bytearray(path.read_bytes())
    bad = tmp_path / "bad.pitv"
    bad.write_bytes(b"XXXX" + bytes(data[4:]))
    with pytest.raises(SnapshotError, match="magic"):
        read_snapshot(bad)
    data[4] = 9
    bad.write_bytes(bytes(data))
    with pytest.raises(SnapshotError, match="version"):
        read_snapshot(bad)


def test_snapshot_oversized_header_rejected_before_any_grid(tmp_path, grid2d, rng, monkeypatch):
    # axis sizes 2^31 x 2^31 in the header of a small file: the size check
    # must reject it without building (allocating) the grid
    import struct

    from pitaevskii import snapshot_io

    def no_grid(*args, **kwargs):
        raise AssertionError("make_grid called for a header that does not match the file")

    st = random_state(grid2d, rng)
    path = tmp_path / "state.pitv"
    write_snapshot(st, PARAMS, path)
    data = bytearray(path.read_bytes())
    data[6:14] = struct.pack("<2I", 2 ** 31, 2 ** 31)
    bad = tmp_path / "huge.pitv"
    bad.write_bytes(bytes(data))
    monkeypatch.setattr(snapshot_io, "make_grid", no_grid)
    with pytest.raises(SnapshotError, match="truncated"):
        read_snapshot_meta(bad)
    with pytest.raises(SnapshotError, match="truncated"):
        read_snapshot(bad)


@pytest.mark.parametrize("size", [31, 2])
def test_snapshot_odd_axis_size_is_a_snapshot_error(tmp_path, grid2d, rng, size):
    import struct

    st = random_state(grid2d, rng)
    path = tmp_path / "state.pitv"
    write_snapshot(st, PARAMS, path)
    data = bytearray(path.read_bytes())
    data[6:10] = struct.pack("<I", size)
    bad = tmp_path / "odd.pitv"
    bad.write_bytes(bytes(data))
    with pytest.raises(SnapshotError, match="axis sizes"):
        read_snapshot(bad)


def test_snapshot_corruption_is_a_snapshot_error_or_a_finite_state(tmp_path, rng):
    # every single-bit flip of a 2D 8^2 header, and a NaN written into the
    # time and into each field block: a read raises SnapshotError or returns
    # a state whose time and fields are finite, and no read warns
    import struct
    import warnings

    from pitaevskii.snapshot_io import _header_size

    grid = make_grid(2, [8, 8], [2 * np.pi] * 2)
    path = tmp_path / "state.pitv"
    write_snapshot(random_state(grid, rng), PARAMS, path)
    data = path.read_bytes()
    header, npts = _header_size(2), grid.num_points
    flips = [bytes(data[:i // 8]) + bytes([data[i // 8] ^ (1 << (i % 8))]) + data[i // 8 + 1:]
             for i in range(8 * header)]
    nan = struct.pack("<d", np.nan)
    # the time, then the first value of rho, of u and of psi
    nan_at = [header - 72, header, header + 8 * npts, header + 8 * npts * 3]
    nans = [data[:at] + nan + data[at + 8:] for at in nan_at]
    bad = tmp_path / "bad.pitv"
    for i, blob in enumerate(flips + nans):
        bad.write_bytes(blob)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                state = read_snapshot(bad)
            except SnapshotError:
                continue
        assert i < len(flips), f"NaN at byte {nan_at[i - len(flips)]} was read"
        assert np.isfinite(state.t)
        assert all(np.isfinite(f).all() for f in (state.psi, state.u, state.rho))
    for at, name in zip(nan_at[1:], ("rho", "u", "psi")):
        bad.write_bytes(data[:at] + nan + data[at + 8:])
        with pytest.raises(SnapshotError, match=f"^{name} contains non-finite values$"):
            read_snapshot(bad)
    # the top exponent bit of each axis length: 2 pi becomes 3.5e-308, whose
    # wavenumbers overflow, though it passes every check on a length alone
    for bit in (8 * 14 + 62, 8 * 22 + 62):
        bad.write_bytes(flips[bit])
        with pytest.raises(SnapshotError, match="finite Sobolev weights"):
            read_snapshot_meta(bad)


def test_snapshot_grid_mismatch(tmp_path, grid2d, rng):
    st = random_state(grid2d, rng)
    path = tmp_path / "state.pitv"
    write_snapshot(st, PARAMS, path)
    other = make_grid(2, [16, 16], [2 * np.pi, 2 * np.pi])
    with pytest.raises(SnapshotError, match="does not match"):
        read_snapshot(path, expected_grid=other)


# -- time series -------------------------------------------------------------

def smooth_state(grid):
    x, y = grid.meshes()
    psi = 0.4 * (np.cos(x) * np.cos(y) + 0.5j * np.sin(x) + 0.3)
    u = 0.4 * np.stack([np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)])
    rho = 1.0 + 0.1 * np.cos(x)
    return State(0.0, psi.astype(complex), u, rho, grid)


def test_timeseries_rows_and_reparse(tmp_path, grid2d):
    st = smooth_state(grid2d)
    traj = run(st, PARAMS, StepConfig(dt_init=1e-3), 3e-3)
    path = tmp_path / "series.csv"
    write_timeseries(traj.records, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 4          # header + t=0 + 3 steps
    cols = read_timeseries(path)
    ts = cols["t"]
    assert np.all(np.diff(ts) > 0) and ts[0] == 0.0
    # repr rendering reparses to the identical doubles
    for i, rec in enumerate(traj.records):
        assert cols["energy"][i] == rec.energy
        assert cols["dt_rho_hm1"][i] == rec.dt_rho_hm1
        assert cols["mom_0"][i] == rec.momentum[0]


def test_timeseries_deterministic_bytes(tmp_path, grid2d):
    cfg = StepConfig(dt_init=1e-3)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_timeseries(run(smooth_state(grid2d), PARAMS, cfg, 5e-3).records, p1)
    write_timeseries(run(smooth_state(grid2d), PARAMS, cfg, 5e-3).records, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_snapshot_reload_as_initial_condition(tmp_path, grid2d, rng):
    from dataclasses import replace

    from pitaevskii.config import IcConfig
    from pitaevskii.initial_conditions import build_initial_state

    st = random_state(grid2d, rng)
    path = tmp_path / "restart.pitv"
    write_snapshot(st, PARAMS, path)
    ic = replace(IcConfig(), family="snapshot", path=str(path))
    back = build_initial_state(grid2d, PARAMS, ic)
    assert np.array_equal(back.psi, st.psi)
    assert np.array_equal(back.u, st.u)
    assert np.array_equal(back.rho, st.rho)


def test_timeseries_thinning_keeps_last(tmp_path, grid2d):
    st = smooth_state(grid2d)
    traj = run(st, PARAMS, StepConfig(dt_init=1e-3), 5e-3)
    path = tmp_path / "thin.csv"
    write_timeseries(traj.records, path, every=4)
    cols = read_timeseries(path)
    assert cols["t"][0] == 0.0
    assert cols["t"][-1] == traj.records[-1].t
