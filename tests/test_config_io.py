import numpy as np
import pytest

from pitaevskii.config import Config, ConfigError, parse_config, serialize_config
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


def test_snapshot_odd_axis_size_is_a_snapshot_error(tmp_path, grid2d, rng):
    import struct

    st = random_state(grid2d, rng)
    path = tmp_path / "state.pitv"
    write_snapshot(st, PARAMS, path)
    data = bytearray(path.read_bytes())
    data[6:10] = struct.pack("<I", 31)
    bad = tmp_path / "odd.pitv"
    bad.write_bytes(bytes(data))
    with pytest.raises(SnapshotError, match="axis sizes"):
        read_snapshot(bad)


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
