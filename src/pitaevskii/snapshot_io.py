"""Bit-exact on-disk formats: binary field snapshots and CSV time series.

Snapshot layout (all little-endian, C order with axis 0 slowest):

    bytes 0..3   magic "PITV"
    byte  4      format version (1)
    byte  5      dimension d
    d * uint32   points per axis
    d * float64  axis lengths
    float64      time
    8 * float64  constants echo: lambda, mu, nu, m, M, epsilon, delta, gamma
    N * float64          rho
    d * N * float64      u, one component array after another
    N * (re, im) float64 psi, interleaved (complex128 layout)

CSV time series render every float with repr(), the shortest representation
that reparses to the identical double, so rereading a file reproduces the
in-memory values bit for bit and identical runs produce identical bytes.
"""

import math
import os
import struct

import numpy as np

from .diagnostics import RECORD_SCALARS
from .grid import GridError, check_grid, make_grid
from .model import State

MAGIC = b"PITV"
VERSION = 1
_ECHO_FIELDS = ("lam", "mu", "nu", "m", "M", "eps", "delta", "gamma")


class SnapshotError(ValueError):
    """Corrupt, truncated or mismatched snapshot file."""


def write_snapshot(state, params, path):
    g = state.grid
    parts = [
        struct.pack("<4sBB", MAGIC, VERSION, g.d),
        np.asarray(g.n, dtype="<u4").tobytes(),
        np.asarray(g.lengths, dtype="<f8").tobytes(),
        struct.pack("<d", float(state.t)),
        np.asarray([getattr(params, f) for f in _ECHO_FIELDS], dtype="<f8").tobytes(),
        np.ascontiguousarray(state.rho, dtype="<f8").tobytes(),
        np.ascontiguousarray(state.u, dtype="<f8").tobytes(),
        np.ascontiguousarray(state.psi, dtype="<c16").tobytes(),
    ]
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def _read_exact(fh, count, what):
    buf = fh.read(count)
    if len(buf) != count:
        raise SnapshotError(f"corrupt snapshot: truncated while reading {what}")
    return buf


def _header_size(d):
    return 6 + 4 * d + 8 * d + 8 + 8 * len(_ECHO_FIELDS)


def read_snapshot_meta(path):
    """Header only: returns (grid, time, constants dict).

    The header must describe the file: its time is finite, its axis sizes
    and lengths pass grid.check_grid, which reads values only, and the file
    size they imply is compared with the real one, before any grid is built,
    so a corrupt header cannot make the reader allocate.
    """
    with open(path, "rb") as fh:
        magic, version, d = struct.unpack("<4sBB", _read_exact(fh, 6, "header"))
        if magic != MAGIC:
            raise SnapshotError(f"corrupt snapshot: bad magic {magic!r}")
        if version != VERSION:
            raise SnapshotError(f"unsupported snapshot version {version}")
        if d not in (1, 2, 3):
            raise SnapshotError(f"corrupt snapshot: dimension {d}")
        n = [int(v) for v in np.frombuffer(_read_exact(fh, 4 * d, "axis sizes"), dtype="<u4")]
        lens = np.frombuffer(_read_exact(fh, 8 * d, "axis lengths"), dtype="<f8")
        (t,) = struct.unpack("<d", _read_exact(fh, 8, "time"))
        echo = np.frombuffer(_read_exact(fh, 8 * len(_ECHO_FIELDS), "constants"), dtype="<f8")
        size = os.fstat(fh.fileno()).st_size
    lens = tuple(float(v) for v in lens)
    if not math.isfinite(t):
        raise SnapshotError(f"corrupt snapshot: header time {t}")
    try:
        check_grid(d, n, lens)
    except GridError as exc:
        raise SnapshotError(f"corrupt snapshot: header axis sizes {tuple(n)} and lengths "
                            f"{lens}: {exc}") from None
    expected = _header_size(d) + math.prod(n) * (8 + 8 * d + 16)
    if size < expected:
        raise SnapshotError(f"corrupt snapshot: truncated, {size} bytes where the header "
                            f"implies {expected}")
    if size > expected:
        raise SnapshotError("corrupt snapshot: trailing bytes")
    grid = make_grid(d, n, lens)
    constants = dict(zip(_ECHO_FIELDS, (float(v) for v in echo)))
    return grid, float(t), constants


def read_snapshot(path, expected_grid=None):
    """Reload a state; read(write(s)) is bitwise exact.  A field holding a
    non-finite value is a SnapshotError with State.validate's message."""
    grid, t, _ = read_snapshot_meta(path)
    if expected_grid is not None:
        if grid.d != expected_grid.d or grid.n != expected_grid.n or \
                grid.lengths != expected_grid.lengths:
            raise SnapshotError(
                f"snapshot grid {grid!r} does not match the expected {expected_grid!r}"
            )
        grid = expected_grid
    npts = grid.num_points
    with open(path, "rb") as fh:
        fh.seek(_header_size(grid.d))
        rho = np.frombuffer(_read_exact(fh, 8 * npts, "rho"), dtype="<f8")
        u = np.frombuffer(_read_exact(fh, 8 * npts * grid.d, "u"), dtype="<f8")
        psi = np.frombuffer(_read_exact(fh, 16 * npts, "psi"), dtype="<c16")
    state = State(
        t=t,
        psi=psi.reshape(grid.shape).copy(),
        u=u.reshape((grid.d,) + grid.shape).copy(),
        rho=rho.reshape(grid.shape).copy(),
        grid=grid,
    )
    try:
        return state.validate()
    except ValueError as exc:
        raise SnapshotError(str(exc)) from None


def _fmt(x):
    return repr(float(x))


def timeseries_header(d):
    return ",".join(RECORD_SCALARS + tuple(f"mom_{i}" for i in range(d)))


def record_row(record):
    cells = [_fmt(v) for v in record.scalars()]
    cells += [_fmt(v) for v in record.momentum]
    return ",".join(cells)


def write_timeseries(records, path, every=1):
    """CSV of the diagnostics records, thinned by `every` but always keeping
    the final record."""
    if not records:
        raise ValueError("no records to write")
    d = len(records[0].momentum)
    rows = [timeseries_header(d)]
    kept = list(records[::every])
    if kept[-1] is not records[-1]:
        kept.append(records[-1])
    rows += [record_row(r) for r in kept]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


def read_timeseries(path):
    """Reparse a time-series CSV into a dict of float arrays keyed by column."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    names = lines[0].split(",")
    data = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]])
    return {name: data[:, i] for i, name in enumerate(names)}


def write_difference_series(report, path):
    """Stability experiment output: one row per sync time plus a commented
    summary block (envelope constant, margins, verdicts)."""
    rows = ["t,wave_l2,wave_grad,vel_l2,rho_l2,total,driver"]
    for r in report.records:
        rows.append(",".join(_fmt(v) for v in (
            r.t, r.wave_l2, r.wave_grad, r.vel_l2, r.rho_l2, r.total,
            r.driver if r.driver is not None else 0.0,
        )))
    rows.append(f"# amplitude = {_fmt(report.amplitude)}")
    rows.append(f"# c_hat = {'none' if report.c_hat is None else _fmt(report.c_hat)}")
    rows.append(
        f"# envelope_margin = "
        f"{'none' if report.envelope_margin is None else _fmt(report.envelope_margin)}"
    )
    rows.append(f"# driver_integral = {_fmt(report.driver_integral)}")
    rows.append(f"# determinism_failure = {str(report.determinism_failure).lower()}")
    rows.append(f"# envelope_ok = {str(report.envelope_ok).lower()}")
    rows.append(f"# passed = {str(report.passed).lower()}")
    for note in report.notes:
        rows.append(f"# note: {note}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
