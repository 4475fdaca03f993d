"""Reference runs and their text fingerprints.

A fingerprint is the run's diagnostics series at 17 significant digits
(the `series.csv` rows; the difference records for a stability pair) plus
the lowest Fourier modes, |m_i| <= MODES on every axis, of each final field
(the base run's for a stability pair).  tests/test_reference_runs.py
compares fresh runs with the committed files in tests/fingerprints/, and
tools/write_fingerprints.py writes them.
"""

import itertools

import numpy as np

from pitaevskii import config
from pitaevskii.initial_conditions import build_initial_state
from pitaevskii.integrator import run
from pitaevskii.snapshot_io import record_row, timeseries_header
from pitaevskii.stability import PerturbationSpec, stability_experiment

MODES = 2
DIFFERENCE_COLUMNS = ("t", "wave_l2", "wave_grad", "vel_l2", "rho_l2", "total", "driver")

_COMMON = "integrator.dt_init = 0.001\nic.family = smooth\nic.amplitude = 0.4\n"
RUNS = {
    "sim2d-32": "grid.d = 2\ngrid.n = 32, 32\nexperiment.T = 0.02\n" + _COMMON,
    "contrast2d-32": ("grid.d = 2\ngrid.n = 32, 32\nexperiment.T = 0.02\n" + _COMMON
                      + "params.m = 0.1\nparams.M = 10.0\nparams.epsilon = 0.05\n"),
    "sim3d-16": "grid.d = 3\ngrid.n = 16, 16, 16\nexperiment.T = 0.01\n" + _COMMON,
    # the zero pair and one u pair on one shared base run
    "stability2d-32": "grid.d = 2\ngrid.n = 32, 32\nexperiment.T = 0.01\n" + _COMMON,
}
PAIRS = (("zero", PerturbationSpec("psi", (1, 0), 0.0)),
         ("u", PerturbationSpec("u", (1, 0), 1e-2)))


def _row(values):
    return ",".join(repr(float(v)) for v in values)


def _low_modes(final):
    """(label, rows) of the lowest Fourier modes of each final field."""
    d = final.grid.d
    fields = [("psi", final.psi)] + [(f"u_{i}", final.u[i]) for i in range(d)] + [("rho", final.rho)]
    out = []
    for label, f in fields:
        spectrum = np.fft.fftn(f) / f.size
        rows = [",".join([f"m_{i}" for i in range(d)] + ["re", "im"])]
        for m in itertools.product(range(-MODES, MODES + 1), repeat=d):
            c = complex(spectrum[m])
            rows.append(",".join(str(i) for i in m) + "," + _row((c.real, c.imag)))
        out.append((label, rows))
    return out


def _sections(name):
    """The fingerprint of run `name` as (section label, csv lines) pairs."""
    cfg = config.parse_config(RUNS[name])
    grid = cfg.grid.build()
    initial = build_initial_state(grid, cfg.params, cfg.ic)
    if name.startswith("stability"):
        base = run(initial, cfg.params, cfg.integrator, cfg.experiment.horizon,
                   store_states=True, diagnostics=False)
        sections = []
        for label, spec in PAIRS:
            report = stability_experiment(initial, cfg.params, cfg.integrator, spec,
                                          cfg.experiment.horizon, base=base)
            rows = [_row(getattr(r, c) for c in DIFFERENCE_COLUMNS) for r in report.records]
            sections.append((f"pair {label}", [",".join(DIFFERENCE_COLUMNS)] + rows))
        final = base.final_state
    else:
        traj = run(initial, cfg.params, cfg.integrator, cfg.experiment.horizon)
        sections = [("series", [timeseries_header(grid.d)]
                     + [record_row(r) for r in traj.records])]
        final = traj.final_state
    return sections + [(f"modes {label}", rows) for label, rows in _low_modes(final)]


def fingerprint(name):
    """The text of run `name`'s fingerprint file."""
    lines = [f"# reference run {name}"] + [f"# {ln}" for ln in RUNS[name].splitlines()]
    for label, rows in _sections(name):
        lines += [f"[{label}]"] + rows
    return "\n".join(lines) + "\n"


def parse(text):
    """A fingerprint's sections as {label: (column names, float array)}."""
    sections = {}
    for block in text.split("\n[")[1:]:
        label, names, *rows = block.strip().split("\n")
        sections[label.rstrip("]")] = (tuple(names.split(",")), np.array(
            [[float(tok) for tok in row.split(",")] for row in rows]))
    return sections


def _scales(label, names, a):
    """The scale each column of a section is compared at: its own max |.|,
    except that a field's modes share one, the momentum columns share the
    Cauchy-Schwarz bound sqrt(2 max mass_fluid max energy) on |int rho u|
    (one of them is round-off here), and a pair's difference norms share
    the pair's max D."""
    own = np.abs(a).max(axis=0)
    if label.startswith("modes"):
        return np.full(len(own), own.max())
    col = dict(zip(names, own))
    if label.startswith("pair"):
        return np.array([col["total"] if n.endswith(("l2", "grad", "total")) else col[n]
                         for n in names])
    mom = np.sqrt(2.0 * col["mass_fluid"] * col["energy"])
    return np.array([mom if n.startswith("mom_") else col[n] for n in names])


def deviation(ref, new):
    """Worst relative deviation of fingerprint `new` from `ref`: over each
    column, max |new - ref| over the column's scale (_scales); a column
    whose scale is 0 must stay exactly 0."""
    ref, new = parse(ref), parse(new)
    if ref.keys() != new.keys():
        return np.inf
    worst = 0.0
    for label, (names, a) in ref.items():
        new_names, b = new[label]
        if new_names != names or b.shape != a.shape:
            return np.inf
        if label.startswith("modes"):    # the columns after the mode's indices
            a, b, names = a[:, -2:], b[:, -2:], names[-2:]
        diff = np.abs(a - b).max(axis=0)
        scale = _scales(label, names, a)
        for dj, sj in zip(diff, scale):
            worst = max(worst, dj / sj if sj > 0 else (np.inf if dj > 0 else 0.0))
    return float(worst)
