"""The benchmark's workloads: seeded inputs, the timed repetition and the
untimed output checks, all through the package's public API.

Each workload is a config text plus initial data made from the seed.  The
seed translates the smooth reference data by a whole number of grid nodes
per axis (the same physics and the same work, different bits) and, for the
stability sweep, picks the perturbation modes and amplitudes.
"""

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

# layer functions are called through their modules so that a tracer that
# replaces them there sees these calls too
from pitaevskii import config, snapshot_io, stability
from pitaevskii.diagnostics import RECORD_SCALARS, energy_budget
from pitaevskii.initial_conditions import build_initial_state
from pitaevskii.integrator import run
from pitaevskii.model import State
from pitaevskii.spectral import plan_for
from pitaevskii.stability import PerturbationSpec, stability_experiment

DT = 5e-4
# max |r(t)| / E(0) of the energy equality: the acceptance tolerance at
# dt = 5e-4 over T = 0.5, which a shorter run stays well inside
ENERGY_TOL = 1e-6
# final max |div u| relative to k_max * max |u|: round-off, as the projection
# makes the velocity divergence-free exactly in exact arithmetic
DIV_TOL = 1e-12
PERTURB_MODES = ((1, 0), (0, 1), (1, 1), (2, 1))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "sim" or "stability"
    d: int
    n: int
    steps: int           # fixed-dt steps per repetition (per run of a pair)
    extra: str = ""      # further config lines


# why each workload is there: BENCHMARK.json and README.md; the step counts
# make one repetition about one second on a 2 GHz Xeon core
WORKLOADS = {w.name: w for w in (
    Workload("sim2d-64", "sim", 2, 64, 60),
    Workload("sim3d-32", "sim", 3, 32, 6),
    Workload("contrast2d-64", "sim", 2, 64, 16,
             extra="params.m = 0.1\nparams.M = 10.0\nparams.epsilon = 0.05\n"),
    Workload("stability2d-64", "stability", 2, 64, 10),
)}


def config_text(w):
    return (
        f"grid.d = {w.d}\n"
        f"grid.n = {', '.join([str(w.n)] * w.d)}\n"
        f"integrator.dt_init = {DT!r}\n"
        "ic.family = smooth\n"
        "ic.amplitude = 0.4\n"
        f"experiment.T = {w.steps * DT!r}\n"
        + w.extra
    )


@dataclass
class Prepared:
    workload: Workload
    config: object
    grid: object
    plan: object
    initial: State
    pairs: tuple         # (label, step config, spec) for the stability sweep


def perturbation_pairs(w, cfg, rng):
    """The stability sweep: a zero pair, one psi/rho/u pair each at fixed dt
    sharing one base run, and one adaptive pair with a u perturbation."""
    fixed = cfg.integrator
    pairs = [("zero", fixed, PerturbationSpec("psi", (1, 0), 0.0))]
    for target in ("psi", "rho", "u"):
        mode = PERTURB_MODES[int(rng.integers(len(PERTURB_MODES)))]
        amp = float(10.0 ** rng.uniform(-4.0, -3.0))
        pairs.append((target, fixed, PerturbationSpec(target, mode, amp)))
    pairs.append(("adaptive-u", replace(fixed, adaptive=True), PerturbationSpec("u", (1, 0), 1e-3)))
    return tuple(pairs)


def prepare(w, seed):
    """Set-up: parse the config, make the seeded initial data, build the
    spectral plan and warm one transform per field shape."""
    rng = np.random.default_rng(seed)
    cfg = config.parse_config(config_text(w))
    grid = cfg.grid.build()
    base = build_initial_state(grid, cfg.params, cfg.ic)
    shift = tuple(int(v) for v in rng.integers(0, w.n, size=w.d))
    axes = tuple(range(-w.d, 0))
    initial = State(0.0, np.roll(base.psi, shift, axes), np.roll(base.u, shift, axes),
                    np.roll(base.rho, shift, axes), grid)
    plan = plan_for(grid)
    plan.ifft(plan.fft(initial.psi), initial.psi)
    plan.ifft(plan.fft(initial.u), initial.u)
    pairs = perturbation_pairs(w, cfg, rng) if w.kind == "stability" else ()
    return Prepared(w, cfg, grid, plan, initial, pairs)


# Other tenants of a shared host change the speed of the whole CPU, by up to
# about 2x for seconds at a time.  A fixed calibration kernel timed between
# steps measures that speed, and times are reported scaled to a machine on
# which the kernel takes CAL_NOMINAL_S (about its uncontended time on a 2 GHz
# Xeon core).  Raw wall times are kept in the full record.
CAL_NOMINAL_S = 1.5e-3
_CAL_FIELD = np.cos(np.arange(2 * 64 * 64, dtype=float)).reshape(2, 64, 64)


def calibration_kernel():
    """Seconds taken by a fixed mix of small transforms and array arithmetic."""
    start = time.perf_counter()
    for _ in range(8):
        spec = np.fft.fftn(_CAL_FIELD, axes=(-2, -1))
        back = np.fft.ifftn(0.5 * spec, axes=(-2, -1)).real
        np.sum(back * back, axis=0)
    return time.perf_counter() - start


def calibrated(seconds, cal):
    """A time scaled to the nominal machine speed."""
    return seconds * CAL_NOMINAL_S / cal


class StepClock:
    """Observer for run(): times the interval between accepted steps of one
    run (step + measure) and counts the steps.  With calibrate, it times the
    calibration kernel after every step, outside the measured intervals."""

    def __init__(self, calibrate=True):
        self.calibrate = calibrate
        self.latencies = []      # (seconds, index of the calibration after it)
        self.marks = []          # (start, end, seconds) of each calibration
        self.steps = 0
        self._last = None

    def start(self):
        self._last = None

    def __call__(self, _t, _state, _record):
        now = time.perf_counter()
        if self.calibrate:
            cal = calibration_kernel()
            self.marks.append((now, time.perf_counter(), cal))
        if self._last is not None:
            self.latencies.append((now - self._last, len(self.marks) - 1))
        self._last = time.perf_counter()
        self.steps += 1

    def cal_around(self, i):
        """Mean of the calibrations on either side of the interval that ends
        at calibration i (the one that exists at either end)."""
        around = [m[2] for m in self.marks[max(0, i - 1):i + 1]]
        return sum(around) / len(around)


@contextmanager
def timed_rep(clock):
    """Time a repetition without the calibrations inside it: "seconds" is
    wall time, "calibrated" the sum of the pieces between calibrations, each
    scaled by the calibrations around it (None without any)."""
    out = {}
    first = len(clock.marks)
    start = time.perf_counter()
    yield out
    end = time.perf_counter()
    marks = clock.marks[first:]
    pieces = list(zip([start] + [m[1] for m in marks], [m[0] for m in marks] + [end]))
    out["seconds"] = sum(b - a for a, b in pieces)
    out["calibrated"] = None
    if marks:
        out["calibrated"] = sum(calibrated(b - a, clock.cal_around(first + j))
                                for j, (a, b) in enumerate(pieces))


@contextmanager
def observed_stability_runs(clock, stored):
    """Route the runs that stability_experiment makes through the clock and
    note how many states each stores."""
    inner = stability.run

    def observed(*args, **kwargs):
        clock.start()
        traj = inner(*args, observers=[clock], **kwargs)
        stored.append(len(traj.snapshots))
        return traj

    stability.run = observed
    try:
        yield
    finally:
        stability.run = inner


@dataclass
class Rep:
    """One timed repetition: operations, their outcomes and what was written."""
    seconds: float       # wall time, calibration excluded
    calibrated: float    # the same scaled to the nominal speed (None if off)
    outcomes: list       # (label, result or exception); a run comes first
    files: list
    states_stored_peak: int = 0


def run_rep(prep, clock, out_dir):
    """The timed part of one repetition."""
    if prep.workload.kind == "sim":
        return _sim_rep(prep, clock, out_dir)
    return _stability_rep(prep, clock, out_dir)


def _sim_rep(prep, clock, out_dir):
    cfg = prep.config
    series = os.path.join(out_dir, "series.csv")
    snap = os.path.join(out_dir, "final.pitv")
    with timed_rep(clock) as t:
        clock.start()
        traj = run(prep.initial, cfg.params, cfg.integrator, cfg.experiment.horizon,
                   observers=[clock])
        snapshot_io.write_timeseries(traj.records, series)
        snapshot_io.write_snapshot(traj.final_state, cfg.params, snap)
    return Rep(t["seconds"], t["calibrated"], [("run", traj)], [series, snap])


def _stability_rep(prep, clock, out_dir):
    outcomes, files, held = [], [], []
    with timed_rep(clock) as t:
        _sweep(prep, clock, out_dir, outcomes, files, held)
    return Rep(t["seconds"], t["calibrated"], outcomes, files, max(held))


def _sweep(prep, clock, out_dir, outcomes, files, held):
    """The pairs in turn; `held` gets the states stored at once per pair."""
    cfg = prep.config
    stored = []
    clock.start()
    base = run(prep.initial, cfg.params, cfg.integrator, cfg.experiment.horizon,
               observers=[clock], store_states=True)
    outcomes.append(("run", base))
    with observed_stability_runs(clock, stored):
        for label, step_cfg, spec in prep.pairs:
            shared = base if step_cfg is cfg.integrator else None
            try:
                report = stability_experiment(prep.initial, cfg.params, step_cfg, spec,
                                              cfg.experiment.horizon,
                                              bundle=cfg.experiment.bundle, base=shared)
            except (ValueError, RuntimeError) as exc:
                # without its traceback the error holds no trajectories
                outcomes.append((label, exc.with_traceback(None)))
            else:
                path = os.path.join(out_dir, f"stability-{label}.csv")
                snapshot_io.write_difference_series(report, path)
                files.append(path)
                outcomes.append((label, report))
            held.append(sum(stored) + (len(base.snapshots) if shared is not None else 0))
            stored.clear()


# -- untimed output checks ---------------------------------------------------
#
# Every operation of a repetition (a run, a write, a stability pair) is
# checked.  A check that fails marks its operation failed; one that shows an
# output is not reproducible or does not re-read also marks the result
# incorrect.


@dataclass
class Check:
    op: str
    fails: list = field(default_factory=list)
    inconsistent: list = field(default_factory=list)

    def fail(self, message, inconsistent=False):
        self.fails.append(message)
        if inconsistent:
            self.inconsistent.append(message)


def energy_residual_rel(records):
    r = energy_budget(records)
    return float(np.abs(r).max()) / records[0].energy


def record_digest(records):
    """Step count and the final record's values, for run-to-run equality."""
    last = records[-1]
    return len(records), tuple(last.scalars()), tuple(last.momentum)


def check_run(prep, traj, reference):
    """The run operation: physics bounds, step count and bitwise repeat."""
    check = Check("run")
    params = prep.config.params
    if traj.event is not None:
        check.fail(f"physics event {traj.event.kind}: {traj.event.message}")
    if len(traj.records) != prep.workload.steps + 1:
        check.fail(f"{len(traj.records) - 1} steps, expected {prep.workload.steps}", True)
    if reference is not None and record_digest(traj.records) != reference:
        check.fail("run does not repeat bit for bit", True)
    rel = energy_residual_rel(traj.records)
    if not rel <= ENERGY_TOL:
        check.fail(f"energy residual {rel:.3e} above {ENERGY_TOL:.0e}")
    if not all(params.eps < r.rho_min and r.rho_max < params.m_prime for r in traj.records):
        check.fail(f"density left ({params.eps}, {params.m_prime})")
    if prep.workload.kind == "sim":
        u = traj.final_state.u
        div = float(np.abs(prep.plan.divergence(u)).max())
        limit = DIV_TOL * prep.grid.k_max * float(np.abs(u).max())
        if not div <= limit:
            check.fail(f"final max|div u| {div:.3e} above {limit:.3e}")
    return check


def check_series(prep, records, path):
    check = Check("write_timeseries")
    data = snapshot_io.read_timeseries(path)
    columns = {name: [getattr(r, name) for r in records] for name in RECORD_SCALARS}
    for i in range(prep.grid.d):
        columns[f"mom_{i}"] = [r.momentum[i] for r in records]
    if set(data) != set(columns) or not all(
            np.array_equal(data[k], np.array(v)) for k, v in columns.items()):
        check.fail("series.csv does not re-read bit for bit", True)
    return check


def check_snapshot(prep, state, path):
    check = Check("write_snapshot")
    back = snapshot_io.read_snapshot(path, expected_grid=prep.grid)
    if not (back.t == state.t and np.array_equal(back.psi, state.psi)
            and np.array_equal(back.u, state.u) and np.array_equal(back.rho, state.rho)):
        check.fail("snapshot does not re-read bit for bit", True)
    return check


def check_pair(label, result):
    check = Check(label)
    if isinstance(result, Exception):
        check.fail(f"{type(result).__name__}: {result}")
        return check
    if label == "zero" and (result.determinism_failure
                            or any(r.total != 0.0 for r in result.records)):
        check.fail("zero perturbation is not bitwise deterministic", True)
    if not result.passed:
        check.fail(f"pair {label} did not pass (envelope margin {result.envelope_margin})")
    return check


def check_rep(prep, rep, reference):
    """One Check per operation of the repetition; `reference` is the first
    repetition's record digest (None for the first itself)."""
    if prep.workload.kind == "sim":
        (_label, traj), = rep.outcomes
        series, snap = rep.files
        return [check_run(prep, traj, reference),
                check_series(prep, traj.records, series),
                check_snapshot(prep, traj.final_state, snap)]
    base = rep.outcomes[0][1]
    return [check_run(prep, base, reference)] + [
        check_pair(label, result) for label, result in rep.outcomes[1:]]


def field_bytes(grid):
    """Working set of one state: complex psi, d real velocity components, rho."""
    return grid.num_points * (16 + 8 * grid.d + 8)
