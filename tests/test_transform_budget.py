"""Transform budget of the integrator's steps, of measure() and of the
Gronwall bundle.

Every n-dimensional entry point of numpy.fft and scipy.fft is replaced by a
counting wrapper around fixed-dt steps of a seeded 2D 32^2 or 3D 16^3 state,
or of a smooth 2D 32^2 state at density contrast 1.44 or 16:
one cold step(), and the steps of a run(), which warm-start their pressure
solves or take the pressure split and start from the spectra and the
[psi, grad(psi)] stack the previous step carried over; and around one
gronwall_bundle() call on two such states, and around the pairing of a
stability sweep's later experiment with the base's halves already formed.
A stacked vector field counts as its components, so the totals are field
transforms whatever the batching.  Beside them the entry-point calls are
counted, since each call carries a fixed cost on top of its transforms.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft

from pitaevskii import integrator, stability
from pitaevskii.grid import make_grid
from pitaevskii.integrator import StepConfig, ingest, run, step
from pitaevskii.model import Params, State
from pitaevskii.spectral import SpectralPlan
from pitaevskii.stability import PerturbationSpec, gronwall_bundle, stability_experiment

from conftest import random_state_fields, smooth_2d_state

ENTRY_POINTS = ("fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2", "rfft2", "irfft2")

# Field transforms (forward and inverse, real and complex) in one cold step
# of the 2D state below, 52 of them in the pressure solves (4 + 2
# iterations of 2d inverse and 2d forward each, and the corrector's warm
# start); "smooth" takes 4 + 3 and "contrast" 12 + 8 (60 and 164).  With
# the preconditioner |k'|^-1 rho |k'|^-1, d + 1 inverse and d + 1 forward
# transforms an iteration, the solves took 7 + 4, 6 + 5 and 21 + 13
# iterations (70, 70 and 208 transforms) and the steps 118, 118 and 256.
# The advection as -div(u u), whose products u_i u_j took
# d(d+1)/2 forward rows where the rotation form takes curl(u) back and
# |u|^2 / 2 forward (d + 1 rows in 2D), and a density flux rho u that took
# its own forward transform, made it 120 (contrast 16: 258).  The velocity
# right-hand side with its own dealias of the momentum source and the
# advective form cost 10 more than that; handing the projections physical
# fields 19 more; the complex numpy.fft implementation before that issued
# 181.
# "smooth": the smooth 2D 32^2 state at the default density range
# [0.8, 1.2] (contrast 1.44), the benchmark workloads' data family.
# "contrast": the same state at density range [0.6, 9.5] (contrast 16).
STEP_BUDGETS = {2: 100, "smooth": 108, "contrast": 212}
# Per step of a run(), measure() excluded, as {first step covered (0-based):
# bound on that step and every later one}.  Each step starts from carried
# spectra and from the carried [psi, grad(psi)] stack, so each wave
# half-step's first stage transforms nothing back; the step's end takes
# grad(psi) back with psi.  At the default contrast the second step on
# takes the pressure split in both stages, which transforms nothing: p*
# enters the inverse transform of nu lap(u) in the acceleration, and its
# remainder the acceleration's forward transform: 2D 32^2 42, 3D 16^3 58.
# Each stage transforms its acceleration with the rotation form of the
# advection (curl(u) back with nu lap(u), |u|^2 / 2 forward) and the
# density flux rho u in the same forward call.  With -div(u u) (its
# d(d+1)/2 products forward) and the flux in a forward call of its own it
# took 44 and 62.  A split that formed its own flux (d inverse and d
# forward transforms a stage) made it 52 and 74, and both first stages inverting their own
# d + 1 fields 56 and 79; the second step took
# 96 (3D 145) when it solved by PCG, before its p* came from the first
# step's two stage pressures.  Warm-started PCG took 68 and 97 from the
# fifth step on (1 + 1 iterations) and 84, 76 (3D 121, 109) in the third
# and fourth.  At contrast 16 the second step on takes the split in the
# predictor, whose p* is the line through the last two corrector pressures,
# and one PCG solve in the corrector, warm-started from the cubic through
# the last four: the second to eighth steps take 118, 94, 70, 70, 70, 62
# and 62 (9, 6, 3, 3, 3, 2 and 2 iterations of 8 transforms).  With the
# preconditioner |k'|^-1 rho |k'|^-1 (6 transforms an iteration) they took
# 130, 100, 82, 82, 76, 58 and 58 (14, 9, 6, 6, 5, 2 and 2 iterations):
# the steady steps take two iterations either way, at 8 transforms instead
# of 6.  Before that, 132, 102, 84, 84, 78, 60 and 60 before the rotation
# form and the flux joined the acceleration's transforms; with PCG in both
# stages 178, 124, 88, 82, 76, 82 and 88 (from the fifth step on 76 to 88,
# 2 or 3 iterations a solve).
RUN_BUDGETS = {2: {1: 42}, 3: {1: 58}, "contrast": {1: 118, 2: 94, 3: 70, 6: 62}}
# Per measure() call on an accepted step of a run(), which hands it the
# carried spectra and grad(psi): the coupling's one forward transform and
# the H^-1 norm of the density's time difference.  It was d + 2 (4 in 2D,
# 5 in 3D) with grad(psi) transformed back again, and 2d + 5 (9, 11) with
# the state transformed again and the coupling taken back to physical
# space and forward again.
MAX_MEASURE_TRANSFORMS = {2: 2, 3: 2}
# Per gronwall_bundle() call: each of weak.u, moderate.u, weak.psi and
# moderate.psi transformed once (2d + 2), grad(rho) of the moderate state
# (d + 1) and, in the full bundle, each state's coupling spectrum (d inverse
# for grad(psi), one forward).  With one transform per norm and the coupling
# taken to physical space and back it was 25 / 10 in 2D and 32 / 13 in 3D.
MAX_BUNDLE_TRANSFORMS = {(2, "full"): 15, (2, "core"): 9, (3, "full"): 20, (3, "core"): 12}
# Per record of a sweep's later experiment, whose base already holds the
# driver's moderate halves: the weak half (weak.psi and weak.u transformed
# once, d + 1, and in the full bundle the coupling spectrum, d inverse and
# one forward) and difference_norms (one forward for the H^1 seminorm of
# the wave difference).  A whole gronwall_bundle() call per record made it
# 16 / 10 in 2D and 21 / 13 in 3D.
MAX_LATER_RECORD_TRANSFORMS = {(2, "full"): 7, (2, "core"): 4, (3, "full"): 9, (3, "core"): 5}
# Entry-point calls per step of a run() from the second on (the steps that
# take the pressure split) at the default contrast, in 2D and 3D alike:
# each wave midpoint stage takes psi and grad(psi) back in one call, so do
# the first wave half-step's result for the fluid substep and the second
# half-step's result, each fluid acceleration takes nu lap(u) - grad(p*)
# and curl(u) back in one call and its own rows, |u|^2 / 2 and the density
# flux rho u forward in one, and each density right-hand side takes the
# flux's divergence back in one: 20 calls.  With the flux transformed in a
# call of its own it took 22.  The split's own flux took 2 calls a stage
# (26); before that each wave half-step's first stage took its own call
# before it started from the carried stack (28),
# separate calls made 35 and a separate grad(psi) for the fluid substep
# 29.  measure() makes 2: the coupling and the H^-1 norm of the
# density difference (3 with its own grad(psi)).
MAX_RUN_STEP_CALLS = 20
MAX_MEASURE_CALLS = 2


@pytest.fixture
def counted(monkeypatch):
    """{module name: field transforms, "calls": entry-point calls} issued
    while the fixture is live."""
    counts = {"numpy.fft": 0, "scipy.fft": 0, "calls": 0}

    def wrap(module, name, fn):
        def wrapper(a, *args, **kwargs):
            # the transformed axes trail; the leading ones stack fields
            arr = np.asarray(a)
            axes = kwargs.get("axes")
            transformed = 2 if name.endswith("2") else arr.ndim if axes is None else len(axes)
            counts[module] += math.prod(arr.shape[:arr.ndim - transformed])
            counts["calls"] += 1
            return fn(a, *args, **kwargs)
        return wrapper

    for module in (np.fft, scipy.fft):
        for name in ENTRY_POINTS:
            monkeypatch.setattr(module, name, wrap(module.__name__, name, getattr(module, name)))
    return counts


def seeded_state(d=2):
    """The seeded state of dimension d, or the smooth 2D 32^2 state: for
    d = "smooth" at the default m = 0.8, M = 1.2, for d = "contrast" at
    m = 0.1, M = 10."""
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.8, M=1.2, eps=0.4)
    if d in ("smooth", "contrast"):
        grid = make_grid(2, [32, 32], [2 * np.pi] * 2)
        if d == "contrast":
            params = replace(params, m=0.1, M=10.0, eps=0.05)
        return ingest(smooth_2d_state(grid, m=params.m, M=params.M), params), params
    n = {2: 32, 3: 16}[d]
    grid = make_grid(d, [n] * d, [2 * np.pi] * d)
    psi, u, rho = random_state_fields(grid, np.random.default_rng(2024), amp=0.4, rho_var=0.15)
    return ingest(State(0.0, psi, u, rho, grid), params), params


@pytest.mark.parametrize("d", sorted(STEP_BUDGETS, key=str))
def test_step_transform_budget(counted, d):
    state, params = seeded_state(d)
    counted.update({"numpy.fft": 0, "scipy.fft": 0})
    step(state, params, 5e-4)
    print(f"field transforms in one step: {counted}")
    assert counted["numpy.fft"] == 0
    assert 0 < counted["scipy.fft"] <= STEP_BUDGETS[d]


def counting(counted, monkeypatch, name, key="scipy.fft"):
    """Field transforms (or with key="calls", entry-point calls) of each
    call of integrator.<name>, in call order."""
    per_call = []
    inner = getattr(integrator, name)

    def wrapper(*args, **kwargs):
        before = counted[key]
        out = inner(*args, **kwargs)
        per_call.append(counted[key] - before)
        return out

    monkeypatch.setattr(integrator, name, wrapper)
    return per_call


@pytest.mark.parametrize("d", sorted(RUN_BUDGETS, key=str))
def test_run_steady_state_transform_budget(counted, monkeypatch, d):
    state, params = seeded_state(d)
    per_step = counting(counted, monkeypatch, "step")
    per_measure = counting(counted, monkeypatch, "measure")
    counted.update({"numpy.fft": 0, "scipy.fft": 0})
    dt = 2.0 ** -11
    traj = run(state, params, StepConfig(dt_init=dt), 8 * dt)
    print(f"field transforms per step of a run: {per_step}, per measure(): {per_measure}")
    assert traj.event is None and len(per_step) == 8 and len(per_measure) == 9
    assert counted["numpy.fft"] == 0
    for first, budget in RUN_BUDGETS[d].items():
        assert 0 < max(per_step[first:]) <= budget, first
    assert 0 < max(per_measure[1:]) <= MAX_MEASURE_TRANSFORMS[state.grid.d]


@pytest.mark.parametrize("d, bundle", sorted(MAX_BUNDLE_TRANSFORMS))
def test_gronwall_bundle_transform_budget(counted, d, bundle):
    weak, params = seeded_state(d)
    moderate = weak.copy()
    moderate.psi = 1.01 * moderate.psi
    rate = np.ones_like(weak.u)
    counted.update({"numpy.fft": 0, "scipy.fft": 0})
    driver = gronwall_bundle(weak, moderate, params, rate, bundle=bundle)
    print(f"field transforms in one {bundle} bundle: {counted}")
    assert driver > 0
    assert counted["numpy.fft"] == 0
    assert 0 < counted["scipy.fft"] <= MAX_BUNDLE_TRANSFORMS[(d, bundle)]


@pytest.mark.parametrize("d, bundle", sorted(MAX_LATER_RECORD_TRANSFORMS))
def test_later_sweep_record_transform_budget(counted, monkeypatch, d, bundle):
    initial, params = seeded_state(d)
    cfg = StepConfig(dt_init=2.0 ** -11)
    horizon = 2 * cfg.dt_init
    base = run(initial, params, cfg, horizon, store_states=True)
    stability_experiment(initial, params, cfg, PerturbationSpec("psi", (1, 0), 1e-6), horizon,
                         bundle=bundle, base=base)
    in_runs = []

    def counted_run(*args, **kwargs):
        before = counted["scipy.fft"]
        traj = run(*args, **kwargs)
        in_runs.append(counted["scipy.fft"] - before)
        return traj

    monkeypatch.setattr(stability, "run", counted_run)
    counted.update({"numpy.fft": 0, "scipy.fft": 0})
    report = stability_experiment(initial, params, cfg, PerturbationSpec("psi", (1, 1), 1e-5),
                                  horizon, bundle=bundle, base=base)
    pairing = counted["scipy.fft"] - sum(in_runs)
    print(f"field transforms pairing a later {bundle} experiment: {pairing} over "
          f"{len(report.records)} records")
    assert len(in_runs) == 1 and len(report.records) == 3
    assert counted["numpy.fft"] == 0
    assert 0 < pairing <= MAX_LATER_RECORD_TRANSFORMS[(d, bundle)] * len(report.records)


@pytest.mark.parametrize("d", [2, 3])
def test_run_steady_state_call_budget(counted, monkeypatch, d):
    state, params = seeded_state(d)
    per_step = counting(counted, monkeypatch, "step", "calls")
    per_measure = counting(counted, monkeypatch, "measure", "calls")
    dt = 2.0 ** -11
    traj = run(state, params, StepConfig(dt_init=dt), 8 * dt)
    print(f"transform calls per step of a run: {per_step}, per measure(): {per_measure}")
    assert traj.event is None and len(per_step) == 8 and len(per_measure) == 9
    assert 0 < max(per_step[1:]) <= MAX_RUN_STEP_CALLS
    assert 0 < max(per_measure[1:]) <= MAX_MEASURE_CALLS


def test_split_stage_takes_no_transform(counted, monkeypatch):
    # the pressure split transforms nothing, and the acceleration it projects
    # costs the same with p* folded in as without (the PCG stages of the
    # first step)
    state, params = seeded_state("smooth")
    split = []
    inner = SpectralPlan.split_leray_hat

    def counted_split(*args):
        before = counted["calls"]
        out = inner(*args)
        split.append(counted["calls"] - before)
        return out

    monkeypatch.setattr(SpectralPlan, "split_leray_hat", counted_split)
    per_accel = counting(counted, monkeypatch, "_fluid_explicit_accel")
    dt = 2.0 ** -11
    traj = run(state, params, StepConfig(dt_init=dt), 8 * dt)
    assert traj.event is None
    assert split == [0] * 14
    assert len(per_accel) == 16 and len(set(per_accel)) == 1
