"""Transform budget of the integrator's steps.

Every n-dimensional entry point of numpy.fft and scipy.fft is replaced by a
counting wrapper around fixed-dt steps of a seeded 2D 32^2 state: one cold
step(), and the steps of a run(), which warm-start their pressure solves.  A
stacked vector field counts as its components, so the totals are field
transforms whatever the batching.
"""

import math

import numpy as np
import pytest
import scipy.fft

from pitaevskii import integrator
from pitaevskii.grid import make_grid
from pitaevskii.integrator import StepConfig, ingest, run, step
from pitaevskii.model import Params, State

from conftest import random_state_fields

ENTRY_POINTS = ("fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2", "rfft2", "irfft2")

# Field transforms (forward and inverse, real and complex) in one cold step
# of the state below: 7 + 18 complex and 44 + 52 real, 60 of them in the
# pressure solves (9 + 5 iterations of 2 inverse and 2 forward each, and the
# corrector's warm start).  Handing the projections physical fields cost 19
# more (140); the complex numpy.fft implementation before that issued 181.
MAX_FIELD_TRANSFORMS = 121
# The same per step of a run() from its fifth step on, measure() excluded:
# warm-started from the cubic extrapolation of the pressure history, the
# solves take 2 + 1 iterations; the linear extrapolation of the last two
# steps took 5 + 3 (101).
MAX_RUN_STEP_TRANSFORMS = 81


@pytest.fixture
def counted(monkeypatch):
    """{module name: field transforms} issued while the fixture is live."""
    counts = {"numpy.fft": 0, "scipy.fft": 0}

    def wrap(module, name, fn):
        def wrapper(a, *args, **kwargs):
            arr = np.asarray(a)
            counts[module] += math.prod(arr.shape[:arr.ndim - 2])
            return fn(a, *args, **kwargs)
        return wrapper

    for module in (np.fft, scipy.fft):
        for name in ENTRY_POINTS:
            monkeypatch.setattr(module, name, wrap(module.__name__, name, getattr(module, name)))
    return counts


def seeded_state():
    grid = make_grid(2, [32, 32], [2 * np.pi, 2 * np.pi])
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.8, M=1.2, eps=0.4)
    psi, u, rho = random_state_fields(grid, np.random.default_rng(2024), amp=0.4, rho_var=0.15)
    return ingest(State(0.0, psi, u, rho, grid), params), params


def test_step_transform_budget(counted):
    state, params = seeded_state()
    counted.update({"numpy.fft": 0, "scipy.fft": 0})
    step(state, params, 5e-4)
    print(f"field transforms in one step: {counted}")
    assert counted["numpy.fft"] == 0
    assert 0 < counted["scipy.fft"] <= MAX_FIELD_TRANSFORMS


def test_run_steady_state_transform_budget(counted, monkeypatch):
    state, params = seeded_state()
    per_step = []
    inner = integrator.step

    def counting_step(*args, **kwargs):
        before = counted["scipy.fft"]
        out = inner(*args, **kwargs)
        per_step.append(counted["scipy.fft"] - before)
        return out

    monkeypatch.setattr(integrator, "step", counting_step)
    counted.update({"numpy.fft": 0, "scipy.fft": 0})
    dt = 2.0 ** -11
    traj = run(state, params, StepConfig(dt_init=dt), 8 * dt)
    print(f"field transforms per step of a run: {per_step}")
    assert traj.event is None and len(per_step) == 8
    assert counted["numpy.fft"] == 0
    assert 0 < max(per_step[4:]) <= MAX_RUN_STEP_TRANSFORMS
    # the constant, linear and quadratic start-up guesses stay within the
    # linear rule's steady budget
    assert max(per_step[2:]) <= 101
