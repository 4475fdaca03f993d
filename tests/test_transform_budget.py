"""Transform budget of one integrator step.

Every n-dimensional entry point of numpy.fft and scipy.fft is replaced by a
counting wrapper around one fixed-dt step of a seeded 2D 32^2 state.  A
stacked vector field counts as its components, so the totals are field
transforms whatever the batching.
"""

import math

import numpy as np
import pytest
import scipy.fft

from pitaevskii.grid import make_grid
from pitaevskii.integrator import StepConfig, ingest, step
from pitaevskii.model import Params, State

from conftest import random_state_fields

ENTRY_POINTS = ("fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2", "rfft2", "irfft2")

# Field transforms (forward and inverse, real and complex) in the step below:
# 7 + 18 complex and 53 + 62 real.  The complex numpy.fft implementation
# this replaced issued 181 complex ones (81 forward, 100 inverse).
MAX_FIELD_TRANSFORMS = 140


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
    step(state, params, 5e-4, StepConfig(dt_init=5e-4))
    print(f"field transforms in one step: {counted}")
    assert counted["numpy.fft"] == 0
    assert 0 < counted["scipy.fft"] <= MAX_FIELD_TRANSFORMS
