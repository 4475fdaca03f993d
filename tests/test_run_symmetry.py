"""Whole runs commute with the symmetries of the periodic box.

Eight steps of run() from a seeded state, in 2D 32^2 and 3D 16^3, at fixed
and at adaptive dt, against the same run from the transformed state: a
translation by a seeded whole number of cells per axis, an axis permutation
(fields transposed, u's components permuted) and the reflection x_0 -> -x_0
(f -> roll(flip(f, 0), 1, 0), u_0 -> -u_0).  At the default contrast the
second step on takes the pressure split, so these guard the split as well
as the PCG first step.  Measured: at most 1.0e-15 relative.  Trimming the
dealias mask on axis 0 alone breaks the permutation check only.
"""

import functools

import numpy as np
import pytest

from pitaevskii.grid import make_grid
from pitaevskii.integrator import StepConfig, adaptive_dt, ingest, run
from pitaevskii.model import Params, State

from conftest import random_state_fields

PARAMS = Params(lam=1.0, mu=1.0, nu=0.1, m=0.8, M=1.2, eps=0.4)
SIZES = {2: 32, 3: 16}


def seeded_state(d):
    grid = make_grid(d, [SIZES[d]] * d, [2 * np.pi] * d)
    psi, u, rho = random_state_fields(grid, np.random.default_rng(2024), amp=0.4, rho_var=0.15)
    return State(0.0, psi, u, rho, grid)


def translate(state):
    d = state.grid.d
    shifts = tuple(int(s) for s in np.random.default_rng(7).integers(1, SIZES[d], size=d))
    axes = tuple(range(d))

    def roll(f, first=0):
        return np.roll(f, shifts, axis=tuple(first + a for a in axes))

    return State(state.t, roll(state.psi), roll(state.u, 1), roll(state.rho), state.grid)


def permute(state):
    # new axis j is old axis perm[j], and so is u's component j
    d = state.grid.d
    perm = tuple(range(1, d)) + (0,)
    u = np.stack([np.transpose(state.u[p], perm) for p in perm])
    return State(state.t, np.transpose(state.psi, perm), u,
                 np.transpose(state.rho, perm), state.grid)


def reflect(state):
    def flip(f):
        return np.roll(np.flip(f, 0), 1, 0)

    u = np.stack([flip(c) for c in state.u])
    u[0] = -u[0]
    return State(state.t, flip(state.psi), u, flip(state.rho), state.grid)


SYMMETRIES = {"translation": translate, "permutation": permute, "reflection": reflect}


def eight_steps(initial, adaptive):
    if adaptive:
        config = StepConfig(dt_init=1e-3, cfl=0.05, adaptive=True)
        horizon = 8 * adaptive_dt(ingest(initial, PARAMS), config)
    else:
        config = StepConfig(dt_init=2.0 ** -10)
        horizon = 8 * config.dt_init
    traj = run(initial, PARAMS, config, horizon)
    assert traj.event is None and len(traj.records) == 9
    return traj.final_state


@functools.lru_cache(maxsize=None)
def reference(d, adaptive):
    return eight_steps(seeded_state(d), adaptive)


@pytest.mark.parametrize("symmetry", sorted(SYMMETRIES))
@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
@pytest.mark.parametrize("d", sorted(SIZES), ids=lambda d: f"{d}d")
def test_run_commutes_with_symmetry(d, adaptive, symmetry):
    apply = SYMMETRIES[symmetry]
    expected = apply(reference(d, adaptive))
    got = eight_steps(apply(seeded_state(d)), adaptive)
    assert got.t == pytest.approx(expected.t, rel=1e-14)
    for name in ("psi", "u", "rho"):
        a, b = getattr(got, name), getattr(expected, name)
        gap = float(np.abs(a - b).max() / np.abs(b).max())
        assert gap <= 1e-12, f"{name}: {gap:.2e}"
