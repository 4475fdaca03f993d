"""A fail-loudly matrix over the physical extremes.

Seeded 16^2 runs of about ten steps, at fixed and at adaptive dt, over
density contrasts up to 10^3 (densities built directly, band-limited, so
that ingesting them does not move their range), amplitudes from smooth data
up to blow-up, and the corners nu = 0, lambda = 0 and mu = 0.  Each run
either finishes with finite fields, div u at round-off and rho above the
floor, or ends with a named PhysicsEvent.  Any other exception, and any
warning, fails the test.
"""

import warnings

import numpy as np
import pytest

from pitaevskii.grid import make_grid
from pitaevskii.initial_conditions import gaussian_random_field
from pitaevskii.integrator import StepConfig, adaptive_dt, ingest, run
from pitaevskii.model import Params, PhysicsEvent, State, density_floor_check
from pitaevskii.spectral import ProjectionNotConverged, plan_for

from conftest import numpy_pressure_residual

GRID = make_grid(2, [16, 16], [2 * np.pi, 2 * np.pi])
CONTRASTS = (1.5, 16.0, 100.0, 1000.0)
AMPLITUDES = (0.4, 2.0, 6.0, 20.0, 100.0, 1000.0)
CORNERS = ({"nu": 0.0}, {"lam": 0.0}, {"mu": 0.0})
KINDS = {"density-floor", "blow-up", "cfl", "projection"}
STEPS = 10
# final max|div u| relative to k_max max|u|, as the benchmark checks it
DIV_TOL = 1e-12


def band_limited_unit(rng):
    """A smooth field inside the dealias ball spanning [-1, 1] exactly."""
    g = gaussian_random_field(GRID, rng, kc=2.0)
    return 2.0 * (g - g.min()) / (g.max() - g.min()) - 1.0


def extreme_case(contrast, amplitude, seed, lam=1.0, mu=1.0, nu=0.1):
    """(state, params): rho spans [c^-1/2, c^1/2] for contrast c, with the
    floor at half its minimum; psi and u are smooth at the amplitude."""
    rng = np.random.default_rng(seed)
    lo, hi = contrast ** -0.5, contrast ** 0.5
    rho = np.clip(0.5 * (hi + lo) + 0.5 * (hi - lo) * band_limited_unit(rng), lo, hi)
    psi = amplitude * gaussian_random_field(GRID, rng, kc=2.0, complex_field=True)
    u = amplitude * np.stack([gaussian_random_field(GRID, rng, kc=2.0) for _ in range(2)])
    params = Params(lam=lam, mu=mu, nu=nu, m=lo, M=hi, eps=0.5 * lo)
    return State(0.0, psi, u, rho, GRID), params


def outcome(state, params, adaptive):
    """'done' for a run that reached its horizon cleanly, else the kind of
    the event that ended it; fails on anything else."""
    config = StepConfig(dt_init=1e-3, dt_max=1e-2, adaptive=adaptive)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dt = adaptive_dt(ingest(state, params), config) if adaptive else config.dt_init
        traj = run(state, params, config, STEPS * dt)
    if traj.event is not None:
        assert traj.event.kind in KINDS and traj.event.message
        assert str(traj.event) == traj.event.message
        return traj.event.kind
    final = traj.final_state
    for name in ("psi", "u", "rho"):
        assert np.all(np.isfinite(getattr(final, name)))
    assert final.t == pytest.approx(STEPS * dt, rel=1e-12)
    div = np.abs(plan_for(GRID).divergence(final.u)).max()
    assert div <= DIV_TOL * GRID.k_max * np.abs(final.u).max()
    assert final.rho.min() > params.eps
    return "done"


def test_every_extreme_run_finishes_cleanly_or_names_its_event():
    seen = {}
    cases = [(c, a, {}) for c in CONTRASTS for a in AMPLITUDES]
    cases += [(c, a, corner) for corner in CORNERS for c in (16.0, 1000.0)
              for a in (2.0, 100.0, 1000.0)]
    for seed, (contrast, amplitude, corner) in enumerate(cases):
        state, params = extreme_case(contrast, amplitude, seed, **corner)
        for adaptive in (False, True):
            kind = outcome(state, params, adaptive)
            seen.setdefault(kind, []).append((contrast, amplitude, corner, adaptive))
    # the matrix reaches both ends: clean runs at every contrast, and the
    # floor and blow-up events at the largest amplitudes
    assert {c for c, *_ in seen["done"]} == set(CONTRASTS)
    assert {"density-floor", "blow-up"} <= set(seen)


@pytest.mark.parametrize("contrast", CONTRASTS)
def test_lone_projections_at_the_matrix_densities_meet_tol_or_raise(contrast):
    # cold solves at the densities above, against a velocity that is not
    # band-limited: the pressure's residual, recomputed independently, is
    # within tol, or the solve says that it missed it
    plan = plan_for(GRID)
    state, _ = extreme_case(contrast, 1.0, 7)
    v = np.random.default_rng(8).standard_normal((2,) + GRID.shape)
    for tol, max_iter in ((1e-10, 200), (1e-10, 5), (1e-6, 200)):
        try:
            _, phat = plan.weighted_leray_hat(plan.fft(v), state.rho, tol, max_iter)
        except ProjectionNotConverged as exc:
            assert exc.iterations == max_iter and exc.residual > tol
        else:
            assert numpy_pressure_residual(GRID, v, state.rho, plan.ifft(phat, v[0])) <= tol


def test_a_projection_of_a_non_finite_field_raises():
    # a NaN residual compares false with the target and used to return a
    # NaN velocity as converged; the arithmetic on an inf warns, as it
    # would not inside a step
    plan = plan_for(GRID)
    state, _ = extreme_case(16.0, 1.0, 9)
    v = np.random.default_rng(10).standard_normal((2,) + GRID.shape)
    rho = state.rho.copy()
    rho[4, 4] = np.inf
    v_nan = v.copy()
    v_nan[0, 3, 3] = np.nan
    for field, weight in ((v_nan, state.rho), (v_nan, np.ones(GRID.shape)), (v, rho)):
        with np.errstate(all="ignore"), pytest.raises(ProjectionNotConverged):
            plan.weighted_leray_hat(plan.fft(field), weight)


def test_a_nan_density_is_a_blow_up_not_a_pass():
    # NaN compares false with the floor; argmin finds it, and the check
    # names it a blow-up at the node
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.8, M=1.2, eps=0.4)
    rho = np.ones(GRID.shape)
    rho[3, 5] = np.nan
    with pytest.raises(PhysicsEvent) as err:
        density_floor_check(rho, params, 0.25)
    assert err.value.kind == "blow-up" and err.value.location == (3, 5)
    assert err.value.time == 0.25


def test_initial_data_with_overflowing_diagnostics_is_rejected():
    # finite fields whose energy overflows: run() says so instead of
    # recording infinities with a RuntimeWarning
    state, params = extreme_case(1.5, 1e100, 0)
    with pytest.raises(ValueError, match="non-finite diagnostics"):
        run(state, params, StepConfig(dt_init=1e-3), 1e-2)
