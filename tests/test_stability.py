import numpy as np
import pytest

from pitaevskii.grid import make_grid
from pitaevskii.initial_conditions import plane_wave_state
from pitaevskii.integrator import StepConfig, run
from pitaevskii.model import Params, State
from pitaevskii.norms import lp_norm, sobolev_norm
from pitaevskii.stability import (
    DifferenceRecord,
    PerturbationSpec,
    difference_norms,
    fit_envelope,
    gronwall_bundle,
    perturb_state,
    reduced_ode_oracle,
    stability_experiment,
)

from conftest import random_state_fields

PARAMS = Params(lam=1.0, mu=1.0, nu=0.1, m=0.8, M=1.2, eps=0.4)


def smooth_state(grid, amp=0.4):
    x, y = grid.meshes()
    psi = amp * (np.cos(x) * np.cos(y) + 0.5j * (np.sin(x) + np.cos(y)) + 0.3)
    u = amp * np.stack([np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)])
    rho = 1.0 + 0.45 * (PARAMS.M - PARAMS.m) * np.cos(x) * np.cos(y)
    return State(0.0, psi.astype(complex), u, rho, grid)


def test_difference_norms_identical(grid2d):
    st = smooth_state(grid2d)
    rec = difference_norms(st, st.copy())
    assert rec.wave_l2 == 0 and rec.wave_grad == 0 and rec.vel_l2 == 0
    assert rec.rho_l2 == 0 and rec.total == 0


def test_difference_norms_scaled_wave(grid2d):
    st = smooth_state(grid2d)
    eta = 1e-3
    other = st.copy()
    other.psi = (1 + eta) * other.psi
    rec = difference_norms(st, other)
    grad_sq = sobolev_norm(grid2d, st.psi, 1.0, homogeneous=True) ** 2
    assert rec.wave_grad == pytest.approx(eta ** 2 * grad_sq, rel=1e-10)
    assert rec.wave_l2 == pytest.approx(eta ** 2 * lp_norm(grid2d, st.psi, 2) ** 2, rel=1e-10)
    assert rec.vel_l2 == 0 and rec.rho_l2 == 0
    assert rec.total == pytest.approx(rec.wave_grad, rel=1e-12)


def test_difference_norms_cross_check(grid2d, rng):
    psi_a, u_a, rho_a = random_state_fields(grid2d, rng)
    psi_b, u_b, rho_b = random_state_fields(grid2d, rng)
    a = State(0.0, psi_a, u_a, rho_a, grid2d)
    b = State(0.0, psi_b, u_b, rho_b, grid2d)
    rec = difference_norms(a, b)
    # independent evaluation straight from the field differences
    dpsi_hat = np.fft.fftn(psi_a - psi_b) / grid2d.num_points
    grad_sq = grid2d.volume * float(np.sum(grid2d.k2_mesh * np.abs(dpsi_hat) ** 2))
    assert rec.wave_grad == pytest.approx(grad_sq, rel=1e-12)
    assert rec.vel_l2 == pytest.approx(float(np.sum((u_a - u_b) ** 2)) * grid2d.cell_volume, rel=1e-12)
    assert rec.rho_l2 == pytest.approx(float(np.sum((rho_a - rho_b) ** 2)) * grid2d.cell_volume, rel=1e-12)
    # symmetry is exact
    swapped = difference_norms(b, a)
    for name in ("wave_l2", "wave_grad", "vel_l2", "rho_l2", "total"):
        assert getattr(rec, name) == getattr(swapped, name)


def test_difference_norms_mismatch_errors(grid2d):
    st = smooth_state(grid2d)
    other = st.copy()
    other.t = 1.0
    with pytest.raises(ValueError):
        difference_norms(st, other)
    g2 = make_grid(2, [32, 32], [2 * np.pi, 2 * np.pi])
    with pytest.raises(ValueError):
        difference_norms(st, smooth_state(g2))


def test_gronwall_bundle_zero_states(grid2d):
    zero = State(0.0, np.zeros(grid2d.shape, complex), np.zeros((2,) + grid2d.shape),
                 np.ones(grid2d.shape), grid2d)
    h = gronwall_bundle(zero, zero.copy(), PARAMS, np.zeros((2,) + grid2d.shape))
    assert h == 0.0


def test_gronwall_bundle_requires_rate(grid2d):
    st = smooth_state(grid2d)
    with pytest.raises(ValueError):
        gronwall_bundle(st, st.copy(), PARAMS, None)


def test_gronwall_bundle_plane_wave_closed_form(grid2d):
    a, k, vel, rho0 = 0.6, (1, 2), (0.3, -0.2), 1.0
    weak = plane_wave_state(grid2d, k, a, vel, rho0)
    mod = plane_wave_state(grid2d, k, a, vel, rho0)
    rate = np.stack([np.full(grid2d.shape, 0.05), np.full(grid2d.shape, -0.02)])

    v = grid2d.volume
    sqv = np.sqrt(v)
    k2 = k[0] ** 2 + k[1] ** 2
    uabs = np.hypot(*vel)
    beta = 0.5 * ((k[0] - vel[0]) ** 2 + (k[1] - vel[1]) ** 2) + PARAMS.mu * a ** 2
    u_h1 = uabs * sqv
    psi_h1 = np.sqrt(1 + k2) * a * sqv
    psi_h2 = (1 + k2) * a * sqv
    c_l2 = beta * a * sqv
    c_h1 = beta * np.sqrt(1 + k2) * a * sqv
    rate_l3 = np.hypot(0.05, -0.02) * v ** (1 / 3)
    expect = (
        2 * u_h1 ** 4 + 2 * psi_h2 ** 4 + (1 + PARAMS.mu ** 2) * psi_h1 ** 4
        + rate_l3 ** 2 + 0.0
        + 2 * u_h1 ** 2            # H^2 of a uniform field equals its H^1
        + u_h1 ** 2 * u_h1 ** 2
        + c_l2 * c_h1
        + u_h1 ** 2 * c_l2 ** 2
    )
    got = gronwall_bundle(weak, mod, PARAMS, rate, bundle="full")
    assert got == pytest.approx(expect, rel=1e-10)


def test_perturb_zero_amplitude_is_exact_copy(grid2d):
    st = smooth_state(grid2d)
    out = perturb_state(st, PerturbationSpec(target="all", amplitude=0.0), PARAMS)
    assert np.array_equal(out.psi, st.psi)
    assert np.array_equal(out.u, st.u)
    assert np.array_equal(out.rho, st.rho)


def test_perturb_respects_density_bounds(grid2d):
    st = smooth_state(grid2d)
    out = perturb_state(st, PerturbationSpec(target="rho", mode=(2, 1), amplitude=0.5), PARAMS)
    assert out.rho.min() >= PARAMS.m - 1e-15
    assert out.rho.max() <= PARAMS.M + 1e-15
    assert np.abs(out.rho - st.rho).max() > 0


def test_perturb_velocity_stays_divergence_free(grid2d):
    from pitaevskii.spectral import plan_for
    st = smooth_state(grid2d)
    out = perturb_state(st, PerturbationSpec(target="u", mode=(1, 1), amplitude=1e-3), PARAMS)
    plan = plan_for(grid2d)
    base_div = np.abs(plan.divergence(st.u)).max()
    assert np.abs(plan.divergence(out.u)).max() <= base_div + 1e-12


def test_perturbation_spec_validation():
    with pytest.raises(ValueError):
        PerturbationSpec(target="vorticity")
    with pytest.raises(ValueError):
        PerturbationSpec(amplitude=-1.0)


def test_oracle_closed_form_k_zero():
    params = Params(lam=1.3, mu=0.7, nu=0.1, m=0.5, M=1.5, eps=0.2)
    a0 = 0.9
    traj = reduced_ode_oracle(params, [0.0], a0, [0.0], 1.0, 2.0, tol=1e-12)
    c = 2 * params.lam * params.mu * a0 ** 2
    exact_amp_sq = a0 ** 2 / (1 + c * traj.ts)
    assert np.abs(np.abs(traj.amp) ** 2 - exact_amp_sq).max() <= 1e-10
    # phase: theta(t) = -ln(1 + c t) / (2 lam)
    exact_phase = -np.log(1 + c * traj.ts) / (2 * params.lam)
    assert np.abs(np.unwrap(np.angle(traj.amp)) - exact_phase).max() <= 1e-9


def test_oracle_conservation():
    # in the plane-wave reduction the total mass and momentum budgets are
    # conserved exactly; the integrated trajectory keeps them to 1e-10
    traj = reduced_ode_oracle(PARAMS, [1.0], 0.5 + 0.2j, [0.3], 1.0, 1.5, tol=1e-11)
    mass = traj.rho + np.abs(traj.amp) ** 2
    assert np.abs(mass - mass[0]).max() <= 1e-10 * mass[0]
    mom = traj.rho * traj.vel[:, 0] + np.abs(traj.amp) ** 2 * traj.mode[0]
    assert np.abs(mom - mom[0]).max() <= 1e-10 * max(abs(mom[0]), 1.0)


def test_oracle_input_validation():
    with pytest.raises(ValueError):
        reduced_ode_oracle(PARAMS, [1.0], 0.5, [0.0], -1.0, 1.0)
    with pytest.raises(ValueError):
        reduced_ode_oracle(PARAMS, [1.0], 0.5, [0.0], 1.0, 1.0, tol=0.0)


def test_stability_zero_perturbation_identical(grid2d):
    st = smooth_state(grid2d)
    cfg = StepConfig(dt_init=2e-3)
    report = stability_experiment(st, PARAMS, cfg, PerturbationSpec(amplitude=0.0), 0.02)
    assert not report.determinism_failure
    assert all(r.total == 0.0 for r in report.records)
    assert report.passed


def test_stability_small_experiment(grid2d):
    st = smooth_state(grid2d)
    cfg = StepConfig(dt_init=2e-3)
    base = run(st.copy(), PARAMS, cfg, 0.1, store_states=True)
    report = stability_experiment(
        st, PARAMS, cfg, PerturbationSpec(target="psi", mode=(1, 1), amplitude=1e-6),
        0.1, base=base)
    assert report.records[0].total > 0
    assert all(np.isfinite(r.driver) and r.driver > 0 for r in report.records)
    assert report.c_hat is not None
    assert report.envelope_margin is not None and report.envelope_margin <= 10.0
    assert report.passed
    # driver stays integrable: the cumulative integral is finite
    assert np.isfinite(report.driver_integral)


def test_stability_core_bundle(grid2d):
    st = smooth_state(grid2d)
    cfg = StepConfig(dt_init=2e-3)
    base = run(st.copy(), PARAMS, cfg, 0.05, store_states=True)
    full = stability_experiment(st.copy(), PARAMS, cfg,
                                PerturbationSpec(target="psi", amplitude=1e-6),
                                0.05, bundle="full", base=base)
    core = stability_experiment(st.copy(), PARAMS, cfg,
                                PerturbationSpec(target="psi", amplitude=1e-6),
                                0.05, bundle="core", base=base)
    # the core bundle drops the mixed monomials, so its driver is smaller
    assert 0 < core.records[0].driver < full.records[0].driver
    with pytest.raises(ValueError):
        gronwall_bundle(st, st.copy(), PARAMS, np.zeros((2,) + grid2d.shape),
                        bundle="everything")


def test_fit_envelope_short_series():
    recs = [DifferenceRecord(t=0.0, wave_l2=0, wave_grad=0, vel_l2=0, rho_l2=0,
                             total=0.0, driver=1.0)]
    assert fit_envelope(recs) == (None, None, 0.0)
