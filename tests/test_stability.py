import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import pitaevskii
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
    # the pairing tolerance in time is 1e-12: a skew of 1e-9 is an error,
    # one of 1e-13 is round-off
    st = smooth_state(grid2d)
    other = st.copy()
    for skew in (1.0, 1e-9):
        other.t = skew
        with pytest.raises(ValueError, match="different times"):
            difference_norms(st, other)
    other.t = 1e-13
    assert difference_norms(st, other).total == 0.0
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


def test_perturbed_velocity_matches_leray_project_bit_for_bit(grid2d):
    # perturb_state projects on the spectrum and skips the potential's
    # transform; its state is the one leray_project gives, to the bit
    from pitaevskii.initial_conditions import lattice_wavevector
    from pitaevskii.spectral import plan_for
    st = smooth_state(grid2d)
    spec = PerturbationSpec(target="all", mode=(1, 1), amplitude=1e-3)
    out = perturb_state(st, spec, PARAMS)
    k = lattice_wavevector(spec.mode, grid2d.lengths)
    phase = sum(ki * xi for ki, xi in zip(k, grid2d.meshes()))
    bump = np.stack([np.cos(phase), 0.5 * np.sin(phase)])
    scale = float(np.abs(st.u).max())
    expected, _ = plan_for(grid2d).leray_project(st.u + spec.amplitude * scale * bump)
    assert np.array_equal(out.u, expected)
    assert not np.array_equal(out.psi, st.psi) and not np.array_equal(out.rho, st.rho)


def test_perturbation_mode_is_a_wavevector_off_2pi_box():
    # lattice mode (1, 0) on a 3 x 3 box is the wavevector (2 pi / 3, 0): a
    # periodic pattern inside the dealias ball, which ingest keeps whole
    from pitaevskii.spectral import plan_for
    g = make_grid(2, [16, 16], [3.0, 3.0])
    st = State(0.0, np.ones(g.shape, dtype=complex), np.zeros((2,) + g.shape), np.ones(g.shape), g)
    out = perturb_state(st, PerturbationSpec(target="psi", mode=(1, 0), amplitude=5e-4), PARAMS)
    bump = out.psi - st.psi
    x, _ = g.meshes()
    k = 2 * np.pi / 3.0
    assert np.abs(bump - 5e-4 * (np.cos(k * x) + 0.5j * np.sin(k * x))).max() <= 1e-15
    assert np.abs(plan_for(g).dealias(bump) - bump).max() <= 1e-15


@pytest.mark.parametrize("amplitude", [1e-3, 0.0])
def test_perturbation_mode_longer_than_the_grid_is_rejected(grid2d, amplitude):
    # before, mode (1, 0, 5) on a 2D grid perturbed mode (1, 0) without a word
    st = smooth_state(grid2d)
    with pytest.raises(ValueError, match="^mode needs at most 2 entries, got 3$"):
        perturb_state(st, PerturbationSpec(target="psi", mode=(1, 0, 5), amplitude=amplitude), PARAMS)


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
    with pytest.raises(ValueError, match="horizon >= 0"):
        reduced_ode_oracle(PARAMS, [1.0], 0.5, [0.0], 1.0, -1.0)
    with pytest.raises(ValueError, match="k has 2 entries but u0 has 1"):
        reduced_ode_oracle(PARAMS, [1.0, 0.0], 0.5, [0.3], 1.0, 1.0)


def test_solver_processes_do_not_load_the_oracle_integrator():
    # other tests run the oracle in this process, so look from a fresh one
    src = os.path.dirname(os.path.dirname(os.path.abspath(pitaevskii.__file__)))
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import pitaevskii.cli\n"
        "assert 'scipy.integrate' not in sys.modules\n"
        "from pitaevskii.model import Params\n"
        "from pitaevskii.stability import reduced_ode_oracle\n"
        "traj = reduced_ode_oracle(Params(lam=1.0, mu=1.0, nu=0.1, m=0.8, M=1.2, eps=0.4),"
        " [1.0], 0.5, [0.0], 1.0, 0.1, n_samples=3)\n"
        "assert traj.ts[-1] == 0.1\n"
        "assert 'scipy.integrate' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_stability_zero_perturbation_identical(grid2d):
    st = smooth_state(grid2d)
    cfg = StepConfig(dt_init=2e-3)
    report = stability_experiment(st, PARAMS, cfg, PerturbationSpec(amplitude=0.0), 0.02)
    assert not report.determinism_failure
    assert all(r.total == 0.0 for r in report.records)
    assert report.passed


@pytest.mark.parametrize("amplitude", [0.0, 1e-4])
def test_stability_rejects_a_base_without_every_state(grid2d, amplitude):
    st = smooth_state(grid2d)
    cfg = StepConfig(dt_init=2e-3)
    base = run(st.copy(), PARAMS, cfg, 0.02)
    assert base.snapshots == [] and len(base.records) > 1
    with pytest.raises(ValueError, match="store_states=True"):
        stability_experiment(st, PARAMS, cfg, PerturbationSpec(amplitude=amplitude), 0.02,
                             base=base)


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


def test_stability_without_a_fitted_margin_gives_no_verdict():
    # three records (T = 0.004 at dt = 0.002) leave no envelope to fit: a
    # nonzero perturbation then neither passes nor fails, and a zero one
    # still passes on its bitwise comparison
    grid = make_grid(2, [16, 16], [2 * np.pi, 2 * np.pi])
    cfg = StepConfig(dt_init=0.002)
    report = stability_experiment(smooth_state(grid), PARAMS, cfg,
                                  PerturbationSpec(amplitude=1e-6), 0.004)
    assert len(report.records) == 3 and report.records[0].total > 0
    assert report.c_hat is None and report.envelope_margin is None
    assert report.inconclusive and not report.envelope_ok and not report.passed
    assert report.verdict == "inconclusive"
    assert replace(report, determinism_failure=True).verdict == "FAIL"
    zero = stability_experiment(smooth_state(grid), PARAMS, cfg,
                                PerturbationSpec(amplitude=0.0), 0.004)
    assert not zero.inconclusive and zero.passed and zero.verdict == "pass"
    # four records without a fitting ratio are no verdict either
    no_ratio = replace(report, c_hat=None, envelope_margin=None,
                       records=report.records + report.records[-1:])
    assert no_ratio.inconclusive and not no_ratio.passed
    assert replace(report, envelope_margin=10.0).passed
    assert not replace(report, envelope_margin=10.5).passed


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


def test_stability_experiment_rejects_unknown_bundle_before_any_run(grid2d, monkeypatch):
    from pitaevskii import stability

    runs = []

    def counted_run(*args, **kwargs):
        runs.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(stability, "run", counted_run)
    st = smooth_state(grid2d)
    with pytest.raises(ValueError, match="bundle must be one of full, core"):
        stability_experiment(st, PARAMS, StepConfig(dt_init=2e-3), PerturbationSpec(), 0.01,
                             bundle="nope")
    assert runs == []
    with pytest.raises(ValueError, match="bundle must be one of full, core"):
        gronwall_bundle(st, st.copy(), PARAMS, np.zeros((2,) + grid2d.shape), bundle="nope")


def test_a_short_pair_takes_the_base_rate_centred_at_its_last_record(grid2d, monkeypatch):
    # a perturbed run that ends early leaves the base holding the state after
    # its last pair: the moderate dt u there is centred, not one-sided
    from pitaevskii import stability
    from pitaevskii.integrator import PhysicsEvent

    def truncated(*args, **kwargs):
        traj = run(*args, **kwargs)
        return replace(traj, snapshots=traj.snapshots[:-3],
                       event=PhysicsEvent("density-floor", traj.snapshots[-3].t, "cut"))

    st = smooth_state(grid2d)
    cfg = StepConfig(dt_init=2e-3)
    base = run(st.copy(), PARAMS, cfg, 0.02, store_states=True)
    monkeypatch.setattr(stability, "run", truncated)
    spec = PerturbationSpec(target="psi", mode=(1, 1), amplitude=1e-6)
    report = stability_experiment(st, PARAMS, cfg, spec, 0.02, base=base)
    i = len(report.records) - 1
    assert i == len(base.snapshots) - 4 and report.event is not None
    lo, mid, hi = base.snapshots[i - 1:i + 2]
    weak = run(perturb_state(st, spec, PARAMS), PARAMS, cfg, 0.02,
               store_states=True).snapshots[i]
    centred = gronwall_bundle(weak, mid, PARAMS, (hi.u - lo.u) / (hi.t - lo.t))
    one_sided = gronwall_bundle(weak, mid, PARAMS, (mid.u - lo.u) / (mid.t - lo.t))
    assert report.records[-1].driver == centred != one_sided


def test_sweep_forms_the_moderate_half_once_per_base_record(grid2d, monkeypatch):
    from pitaevskii import integrator, stability

    st = smooth_state(grid2d)
    cfg = StepConfig(dt_init=2e-3)
    horizon = 0.02
    base, *fresh = (run(st.copy(), PARAMS, cfg, horizon, store_states=True) for _ in range(4))
    halves, measured = [], []
    moderate_terms, measure = stability._moderate_terms, integrator.measure
    monkeypatch.setattr(stability, "_moderate_terms",
                        lambda *a: halves.append(a) or moderate_terms(*a))
    monkeypatch.setattr(integrator, "measure",
                        lambda *a, **k: measured.append(a) or measure(*a, **k))
    n = len(base.snapshots)
    psi_spec = PerturbationSpec(target="psi", mode=(1, 1), amplitude=1e-6)
    u_spec = PerturbationSpec(target="u", mode=(1, 0), amplitude=1e-5)

    def experiment(spec, on, params=PARAMS, bundle="full"):
        report = stability_experiment(st, params, cfg, spec, horizon, bundle=bundle, base=on)
        assert len(report.records) == n and report.event is None
        return [(r.total, r.driver) for r in report.records]

    experiment(psi_spec, base)
    assert len(halves) == n
    # the second experiment on the base computes the weak half alone
    second = experiment(u_spec, base)
    assert len(halves) == n and measured == []
    assert second == experiment(u_spec, fresh[0])
    # another bundle or other params form their own halves, none reused
    other = replace(PARAMS, mu=2.0)
    for twin, (params, bundle) in zip(fresh[1:], ((PARAMS, "core"), (other, "full"))):
        before = len(halves)
        on_base = experiment(psi_spec, base, params, bundle)
        assert len(halves) == before + n
        assert on_base == experiment(psi_spec, twin, params, bundle)
    assert measured == []


def test_fit_envelope_short_series():
    recs = [DifferenceRecord(t=0.0, wave_l2=0, wave_grad=0, vel_l2=0, rho_l2=0,
                             total=0.0, driver=1.0)]
    assert fit_envelope(recs) == (None, None, 0.0)


def test_fit_envelope_fits_the_first_half_and_validates_the_second():
    # D = e^t on [0, 2] and e^(2 + 3 (t - 2)) after, H = 1: the fit over the
    # first half gives c_hat = 1, and the second half's growth then exceeds
    # that envelope by e^4 = 54.6 at t = 4, above a passing margin of 10
    ts = np.linspace(0.0, 4.0, 41)
    recs = [DifferenceRecord(t=t, wave_l2=0, wave_grad=0, vel_l2=0, rho_l2=0,
                             total=float(np.exp(t if t <= 2.0 else 2.0 + 3.0 * (t - 2.0))),
                             driver=1.0)
            for t in ts]
    c_hat, margin, total_h = fit_envelope(recs)
    assert c_hat == pytest.approx(1.0, rel=1e-9)
    assert margin == pytest.approx(np.exp(4.0), rel=1e-9) and margin > 10
    assert total_h == pytest.approx(4.0, rel=1e-12)
