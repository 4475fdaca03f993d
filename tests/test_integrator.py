import numpy as np
import pytest

from pitaevskii.cli import main as cli_main
from pitaevskii.config import Config
from pitaevskii.diagnostics import energy_budget
from pitaevskii.grid import make_grid
from pitaevskii.initial_conditions import build_initial_state, plane_wave_state, smooth_state
from pitaevskii.integrator import (
    CflViolation,
    StepConfig,
    StepHistory,
    adaptive_dt,
    ingest,
    run,
    step,
)
from pitaevskii.model import DensityFloorViolation, Params, State
from pitaevskii.snapshot_io import record_row
from pitaevskii.spectral import SpectralPlan, plan_for
from pitaevskii.stability import reduced_ode_oracle

from conftest import random_state_fields, smooth_2d_state

PARAMS = Params(lam=1.0, mu=1.0, nu=0.1, m=0.5, M=1.5, eps=0.2)


def test_step_config_invariants():
    with pytest.raises(ValueError):
        StepConfig(dt_init=1e-3, dt_min=1e-2)
    with pytest.raises(ValueError):
        StepConfig(dt_init=1e-3, cfl=1.5)


def test_constant_field_one_step_closed_form():
    # psi uniform, u = 0: |a(t)|^2 = |a0|^2 / (1 + 2*lam*mu*|a0|^2 t); one
    # Strang step must match to third order locally
    g = make_grid(1, [8], [2 * np.pi])
    a0 = 1.0

    def local_error(dt):
        st = plane_wave_state(g, (0,), a0, (0.0,), 1.0)
        out = step(st, PARAMS, dt)
        exact = a0 ** 2 / (1 + 2 * PARAMS.lam * PARAMS.mu * a0 ** 2 * dt)
        return abs(abs(out.psi.flat[0]) ** 2 - exact)

    e1, e2 = local_error(0.02), local_error(0.01)
    assert e2 > 0
    assert 5.5 <= e1 / e2 <= 12.0  # ratio ~8 for a third-order local error


def test_free_wave_unit_modulus():
    # lam = mu = 0, u = 0: the exact linear substeps preserve the modulus
    params = Params(lam=0.0, mu=0.0, nu=0.1, m=0.5, M=1.5, eps=0.2)
    g = make_grid(1, [8], [2 * np.pi])
    s = plane_wave_state(g, (1,), 1.0, (0.0,), 1.0)
    for _ in range(200):
        s = step(s, params, 0.01)
    assert np.abs(np.abs(s.psi) - 1.0).max() <= 1e-13


def test_plane_wave_matches_oracle_second_order():
    g = make_grid(1, [8], [2 * np.pi])
    k, a0, u0, rho0 = (1,), 0.5 + 0.2j, (0.3,), 1.0
    oracle = reduced_ode_oracle(PARAMS, k, a0, u0, rho0, 0.5, tol=1e-12, n_samples=3)
    carrier = np.exp(1j * g.axis_coordinates(0))

    def pde_error(dt):
        s = plane_wave_state(g, k, a0, u0, rho0)
        for _ in range(int(round(0.5 / dt))):
            s = step(s, PARAMS, dt)
        a = complex((s.psi / carrier).mean())
        return max(
            abs(a - oracle.amp[-1]) / abs(oracle.amp[-1]),
            abs(s.u[0].mean() - oracle.vel[-1, 0]) / abs(oracle.vel[-1, 0]),
            abs(s.rho.mean() - oracle.rho[-1]) / abs(oracle.rho[-1]),
        )

    e1, e2 = pde_error(4e-3), pde_error(2e-3)
    assert e1 <= 1e-6
    assert 3.0 <= e1 / e2 <= 5.5  # ratio ~4 for a second-order method


def test_plane_wave_family_off_2pi_box_matches_oracle_state():
    # the family's lattice mode m is the wavevector 2 pi m / L on any box,
    # the one the oracle integrates, so the state is periodic and inside the
    # dealias ball
    from dataclasses import replace

    from pitaevskii.config import IcConfig

    g = make_grid(2, [16, 16], [3.0, 3.0])
    ic = replace(IcConfig(), family="plane-wave", mode=(1,), velocity=(0.3,),
                 wave_amp=0.5, wave_phase=0.2, rho0=1.1)
    st = build_initial_state(g, PARAMS, ic)
    ref = plane_wave_state(g, (2 * np.pi / 3.0, 0.0), 0.5 * np.exp(0.2j), (0.3, 0.0), 1.1)
    assert np.array_equal(st.psi, ref.psi)
    assert np.array_equal(st.u, ref.u) and np.array_equal(st.rho, ref.rho)
    assert np.abs(plan_for(g).dealias(st.psi) - st.psi).max() <= 1e-12


@pytest.mark.parametrize("key", ["mode", "velocity"])
def test_plane_wave_parameters_reject_more_entries_than_dimensions(key):
    # before, a third entry on a 2D box was dropped (mode) or passed on
    # (velocity) without a word
    from dataclasses import replace

    from pitaevskii.config import IcConfig
    from pitaevskii.initial_conditions import plane_wave_parameters

    ic = replace(IcConfig(), family="plane-wave", **{key: (1, 0, 5)})
    with pytest.raises(ValueError, match=f"^{key} needs at most 2 entries, got 3$"):
        plane_wave_parameters(ic, (2 * np.pi, 2 * np.pi))


def test_adaptive_dt_formula(grid2d):
    cfg = StepConfig(dt_init=1e-3, dt_min=1e-8, dt_max=1.0, cfl=0.4)
    st = smooth_2d_state(grid2d, amp=0.0)
    c0 = max(1.0, 0.5 * grid2d.k_max)
    expect = min(1.0, 0.4 * min(grid2d.dx) / c0)
    assert adaptive_dt(st, cfg) == pytest.approx(expect, rel=1e-12)

    # doubling a large velocity halves the step asymptotically
    st_fast = smooth_2d_state(grid2d, amp=0.0)
    st_fast.u += 200.0
    st_faster = smooth_2d_state(grid2d, amp=0.0)
    st_faster.u += 400.0
    ratio = adaptive_dt(st_fast, cfg) / adaptive_dt(st_faster, cfg)
    assert ratio == pytest.approx(2.0, rel=0.05)

    with pytest.raises(CflViolation):
        adaptive_dt(st_faster, StepConfig(dt_init=1e-3, dt_min=1e-3, dt_max=1e-3))


def test_run_zero_horizon(grid2d):
    st = smooth_2d_state(grid2d)
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.8, M=1.2, eps=0.4)
    traj = run(st, params, StepConfig(dt_init=1e-3), 0.0)
    assert len(traj.records) == 1
    assert traj.records[0].t == 0.0
    assert traj.event is None


def test_run_determinism(grid2d):
    st = smooth_2d_state(grid2d)
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.8, M=1.2, eps=0.4)
    cfg = StepConfig(dt_init=2e-3)
    rows1 = [record_row(r) for r in run(st.copy(), params, cfg, 0.05).records]
    rows2 = [record_row(r) for r in run(st.copy(), params, cfg, 0.05).records]
    assert rows1 == rows2


def test_divergence_stays_small(grid2d):
    st = smooth_2d_state(grid2d)
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.8, M=1.2, eps=0.4)
    plan = plan_for(grid2d)
    worst = 0.0
    state = ingest(st, params)
    for _ in range(25):
        state = step(state, params, 2e-3)
        div = np.abs(plan.divergence(state.u)).max()
        grad_scale = 1.0 + max(np.abs(plan.gradient(state.u[i])).max() for i in range(2))
        worst = max(worst, div / grad_scale)
    assert worst <= 1e-10


def test_mass_monotone_and_drift(grid2d):
    st = smooth_2d_state(grid2d)
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.8, M=1.2, eps=0.4)
    traj = run(st, params, StepConfig(dt_init=1e-3), 0.25)
    mw = np.array([r.mass_wave for r in traj.records])
    assert np.all(np.diff(mw) <= 1e-8 * mw[:-1])
    total = np.array([r.mass_wave + r.mass_fluid for r in traj.records])
    # the 1e-8 contract is pinned at dt = 5e-4; dt = 1e-3 gets the
    # second-order factor (dt/5e-4)^2 = 4
    assert np.abs(total - total[0]).max() <= 4e-8 * total[0]


def test_reversal_symmetry(grid2d):
    # with the dissipative constants off, stepping dt then -dt returns the
    # state to third order
    params = Params(lam=0.0, mu=1.0, nu=0.0, m=0.5, M=1.5, eps=0.2)
    st = ingest(smooth_2d_state(grid2d, amp=0.3), params)

    def return_error(dt):
        fwd = step(st, params, dt)
        back = step(fwd, params, -dt)
        return (
            np.abs(back.psi - st.psi).max()
            + np.abs(back.u - st.u).max()
            + np.abs(back.rho - st.rho).max()
        )

    e1, e2 = return_error(0.02), return_error(0.01)
    # at least third-order return (measured fourth: the leading error terms
    # of the symmetric composition cancel)
    assert e1 / e2 >= 6.0
    assert e1 <= 1e-8


def test_ingest_validation(grid2d):
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.8, M=1.2, eps=0.4)
    st = smooth_2d_state(grid2d)
    st.rho[:] = 2.0  # above M
    with pytest.raises(ValueError):
        ingest(st, params)
    st2 = smooth_2d_state(grid2d)
    st2.t = 1.0
    with pytest.raises(ValueError):
        ingest(st2, params)


def test_ingest_projects_velocity(grid2d, rng):
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.8, M=1.2, eps=0.4)
    psi, u, rho = random_state_fields(grid2d, rng, amp=0.3)
    st = State(0.0, psi, u, rho, grid2d)  # u not divergence-free
    out = ingest(st, params)
    plan = plan_for(grid2d)
    assert np.abs(plan.divergence(out.u)).max() <= 1e-12 * (1 + np.abs(u).max())


def test_blowup_detected(grid2d):
    st = smooth_2d_state(grid2d)
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.8, M=1.2, eps=0.4)
    # absurd fixed step forces an overflow in the explicit stages
    traj = run(st, params, StepConfig(dt_init=1e3, dt_max=1e3), 2e3)
    assert traj.event is not None
    assert traj.event.kind in ("blow-up", "density-floor")


def test_density_floor_event(grid1d):
    params = Params(lam=5.0, mu=0.05, nu=0.1, m=1.0, M=1.0, eps=0.98)
    x = grid1d.axis_coordinates(0)
    psi = 0.8 * (1.0 + 0.9 * np.cos(x))
    st = State(0.0, psi.astype(complex), np.zeros((1,) + grid1d.shape),
               np.full(grid1d.shape, 1.0), grid1d)
    traj = run(st, params, StepConfig(dt_init=1e-3), 0.5)
    assert traj.event is not None
    assert traj.event.kind == "density-floor"
    assert 0 < traj.event.time < 0.5
    assert traj.event.value < params.eps
    assert traj.event.location is not None


def test_density_floor_breach_at_the_midpoint_is_stamped_there(grid1d):
    # the mass exchange pulls the density below the floor already at the
    # fluid substep's midpoint stage: the step raises there, stamped
    # t0 + dt/2, not at the end of the step
    params = Params(lam=5.0, mu=0.05, nu=0.1, m=1.0, M=1.0, eps=0.98)
    x = grid1d.axis_coordinates(0)
    psi = 0.8 * (1.0 + 0.9 * np.cos(x))
    t0, dt = 0.25, 0.125
    st = State(t0, psi.astype(complex), np.zeros((1,) + grid1d.shape),
               np.full(grid1d.shape, 1.0), grid1d)
    with pytest.raises(DensityFloorViolation) as err:
        step(st, params, dt)
    assert err.value.time == t0 + 0.5 * dt
    assert err.value.value < params.eps


@pytest.fixture
def one_iteration_projection(monkeypatch):
    """Cap every density-weighted projection at a single iteration."""
    solve = SpectralPlan.weighted_leray_hat

    def capped(self, vhat, weight, **kwargs):
        return solve(self, vhat, weight, **{**kwargs, "max_iter": 1})

    monkeypatch.setattr(SpectralPlan, "weighted_leray_hat", capped)


def test_projection_failure_event(grid2d, one_iteration_projection):
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.1, M=10.0, eps=0.05)
    st = smooth_2d_state(grid2d, m=params.m, M=params.M)
    traj = run(st, params, StepConfig(dt_init=1e-3), 0.01)
    assert traj.event is not None
    assert traj.event.kind == "projection"
    assert traj.event.time == 0.0
    assert "did not converge" in traj.event.message
    assert len(traj.records) == 1


def test_projection_failure_exit_code(tmp_path, capsys, one_iteration_projection):
    cfg = tmp_path / "contrast.cfg"
    cfg.write_text("grid.d = 2\ngrid.n = 16, 16\nparams.m = 0.1\nparams.M = 10.0\n"
                   "params.epsilon = 0.05\nintegrator.dt_init = 1e-3\nic.family = smooth\n"
                   f"experiment.T = 0.002\noutput.dir = {tmp_path / 'out'}\n")
    assert cli_main(["simulate", str(cfg)]) == 1
    assert "physics event [projection]" in capsys.readouterr().out


@pytest.mark.parametrize("m, M, eps, adaptive", [
    pytest.param(0.1, 10.0, 0.05, False, id="0.1-10.0-0.05"),
    pytest.param(0.1, 10.0, 0.05, True, id="0.1-10.0-0.05-adaptive"),
])
def test_warm_started_run_matches_cold_steps(grid2d, m, M, eps, adaptive):
    # at contrast 16 run() solves every pressure by PCG, warm-started from
    # its pressure history; a loop of step() calls starts each step cold.
    # Both solve to the same tolerance.
    # At fixed dt the cold loop takes 10 steps of dt_init on its own.
    # Adaptive steps put the history's extrapolation nodes at unequal
    # spacing (the CFL proposal drifts with max|u|, and the last step is cut
    # to the horizon); there the cold loop replays the run's accepted dts.
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=m, M=M, eps=eps)
    cfg = StepConfig(dt_init=2.0 ** -10, cfl=0.05, adaptive=adaptive)
    initial = smooth_2d_state(grid2d, m=m, M=M)
    traj = run(initial, params, cfg, 10 * cfg.dt_init)
    assert traj.event is None
    if adaptive:
        dts = np.diff(traj.times)
        assert len(dts) >= 8 and len(np.unique(dts[:-1])) > 1
    else:
        dts = [cfg.dt_init] * 10
    cold = ingest(initial, params)
    for dt in dts:
        cold = step(cold, params, dt)
    warm = traj.final_state
    if adaptive:
        assert warm.t == pytest.approx(cold.t, rel=1e-14)
    else:
        assert warm.t == cold.t
    for a, b in ((warm.psi, cold.psi), (warm.u, cold.u), (warm.rho, cold.rho)):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_split_run_converges_to_cold_steps(grid2d):
    # below contrast 4 a run's warm steps take the pressure split, a
    # different discretization from cold step()'s PCG solves: over the same
    # horizon 10 * 2^-10 their gap must fall at least 4x when dt halves.
    # Measured max|diff|/max|cold|: u 6.55e-12 -> 8.75e-13 (and 1.15e-13 at
    # 2^-12), psi 1.1e-14 -> 2.2e-15, rho 8.5e-14 -> 1.2e-14; the bounds at
    # 2^-11 are these with less than 2x headroom
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.8, M=1.2, eps=0.4)
    initial = smooth_2d_state(grid2d)
    horizon = 10 * 2.0 ** -10
    gaps = []
    for dt in (2.0 ** -10, 2.0 ** -11):
        traj = run(initial, params, StepConfig(dt_init=dt), horizon)
        assert traj.event is None
        cold = ingest(initial, params)
        for _ in range(round(horizon / dt)):
            cold = step(cold, params, dt)
        warm = traj.final_state
        assert warm.t == cold.t
        gaps.append({name: float(np.abs(getattr(warm, name) - getattr(cold, name)).max()
                                 / np.abs(getattr(cold, name)).max())
                     for name in ("psi", "u", "rho")})
    coarse, fine = gaps
    assert coarse["u"] >= 4.0 * fine["u"]
    for name, bound in (("psi", 4e-15), ("u", 1.5e-12), ("rho", 2e-14)):
        assert fine[name] <= bound, name


def test_run_drops_the_propagator_when_dt_changes(grid2d):
    # horizon 7.5 dt: the last step is clamped to dt/2, so the wave
    # propagator the history carries from the seven full steps must not be
    # reused for it.  The replay takes the same steps through one shared
    # history, as run() does, whose propagator is built afresh on every call
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.8, M=1.2, eps=0.4)
    dt = 2.0 ** -10
    initial = smooth_2d_state(grid2d)
    traj = run(initial, params, StepConfig(dt_init=dt), 7.5 * dt)
    assert traj.event is None and len(traj.records) == 9
    assert np.diff(traj.times)[-1] == 0.5 * dt

    class Rebuilding(StepHistory):
        def propagator(self, plan, psi_hat, params, tau):
            return StepHistory().propagator(plan, psi_hat, params, tau)

    history = Rebuilding()
    replay = ingest(initial, params)
    for h in [dt] * 7 + [0.5 * dt]:
        replay = step(replay, params, h, history=history)
    warm = traj.final_state
    assert warm.t == replay.t
    for a, b in ((warm.psi, replay.psi), (warm.u, replay.u), (warm.rho, replay.rho)):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_carried_spectra_match_the_state_and_feed_measure(grid2d):
    # step() hands the history the spectra it formed before its inverse
    # transforms; they equal plan.fft of the state it returns (measured
    # 2.8e-16 relative), and measure() from them equals measure() from the
    # state's own transforms
    from pitaevskii.diagnostics import RECORD_SCALARS, measure

    plan = plan_for(grid2d)
    history = StepHistory()
    st = ingest(smooth_2d_state(grid2d), PARAMS)
    assert history.spectra(st) == (None, None)
    for _ in range(3):
        prev, st = st, step(st, PARAMS, 1e-3, history=history)
    psi_hat, u_hat = history.spectra(st)
    assert history.spectra(st.copy()) == (None, None)     # only for that object
    for carried, field in ((psi_hat, st.psi), (u_hat, st.u)):
        fresh = plan.fft(field)
        assert np.abs(carried - fresh).max() <= 1e-14 * np.abs(fresh).max()
    warm = measure(st, PARAMS, prev_state=prev, psi_hat=psi_hat, u_hat=u_hat)
    cold = measure(st, PARAMS, prev_state=prev)
    for name in RECORD_SCALARS:
        assert getattr(warm, name) == pytest.approx(getattr(cold, name), rel=1e-12, abs=1e-300)
    scale = max(abs(v) for v in cold.momentum)
    assert np.abs(np.subtract(warm.momentum, cold.momentum)).max() <= 1e-12 * max(scale, 1.0)


def test_pressure_history_extrapolates_in_time():
    history = StepHistory()
    assert history.predictor_guess(0.0) is None         # cold start
    assert history.corrector_guess(0.0, 3.0) == 3.0
    history.push(0.0, 1.0, 1.5)                          # step from t = 0
    assert history.predictor_guess(0.1) == 1.0
    assert history.corrector_guess(0.1, 2.0) == 2.5
    history.push(0.1, 2.0, 2.25)                         # step from t = 0.1
    # the lines through (0, 1), (0.1, 2) and (0, 0.5), (0.1, 0.25) at the
    # next step's start, t = 0.3
    assert history.predictor_guess(0.3) == pytest.approx(4.0, rel=1e-14)
    assert history.corrector_guess(0.3, 4.0) == pytest.approx(4.0 - 0.25, rel=1e-14)

    # pressures cubic and offsets quadratic in time are extrapolated exactly
    # from four steps of unequal dt; a fifth step drops the oldest
    def cubic(t):
        return np.array([1.0 + 2.0 * t - 3.0 * t ** 2 + 5.0 * t ** 3, -0.5 * t ** 3 + t])

    def quadratic(t):
        return np.array([0.5 - t + 4.0 * t ** 2, 0.3 * t ** 2])

    starts = [0.0, 0.05, 0.2, 0.23, 0.4]
    history = StepHistory()
    history.push(starts[0], cubic(starts[0]) + 7.0, cubic(starts[0]) - 9.0)   # off both
    for t in starts[1:4]:
        history.push(t, cubic(t), cubic(t) + quadratic(t))
    # four steps: the oldest, off the cubic, still bends the guess
    assert np.abs(history.predictor_guess(starts[4]) - cubic(starts[4])).max() > 1.0
    history.push(starts[4], cubic(starts[4]), cubic(starts[4]) + quadratic(starts[4]))
    t = 0.5
    np.testing.assert_allclose(history.predictor_guess(t), cubic(t), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(history.corrector_guess(t, cubic(t)), cubic(t) + quadratic(t),
                               rtol=1e-12, atol=1e-12)


def test_split_guesses_are_exact_on_lines_in_time():
    # the split's p* are lines: exact on predictor pressures and offsets
    # linear in time at unequal dt, from the last two steps only, and None
    # before two steps started before t
    def line(t):
        return np.array([1.0 - 2.0 * t, 0.5 + 3.0 * t])

    def offset(t):
        return np.array([0.25 * t - 1.0, -t])

    history = StepHistory()
    history.push(0.0, line(0.0) + 7.0, line(0.0) - 9.0)        # off both lines
    assert history.split_predictor(0.1) is None
    assert history.split_corrector(0.1, line(0.1)) is None
    for t in (0.03, 0.2):
        history.push(t, line(t), line(t) + offset(t))
    t = 0.35
    np.testing.assert_allclose(history.split_predictor(t), line(t), rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(history.split_corrector(t, line(t)), line(t) + offset(t),
                               rtol=1e-14, atol=1e-14)
    # only steps that started before t count: at t = 0.2 the lines run
    # through the steps from 0 and 0.03, and a retry from 0.03 has one
    # earlier step
    assert np.abs(history.split_predictor(0.2) - line(0.2)).max() > 1.0
    assert history.split_predictor(0.03) is None
    assert np.array_equal(history.predictor_guess(0.03), line(0.0) + 7.0)


def test_run_takes_the_split_on_warm_low_contrast_stages(grid2d, monkeypatch):
    # 8 steps: at contrast 1.44 PCG solves only the two stages of the first
    # two steps, the split the other twelve; at contrast 16 PCG solves all
    # sixteen
    calls = []

    def counting(name):
        solve = getattr(SpectralPlan, name)

        def counted(self, *args, **kwargs):
            calls.append(name)
            return solve(self, *args, **kwargs)
        return counted

    for name in ("weighted_leray_hat", "split_leray_hat"):
        monkeypatch.setattr(SpectralPlan, name, counting(name))
    dt = 2.0 ** -11
    for m, M, eps, weighted in ((0.8, 1.2, 0.4, 4), (0.1, 10.0, 0.05, 16)):
        params = Params(lam=1.0, mu=1.0, nu=0.1, m=m, M=M, eps=eps)
        calls.clear()
        traj = run(smooth_2d_state(grid2d, m=m, M=M), params, StepConfig(dt_init=dt), 8 * dt)
        assert traj.event is None and len(traj.records) == 9
        assert calls.count("weighted_leray_hat") == weighted
        assert calls.count("split_leray_hat") == 16 - weighted
        assert calls[:4] == ["weighted_leray_hat"] * 4


def test_step_pushes_its_start_time(grid2d):
    # the history's nodes are the steps' start times: at unequal dt an
    # end-time node is off by that step's dt
    pushed = []

    class Recording(StepHistory):
        def push(self, t, predictor, corrector):
            pushed.append(t)
            super().push(t, predictor, corrector)

    history = Recording()
    st = ingest(smooth_2d_state(grid2d), PARAMS)
    for dt in (1e-3, 5e-4, 2e-3):
        st = step(st, PARAMS, dt, history=history)
    assert pushed == [0.0, 1e-3, 1e-3 + 5e-4]


def test_retried_step_replaces_its_history_entry(grid2d):
    # a step taken again from the same state (a retry) pushes the same start
    # time again; two nodes at one time made the next step's extrapolation
    # divide by zero.  The retry replaces the first attempt, so the steps
    # after it match a sequence without the retry.
    dt = 1e-3
    initial = ingest(smooth_2d_state(grid2d), PARAMS)

    def steps(retry):
        history = StepHistory()
        st = initial
        for i in range(5):
            if i == retry:
                step(st, PARAMS, dt, history=history)
            st = step(st, PARAMS, dt, history=history)
        return st

    plain, retried = steps(None), steps(2)
    assert retried.t == plain.t
    for a, b in ((retried.psi, plain.psi), (retried.u, plain.u), (retried.rho, plain.rho)):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


@pytest.mark.parametrize("case", ["2d-contrast-3.9", "2d-contrast-16", "3d"])
def test_energy_equality_is_second_order(case):
    # max|r|/E0 of the energy budget at dt = 2e-3 and 1e-3:
    # 2D 32^2 at density range [1, 4.84] (contrast 3.90, the top of the
    # pressure split's range) to T = 0.5 measured 9.90e-7 and 2.48e-7;
    # 2D 32^2 at density range [0.1, 10] (the high-contrast preconditioner)
    # to T = 0.1 measured 2.80e-7 and 7.07e-8; 3D 16^3 standard smooth data
    # to T = 0.1 1.12e-6 and 2.81e-7
    horizon = 0.1
    if case == "3d":
        grid = make_grid(3, [16] * 3, [2 * np.pi] * 3)
        params = Config().params
        initial = smooth_state(grid, params, 0.4)
    else:
        grid = make_grid(2, [32] * 2, [2 * np.pi] * 2)
        if case == "2d-contrast-16":
            params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.1, M=10.0, eps=0.05)
        else:
            params = Params(lam=1.0, mu=1.0, nu=0.1, m=1.0, M=4.84, eps=0.5)
            horizon = 0.5
        initial = smooth_2d_state(grid, m=params.m, M=params.M)
    residuals = []
    for dt in (2e-3, 1e-3):
        traj = run(initial, params, StepConfig(dt_init=dt), horizon)
        assert traj.event is None
        residuals.append(float(np.abs(energy_budget(traj.records)).max() / traj.records[0].energy))
    order = float(np.log2(residuals[0] / residuals[1]))
    print(f"{case}: max|r|/E0 = {residuals[0]:.3e}, {residuals[1]:.3e}, order {order:.3f}")
    assert 1.7 <= order <= 2.3


def test_adaptive_run_stays_stable(grid2d):
    # the CFL-chosen step keeps the standard smooth data well-posed
    st = smooth_2d_state(grid2d)
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.8, M=1.2, eps=0.4)
    cfg = StepConfig(dt_init=5e-3, dt_min=1e-7, dt_max=5e-3, adaptive=True)
    traj = run(st, params, cfg, 0.1)
    assert traj.event is None
    mw = [r.mass_wave for r in traj.records]
    assert all(b <= a * (1 + 1e-8) for a, b in zip(mw, mw[1:]))


def test_observers_called(grid2d):
    st = smooth_2d_state(grid2d)
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.8, M=1.2, eps=0.4)
    seen = []
    run(st, params, StepConfig(dt_init=2e-3), 0.01,
        observers=[lambda t, state, rec: seen.append((t, rec.energy))])
    assert len(seen) == 5
    assert all(t2 > t1 for (t1, _), (t2, _) in zip(seen, seen[1:]))

