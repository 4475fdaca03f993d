import pickle

import numpy as np
import pytest

from pitaevskii import integrator
from pitaevskii.cli import main as cli_main
from pitaevskii.config import Config
from pitaevskii.diagnostics import energy_budget
from pitaevskii.grid import make_grid, pointwise_dot
from pitaevskii.initial_conditions import build_initial_state, plane_wave_state, smooth_state
from pitaevskii.integrator import (
    StepConfig,
    StepHistory,
    _wave_propagator,
    _wave_substep,
    adaptive_dt,
    ingest,
    run,
    step,
)
from pitaevskii.model import (
    Params,
    PhysicsEvent,
    Spectra,
    State,
    cubic_product,
    psi_and_gradient,
    spectra_of,
)
from pitaevskii.snapshot_io import record_row
from pitaevskii.spectral import SpectralPlan, plan_for
from pitaevskii.stability import reduced_ode_oracle

from conftest import random_state_fields, smooth_2d_state, use_untruncated_split

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

    with pytest.raises(PhysicsEvent) as err:
        adaptive_dt(st_faster, StepConfig(dt_init=1e-3, dt_min=1e-3, dt_max=1e-3))
    assert err.value.kind == "cfl"


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


def test_ingest_projects_as_leray_project_bit_for_bit(grid2d, rng):
    # ingest projects on the spectrum and skips the potential's transform;
    # its velocity is leray_project's to the bit
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.8, M=1.2, eps=0.4)
    psi, u, rho = random_state_fields(grid2d, rng, amp=0.3)
    out = ingest(State(0.0, psi, u, rho, grid2d), params)
    plan = plan_for(grid2d)
    assert np.array_equal(out.u, plan.leray_project(plan.dealias(u))[0])
    assert np.array_equal(out.psi, plan.dealias(psi))
    assert np.array_equal(out.rho, plan.dealias(rho))


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
    with pytest.raises(PhysicsEvent) as err:
        step(st, params, dt)
    assert err.value.kind == "density-floor"
    assert err.value.time == t0 + 0.5 * dt
    assert err.value.value < params.eps


@pytest.fixture
def one_iteration_projection(monkeypatch):
    """Cap every density-weighted projection at a single iteration."""
    solve = SpectralPlan.weighted_leray_hat

    def capped(self, vhat, weight, **kwargs):
        return solve(self, vhat, weight, **{**kwargs, "max_iter": 1})

    monkeypatch.setattr(SpectralPlan, "weighted_leray_hat", capped)


def test_projection_failure_exit_code(tmp_path, capsys, one_iteration_projection):
    cfg = tmp_path / "contrast.cfg"
    cfg.write_text("grid.d = 2\ngrid.n = 16, 16\nparams.m = 0.1\nparams.M = 10.0\n"
                   "params.epsilon = 0.05\nintegrator.dt_init = 1e-3\nic.family = smooth\n"
                   f"experiment.T = 0.002\noutput.dir = {tmp_path / 'out'}\n")
    assert cli_main(["simulate", str(cfg)]) == 1
    assert "physics event [projection]" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["density-floor", "blow-up", "cfl", "projection"])
def test_run_keeps_one_event_per_kind_without_its_traceback(grid2d, request, monkeypatch, kind):
    # each way a run ends early gives one PhysicsEvent, kept without the
    # traceback that would hold the failed step's frames and fields, and
    # the records taken before it
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.8, M=1.2, eps=0.4)
    initial, cfg = smooth_2d_state(grid2d), StepConfig(dt_init=1e-3)
    if kind == "density-floor":
        params = Params(lam=5.0, mu=0.05, nu=0.1, m=1.0, M=1.0, eps=0.98)
        initial, cfg = _floor_breach_2d(grid2d), StepConfig(dt_init=4e-3)
    elif kind == "blow-up":
        fluid = integrator._fluid_substep

        def nan_velocity(*args):
            u, *rest = fluid(*args)
            return (np.full_like(u, np.nan), *rest)

        monkeypatch.setattr(integrator, "_fluid_substep", nan_velocity)
    elif kind == "cfl":
        cfg = StepConfig(dt_init=0.5, dt_min=0.5, dt_max=0.5, adaptive=True)
    else:
        request.getfixturevalue("one_iteration_projection")
        params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.1, M=10.0, eps=0.05)
        initial = smooth_2d_state(grid2d, m=params.m, M=params.M)
    traj = run(initial, params, cfg, 0.05)
    event = traj.event
    assert isinstance(event, PhysicsEvent) and event.kind == kind
    assert len(traj.records) == (7 if kind == "density-floor" else 1)
    assert event.__traceback__ is None
    assert str(event) == event.message
    fields = (event.kind, event.time, event.message, event.location, event.value)
    copied = pickle.loads(pickle.dumps(event))
    assert (copied.kind, copied.time, copied.message, copied.location, copied.value) == fields
    if kind == "density-floor":
        assert event.time == pytest.approx(0.026, rel=1e-12)
        assert event.location == (21, 0) and event.value < params.eps
        assert event.message == (f"density {event.value:.6g} fell below the floor 0.98 at "
                                 f"t=0.026, node (21, 0)")
        return
    assert event.time == 0.0 and event.location is None and event.value is None
    if kind == "projection":
        assert event.message.startswith("density-weighted projection did not converge: ")
        assert event.message.endswith(" after 1 iterations")
        return
    assert event.message == {
        "blow-up": "non-finite values in step output; last valid time t=0",
        "cfl": "CFL-admissible dt 9.350e-03 below dt_min 5.000e-01 at t=0",
    }[kind]


@pytest.mark.parametrize("m, M, eps, adaptive, bounds", [
    pytest.param(0.1, 10.0, 0.05, False, {"psi": 8e-13, "u": 1e-9, "rho": 5e-11},
                 id="0.1-10.0-0.05"),
    pytest.param(0.1, 10.0, 0.05, True, {"psi": 1.2e-12, "u": 1.5e-9, "rho": 8e-11},
                 id="0.1-10.0-0.05-adaptive"),
])
def test_warm_started_run_matches_cold_steps(grid2d, m, M, eps, adaptive, bounds):
    # at contrast 16 a run's predictor stages take the pressure split from
    # the second step on, with p* the line through the last two corrector
    # pressures, and its correctors solve by PCG from the history's cubic;
    # a loop of step() calls solves every stage cold by PCG.  The two are
    # different discretizations: over the horizon 10 * 2^-10 their gap must
    # fall at least 3.5x at each halving of dt (a second-order gap falls
    # 4x).  At fixed dt the cold loop takes the run's steps of dt_init.
    # Adaptive steps put the history's nodes at unequal spacing (the CFL
    # proposal drifts with max|u|, and the last step is cut to the
    # horizon); there cfl halves with dt_init and the cold loop replays the
    # run's accepted dts.  Measured max|diff|/max|cold| in u at 2^-10 to
    # 2^-13: 2.34e-9, 5.82e-10, 1.45e-10, 3.63e-11 (x4.01, x4.01, x4.00);
    # adaptive 3.23e-9, 8.17e-10, 2.06e-10 (x3.95, x3.97).  The bounds at
    # 2^-11 are the measured gaps with less than 2x headroom
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=m, M=M, eps=eps)
    initial = smooth_2d_state(grid2d, m=m, M=M)
    horizon = 10 * 2.0 ** -10
    gaps = []
    for halvings in range(3):
        cfg = StepConfig(dt_init=2.0 ** (-10 - halvings), cfl=0.05 / 2 ** halvings,
                         adaptive=adaptive)
        traj = run(initial, params, cfg, horizon)
        assert traj.event is None
        if adaptive:
            dts = np.diff(traj.times)
            assert len(dts) >= 8 and len(np.unique(dts[:-1])) > 1
        else:
            dts = [cfg.dt_init] * round(horizon / cfg.dt_init)
        cold = ingest(initial, params)
        for dt in dts:
            cold = step(cold, params, dt)
        warm = traj.final_state
        if adaptive:
            assert warm.t == pytest.approx(cold.t, rel=1e-14)
        else:
            assert warm.t == cold.t
        gaps.append({name: float(np.abs(getattr(warm, name) - getattr(cold, name)).max()
                                 / np.abs(getattr(cold, name)).max())
                     for name in ("psi", "u", "rho")})
    coarse, mid, fine = gaps
    for name in ("psi", "u", "rho"):
        assert coarse[name] >= 3.5 * mid[name], name
        assert mid[name] >= 3.5 * fine[name], name
        assert mid[name] <= bounds[name], name


def test_split_run_converges_to_cold_steps(grid2d):
    # below contrast 4 a run's steps from the second on take the pressure
    # split, a different discretization from cold step()'s PCG solves: over
    # the same horizon 10 * 2^-10 their gap must fall at least 6x at each
    # halving of dt (a third-order gap falls 8x).  Measured
    # max|diff|/max|cold|: u 1.61e-10 -> 1.06e-11 -> 1.32e-12 (x15.2,
    # x8.02; 1.73e-13 at 2^-13, x7.62), psi 1.9e-13 -> 2.4e-14, rho 7.2e-13
    # -> 8.9e-14; the bounds at 2^-11 are these with less than 2x headroom.
    # While PCG's correction was not truncated and the split's remainder
    # was, u's gap fell only x6.56 and then x2.91, to 5.6e-13 at 2^-13: a
    # gap between the two that fell with the grid, not with dt
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.8, M=1.2, eps=0.4)
    initial = smooth_2d_state(grid2d)
    horizon = 10 * 2.0 ** -10
    gaps = []
    for dt in (2.0 ** -10, 2.0 ** -11, 2.0 ** -12):
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
    coarse, mid, fine = gaps
    assert coarse["u"] >= 6.0 * mid["u"]
    assert mid["u"] >= 6.0 * fine["u"]
    for name, bound in (("psi", 4e-14), ("u", 2e-11), ("rho", 1.5e-13)):
        assert mid[name] <= bound, name


def test_run_drops_the_propagator_when_dt_changes(grid2d):
    # horizon 7.5 dt: the last step is clamped to dt/2, so the wave
    # propagator and the Helmholtz factor the history carries from the seven
    # full steps must not be reused for it.  The replay takes the same steps
    # through one shared history, as run() does, whose propagators are built
    # afresh on every call
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.8, M=1.2, eps=0.4)
    dt = 2.0 ** -10
    initial = smooth_2d_state(grid2d)
    traj = run(initial, params, StepConfig(dt_init=dt), 7.5 * dt)
    assert traj.event is None and len(traj.records) == 9
    assert np.diff(traj.times)[-1] == 0.5 * dt

    class Rebuilding(StepHistory):
        def propagators(self, plan, psi_hat, u_hat, params, dt):
            return StepHistory().propagators(plan, psi_hat, u_hat, params, dt)

    history = Rebuilding()
    replay = ingest(initial, params)
    for h in [dt] * 7 + [0.5 * dt]:
        replay = step(replay, params, h, history=history)
    warm = traj.final_state
    assert warm.t == replay.t
    for a, b in ((warm.psi, replay.psi), (warm.u, replay.u), (warm.rho, replay.rho)):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_carried_spectra_match_the_state_and_feed_measure(grid2d, monkeypatch):
    # step() leaves on the history's carried slot the spectra it formed
    # before its inverse transforms; they equal plan.fft of the state it
    # returns (measured 2.8e-16 relative), and measure() from them equals
    # measure() from the state's own transforms.  A step from another State
    # object transforms that state itself
    from pitaevskii.diagnostics import RECORD_SCALARS, measure

    plan = plan_for(grid2d)
    history = StepHistory()
    st = ingest(smooth_2d_state(grid2d), PARAMS)
    assert history.carried is None
    for _ in range(3):
        prev, st = st, step(st, PARAMS, 1e-3, history=history)
    carried_state, psi_hat, u_hat = history.carried[:3]
    assert carried_state is st
    for carried, field in ((psi_hat, st.psi), (u_hat, st.u)):
        fresh = plan.fft(field)
        assert np.abs(carried - fresh).max() <= 1e-14 * np.abs(fresh).max()
    warm = measure(st, PARAMS, prev_state=prev, spectra=history.carried)
    cold = measure(st, PARAMS, prev_state=prev)
    for name in RECORD_SCALARS:
        assert getattr(warm, name) == pytest.approx(getattr(cold, name), rel=1e-12, abs=1e-300)
    scale = max(abs(v) for v in cold.momentum)
    assert np.abs(np.subtract(warm.momentum, cold.momentum)).max() <= 1e-12 * max(scale, 1.0)

    started = []
    wave_substep = integrator._wave_substep

    def recording_wave(plan, psi_hat, *args):
        started.append(psi_hat)
        return wave_substep(plan, psi_hat, *args)

    monkeypatch.setattr(integrator, "_wave_substep", recording_wave)
    step(st.copy(), PARAMS, 1e-3, history=history)      # only for that object
    assert started[0] is not psi_hat and np.array_equal(started[0], plan.fft(st.psi))


def test_carried_stack_is_handed_out_once_and_feeds_measure(grid2d, monkeypatch):
    # step() leaves [psi, grad(psi)] of its output on the carried slot,
    # formed in its last inverse transform: the stack of the carried
    # spectrum to the bit, held apart from the state's psi, and beside it
    # the products |u|^2, |psi|^2 psi and u.grad(psi) of that state, to the
    # bit.  measure() given the slot returns the record it forms from the
    # same spectra with fresh products, field for field.  The next
    # step empties the slot; the old stack, |psi|^2 psi and u.grad(psi) are
    # gone by the fluid substep, whose predictor takes the carried |u|^2
    import weakref

    from pitaevskii.diagnostics import measure

    plan = plan_for(grid2d)
    history = StepHistory()
    st = ingest(smooth_2d_state(grid2d), PARAMS)
    for _ in range(3):
        prev, st = st, step(st, PARAMS, 1e-3, history=history)
    _, psi_hat, u_hat, stack, speed2, cubic, u_dot_grad = history.carried
    assert np.array_equal(stack, psi_and_gradient(plan, psi_hat))
    assert np.array_equal(stack[0], st.psi)
    assert not np.shares_memory(st.psi, stack)
    assert np.array_equal(speed2, pointwise_dot(st.u, st.u))
    assert np.array_equal(cubic, cubic_product(st.psi))
    assert np.array_equal(u_dot_grad, pointwise_dot(st.u, stack[1:]))
    rebuilt = psi_and_gradient(plan, psi_hat)
    fresh = Spectra(st, psi_hat, u_hat, rebuilt, pointwise_dot(st.u, st.u), cubic_product(st.psi),
                    pointwise_dot(st.u, rebuilt[1:]))
    assert measure(st, PARAMS, prev_state=prev, spectra=history.carried) == \
        measure(st, PARAMS, prev_state=prev, spectra=fresh)

    entered = []
    fluid_substep = integrator._fluid_substep

    def recording_fluid(*args):
        entered.append((history.carried, [ref() for ref in carried], args[7] is speed2))
        return fluid_substep(*args)

    monkeypatch.setattr(integrator, "_fluid_substep", recording_fluid)
    carried = [weakref.ref(a) for a in (stack, cubic, u_dot_grad)]
    del stack, cubic, u_dot_grad
    assert all(ref() is not None for ref in carried)    # the slot holds them
    new = step(st, PARAMS, 1e-3, history=history)
    assert entered == [(None, [None, None, None], True)]
    assert history.carried[0] is new


def test_run_hands_the_carried_stack_to_measure_and_the_next_step(grid2d, monkeypatch):
    # every wave substep of a run starts from psi_and_gradient of its
    # spectrum to the bit; the first one of each step and each measure()
    # read the very stack that the step before formed (the initial one:
    # that run() formed after ingest), apart from the state's psi, and the
    # very |psi|^2 psi formed beside it.  Every Spectra handed to measure(),
    # the initial one included, is for the state measured and holds the
    # products of its own stack to the bit
    plan = plan_for(grid2d)
    waves, measured = [], []
    wave_substep, measure = integrator._wave_substep, integrator.measure

    def recording_wave(plan, psi_hat, fields, cubic, *args):
        waves.append((psi_hat, fields, cubic))
        return wave_substep(plan, psi_hat, fields, cubic, *args)

    def recording_measure(state, params, prev_state=None, *, spectra):
        assert spectra.state is state
        measured.append(spectra)
        return measure(state, params, prev_state, spectra=spectra)

    monkeypatch.setattr(integrator, "_wave_substep", recording_wave)
    monkeypatch.setattr(integrator, "measure", recording_measure)
    dt = 2.0 ** -10
    traj = run(smooth_2d_state(grid2d), PARAMS, StepConfig(dt_init=dt), 4 * dt)
    assert traj.event is None and len(waves) == 8 and len(measured) == 5
    for psi_hat, fields, _ in waves:
        assert np.array_equal(fields, psi_and_gradient(plan, psi_hat))
    for n, (state, psi_hat, _, stack, speed2, cubic, u_dot_grad) in enumerate(measured):
        grad_psi = stack[1:]
        assert np.array_equal(grad_psi, psi_and_gradient(plan, psi_hat)[1:])
        assert not np.shares_memory(state.psi, grad_psi)
        assert np.array_equal(speed2, pointwise_dot(state.u, state.u))
        assert np.array_equal(cubic, cubic_product(stack[0]))
        assert np.array_equal(u_dot_grad, pointwise_dot(state.u, grad_psi))
        if n < 4:
            first_psi_hat, fields, first_cubic = waves[2 * n]
            assert first_psi_hat is psi_hat and np.shares_memory(fields, grad_psi)
            # record 0 too reads the slot's own |psi|^2 psi
            assert first_cubic is cubic
            if n:
                assert np.array_equal(fields[0], state.psi)


def test_run_records_equal_measure_of_the_stored_states(grid2d):
    # each record of a run reads the spectra, stack and products the step
    # carried; it equals measure() of the stored state on its own (formed
    # from the state's fields alone) to round-off
    from pitaevskii.diagnostics import RECORD_SCALARS, measure

    dt = 2.0 ** -10
    traj = run(smooth_2d_state(grid2d), PARAMS, StepConfig(dt_init=dt), 4 * dt,
               store_states=True)
    assert traj.event is None and len(traj.records) == len(traj.snapshots) == 5
    for n, (rec, state) in enumerate(zip(traj.records, traj.snapshots)):
        cold = measure(state, PARAMS, traj.snapshots[n - 1] if n else None)
        for name in RECORD_SCALARS:
            assert getattr(rec, name) == pytest.approx(getattr(cold, name), rel=1e-12,
                                                       abs=1e-300), (n, name)
        assert rec.momentum == pytest.approx(cold.momentum, rel=1e-12, abs=1e-14)


def test_in_place_transforms_leave_borrowed_arrays_as_they_are(grid2d):
    # the complex transforms that run in place write only into buffers
    # their caller formed: every array handed to these bodies, the state's
    # fields and the carried spectra, stack and products included, keeps
    # its bits through the call.  The last two steps start from the
    # carried slot and from the state's own fields (spectra_of)
    from pitaevskii.diagnostics import measure
    from pitaevskii.model import coupling_hat, velocity_rhs_hat, wave_nonlinear_hat

    plan = plan_for(grid2d)
    history = StepHistory()
    prev = ingest(smooth_2d_state(grid2d), PARAMS)
    st = step(prev, PARAMS, 1e-3, history=history)
    carried = history.carried
    _, psi_hat, u_hat, stack, speed2, cubic, u_dot_grad = carried
    psi, u, rho, grad_psi = st.psi, st.u, st.rho, stack[1:]
    borrowed = [psi, u, rho, prev.psi, prev.u, prev.rho, psi_hat, u_hat, stack, speed2, cubic,
                u_dot_grad]
    kept = [a.copy() for a in borrowed]
    calls = {
        "psi_and_gradient": lambda: psi_and_gradient(plan, psi_hat),
        "spectra_of": lambda: spectra_of(plan, st),
        "coupling_hat": lambda: coupling_hat(plan, psi, psi_hat, grad_psi, u, speed2, cubic,
                                             PARAMS, u_dot_grad=u_dot_grad),
        "wave_nonlinear_hat": lambda: wave_nonlinear_hat(plan, psi, grad_psi, cubic, u, speed2,
                                                         PARAMS, u_dot_grad=u_dot_grad),
        "velocity_rhs_hat": lambda: velocity_rhs_hat(plan, psi, psi_hat, grad_psi, cubic, u,
                                                     u_hat, speed2, rho, PARAMS),
        "measure": lambda: measure(st, PARAMS, prev, spectra=carried),
        "measure, cold": lambda: measure(st, PARAMS, prev),
        "step, carried": lambda: step(st, PARAMS, 1e-3, history=history),
        "step, lone": lambda: step(st, PARAMS, 1e-3),
    }
    for name, call in calls.items():
        call()
        for a, b in zip(borrowed, kept):
            assert np.array_equal(a, b), name
    assert history.carried.state is not st      # the carried step took the slot


def test_wave_substep_is_second_order(grid2d):
    # u frozen, lam, mu > 0: the integrating-factor midpoint's error at
    # T = 0.32 against a run at a 16x finer tau falls about 4x at each
    # halving of tau (measured 5.78e-4, 1.39e-4, 3.40e-5: 4.16x, 4.09x)
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.8, M=1.2, eps=0.4)
    st = ingest(smooth_2d_state(grid2d, amp=0.8), params)
    plan = plan_for(grid2d)
    horizon = 0.32

    def advance(tau):
        psi_hat = plan.fft(st.psi)
        lin = _wave_propagator(plan, psi_hat, params, tau)
        speed2 = pointwise_dot(st.u, st.u)
        for _ in range(round(horizon / tau)):
            fields = psi_and_gradient(plan, psi_hat)
            psi_hat = _wave_substep(plan, psi_hat, fields, cubic_product(fields[0]), st.u, speed2,
                                    params, tau, lin)
        return plan.ifft(psi_hat, st.psi)

    taus = (0.04, 0.02, 0.01)
    reference = advance(taus[-1] / 16)
    errors = [float(np.abs(advance(tau) - reference).max()) for tau in taus]
    print(f"wave substep errors {errors}, ratios {errors[0] / errors[1]:.3f}, "
          f"{errors[1] / errors[2]:.3f}")
    assert errors[0] / errors[1] >= 3.5 and errors[1] / errors[2] >= 3.5


def test_pressure_history_extrapolates_in_time():
    # the corrector pressures' curve: the Lagrange polynomial through the
    # last `count` stored corrector pressures at their steps' midpoints
    history = StepHistory()
    assert history.corrector_curve(0.0, 4, 0.0) is None     # cold start
    history.push(0.0, 0.1, 1.0, 1.5)                        # step from t = 0
    assert history.corrector_curve(0.1, 4, 0.15) == 1.5
    assert history.corrector_curve(0.0, 4, 0.05) is None    # a retry from 0
    history.push(0.1, 0.2, 2.0, 2.25)                       # step from t = 0.1
    # the line through (0.05, 1.5) and (0.2, 2.25), at 0.3 and 0.35
    assert history.corrector_curve(0.3, 2, 0.3) == pytest.approx(2.75, rel=1e-14)
    assert history.corrector_curve(0.3, 4, 0.35) == pytest.approx(3.0, rel=1e-14)

    # corrector pressures cubic in time are extrapolated exactly from four
    # steps of unequal dt, lines from two; the predictor pressures play no
    # part, and a fifth step drops the oldest
    def cubic(t):
        return np.array([1.0 + 2.0 * t - 3.0 * t ** 2 + 5.0 * t ** 3, -0.5 * t ** 3 + t])

    def line(t):
        return np.array([0.5 - t, 3.0 * t])

    starts = [0.0, 0.05, 0.2, 0.23, 0.4]
    for curve, count in ((cubic, 4), (line, 2)):
        history = StepHistory()
        history.push(starts[0], starts[1], 3.0, curve(0.5 * starts[1]) - 9.0)   # off the curve
        for t, t_next in zip(starts[1:4], starts[2:5]):
            history.push(t, t_next - t, np.sin(t), curve(0.5 * (t + t_next)))
        if count == 4:
            # four steps: the oldest, off the cubic, still bends the guess
            assert np.abs(history.corrector_curve(0.4, 4, 0.45) - cubic(0.45)).max() > 1.0
        history.push(starts[4], 0.1, -7.0, curve(0.45))
        for at in (0.5, 0.55):
            np.testing.assert_allclose(history.corrector_curve(0.5, count, at), curve(at),
                                       rtol=1e-12, atol=1e-12)


def test_split_guesses_are_exact_on_lines_in_time():
    # the split's p* are lines: exact on predictor pressures and offsets
    # linear in time at unequal dt, from the last two steps only.  After
    # one step the predictor's line runs through that step's two pressure
    # nodes, its predictor pressure at its start t1 and its corrector
    # pressure at its midpoint t1 + dt1/2, and the corrector's p* is its
    # predictor pressure plus the stored offset.  None with no step that
    # started before t
    def line(t):
        return np.array([1.0 - 2.0 * t, 0.5 + 3.0 * t])

    def offset(t):
        return np.array([0.25 * t - 1.0, -t])

    history = StepHistory()
    assert history.split_guess(0.1) is None
    assert history.split_guess(0.1, line(0.1)) is None

    # one step from t1 whose pressure is linear in time: the next step's
    # predictor p* is exact at its start t1 + dt1, whatever its own dt
    # (equal or unequal to dt1), and at any later time; at equal dt its
    # corrector p* is exact at its midpoint t1 + 1.5 dt1
    for t1, dt1 in ((0.0, 0.1), (0.05, 0.02)):
        history = StepHistory()
        history.push(t1, dt1, line(t1), line(t1 + 0.5 * dt1))
        for t in (t1 + dt1, t1 + 3.7 * dt1):
            np.testing.assert_allclose(history.split_guess(t), line(t), rtol=1e-14,
                                       atol=1e-14)
        t2 = t1 + dt1
        np.testing.assert_allclose(history.split_guess(t2, line(t2)), line(t2 + 0.5 * dt1),
                                   rtol=1e-14, atol=1e-14)
        # a retry from t1, whose only stored step is its own attempt
        assert history.split_guess(t1) is None
        assert history.split_guess(t1, line(t1)) is None

    history = StepHistory()
    history.push(0.0, 0.03, line(0.0) + 7.0, line(0.0) - 9.0)    # off both lines
    for t, dt in ((0.03, 0.17), (0.2, 0.15)):
        history.push(t, dt, line(t), line(t) + offset(t))
    t = 0.35
    np.testing.assert_allclose(history.split_guess(t), line(t), rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(history.split_guess(t, line(t)), line(t) + offset(t),
                               rtol=1e-14, atol=1e-14)
    # only steps that started before t count: at t = 0.2 the lines run
    # through the steps from 0 and 0.03, and a retry from 0.03 takes the
    # line through the two nodes of the step from 0, (0, line(0) + 7) and
    # (0.015, line(0) - 9), which reaches line(0) - 25 at 0.03
    assert np.abs(history.split_guess(0.2) - line(0.2)).max() > 1.0
    np.testing.assert_allclose(history.split_guess(0.03), line(0.0) - 25.0, rtol=1e-14,
                               atol=1e-14)
    assert history.split_guess(0.0) is None
    assert np.array_equal(history.corrector_curve(0.03, 4, 0.03), line(0.0) - 9.0)


def test_pressure_guesses_are_exact_on_polynomials_of_their_degree():
    # seeded draws of non-uniform start times and of vector polynomials in
    # time.  corrector_curve through k stored corrector pressures (count k
    # or more) is exact on polynomials of degree k - 1; split_guess is
    # exact on predictor pressures and offsets linear in time, and after one
    # step on pressures linear in time (its predictor's p*) and on a
    # constant offset (its corrector's)
    rng = np.random.default_rng(29)

    def poly(degree):
        coeffs = rng.uniform(-1.0, 1.0, size=(degree + 1, 2))
        return lambda t: sum(c * t ** i for i, c in enumerate(coeffs))

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-11)

    for _ in range(40):
        stored = int(rng.integers(1, 5))
        starts = rng.uniform(-1.0, 1.0) + np.cumsum(rng.uniform(0.05, 0.2, size=stored + 1))
        dts = np.diff(starts)
        t = starts[-1]
        at = t + rng.uniform(0.0, 0.2)
        noise = [rng.uniform(-9.0, 9.0, size=2) for _ in range(stored)]

        # corrector pressures on a polynomial through the stored midpoints
        curve = poly(stored - 1)
        history = StepHistory()
        for ti, dti, p in zip(starts, dts, noise):
            history.push(ti, dti, p, curve(ti + 0.5 * dti))
        for count in range(stored, 5):
            close(history.corrector_curve(t, count, at), curve(at))

        # predictor pressures and offsets on lines
        line, offset = poly(1), poly(0 if stored == 1 else 1)
        history = StepHistory()
        for ti, dti in zip(starts, dts):
            history.push(ti, dti, line(ti), line(ti) + offset(ti))
        close(history.split_guess(t, line(t)), line(t) + offset(t))
        if stored > 1:
            close(history.split_guess(t), line(t))
        # after one step, a pressure linear in time through its two nodes
        history = StepHistory()
        history.push(starts[0], dts[0], line(starts[0]), line(starts[0] + 0.5 * dts[0]))
        close(history.split_guess(at), line(at))


def test_run_takes_the_split_on_warm_low_contrast_stages(grid2d, monkeypatch):
    # 8 steps: at contrast 1.44 and 3.90 (just below the split's threshold
    # of 4) PCG solves only the two stages of the first step, the split's
    # body split_leray_hat the other fourteen; at contrast 16 PCG solves the
    # first step's two stages and the seven later correctors, and the seven
    # later predictors take the split
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
    for m, M, eps, warm in ((0.8, 1.2, 0.4, ["split_leray_hat"] * 2),
                            (1.0, 4.84, 0.5, ["split_leray_hat"] * 2),
                            (0.1, 10.0, 0.05, ["split_leray_hat", "weighted_leray_hat"])):
        params = Params(lam=1.0, mu=1.0, nu=0.1, m=m, M=M, eps=eps)
        calls.clear()
        traj = run(smooth_2d_state(grid2d, m=m, M=M), params, StepConfig(dt_init=dt), 8 * dt)
        assert traj.event is None and len(traj.records) == 9
        assert calls == ["weighted_leray_hat"] * 2 + warm * 7


def test_truncated_split_converges_to_the_untruncated_split_with_the_grid(monkeypatch):
    # the split's remainder rides the acceleration's 2/3 truncation; the
    # untruncated split keeps its modes outside the dealias ball.  Their
    # gap in u after 20 steps at the default contrast is spectrally small in
    # the grid: measured 1.1e-7 at 16^2, 4.6e-13 at 32^2, 1.4e-16 at 64^2
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.8, M=1.2, eps=0.4)
    config = StepConfig(dt_init=5e-4)
    gaps = []
    for n in (16, 32, 64):
        initial = smooth_2d_state(make_grid(2, [n, n], [2 * np.pi] * 2))
        finals = []
        for untruncated in (False, True):
            if untruncated:
                use_untruncated_split(monkeypatch)
            traj = run(initial, params, config, 20 * config.dt_init, diagnostics=False)
            assert traj.event is None
            finals.append(traj.final_state.u)
            monkeypatch.undo()
        truncated, untruncated = finals
        gaps.append(float(np.abs(truncated - untruncated).max() / np.abs(untruncated).max()))
    coarse, mid, fine = gaps
    assert 1e-9 < coarse < 1e-5
    assert mid <= 1e-3 * coarse
    assert fine <= 1e-2 * mid


def test_split_steps_add_nothing_outside_the_dealias_ball(grid2d, monkeypatch):
    # on a warm split run at contrast 3.9 the first step's PCG correction is
    # truncated and puts nothing outside the 2/3 ball (it put 2.1e-10 of
    # max|u_hat| there at 32^2 untruncated).  Later steps leave the modes
    # outside as they are: there the projected acceleration is only the
    # explicit (nu/rho_bar) lap(u), which the Crank-Nicolson solve at
    # rho_bar cancels.  So u's out-of-ball part stays at round-off
    # (measured 2e-16 of max|u_hat| a step); the untruncated split adds
    # 2.1e-10 a step
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=1.0, M=4.84, eps=0.5)
    plan = plan_for(grid2d)
    outside = ~plan.tables(plan.fft(grid2d.meshes()[0])).mask
    dt = 2.0 ** -11
    initial = smooth_2d_state(grid2d, m=params.m, M=params.M)

    def outside_ball(untruncated):
        """u's out-of-ball part after the first step and the most a later
        step changed it, relative to max|u_hat|."""
        if untruncated:
            use_untruncated_split(monkeypatch)
        spectra = []
        traj = run(initial, params, StepConfig(dt_init=dt), 8 * dt,
                   observers=[lambda t, st, rec: spectra.append(plan.fft(st.u))],
                   diagnostics=False)
        monkeypatch.undo()
        assert traj.event is None and len(spectra) == 8
        scale = max(np.abs(u_hat).max() for u_hat in spectra)
        parts = [u_hat * outside for u_hat in spectra]
        added = max(float(np.abs(b - a).max()) for a, b in zip(parts, parts[1:]))
        return float(np.abs(parts[0]).max()) / scale, added / scale

    first, added = outside_ball(False)
    assert first <= 1e-15
    assert added <= 1e-15
    assert outside_ball(True)[1] > 1e-11


def test_pcg_steps_keep_u_inside_the_dealias_ball(grid2d):
    # at contrast 16 every corrector solves by PCG, whose correction
    # (1/rho) grad(p) is truncated before the final Leray projection: u's
    # L^2 fraction outside the 2/3 ball stays at round-off (measured
    # 2.5e-16 at every step of 8 at 32^2).  Untruncated, the correction put
    # 2e-7 more outside at each step
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.1, M=10.0, eps=0.05)
    plan = plan_for(grid2d)
    outside = ~plan.tables(plan.fft(grid2d.meshes()[0])).mask
    fractions = []

    def observe(t, st, rec):
        u_hat = plan.fft(st.u)
        fractions.append(float(np.linalg.norm(u_hat * outside) / np.linalg.norm(u_hat)))

    dt = 2.0 ** -11
    traj = run(smooth_2d_state(grid2d, m=params.m, M=params.M), params, StepConfig(dt_init=dt),
               8 * dt, observers=[observe], diagnostics=False)
    assert traj.event is None and len(fractions) == 8
    assert max(fractions) <= 1e-14


def test_run_takes_a_last_step_of_1e9_to_the_horizon(grid2d):
    # a horizon 1e-9 past the eighth step is a ninth step, not the end: the
    # run keeps 10 records and ends on the horizon itself
    dt = 2.0 ** -11
    horizon = 8 * dt + 1e-9
    traj = run(smooth_2d_state(grid2d), PARAMS, StepConfig(dt_init=dt), horizon)
    assert traj.event is None and len(traj.records) == 10
    assert traj.final_state.t == horizon


def test_step_pushes_its_start_time(grid2d):
    # the history's nodes are the steps' start times: at unequal dt an
    # end-time node is off by that step's dt
    pushed = []

    class Recording(StepHistory):
        def push(self, t, dt, predictor, corrector):
            pushed.append((t, dt))
            super().push(t, dt, predictor, corrector)

    history = Recording()
    st = ingest(smooth_2d_state(grid2d), PARAMS)
    for dt in (1e-3, 5e-4, 2e-3):
        st = step(st, PARAMS, dt, history=history)
    assert pushed == [(0.0, 1e-3), (1e-3, 5e-4), (1e-3 + 5e-4, 2e-3)]


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


@pytest.mark.parametrize("case", ["2d-contrast-3.9", "2d-contrast-16", "2d-contrast-100", "3d"])
def test_energy_equality_is_second_order(case):
    # max|r|/E0 of the energy budget at dt = 2e-3 and 1e-3:
    # 2D 32^2 at density range [1, 4.84] (contrast 3.90, the top of the
    # corrector split's range) to T = 0.5 measured 9.89e-7 and 2.47e-7;
    # 2D 32^2 at density range [0.6, 9.5] (contrast 16: split predictors,
    # PCG correctors) to T = 0.1 measured 2.79e-7 and 6.98e-8 (2.80e-7 and
    # 7.07e-8 with PCG in both stages); rho = 10^(cos x cos y) (contrast
    # 100) to T = 0.1 6.47e-7 and 1.62e-7; 3D 16^3 standard smooth data
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
        elif case == "2d-contrast-100":
            params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.09, M=11.0, eps=0.045)
        else:
            params = Params(lam=1.0, mu=1.0, nu=0.1, m=1.0, M=4.84, eps=0.5)
            horizon = 0.5
        initial = smooth_2d_state(grid, m=params.m, M=params.M)
        if case == "2d-contrast-100":
            x, y = grid.meshes()
            initial.rho = 10.0 ** (np.cos(x) * np.cos(y))
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



def _floor_breach_2d(grid):
    """2D data whose mass exchange pulls the density under the floor at
    t = 0.026: psi varies along x only, u = 0, rho = 1 = m = M."""
    x, _ = grid.meshes()
    psi = 0.8 * (1.0 + 0.9 * np.cos(x))
    return State(0.0, psi.astype(complex), np.zeros((2,) + grid.shape), np.ones(grid.shape), grid)


@pytest.mark.parametrize("case", ["default", "contrast-16", "adaptive", "density-floor"])
def test_run_without_diagnostics_takes_the_same_steps(grid2d, monkeypatch, case):
    # diagnostics=False drops measure() and the records, and nothing else:
    # the stored states, the final state and the event are the same bits
    if case == "density-floor":
        params = Params(lam=5.0, mu=0.05, nu=0.1, m=1.0, M=1.0, eps=0.98)
        initial, cfg, horizon = _floor_breach_2d(grid2d), StepConfig(dt_init=4e-3), 0.05
    else:
        m, M = (0.1, 10.0) if case == "contrast-16" else (0.8, 1.2)
        params = Params(lam=1.0, mu=1.0, nu=0.1, m=m, M=M, eps=0.05)
        initial = smooth_2d_state(grid2d, m=m, M=M)
        cfg = StepConfig(dt_init=2.0 ** -10, cfl=0.05, adaptive=case == "adaptive")
        horizon = 8 * cfg.dt_init
    seen, bare_seen = [], []
    full = run(initial, params, cfg, horizon, store_states=True,
               observers=[lambda t, state, rec: seen.append((t, rec))])
    measured = []
    monkeypatch.setattr(integrator, "measure", lambda *a, **k: measured.append(a))
    bare = run(initial, params, cfg, horizon, store_states=True, diagnostics=False,
               observers=[lambda t, state, rec: bare_seen.append((t, rec))])
    assert measured == [] and bare.records == [] and len(bare.times) == 0
    assert len(seen) == len(full.records) - 1 > 2
    assert bare_seen == [(t, None) for t, _ in seen]
    # an event compares by identity, so its fields are compared
    fields = [None if e is None else (e.kind, e.time, e.message, e.location, e.value)
              for e in (full.event, bare.event)]
    assert (full.event is None) == (case != "density-floor") and fields[1] == fields[0]
    assert full.event is None or full.event.kind == "density-floor"
    if case == "adaptive":
        assert len(np.unique(np.diff(full.times)[:-1])) > 1
    states = full.snapshots + [full.final_state]
    bare_states = bare.snapshots + [bare.final_state]
    assert [s.t for s in bare.snapshots] == [s.t for s in full.snapshots]
    assert len(bare_states) == len(states)
    for a, b in zip(states, bare_states):
        assert a.t == b.t
        for name in ("psi", "u", "rho"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
