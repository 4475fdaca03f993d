import numpy as np
import pytest

from pitaevskii.cli import main as cli_main
from pitaevskii.grid import make_grid
from pitaevskii.initial_conditions import build_initial_state, plane_wave_state
from pitaevskii.integrator import (
    CflViolation,
    PressureHistory,
    StepConfig,
    adaptive_dt,
    ingest,
    run,
    step,
)
from pitaevskii.model import Params, State
from pitaevskii.snapshot_io import record_row
from pitaevskii.spectral import SpectralPlan, plan_for
from pitaevskii.stability import reduced_ode_oracle

from conftest import random_state_fields

PARAMS = Params(lam=1.0, mu=1.0, nu=0.1, m=0.5, M=1.5, eps=0.2)


def smooth_2d_state(grid, amp=0.4, m=0.8, M=1.2):
    x, y = grid.meshes()
    psi = amp * (np.cos(x) * np.cos(y) + 0.5j * (np.sin(x) + np.cos(y)) + 0.3)
    u = amp * np.stack([np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)])
    rho = 0.5 * (m + M) + 0.45 * (M - m) * np.cos(x) * np.cos(y)
    return State(0.0, psi.astype(complex), u, rho, grid)


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


@pytest.mark.parametrize("m, M, eps", [(0.8, 1.2, 0.4), (0.1, 10.0, 0.05)])
def test_warm_started_run_matches_cold_steps(grid2d, m, M, eps):
    # run() warm-starts every projection from its pressure history; a loop of
    # step() calls starts each step cold.  Both solve to the same tolerance.
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=m, M=M, eps=eps)
    cfg = StepConfig(dt_init=2.0 ** -10)
    initial = smooth_2d_state(grid2d, m=m, M=M)
    warm = run(initial, params, cfg, 10 * cfg.dt_init).final_state
    cold = ingest(initial, params)
    for _ in range(10):
        cold = step(cold, params, cfg.dt_init, cfg)
    assert warm.t == cold.t
    for a, b in ((warm.psi, cold.psi), (warm.u, cold.u), (warm.rho, cold.rho)):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_pressure_history_extrapolates_in_time():
    history = PressureHistory()
    assert history.predictor_guess() is None            # cold start
    assert history.corrector_guess(3.0) == 3.0
    history.push(0.1, 1.0, 1.5)                          # step at t = 0
    assert history.predictor_guess() == 1.0
    assert history.corrector_guess(2.0) == 2.5
    history.push(0.2, 2.0, 2.25)                         # step at t = 0.1
    # the line through (0, 1) and (0.1, 2) at the next step's start, t = 0.3
    assert history.predictor_guess() == pytest.approx(4.0, rel=1e-15)
    assert history.corrector_guess(4.0) == 4.25
    history.push(0.2, 4.0, 4.0)                          # only two steps kept
    assert history.predictor_guess() == pytest.approx(6.0, rel=1e-15)


def test_dealias_flag_off_smoke(grid2d):
    st = smooth_2d_state(grid2d)
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.8, M=1.2, eps=0.4)
    cfg = StepConfig(dt_init=1e-3, dealias=False)
    traj = run(st, params, cfg, 0.01)
    assert traj.event is None
    assert len(traj.records) == 11


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


def test_snapshot_cadence(grid2d):
    st = smooth_2d_state(grid2d)
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.8, M=1.2, eps=0.4)
    traj = run(st, params, StepConfig(dt_init=2e-3), 0.02, snapshot_every=3)
    times = [t for t, _ in traj.snapshots]
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(0.02, abs=1e-12)
