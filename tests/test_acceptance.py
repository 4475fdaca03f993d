"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion is one test; the pytest verdict is its pass/fail line and the
prints carry the measured numbers.  The expensive reference runs (64^2 grid,
standard smooth data, T = 0.5) are shared through module fixtures.
"""

import time

import numpy as np
import pytest

from pitaevskii.cli import main as cli_main
from pitaevskii.config import Config, parse_config, serialize_config
from pitaevskii.diagnostics import energy_budget, inequality_validator
from pitaevskii.grid import make_grid
from pitaevskii.initial_conditions import plane_wave_state, smooth_state
from pitaevskii.integrator import StepConfig, run, step
from pitaevskii.model import (
    Params,
    State,
    coupling_term,
    momentum_source,
    momentum_source_conservative,
)
from pitaevskii.norms import inner_product, lp_norm
from pitaevskii.snapshot_io import read_snapshot, write_snapshot, write_timeseries
from pitaevskii.spectral import plan_for
from pitaevskii.stability import (
    PerturbationSpec,
    perturb_state,
    reduced_ode_oracle,
    stability_experiment,
)

from conftest import random_state_fields

REF_PARAMS = Config().params          # lam=1, mu=1, nu=0.1, m=0.8, M=1.2, eps=0.4
REF_HORIZON = 0.5


def reference_state():
    grid = make_grid(2, [64, 64], [2 * np.pi, 2 * np.pi])
    return smooth_state(grid, REF_PARAMS, 0.4)


@pytest.fixture(scope="module")
def reference_runs():
    """The standard smooth 2D runs at dt = 5e-4 and dt = 2.5e-4."""
    out = {}
    elapsed = 0.0
    for dt in (5e-4, 2.5e-4):
        t0 = time.time()
        traj = run(reference_state(), REF_PARAMS, StepConfig(dt_init=dt), REF_HORIZON)
        elapsed += time.time() - t0
        assert traj.event is None
        out[dt] = traj
    out["elapsed"] = elapsed
    return out


def test_criterion_1_energy_equality(reference_runs):
    residuals = {}
    for dt in (5e-4, 2.5e-4):
        records = reference_runs[dt].records
        r = energy_budget(records)
        residuals[dt] = float(np.abs(r).max() / records[0].energy)
    order = float(np.log2(residuals[5e-4] / residuals[2.5e-4]))
    print(f"criterion 1: max|r|/E0 = {residuals[5e-4]:.3e} at dt=5e-4 "
          f"(tolerance 1e-6), observed order {order:.3f}, "
          f"runtime {reference_runs['elapsed']:.1f}s")
    assert residuals[5e-4] <= 1e-6
    assert 1.7 <= order <= 2.3
    assert reference_runs["elapsed"] <= 120.0


def test_criterion_2_mass_bounds(reference_runs):
    worst_step = -np.inf
    worst_drift = 0.0
    for dt in (5e-4, 2.5e-4):
        records = reference_runs[dt].records
        mw = np.array([rec.mass_wave for rec in records])
        worst_step = max(worst_step, float((np.diff(mw) / mw[:-1]).max()))
        total = np.array([rec.mass_wave + rec.mass_fluid for rec in records])
        worst_drift = max(worst_drift, float(np.abs(total - total[0]).max() / total[0]))
    print(f"criterion 2: worst per-step wave-mass increase {worst_step:.3e} "
          f"(tolerance 1e-8), total-mass drift {worst_drift:.3e} (tolerance 1e-8)")
    assert worst_step <= 1e-8
    assert worst_drift <= 1e-8


def test_criterion_3_oracle_equivalence():
    t0 = time.time()
    grid = make_grid(1, [8], [2 * np.pi])
    params = Params(lam=1.0, mu=0.8, nu=0.2, m=0.5, M=1.5, eps=0.2)
    k, a0, u0, rho0 = (1,), 0.5 + 0.2j, (0.3,), 1.0
    oracle = reduced_ode_oracle(params, k, a0, u0, rho0, 1.0, tol=1e-12, n_samples=3)

    dt = 2e-3
    state = plane_wave_state(grid, k, a0, u0, rho0)
    mass0 = lp_norm(grid, state.psi, 2) ** 2
    for _ in range(int(round(1.0 / dt))):
        state = step(state, params, dt)
    carrier = np.exp(1j * grid.axis_coordinates(0))
    a_pde = complex((state.psi / carrier).mean())
    errs = {
        "amplitude+phase": abs(a_pde - oracle.amp[-1]) / abs(oracle.amp[-1]),
        "velocity": abs(state.u[0].mean() - oracle.vel[-1, 0]) / abs(oracle.vel[-1, 0]),
        "density": abs(state.rho.mean() - oracle.rho[-1]) / abs(oracle.rho[-1]),
    }
    assert lp_norm(grid, state.psi, 2) ** 2 <= mass0 * (1 + 1e-8)

    # k = 0 closed form |a(t)|^2 = |a0|^2 / (1 + 2 lam mu |a0|^2 t)
    params0 = REF_PARAMS
    amp0 = 0.8
    state0 = plane_wave_state(grid, (0,), amp0, (0.0,), 1.0)
    for _ in range(int(round(1.0 / 5e-4))):
        state0 = step(state0, params0, 5e-4)
    c = 2 * params0.lam * params0.mu * amp0 ** 2
    exact = amp0 ** 2 / (1 + c)
    err_closed_pde = abs(abs(state0.psi.flat[0]) ** 2 - exact) / exact
    oracle0 = reduced_ode_oracle(params0, [0.0], amp0, [0.0], 1.0, 1.0, tol=1e-12, n_samples=3)
    err_closed_oracle = abs(abs(oracle0.amp[-1]) ** 2 - exact) / exact

    elapsed = time.time() - t0
    print(f"criterion 3: PDE vs oracle errors {errs} (tolerance 1e-6); "
          f"k=0 closed form: PDE {err_closed_pde:.3e}, oracle {err_closed_oracle:.3e} "
          f"(tolerance 1e-8); runtime {elapsed:.1f}s")
    for name, err in errs.items():
        assert err <= 1e-6, name
    assert err_closed_pde <= 1e-8
    assert err_closed_oracle <= 1e-8
    assert elapsed <= 10.0


def _hundred_random_states():
    rng = np.random.default_rng(42)
    grids = [
        (make_grid(2, [32, 32], [2 * np.pi, 2 * np.pi]), 50),
        (make_grid(3, [12, 12, 12], [2 * np.pi, 2 * np.pi, 2 * np.pi]), 25),
        (make_grid(1, [64], [2 * np.pi]), 25),
    ]
    states = []
    for grid, count in grids:
        plan = plan_for(grid)
        for _ in range(count):
            psi, u, rho = random_state_fields(grid, rng, amp=0.5)
            u, _ = plan.leray_project(u)
            states.append(State(0.0, psi, u, rho, grid))
    return states


def test_criterion_4_source_form_equivalence():
    params = REF_PARAMS
    worst = 0.0
    states = _hundred_random_states()
    assert len(states) == 100
    for st in states:
        plan = plan_for(st.grid)
        coupling = coupling_term(st, params)
        cons = momentum_source_conservative(st, params, coupling)
        noncons = momentum_source(st, params, coupling)
        drag_scalar = (np.conj(st.psi) * coupling).real
        drag = 2 * params.lam * np.stack(
            [plan.dealias(st.u[i] * drag_scalar) for i in range(st.grid.d)])
        projected, _ = plan.leray_project(cons - noncons - drag)
        scale = max(float(np.abs(cons).max()), float(np.abs(noncons).max()), 1e-300)
        worst = max(worst, float(np.abs(projected).max()) / scale)
    print(f"criterion 4: worst projected source residual {worst:.3e} "
          f"of field scale (tolerance 1e-10) on 100 states")
    assert worst <= 1e-10


def test_criterion_5_coupling_quadratic_form():
    params = REF_PARAMS
    worst = 0.0
    states = _hundred_random_states()
    for st in states:
        g = st.grid
        lhs = inner_product(g, st.psi, coupling_term(st, params)).real
        psi_hat = np.fft.fftn(st.psi)
        minus_i_grad = np.stack([np.fft.ifftn(km * psi_hat) for km in g.k_mesh])
        d_psi = minus_i_grad - st.u * st.psi
        rhs = 0.5 * lp_norm(g, d_psi, 2) ** 2 + params.mu * lp_norm(g, st.psi, 4) ** 4
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    print(f"criterion 5: worst quadratic-form deviation {worst:.3e} relative "
          f"(tolerance 1e-10) on 100 states")
    assert worst <= 1e-10


def test_criterion_6_uniqueness_rendering(tmp_path):
    t0 = time.time()
    grid = make_grid(2, [32, 32], [2 * np.pi, 2 * np.pi])
    initial = smooth_state(grid, REF_PARAMS, 0.4)
    cfg = StepConfig(dt_init=1e-3)
    horizon = 0.5
    base = run(initial.copy(), REF_PARAMS, cfg, horizon, store_states=True)
    assert base.event is None
    mw = np.array([r.mass_wave for r in base.records])
    assert np.all(np.diff(mw) <= 1e-8 * mw[:-1])

    # zero perturbation: byte-identical trajectories, D identically zero
    zero_rep = stability_experiment(initial.copy(), REF_PARAMS, cfg,
                                    PerturbationSpec(target="psi", amplitude=0.0),
                                    horizon, base=base)
    assert not zero_rep.determinism_failure
    assert all(r.total == 0.0 for r in zero_rep.records)
    twin = run(perturb_state(initial.copy(), PerturbationSpec(amplitude=0.0), REF_PARAMS),
               REF_PARAMS, cfg, horizon)
    p_a, p_b = tmp_path / "base.csv", tmp_path / "twin.csv"
    write_timeseries(base.records, p_a)
    write_timeseries(twin.records, p_b)
    assert p_a.read_bytes() == p_b.read_bytes()

    sups = {}
    margins = {}
    for amp in (1e-4, 1e-6, 1e-8):
        rep = stability_experiment(
            initial.copy(), REF_PARAMS, cfg,
            PerturbationSpec(target="psi", mode=(1, 1), amplitude=amp),
            horizon, base=base)
        d0 = rep.records[0].total
        assert d0 > 0
        sups[amp] = max(r.total for r in rep.records) / d0
        assert rep.c_hat is not None and rep.envelope_margin is not None
        margins[amp] = rep.envelope_margin
    ratio = max(sups.values()) / min(sups.values())
    elapsed = time.time() - t0
    print(f"criterion 6: sup D/D0 per amplitude {sups} (spread factor {ratio:.3f} "
          f"<= 2); envelope margins {margins} (<= 10); byte-identical zero run; "
          f"runtime {elapsed:.1f}s")
    assert ratio <= 2.0
    assert all(m <= 10.0 for m in margins.values())
    assert elapsed <= 300.0


def test_criterion_7_inequality_validator():
    t0 = time.time()
    grid = make_grid(3, [32, 32, 32], [2 * np.pi, 2 * np.pi, 2 * np.pi])

    def sample(seed, count=100):
        r = np.random.default_rng(seed)
        fields = []
        for _ in range(count):
            coeff = (r.standard_normal(grid.shape)
                     + 1j * r.standard_normal(grid.shape)) * np.exp(-grid.k2_mesh / 9.0)
            fields.append(np.fft.ifftn(coeff).real * grid.num_points ** 0.5)
        return fields

    rep_a = inequality_validator(grid, sample(101))
    rep_b = inequality_validator(grid, sample(202))
    lemma_set = ("poincare", "ladyzhenskaya", "agmon", "lebesgue_l3")
    spreads = {}
    for name in lemma_set:
        a, b = rep_a.max_ratio[name], rep_b.max_ratio[name]
        assert np.isfinite(a) and np.isfinite(b)
        assert a <= 100.0 and b <= 100.0
        spreads[name] = abs(a - b) / max(a, b)
    elapsed = time.time() - t0
    print(f"criterion 7: ratios {rep_a.max_ratio} within cap 100, "
          f"sample spreads {spreads} (<= 0.2); runtime {elapsed:.1f}s")
    assert all(s <= 0.2 for s in spreads.values())
    assert elapsed <= 120.0


FLOOR_CONFIG = """
grid.d = 1
grid.n = 64
params.lambda = 5.0
params.mu = 0.05
params.nu = 0.1
params.m = 1.0
params.M = 1.0
params.epsilon = 0.98
integrator.dt_init = 1e-3
ic.family = floor-breach
ic.amplitude = 0.8
experiment.T = 0.5
"""


def test_criterion_8_density_floor_semantics(tmp_path, capsys, reference_runs):
    cfg_path = tmp_path / "floor.cfg"
    cfg_path.write_text(FLOOR_CONFIG + f"output.dir = {tmp_path / 'out'}\n")
    rc = cli_main(["simulate", str(cfg_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "density-floor" in out
    line = [ln for ln in out.splitlines() if "physics event" in ln][0]
    t_reported = float(line.split("t=")[1].split(":")[0])
    assert 0.0 < t_reported < 0.5

    # on compliant runs the density never exceeds M' = M + m - eps
    ceiling = REF_PARAMS.m_prime * (1 + 1e-8)
    worst = max(rec.rho_max for rec in reference_runs[5e-4].records)
    print(f"criterion 8: floor violation reported at t={t_reported} with exit "
          f"code 1; compliant-run rho_max {worst:.6f} < M' = {REF_PARAMS.m_prime}")
    assert worst < ceiling


def test_criterion_9_format_contracts(tmp_path, rng):
    # snapshot round trip is bitwise
    grid = make_grid(2, [32, 32], [2 * np.pi, 2 * np.pi])
    psi, u, rho = random_state_fields(grid, rng, amp=0.7)
    st = State(0.0, psi, u, rho, grid)
    st.t = 0.375
    snap = tmp_path / "state.pitv"
    write_snapshot(st, REF_PARAMS, snap)
    back = read_snapshot(snap)
    assert back.psi.tobytes() == st.psi.tobytes()
    assert back.u.tobytes() == st.u.tobytes()
    assert back.rho.tobytes() == st.rho.tobytes()

    # config round trip reparses to an equal Config
    text = ("grid.d = 2\ngrid.n = 16, 16\nparams.lambda = 0.7\n"
            "integrator.dt_init = 0.002\nic.family = random-smooth\n"
            "experiment.delta_p = 1e-07\n")
    cfg = parse_config(text)
    assert parse_config(serialize_config(cfg)) == cfg

    # deterministic reruns produce identical CSV bytes
    run_cfg = ("grid.d = 2\ngrid.n = 16, 16\nintegrator.dt_init = 0.002\n"
               "ic.family = smooth\nexperiment.T = 0.02\n")
    outputs = []
    for name in ("one", "two"):
        cfg_path = tmp_path / f"{name}.cfg"
        cfg_path.write_text(run_cfg + f"output.dir = {tmp_path / name}\n")
        rc = cli_main(["simulate", str(cfg_path)])
        assert rc == 0
        outputs.append((tmp_path / name / "series.csv").read_bytes())
    assert outputs[0] == outputs[1]
    print("criterion 9: snapshot round-trip bitwise, config round-trip equal, "
          "rerun CSV bytes identical")
