from dataclasses import replace

import numpy as np
import pytest

from pitaevskii import norms
from pitaevskii.diagnostics import (
    RECORD_SCALARS,
    DiagnosticsRecord,
    bounds_report,
    energy_budget,
    growth_budget,
    inequality_validator,
    measure,
    time_derivative_report,
)
from pitaevskii.grid import make_grid
from pitaevskii.initial_conditions import plane_wave_state
from pitaevskii.integrator import StepConfig, run
from pitaevskii.model import Params, State, coupling_term
from pitaevskii.norms import lp_norm
from pitaevskii.spectral import plan_for

from conftest import gaussian_random_field, random_state_fields, smooth_2d_state

PARAMS = Params(lam=1.0, mu=1.0, nu=0.1, m=0.5, M=1.5, eps=0.2)


def test_energy_closed_forms(grid2d):
    v = grid2d.volume
    zero = State(0.0, np.zeros(grid2d.shape, complex), np.zeros((2,) + grid2d.shape),
                 np.ones(grid2d.shape), grid2d)
    assert measure(zero, PARAMS).energy == 0.0

    c = 0.7 + 0.4j
    st = plane_wave_state(grid2d, (0, 0), c, (0.0, 0.0), 1.0)
    assert measure(st, PARAMS).energy == pytest.approx(0.5 * PARAMS.mu * abs(c) ** 4 * v, rel=1e-12)

    a, k, vel, rho0 = 0.6, (2, 1), (0.3, -0.2), 1.1
    st = plane_wave_state(grid2d, k, a, vel, rho0)
    expect = (0.5 * rho0 * (vel[0] ** 2 + vel[1] ** 2) * v
              + 0.5 * a ** 2 * (k[0] ** 2 + k[1] ** 2) * v
              + 0.5 * PARAMS.mu * a ** 4 * v)
    assert measure(st, PARAMS).energy == pytest.approx(expect, rel=1e-12)


def test_budget_zero_state(grid2d):
    zero = State(0.0, np.zeros(grid2d.shape, complex), np.zeros((2,) + grid2d.shape),
                 np.ones(grid2d.shape), grid2d)
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.5, M=1.5, eps=0.2)
    traj = run(zero, params, StepConfig(dt_init=1e-2), 0.1)
    r = energy_budget(traj.records)
    assert np.abs(r).max() == 0.0


def test_budget_constant_field_reduction():
    # psi uniform, u = 0: the energy equality holds exactly for the
    # reduction, so the residual is pure time-stepping error and shrinks
    # at second order
    g = make_grid(1, [8], [2 * np.pi])
    residuals = []
    for dt in (1e-3, 5e-4):
        st = plane_wave_state(g, (0,), 0.8, (0.0,), 1.0)
        traj = run(st, PARAMS, StepConfig(dt_init=dt), 0.25)
        r = energy_budget(traj.records)
        assert r[0] == 0.0
        residuals.append(np.abs(r).max() / traj.records[0].energy)
    assert traj.records[0].energy == pytest.approx(0.5 * PARAMS.mu * 0.8 ** 4 * g.volume, rel=1e-12)
    assert residuals[0] <= 2e-6
    assert 3.0 <= residuals[0] / residuals[1] <= 5.5


def test_budget_requires_records():
    with pytest.raises(ValueError):
        energy_budget([])


def test_measure_momentum_plane_wave(grid2d):
    a, k, vel, rho0 = 0.5, (1, 2), (0.2, -0.1), 1.2
    st = plane_wave_state(grid2d, k, a, vel, rho0)
    rec = measure(st, PARAMS)
    v = grid2d.volume
    for i in range(2):
        expect = rho0 * vel[i] * v + a ** 2 * k[i] * v
        assert rec.momentum[i] == pytest.approx(expect, rel=1e-11)
    assert rec.mass_wave == pytest.approx(a ** 2 * v, rel=1e-12)
    assert rec.rho_min == pytest.approx(rho0)
    assert rec.rho_max == pytest.approx(rho0)


def test_measure_relax_dissipation_parseval(grid2d, rng):
    from pitaevskii.model import coupling_term
    psi = 0.5 * gaussian_random_field(grid2d, rng, complex_field=True)
    u = np.zeros((2,) + grid2d.shape)
    st = State(0.0, psi, u, np.ones(grid2d.shape), grid2d)
    rec = measure(st, PARAMS)
    direct = 2 * PARAMS.lam * lp_norm(grid2d, coupling_term(st, PARAMS), 2) ** 2
    assert rec.diss_relax == pytest.approx(direct, rel=1e-12)


def reference_record(state, prev, params):
    """measure()'s entries written out with the public norms: the scalars
    by name, then the momentum.  Real fields enter the H^s norms as complex
    fields, so their full spectra are summed and the half-spectrum Parseval
    weights of measure() are checked, not shared."""
    g = state.grid
    psi, u, rho = state.psi, state.u, state.rho

    def hs_sq(f, s, homogeneous=False):
        parts = f if g.is_vector(f) else [f]
        return sum(norms.sobolev_norm(g, c.astype(complex), s, homogeneous) ** 2 for c in parts)

    c = coupling_term(state, params)
    speed2 = sum(ui ** 2 for ui in u)
    dt = state.t - prev.t
    du = (u - prev.u) / dt
    grad_u_sq = hs_sq(u, 1.0, True)
    scalars = {
        "t": state.t,
        "energy": 0.5 * norms.integral(g, rho * speed2) + 0.5 * hs_sq(psi, 1.0, True)
        + 0.5 * params.mu * norms.lp_norm(g, psi, 4) ** 4,
        "diss_visc": params.nu * grad_u_sq,
        "diss_relax": 2.0 * params.lam * norms.lp_norm(g, c, 2) ** 2,
        "mass_wave": norms.lp_norm(g, psi, 2) ** 2,
        "mass_fluid": norms.integral(g, rho),
        "rho_min": rho.min(),
        "rho_max": rho.max(),
        "second_energy": 1.0 + hs_sq(psi, 2.0, True) + params.nu * grad_u_sq,
        "second_diss": params.lam * hs_sq(c, 1.0, True)
        + norms.integral(g, rho * sum(di ** 2 for di in du))
        + params.nu ** 2 / params.m_prime * hs_sq(u, 2.0, True),
        "sob_wave": np.sqrt(hs_sq(psi, 2.5 + params.delta)),
        "sob_vel": np.sqrt(hs_sq(u, 1.5 + params.delta)),
        "sob_coupling": np.sqrt(hs_sq(c, 1.5 + params.delta)),
        "dt_wave_l2": norms.lp_norm(g, (psi - prev.psi) / dt, 2),
        "dt_vel_l2": norms.lp_norm(g, du, 2),
        "dt_rho_hm1": np.sqrt(hs_sq((rho - prev.rho) / dt, -1.0)),
    }
    grad_psi = plan_for(g).gradient(psi)
    momentum = [norms.integral(g, rho * u[i]) + norms.integral(g, (np.conj(psi) * grad_psi[i]).imag)
                for i in range(g.d)]
    return scalars, momentum


@pytest.mark.parametrize("d, n", [(2, 32), (3, 16)], ids=["2d-32", "3d-16"])
def test_measure_matches_reference_from_public_norms(d, n):
    grid = make_grid(d, [n] * d, [2 * np.pi] * d)
    rng = np.random.default_rng(31 + d)
    prev = State(0.25, *random_state_fields(grid, rng, amp=0.4), grid)
    state = State(0.25 + 2.0 ** -9, *random_state_fields(grid, rng, amp=0.4), grid)
    rec = measure(state, PARAMS, prev_state=prev)
    scalars, momentum = reference_record(state, prev, PARAMS)
    assert set(scalars) == set(RECORD_SCALARS)
    for name, expect in scalars.items():
        assert getattr(rec, name) == pytest.approx(expect, rel=1e-12, abs=0), name
    scale = norms.integral(grid, state.rho * np.sqrt(sum(ui ** 2 for ui in state.u)))
    assert np.abs(np.array(rec.momentum) - momentum).max() <= 1e-12 * scale


def test_measure_rejects_prev_state_at_the_same_time():
    grid = make_grid(2, [16, 16], [2 * np.pi] * 2)
    state = smooth_2d_state(grid)
    with pytest.raises(ValueError, match="0.0 vs 0.0"):
        measure(state, PARAMS, prev_state=state)


def test_bounds_report_initial_passes(grid2d):
    st = plane_wave_state(grid2d, (1, 0), 0.5, (0.1, 0.0), 1.0)
    rec = measure(st, PARAMS)
    for check in bounds_report(rec, PARAMS):
        assert check.passed


def test_bounds_report_flags_floor_violation(grid2d):
    st = plane_wave_state(grid2d, (1, 0), 0.5, (0.1, 0.0), 1.0)
    rec = measure(st, PARAMS)
    rec.rho_min = PARAMS.eps / 2
    report = {c.name: c for c in bounds_report(rec, PARAMS)}
    check = report["density_above_floor"]
    assert not check.passed
    assert check.margin == pytest.approx(PARAMS.eps / 2 - PARAMS.eps)


@pytest.mark.parametrize("factor, passed", [(30.0, True), (40.0, False), (61.0, False)])
def test_second_dissipation_integral_is_capped_at_31_times_the_initial_energy(
        grid2d, factor, passed):
    # the cap is 31 X0: an integral between 31 and 62 X0 fails, below 31 passes
    rec = measure(plane_wave_state(grid2d, (1, 0), 0.5, (0.1, 0.0), 1.0), PARAMS)
    report = {c.name: c for c in bounds_report(rec, PARAMS, reference=rec,
                                               y_integral=factor * rec.second_energy)}
    check = report["second_diss_integral"]
    assert check.passed == passed and check.observation
    assert check.margin == pytest.approx((31.0 - factor) * rec.second_energy)


def test_each_bound_holds_or_fails_at_its_boundary():
    # every operand is exactly representable (eps = 1/4, m' = 7/4, dyadic
    # masses and energies) and every record sits on a bound, so each margin
    # is exactly 0: the density bounds are strict and fail there, the total
    # mass and the second energy admit equality
    params = replace(PARAMS, eps=0.25)
    reference = DiagnosticsRecord(**{name: 1.0 for name in RECORD_SCALARS})
    reference.mass_fluid, reference.second_energy = 3.0, 1.5
    record = replace(reference, rho_min=0.25, rho_max=1.75 * (1.0 + 1e-8),
                     mass_fluid=3.0 + 2.0 ** -18, second_energy=3.0)
    report = {c.name: c for c in bounds_report(record, params, reference=reference,
                                               mass_tol=2.0 ** -20)}
    expected = {"density_above_floor": False, "density_below_ceiling": False,
                "total_mass_constant": True, "second_energy_doubling": True}
    for name, passed in expected.items():
        assert report[name].margin == 0.0, name
        assert report[name].passed == passed, name


def test_bounds_report_constant_reduction_mass_decreases():
    g = make_grid(1, [8], [2 * np.pi])
    st = plane_wave_state(g, (0,), 0.8, (0.0,), 1.0)
    traj = run(st, PARAMS, StepConfig(dt_init=1e-3), 1.0)
    first, last = traj.records[0], traj.records[-1]
    assert last.mass_wave < first.mass_wave
    y_int = 0.0
    for a, b in zip(traj.records, traj.records[1:]):
        y_int += 0.5 * (a.second_diss + b.second_diss) * (b.t - a.t)
    # coarse step: the strict 1e-8 mass contract belongs to the reference
    # resolution (acceptance suite); here the check machinery is the target
    for check in bounds_report(last, PARAMS, reference=first, y_integral=y_int,
                               mass_tol=2e-7):
        assert check.passed, check.name


def test_growth_budget_formula(grid2d):
    st = plane_wave_state(grid2d, (1, 0), 0.5, (0.1, 0.0), 1.0)
    rec = measure(st, PARAMS)
    horizon = 0.7
    x0 = rec.second_energy
    e1 = rec.sob_vel ** 2 + rec.sob_wave ** 2
    mp = PARAMS.m_prime
    expect = (PARAMS.lam * mp / PARAMS.nu ** 2 * x0
              + (PARAMS.lam * mp / (PARAMS.nu ** 2 * PARAMS.eps) + PARAMS.gamma) * x0 ** 2 * horizon
              + PARAMS.lam * e1 ** 2 * horizon)
    assert growth_budget(rec, PARAMS, horizon) == pytest.approx(expect, rel=1e-12)


def test_growth_budget_without_viscosity(grid2d):
    rec = measure(plane_wave_state(grid2d, (1, 0), 0.5, (0.1, 0.0), 1.0), PARAMS)
    horizon = 0.7
    inviscid = Params(lam=1.0, mu=1.0, nu=0.0, m=0.5, M=1.5, eps=0.2)
    assert growth_budget(rec, inviscid, horizon) == np.inf
    # lam = 0 switches the terms over nu^2 off, leaving gamma X0^2 T
    frozen = Params(lam=0.0, mu=1.0, nu=0.0, m=0.5, M=1.5, eps=0.2)
    assert growth_budget(rec, frozen, horizon) == frozen.gamma * rec.second_energy ** 2 * horizon


def test_time_derivative_report_stationary(grid2d):
    zero = State(0.0, np.zeros(grid2d.shape, complex), np.zeros((2,) + grid2d.shape),
                 np.ones(grid2d.shape), grid2d)
    traj = run(zero, PARAMS, StepConfig(dt_init=1e-2), 0.05)
    rep = time_derivative_report(traj.records)
    assert rep.wave_l2l2 == 0.0 and rep.vel_l2l2 == 0.0 and rep.rho_l2hm1 == 0.0


def test_time_derivative_constant_reduction_closed_form():
    # uniform fields: d rho/dt = 2*lam*mu*|a|^4, and the H^-1 norm of a
    # constant c is |c| sqrt(V); backward differences sit at interval
    # midpoints, so the match is second order in dt
    g = make_grid(1, [8], [2 * np.pi])
    a0, dt = 0.8, 1e-3
    st = plane_wave_state(g, (0,), a0, (0.0,), 1.0)
    traj = run(st, PARAMS, StepConfig(dt_init=dt), 0.01)
    recs = traj.records
    c = 2 * PARAMS.lam * PARAMS.mu * a0 ** 2
    for prev, rec in zip(recs[5:], recs[6:]):
        t_mid = 0.5 * (prev.t + rec.t)
        amp_sq = a0 ** 2 / (1 + c * t_mid)
        expect = 2 * PARAMS.lam * PARAMS.mu * amp_sq ** 2 * np.sqrt(g.volume)
        assert rec.dt_rho_hm1 == pytest.approx(expect, rel=1e-5)


def test_validator_single_mode_l3_ratio(grid3d):
    x, y, z = grid3d.meshes()
    f = np.exp(1j * (x + 2 * y))
    rep = inequality_validator(grid3d, [f])
    assert rep.max_ratio["lebesgue_l3"] == pytest.approx(1.0, rel=1e-12)
    assert rep.passed


def test_validator_skips_zero_fields(grid3d):
    rep = inequality_validator(grid3d, [np.zeros(grid3d.shape)])
    assert rep.n_skipped == 1
    assert rep.n_fields == 0
    assert rep.passed


def test_validator_dimension_restriction(grid2d, rng):
    fields = [gaussian_random_field(grid2d, rng) for _ in range(5)]
    rep = inequality_validator(grid2d, fields)
    assert rep.notice != ""
    assert set(rep.max_ratio) == {"poincare", "lebesgue_l3"}
    assert rep.passed


def test_validator_random_fields_bounded(grid3d, rng):
    fields = [gaussian_random_field(grid3d, rng) for _ in range(30)]
    rep = inequality_validator(grid3d, fields)
    assert rep.passed
    for name, val in rep.max_ratio.items():
        assert np.isfinite(val) and 0 < val <= rep.cap


def test_validator_stable_across_resolutions(rng):
    # the max ratios are empirical constants of the inequalities, not of the
    # grid: refine 32^3 -> 48^3 and compare
    ratios = {}
    for n in (32, 48):
        g = make_grid(3, [n] * 3, [2 * np.pi] * 3)
        r = np.random.default_rng(915)
        fields = [gaussian_random_field(g, r, kc=3.0) for _ in range(40)]
        ratios[n] = inequality_validator(g, fields).max_ratio
    for name in ratios[32]:
        a, b = ratios[32][name], ratios[48][name]
        assert abs(a - b) / max(a, b) <= 0.2, name
