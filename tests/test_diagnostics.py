import numpy as np
import pytest

from pitaevskii.diagnostics import (
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
from pitaevskii.model import Params, State
from pitaevskii.norms import lp_norm

from conftest import gaussian_random_field

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
