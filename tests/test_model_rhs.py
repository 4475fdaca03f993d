import numpy as np
import pytest

from pitaevskii.model import (
    DensityFloorViolation,
    Params,
    State,
    coupling_term,
    density_floor_check,
    mass_exchange,
    momentum_source,
    momentum_source_conservative,
    velocity_rhs_hat,
)
from pitaevskii.grid import make_grid
from pitaevskii.norms import inner_product, integral, lp_norm
from pitaevskii.spectral import plan_for

from conftest import random_state_fields, velocity_accel, wave_rhs

PARAMS = Params(lam=0.8, mu=0.6, nu=0.15, m=0.7, M=1.3, eps=0.3)


def make_state(grid, psi, u, rho, t=0.0):
    return State(t, np.asarray(psi, dtype=complex), np.asarray(u, dtype=float),
                 np.asarray(rho, dtype=float), grid)


def uniform_state(grid, a, velocity, rho0, k=None):
    """Plane-wave state psi = a exp(i k.x) with uniform velocity and density."""
    mesh = grid.meshes()
    if k is None:
        k = (0,) * grid.d
    phase = sum(ki * xi for ki, xi in zip(k, mesh))
    psi = a * np.exp(1j * phase)
    u = np.stack([np.full(grid.shape, v, dtype=float) for v in velocity])
    rho = np.full(grid.shape, rho0)
    return make_state(grid, psi, u, rho)


def random_state(grid, rng, amp=0.5):
    psi, u, rho = random_state_fields(grid, rng, amp=amp)
    u, _ = plan_for(grid).leray_project(u)
    return make_state(grid, psi, u, rho)


def test_params_invariants():
    with pytest.raises(ValueError):
        Params(lam=1, mu=1, nu=1, m=0.5, M=0.4, eps=0.1)   # m > M
    with pytest.raises(ValueError):
        Params(lam=1, mu=1, nu=1, m=0.5, M=1.0, eps=0.6)   # eps >= m
    with pytest.raises(ValueError):
        Params(lam=-1, mu=1, nu=1, m=0.5, M=1.0, eps=0.1)
    p = Params(lam=1, mu=1, nu=1, m=0.5, M=1.5, eps=0.2)
    assert p.m_prime == pytest.approx(1.8)


def test_coupling_constant_state(grid2d):
    c = 0.9 - 0.4j
    st = uniform_state(grid2d, c, (0.0, 0.0), 1.0)
    out = coupling_term(st, PARAMS)
    assert np.allclose(out, PARAMS.mu * abs(c) ** 2 * c, atol=1e-13)


def test_coupling_plane_wave(grid2d):
    a, k, vel = 0.7 + 0.2j, (2, -1), (0.4, -0.3)
    st = uniform_state(grid2d, a, vel, 1.0, k=k)
    beta = 0.5 * sum((ki - vi) ** 2 for ki, vi in zip(k, vel)) + PARAMS.mu * abs(a) ** 2
    out = coupling_term(st, PARAMS)
    assert np.abs(out - beta * st.psi).max() <= 1e-12 * abs(beta)


def test_coupling_galilean_shift(grid2d):
    # the coupling coefficient for mode k with uniform velocity U matches the
    # one for mode k-U at rest when U is itself a lattice mode
    a = 0.5 + 0.5j
    st_moving = uniform_state(grid2d, a, (2.0, 0.0), 1.0, k=(3, 1))
    st_rest = uniform_state(grid2d, a, (0.0, 0.0), 1.0, k=(1, 1))
    beta_m = (coupling_term(st_moving, PARAMS) / st_moving.psi).real.mean()
    beta_r = (coupling_term(st_rest, PARAMS) / st_rest.psi).real.mean()
    assert beta_m == pytest.approx(beta_r, rel=1e-12)


def test_coupling_quadratic_form_identity(grid2d, rng):
    # Re<psi, C psi> against the independently assembled
    # 0.5 ||(-i grad - u) psi||^2 + mu ||psi||_L4^4
    for _ in range(20):
        st = random_state(grid2d, rng)
        lhs = inner_product(grid2d, st.psi, coupling_term(st, PARAMS)).real
        psi_hat = np.fft.fftn(st.psi)
        minus_i_grad = np.stack([
            np.fft.ifftn(km * psi_hat) for km in grid2d.k_mesh
        ])
        d_psi = minus_i_grad - st.u * st.psi
        rhs = 0.5 * lp_norm(grid2d, d_psi, 2) ** 2 + PARAMS.mu * lp_norm(grid2d, st.psi, 4) ** 4
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)
        assert lhs >= -1e-10 * (1 + rhs)


def test_schrodinger_rhs_constant(grid2d):
    c = 0.8 + 0.1j
    st = uniform_state(grid2d, c, (0.0, 0.0), 1.0)
    out = wave_rhs(st, PARAMS)
    expect = -(PARAMS.lam + 1j) * PARAMS.mu * abs(c) ** 2 * c
    assert np.abs(out - expect).max() <= 1e-13


def test_schrodinger_rhs_free_wave(grid2d):
    params = Params(lam=0.0, mu=0.0, nu=0.1, m=0.5, M=1.5, eps=0.2)
    st = uniform_state(grid2d, 1.0, (0.0, 0.0), 1.0, k=(2, 1))
    out = wave_rhs(st, params)
    assert np.abs(out - (-0.5j) * 5.0 * st.psi).max() <= 1e-12


def test_mass_transfer_identity(grid2d, rng):
    for _ in range(20):
        st = random_state(grid2d, rng)
        coupling = coupling_term(st, PARAMS)
        lhs = inner_product(grid2d, st.psi, wave_rhs(st, PARAMS)).real
        rhs = -PARAMS.lam * inner_product(grid2d, st.psi, coupling).real
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1e-12)


def test_mass_exchange_uniform_values(grid2d):
    c = 1.1
    st = uniform_state(grid2d, c, (0.0, 0.0), 1.0)
    out = mass_exchange(st, PARAMS)
    assert np.allclose(out, 2 * PARAMS.lam * PARAMS.mu * c ** 4, atol=1e-12)

    a, k, vel = 0.6, (1, 2), (0.2, 0.1)
    st = uniform_state(grid2d, a, vel, 1.0, k=k)
    beta = 0.5 * sum((ki - vi) ** 2 for ki, vi in zip(k, vel)) + PARAMS.mu * a ** 2
    assert np.allclose(mass_exchange(st, PARAMS), 2 * PARAMS.lam * a ** 2 * beta, atol=1e-12)


def test_exchange_antisymmetry(grid2d, rng):
    # the density gains exactly what the wavefunction mass loses
    for _ in range(20):
        st = random_state(grid2d, rng)
        coupling = coupling_term(st, PARAMS)
        src = integral(grid2d, mass_exchange(st, PARAMS, coupling))
        dmass = 2.0 * inner_product(grid2d, st.psi, wave_rhs(st, PARAMS)).real
        assert abs(src + dmass) <= 1e-10 * max(abs(src), 1e-12)


def test_momentum_sources_vanish_on_constants(grid2d):
    st = uniform_state(grid2d, 0.9 + 0.3j, (0.0, 0.0), 1.0)
    assert np.abs(momentum_source(st, PARAMS)).max() <= 1e-13
    assert np.abs(momentum_source_conservative(st, PARAMS)).max() <= 1e-13


def test_momentum_source_plane_wave(grid2d):
    a, k, vel = 0.7, (2, 1), (0.3, -0.2)
    st = uniform_state(grid2d, a, vel, 1.0, k=k)
    beta = 0.5 * sum((ki - vi) ** 2 for ki, vi in zip(k, vel)) + PARAMS.mu * a ** 2
    expect = 2 * PARAMS.lam * a ** 2 * beta * np.array([k[0] - vel[0], k[1] - vel[1]])
    out = momentum_source(st, PARAMS)
    for i in range(2):
        assert np.allclose(out[i], expect[i], atol=1e-11)


def test_source_form_equivalence(grid2d, rng):
    # conservative - nonconservative - drag is a pure gradient:
    # its Leray projection vanishes
    plan = plan_for(grid2d)
    for _ in range(20):
        st = random_state(grid2d, rng)
        coupling = coupling_term(st, PARAMS)
        cons = momentum_source_conservative(st, PARAMS, coupling)
        noncons = momentum_source(st, PARAMS, coupling)
        drag_scalar = (np.conj(st.psi) * coupling).real
        drag = 2 * PARAMS.lam * np.stack(
            [plan.dealias(st.u[i] * drag_scalar) for i in range(2)]
        )
        projected, _ = plan.leray_project(cons - noncons - drag)
        scale = max(np.abs(cons).max(), np.abs(noncons).max(), 1e-30)
        assert np.abs(projected).max() <= 1e-10 * scale


def test_conservative_projection_plane_wave(grid2d):
    plan = plan_for(grid2d)
    a, k = 0.8, (1, 2)

    # with U = 0 the drag vanishes and the projected conservative source
    # equals the non-conservative one outright
    st0 = uniform_state(grid2d, a, (0.0, 0.0), 1.0, k=k)
    proj0, _ = plan.leray_project(momentum_source_conservative(st0, PARAMS))
    non0 = momentum_source(st0, PARAMS)
    assert np.abs(proj0 - non0).max() <= 1e-11

    # with U != 0 the drag carries the difference in the mean mode
    vel = (0.5, -0.1)
    st = uniform_state(grid2d, a, vel, 1.0, k=k)
    coupling = coupling_term(st, PARAMS)
    drag_scalar = (np.conj(st.psi) * coupling).real
    drag = 2 * PARAMS.lam * np.stack([plan.dealias(st.u[i] * drag_scalar) for i in range(2)])
    proj, _ = plan.leray_project(momentum_source_conservative(st, PARAMS, coupling) - drag)
    non = momentum_source(st, PARAMS, coupling)
    assert np.abs(proj - non).max() <= 1e-11


def test_velocity_rhs_at_rest(grid2d):
    st = uniform_state(grid2d, 0.7 + 0.2j, (0.0, 0.0), 1.0)
    assert np.abs(velocity_accel(st, PARAMS)).max() <= 1e-13


def test_velocity_rhs_plane_wave(grid2d):
    a, k, vel, rho0 = 0.6, (1, 1), (0.2, 0.3), 1.1
    st = uniform_state(grid2d, a, vel, rho0, k=k)
    beta = 0.5 * sum((ki - vi) ** 2 for ki, vi in zip(k, vel)) + PARAMS.mu * a ** 2
    expect = 2 * PARAMS.lam * a ** 2 * beta * np.array([k[0] - vel[0], k[1] - vel[1]]) / rho0
    out = velocity_accel(st, PARAMS)
    for i in range(2):
        assert np.allclose(out[i], expect[i], atol=1e-11)


def test_velocity_rhs_manufactured(grid2d):
    # manufactured smooth state with every term active: psi a single lattice
    # mode, a two-mode divergence-free velocity, constant density; the exact
    # acceleration has a closed form evaluated on the mesh
    x, y = grid2d.meshes()
    a, k = 0.5 + 0.3j, (2, 1)
    uu, ww, au, bu = 0.25, -0.15, 0.3, 0.2
    rho0 = 1.2
    psi = a * np.exp(1j * (k[0] * x + k[1] * y))
    u = np.stack([uu + au * np.cos(y), ww + bu * np.cos(x)])
    rho = np.full(grid2d.shape, rho0)
    st = make_state(grid2d, psi, u, rho)

    beta = 0.5 * ((k[0] - u[0]) ** 2 + (k[1] - u[1]) ** 2) + PARAMS.mu * abs(a) ** 2
    source = 2 * PARAMS.lam * abs(a) ** 2 * beta * np.stack([k[0] - u[0], k[1] - u[1]])
    advect = np.stack([u[1] * (-au * np.sin(y)), u[0] * (-bu * np.sin(x))])
    visc = PARAMS.nu * np.stack([-au * np.cos(y), -bu * np.cos(x)])
    expect = -advect + (visc + source) / rho0

    out = velocity_accel(st, PARAMS)
    assert np.abs(out - expect).max() <= 1e-12 * np.abs(expect).max()


def advective_double_dealiased_hat(plan, psi, u, rho, params):
    """Reference: the velocity right-hand side with the momentum source
    dealiased on its own and the advection in advective form,
    dealias(-u.grad(u) + (nu lap(u) + dealias(S)) / rho), and the raw
    source S."""
    st = make_state(plan.grid, psi, u, rho)
    coupling = coupling_term(st, params)
    grad_psi = plan.gradient(psi)
    raw = -2 * params.lam * ((np.conj(grad_psi) * coupling).imag + u * (np.conj(psi) * coupling).real)
    tab = plan.tables(plan.fft(u))
    lap_u = plan.ifft(-tab.k2 * plan.fft(u), u)
    grad_u = plan.ifft(tab.ik[:, None] * plan.fft(u), u)       # [j, i] = d_j u_i
    advect = np.sum(u[:, None] * grad_u, axis=0)
    combined = -advect + (params.nu * lap_u + plan.dealias(raw)) / rho
    return plan.dealias_hat(plan.fft(combined)), raw


@pytest.mark.parametrize("d, n", [(2, 32), (3, 16)])
def test_velocity_rhs_matches_double_dealiased_advective_form(d, n):
    # On band-limited solenoidal fields -div(u u) and -u.grad(u) agree to
    # round-off after truncation (2/3 rule), and so do the one and the two
    # truncations of the source where the density is uniform or the source
    # vanishes (lam = 0).  With both active the forms differ by exactly the
    # truncated (S - dealias(S)) / rho, 1e-4 (2D) to 5e-3 (3D) of the
    # acceleration on these random fields.  Measured agreement: 3e-16;
    # tolerance 1e-13 of max |acceleration|.
    grid = make_grid(d, [n] * d, [2 * np.pi] * d)
    plan = plan_for(grid)
    for lam, rho_var in ((0.8, 0.0), (0.0, 0.2), (0.8, 0.2)):
        params = Params(lam=lam, mu=0.6, nu=0.15, m=0.7, M=1.3, eps=0.3)
        psi, u, rho = random_state_fields(grid, np.random.default_rng(5), rho_var=rho_var)
        u, _ = plan.leray_project(u)
        psi_hat = plan.fft(psi)
        grad_psi = plan.ifft(plan.grad_hat(psi_hat), psi)
        new, _ = velocity_rhs_hat(plan, psi, psi_hat, grad_psi, psi.real ** 2 + psi.imag ** 2,
                                  u, plan.fft(u), rho, params)
        ref, raw = advective_double_dealiased_hat(plan, psi, u, rho, params)
        if lam > 0 and rho_var > 0:
            ref = ref + plan.dealias_hat(plan.fft((raw - plan.dealias(raw)) / rho))
        assert np.abs(new - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("d, n", [(2, 32), (3, 16)])
def test_velocity_rhs_exchange_is_the_mass_source(d, n):
    # the step's density source 2 lam exchange and the drag share the one
    # exchange field velocity_rhs_hat returns; it is mass_exchange's value
    # bit for bit
    grid = make_grid(d, [n] * d, [2 * np.pi] * d)
    plan = plan_for(grid)
    psi, u, rho = random_state_fields(grid, np.random.default_rng(9))
    u, _ = plan.leray_project(u)
    psi_hat = plan.fft(psi)
    grad_psi = plan.ifft(plan.grad_hat(psi_hat), psi)
    _, exchange = velocity_rhs_hat(plan, psi, psi_hat, grad_psi, psi.real ** 2 + psi.imag ** 2,
                                   u, plan.fft(u), rho, PARAMS)
    source = mass_exchange(make_state(grid, psi, u, rho), PARAMS)
    assert np.array_equal(2.0 * PARAMS.lam * exchange, source)


def test_density_floor_check_reports_the_node(grid2d):
    rho = np.full(grid2d.shape, 1.0)
    rho.flat[7] = PARAMS.eps / 2
    with pytest.raises(DensityFloorViolation) as err:
        density_floor_check(rho, PARAMS, 0.125)
    assert err.value.time == 0.125
    assert err.value.value == pytest.approx(PARAMS.eps / 2)
    assert err.value.location == np.unravel_index(7, grid2d.shape)


def test_coupling_quadratic_form_nonnegative(grid2d, rng):
    for _ in range(10):
        st = random_state(grid2d, rng, amp=0.8)
        val = inner_product(grid2d, st.psi, coupling_term(st, PARAMS)).real
        h1 = lp_norm(grid2d, st.psi, 2) ** 2
        assert val >= -1e-10 * (1 + h1)
