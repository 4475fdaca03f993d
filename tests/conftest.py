import numpy as np
import pytest

from pitaevskii import integrator
from pitaevskii.grid import make_grid, pointwise_dot
from pitaevskii.initial_conditions import gaussian_random_field
from pitaevskii.model import State, cubic_product, velocity_rhs_hat, wave_nonlinear_hat
from pitaevskii.spectral import SpectralPlan, plan_for


def random_vector_field(grid, rng, kc=3.0, band_limit=True):
    return np.stack([gaussian_random_field(grid, rng, kc, band_limit=band_limit) for _ in range(grid.d)])


def random_state_fields(grid, rng, kc=3.0, amp=0.5, rho_mean=1.0, rho_var=0.2):
    """A smooth random (psi, u, rho) triple; u is not yet projected and rho
    stays within rho_mean +/- rho_var."""
    psi = amp * gaussian_random_field(grid, rng, kc, complex_field=True)
    u = amp * random_vector_field(grid, rng, kc)
    raw = gaussian_random_field(grid, rng, kc)
    scale = np.abs(raw).max()
    rho = rho_mean + (rho_var * raw / scale if scale > 0 else 0.0)
    return psi, u, rho


def smooth_2d_state(grid, amp=0.4, m=0.8, M=1.2):
    """Low-mode 2D data with rho spanning 0.5(m+M) +/- 0.45(M-m): contrast
    1.44 at the default m, M and 16 at m = 0.1, M = 10."""
    x, y = grid.meshes()
    psi = amp * (np.cos(x) * np.cos(y) + 0.5j * (np.sin(x) + np.cos(y)) + 0.3)
    u = amp * np.stack([np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)])
    rho = 0.5 * (m + M) + 0.45 * (M - m) * np.cos(x) * np.cos(y)
    return State(0.0, psi.astype(complex), u, rho, grid)


def _spectrum_and_gradient(plan, psi):
    psi_hat = plan.fft(psi)
    return psi_hat, plan.ifft(plan.grad_hat(psi_hat), psi)


def wave_rhs(state, params):
    """dt psi in physical space as the wave substep integrates it: the linear
    part -(lam+i)/2 |k|^2 psi_hat plus wave_nonlinear_hat."""
    plan = plan_for(state.grid)
    psi, u = state.psi, state.u
    psi_hat, grad_psi = _spectrum_and_gradient(plan, psi)
    linear = -(params.lam + 1j) * 0.5 * plan.tables(psi_hat).k2 * psi_hat
    nonlinear = wave_nonlinear_hat(plan, psi, grad_psi, cubic_product(psi), u, pointwise_dot(u, u),
                                   params)
    return plan.ifft(linear + nonlinear, psi)


def velocity_accel(state, params):
    """velocity_rhs_hat's pre-projection acceleration in physical space."""
    plan = plan_for(state.grid)
    psi, u = state.psi, state.u
    psi_hat, grad_psi = _spectrum_and_gradient(plan, psi)
    accel_hat, _, _ = velocity_rhs_hat(plan, psi, psi_hat, grad_psi, cubic_product(psi), u,
                                       plan.fft(u), pointwise_dot(u, u), state.rho, params)
    return plan.ifft(accel_hat, u)


def fold_pressure(plan, vhat, weight, pressure_hat):
    """vhat - T fft((1/weight) grad(p*)), T the 2/3 truncation: for a
    band-limited vhat, the acceleration spectrum with the pressure split's
    p* folded in, as velocity_rhs_hat forms it."""
    grad_p = plan.ifft(plan.grad_hat(pressure_hat), weight)
    return vhat - plan.dealias_hat(plan.fft(grad_p / weight))


def untruncated_split_leray_hat(plan, vhat, weight, pressure_hat):
    """The pressure split with an untruncated remainder, which forms its own
    flux (d inverse and d forward transforms): the exact Leray projection of
    vhat - fft((1/weight - 1/rho0) grad(p*)), rho0 = min weight, with
    pressure rho0 chi.  vhat is the acceleration without p*."""
    rho0 = float(np.min(weight))
    grad_p = plan.ifft(plan.grad_hat(pressure_hat), weight)
    what, chihat = plan.leray_hat(vhat - plan.fft((1.0 / weight - 1.0 / rho0) * grad_p))
    return what, rho0 * chihat


def untruncated_weighted_leray_hat(plan, vhat, weight, pressure_hat):
    """The density-weighted projection's velocity with its final correction
    untruncated, from the pressure spectrum its PCG solve returned: the
    exact Leray projection of vhat - fft((1/weight) grad(p)).  The shipped
    body truncates the correction by the 2/3 rule."""
    grad_p = plan.ifft(plan.grad_hat(pressure_hat), weight)
    return plan.leray_hat(vhat - plan.fft(grad_p / weight))[0]


def use_untruncated_split(monkeypatch):
    """Make run() take untruncated_split_leray_hat for the pressure split,
    its stages' accelerations formed without p*."""
    accel = integrator._fluid_explicit_accel
    monkeypatch.setattr(integrator, "_fluid_explicit_accel", lambda *args: accel(*args[:10], None))
    monkeypatch.setattr(SpectralPlan, "split_leray_hat", untruncated_split_leray_hat)


@pytest.fixture
def grid2d():
    return make_grid(2, [32, 32], [2 * np.pi, 2 * np.pi])


@pytest.fixture
def grid1d():
    return make_grid(1, [64], [2 * np.pi])


@pytest.fixture
def grid3d():
    return make_grid(3, [16, 16, 16], [2 * np.pi, 2 * np.pi, 2 * np.pi])


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
