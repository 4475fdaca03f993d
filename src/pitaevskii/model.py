"""Right-hand sides of the coupled wavefunction / fluid / density system.

The model couples a nonlinear Schrodinger wavefunction psi to an
incompressible, variable-density viscous flow (u, rho) through the coupling
operator

    C[psi] = 0.5 * (-i grad - u)^2 psi + mu |psi|^2 psi
           = -0.5 lap(psi) + i u.grad(psi) + 0.5 |u|^2 psi + mu |psi|^2 psi

(the expansion uses div(u) = 0).  The evolution equations are

    dt psi = -lam * C[psi] + (i/2) lap(psi) - i mu |psi|^2 psi
    dt rho + div(rho u) = 2 lam Re(conj(psi) C[psi])
    rho (dt u + u.grad u) + grad(ptilde) - nu lap(u)
        = -2 lam Im(grad(conj(psi)) C[psi]) - 2 lam u Re(conj(psi) C[psi])

with the pressure eliminated by Leray projection.  Each right-hand side has
one body, in the spectral form the integrator composes: coupling_hat (the
spectrum of C[psi]), wave_nonlinear_hat (the wave equation beyond its linear
(lam+i)/2 lap part, which the wave substep integrates exactly) and
velocity_rhs_hat (the pre-projection acceleration, which forms the exchange
field Re(conj(psi) C[psi]) once, by _exchange_field, for the drag and
returns it for the density source).  `pitaevskii validate` checks the
quadratic form, the mass-exchange antisymmetry and the source-form
equivalence on these bodies.  coupling_term, mass_exchange and
momentum_source are physical-space entry points on the same bodies, kept
for validate's source-form check, the tests and the benchmark's span
tracer, which wraps them by name.  momentum_source_conservative is the one
independent form, the cross-check: it differs from the non-conservative
source by a pure gradient plus the mass-exchange drag term.

Every nonlinear product is truncated by the 2/3 rule.  In the velocity
right-hand side one truncation covers the whole acceleration: the momentum
source enters it untruncated, and the advection is the divergence form
-div(u u), which equals -u.grad(u) for solenoidal u.  Initial data is
ingested band-limited, and psi and rho stay inside the dealias ball.  u
stays there only up to the correction (1/rho) grad(p) of the
density-weighted projection, which is not truncated and leaves a small
fraction of u's norm outside (1e-11 to 1e-7 of its fluctuation norm at
64^2, growing with the density contrast).  Truncation makes the
quadratic-form and source-equivalence identities below hold to round-off
on the discrete grid.
"""

from dataclasses import dataclass

import numpy as np

from .grid import Grid, check_constraints, pointwise_dot, require_finite
from .spectral import plan_for


@dataclass(frozen=True)
class Params:
    """Model constants.

    lam   -- relaxation / mutual-friction coefficient (>= 0; the physical
             model has lam > 0, the degenerate value exists for dispersive
             and reversal checks)
    mu    -- wavefunction self-interaction (>= 0)
    nu    -- kinematic viscosity (>= 0; same remark as lam)
    m, M  -- initial density bounds (0 < m <= M)
    eps   -- allowed density infimum (0 < eps < m); a run ends when the
             density touches this floor
    delta -- Sobolev index offset in (0, 1/2) used by the diagnostics norms
    gamma -- free constant in the logged growth functional (not fixed by the
             model; informational only)
    """

    lam: float
    mu: float
    nu: float
    m: float
    M: float
    eps: float
    delta: float = 0.25
    gamma: float = 1.0

    def __post_init__(self):
        check_constraints([
            (("lam",), "lambda must be >= 0", self.lam >= 0),
            (("mu",), "mu must be >= 0", self.mu >= 0),
            (("nu",), "nu must be >= 0", self.nu >= 0),
            (("m", "M"), "density bounds must satisfy 0 < m <= M", 0 < self.m <= self.M),
            (("eps", "m"), "epsilon must lie in (0, m)", 0 < self.eps < self.m),
            (("delta",), "delta must lie in (0, 0.5)", 0 < self.delta < 0.5),
        ])

    @property
    def m_prime(self):
        """Upper density bound M + m - eps implied by the floor."""
        return self.M + self.m - self.eps


@dataclass
class State:
    """One trajectory point: time plus the three fields on a shared grid."""

    t: float
    psi: np.ndarray
    u: np.ndarray
    rho: np.ndarray
    grid: Grid

    def validate(self):
        g = self.grid
        if not g.is_scalar(self.psi) or not np.iscomplexobj(self.psi):
            raise ValueError("psi must be a complex scalar field on the state grid")
        if not g.is_vector(self.u) or np.iscomplexobj(self.u):
            raise ValueError("u must be a real vector field on the state grid")
        if not g.is_scalar(self.rho) or np.iscomplexobj(self.rho):
            raise ValueError("rho must be a real scalar field on the state grid")
        require_finite(self.psi, "psi")
        require_finite(self.u, "u")
        require_finite(self.rho, "rho")
        return self

    def copy(self):
        return State(self.t, self.psi.copy(), self.u.copy(), self.rho.copy(), self.grid)


class DensityFloorViolation(Exception):
    """The density dropped to the configured floor; carries the event data."""

    def __init__(self, time, location, value, floor):
        self.time = float(time)
        self.location = tuple(int(i) for i in location)
        self.value = float(value)
        self.floor = float(floor)
        super().__init__(
            f"density {value:.6g} fell below the floor {floor:.6g} "
            f"at t={time:.6g}, node {self.location}"
        )


class BlowUp(Exception):
    """Non-finite values appeared; carries the last valid time."""

    def __init__(self, last_valid_time, where):
        self.last_valid_time = float(last_valid_time)
        self.where = where
        super().__init__(f"non-finite values in {where}; last valid time t={last_valid_time:.6g}")


def coupling_hat(plan, psi, psi_hat, grad_psi, u, speed2, psi2, params):
    """Spectrum of the coupling operator applied to the wavefunction,

        C[psi] = -0.5 lap(psi) + i u.grad(psi) + 0.5 |u|^2 psi + mu |psi|^2 psi,

    each nonlinear product dealiased.  The associated quadratic form
    Re<psi, C[psi]> equals 0.5 ||(-i grad - u) psi||^2 + mu ||psi||_L4^4 and
    is nonnegative.  psi_hat and grad_psi are the spectrum and gradient of
    psi, speed2 = pointwise_dot(u, u) and psi2 = psi.real**2 + psi.imag**2
    the squared moduli, which a caller that also needs them forms once."""
    nonlinear = (
        1j * pointwise_dot(u, grad_psi)
        + 0.5 * speed2 * psi
        + params.mu * psi2 * psi
    )
    lap_term = 0.5 * plan.tables(psi_hat).k2 * psi_hat
    return lap_term + plan.dealias_hat(plan.fft(nonlinear))


def coupling_term(state, params):
    """C[psi] in physical space (coupling_hat)."""
    plan = plan_for(state.grid)
    psi, u = state.psi, state.u
    psi_hat = plan.fft(psi)
    grad_psi = plan.ifft(plan.grad_hat(psi_hat), psi)
    return plan.ifft(coupling_hat(plan, psi, psi_hat, grad_psi, u, pointwise_dot(u, u),
                                  psi.real ** 2 + psi.imag ** 2, params), psi)


def wave_nonlinear_hat(plan, psi, grad_psi, u, speed2, params):
    """Spectrum of the explicit remainder of the wave equation after
    removing (lam+i)/2 * lap, dealiased:
    -i lam u.grad(psi) - (lam/2) |u|^2 psi - (lam + i) mu |psi|^2 psi.
    Takes psi and its gradient grad_psi in physical space, and the squared
    speed speed2 = pointwise_dot(u, u), which a caller that keeps u frozen
    over several stages forms once; its one transform is the forward
    transform of the sum."""
    u_dot_grad = pointwise_dot(u, grad_psi)
    cubic = (psi.real ** 2 + psi.imag ** 2) * psi
    return plan.dealias_hat(plan.fft(
        (-1j * params.lam) * u_dot_grad
        - 0.5 * params.lam * speed2 * psi
        - (params.lam + 1j) * params.mu * cubic
    ))


def _exchange_field(psi, coupling):
    """Re(conj(psi) C[psi]) from psi and coupling = C[psi]: the density
    source is 2 lam times it and the momentum source's drag 2 lam u times
    it.  The one body that forms it."""
    # a copy, since the .real view would hold the complex product
    return (np.conj(psi) * coupling).real.copy()


def mass_exchange(state, params, coupling=None):
    """Source of the density equation, 2 lam Re(conj(psi) C[psi]).

    Its integral is 2 lam Re<psi, C[psi]> >= 0 and balances the decay of
    the wavefunction mass exactly, so total mass int(rho) + int(|psi|^2) is
    conserved by the coupled dynamics.
    """
    if coupling is None:
        coupling = coupling_term(state, params)
    return 2.0 * params.lam * _exchange_field(state.psi, coupling)


def _momentum_source_raw(grad_psi, u, coupling, exchange, params):
    """-2 lam Im(grad(conj(psi)) C[psi]) - 2 lam u exchange, exchange being
    Re(conj(psi) C[psi]), not dealiased: velocity_rhs_hat truncates it with
    the rest of the acceleration."""
    flux = (np.conj(grad_psi) * coupling).imag
    return -2.0 * params.lam * (flux + u * exchange)


def momentum_source(state, params, coupling=None):
    """Non-conservative momentum source, the one that drives the integrator:
    -2 lam Im(grad(conj(psi)) C[psi]) - 2 lam u Re(conj(psi) C[psi]),
    dealiased.  The physical-space entry point on _momentum_source_raw,
    which velocity_rhs_hat adds to the acceleration untruncated."""
    plan = plan_for(state.grid)
    if coupling is None:
        coupling = coupling_term(state, params)
    return plan.dealias(_momentum_source_raw(plan.gradient(state.psi), state.u, coupling,
                                             _exchange_field(state.psi, coupling), params))


def momentum_source_conservative(state, params, coupling=None):
    """Conservative momentum source; kept for cross-validation only.

    -2 lam Im(grad(conj(psi)) C[psi]) + lam grad(Im(conj(psi) C[psi]))
    + (mu/2) grad(|psi|^4).  The difference from the non-conservative form is
    a pure gradient plus the mass-exchange drag 2 lam u Re(conj(psi) C[psi]),
    so it vanishes under Leray projection once the drag is subtracted.
    """
    plan = plan_for(state.grid)
    psi = state.psi
    if coupling is None:
        coupling = coupling_term(state, params)
    flux = -2.0 * params.lam * plan.dealias((np.conj(plan.gradient(psi)) * coupling).imag)
    imag_pair = plan.dealias((np.conj(psi) * coupling).imag)
    quartic = plan.dealias((psi.real ** 2 + psi.imag ** 2) ** 2)
    return flux + params.lam * plan.gradient(imag_pair) + 0.5 * params.mu * plan.gradient(quartic)


def density_floor_check(rho, params, time):
    """Raise DensityFloorViolation, stamped with time, if the density rho
    dips below the floor anywhere."""
    idx_flat = int(np.argmin(rho))
    value = float(rho.flat[idx_flat])
    if value < params.eps:
        loc = np.unravel_index(idx_flat, rho.shape)
        raise DensityFloorViolation(time, loc, value, params.eps)


def velocity_rhs_hat(plan, psi, psi_hat, grad_psi, psi2, u, u_hat, rho, params):
    """Spectrum of the pre-projection acceleration of the non-conservative
    momentum equation, -div(u u) + (nu lap(u) + momentum source) / rho,
    and the exchange field Re(conj(psi) C[psi]), which the density equation's
    source 2 lam Re(conj(psi) C[psi]) shares with the source's drag.  One
    2/3-rule truncation covers the whole sum, the untruncated source
    included; the divergence form of the advection equals -u.grad(u) for
    solenoidal u.  psi_hat, grad_psi and psi2 = psi.real**2 + psi.imag**2
    are the spectrum, gradient and squared modulus of psi, u_hat the
    spectrum of u.  Three transform calls besides the coupling's two (its
    forward transform and C[psi] back to physical space): lap(u) back to
    physical space, and (nu lap(u) + source) / rho forward together with
    the d(d+1)/2 products u_i u_j, stacked in one call."""
    coupling = plan.ifft(coupling_hat(plan, psi, psi_hat, grad_psi, u, pointwise_dot(u, u), psi2,
                                      params), psi)
    exchange = _exchange_field(psi, coupling)
    tab = plan.tables(u_hat)
    explicit = plan.ifft(-tab.k2 * u_hat, u)
    explicit *= params.nu
    explicit += _momentum_source_raw(grad_psi, u, coupling, exchange, params)
    del coupling
    # -div(u u): d(d+1)/2 forward transforms of the products u_i u_j, where
    # the advective form takes d^2 inverse transforms of grad(u).  The stack
    # is filled in place and only the real exchange field is held across its
    # transform, which sets a 32^3 run's peak memory
    d = plan.grid.d
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    stack = np.empty((d + len(pairs),) + rho.shape)
    np.divide(explicit, rho, out=stack[:d])
    del explicit
    for row, (i, j) in enumerate(pairs, start=d):
        np.multiply(u[i], u[j], out=stack[row])
    spectra = plan.fft(stack)
    accel_hat = spectra[:d]
    uu_hat = dict(zip(pairs, spectra[d:]))
    # the contraction is written out per component, since a broadcast
    # (d, d, ...) temporary is twice as slow at 32^3
    for i in range(d):
        for j in range(d):
            accel_hat[i] -= tab.ik[j] * uu_hat[min(i, j), max(i, j)]
    return plan.dealias_hat(accel_hat), exchange
