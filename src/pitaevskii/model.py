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
returns it for the density source, and transforms the density flux rho u
with the acceleration).  The self-interaction product |psi|^2 psi
(cubic_product) and the squared speed |u|^2 are arguments of these bodies,
and u.grad(psi) an optional one of coupling_hat and wave_nonlinear_hat, so
a caller that holds psi or u over several stages, or over a step and its
measure(), forms them once.  Each body sums its nonlinear terms into one
buffer it owns and transforms that buffer in place.
`pitaevskii validate` checks the
quadratic form, the mass-exchange antisymmetry and the source-form
equivalence on these bodies.  coupling_term, mass_exchange and
momentum_source are physical-space entry points on the same bodies, kept
for validate's source-form check, the tests and the benchmark's span
tracer, which wraps them by name.  momentum_source_conservative is the one
independent form, the cross-check: it differs from the non-conservative
source by a pure gradient plus the mass-exchange drag term.

A run is admissible while the density stays above the floor eps and the
fields stay finite.  PhysicsEvent is the one exception that ends a run
which leaves that set or whose step cannot be taken, with a kind, a time
and a message: density_floor_check raises the "density-floor" kind, the
integrator the others, and run() keeps the event on the trajectory.

Every nonlinear product is truncated by the 2/3 rule.  In the velocity
right-hand side one truncation covers the whole acceleration: the momentum
source enters it untruncated, and the advection is the rotation (Lamb)
form u x curl(u) - grad(|u|^2 / 2), which equals -u.grad(u) and
-div(u u) for solenoidal u, and after truncation equals the truncated
-div(u u) to round-off while u stays inside the dealias ball.  It costs
curl(u) back to physical space (0, 1 or 3 rows in 1D, 2D and 3D) in the
inverse call of nu lap(u), and one forward row for |u|^2 / 2, where the
products u_i u_j took d(d+1)/2 forward rows; the density flux rho u (d
rows) rides the same forward call.  So a fluid stage transforms 10 fields
in 2D and 15 in 3D in four calls, its density right-hand side one more in
one call: a warm split step of a run takes 42 field transforms in 2D and
58 in 3D, in 20 calls.  Initial data is
ingested band-limited, and psi, rho and u stay inside the dealias ball.
The pressure split's remainder enters the velocity right-hand side as
-grad(p*) / rho and is truncated with it, and PCG's correction
(1/rho) grad(p) in the density-weighted projection is truncated before the
final exact Leray projection, so no stage puts u outside the ball (at
most 3.2e-16 of u's L^2 norm over 8 steps of a 64^2 run at contrast 16;
8.4e-8 while PCG's correction was not truncated).  Truncation makes
the quadratic-form and source-equivalence identities below hold to round-off
on the discrete grid.
"""

from dataclasses import dataclass

import numpy as np

from .grid import Grid, check_constraints, pointwise_dot
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
        for name in ("psi", "u", "rho"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite values")
        return self

    def copy(self):
        return State(self.t, self.psi.copy(), self.u.copy(), self.rho.copy(), self.grid)


class PhysicsEvent(Exception):
    """A run left the admissible set, on which the weak-strong uniqueness
    argument holds, or could not take its step: the one exception that ends
    a run early, kept as the trajectory's event.

    kind     -- "density-floor", "blow-up", "cfl" or "projection"
    time     -- when it happened: the stage time of a floor breach or of a
                NaN stage density, the last valid time of any other
                blow-up, the start of the step otherwise
    message  -- the text str(event) gives
    location -- the grid node of a floor breach or a NaN density, else None
    value    -- the density there, else None
    """

    def __init__(self, kind, time, message, location=None, value=None):
        super().__init__(message)
        self.kind = kind
        self.time = time
        self.message = message
        self.location = location
        self.value = value

    def __reduce__(self):
        # pickle and deepcopy rebuild the event from its fields, not from args
        return PhysicsEvent, (self.kind, self.time, self.message, self.location, self.value)


def cubic_product(psi):
    """|psi|^2 psi, the self-interaction's product: a caller that holds psi
    over several stages forms it once and hands it to each."""
    return (psi.real ** 2 + psi.imag ** 2) * psi


def coupling_hat(plan, psi, psi_hat, grad_psi, u, speed2, cubic, params, *, u_dot_grad=None):
    """Spectrum of the coupling operator applied to the wavefunction,

        C[psi] = -0.5 lap(psi) + i u.grad(psi) + 0.5 |u|^2 psi + mu |psi|^2 psi,

    each nonlinear product dealiased.  The associated quadratic form
    Re<psi, C[psi]> equals 0.5 ||(-i grad - u) psi||^2 + mu ||psi||_L4^4 and
    is nonnegative.  psi_hat and grad_psi are the spectrum and gradient of
    psi, speed2 = pointwise_dot(u, u) and cubic = cubic_product(psi), which
    a caller that also needs them forms once; so is u_dot_grad =
    pointwise_dot(u, grad_psi), formed here when not given."""
    if u_dot_grad is None:
        u_dot_grad = pointwise_dot(u, grad_psi)
    # the terms summed into one buffer, in the order a + b + c adds them
    nonlinear = 1j * u_dot_grad
    nonlinear += 0.5 * speed2 * psi
    nonlinear += params.mu * cubic
    lap_term = 0.5 * plan.tables(psi_hat).k2 * psi_hat
    return lap_term + plan.dealias_in_place(plan.fft(nonlinear, overwrite_x=True))


def coupling_term(state, params):
    """C[psi] in physical space (coupling_hat)."""
    plan = plan_for(state.grid)
    psi, u = state.psi, state.u
    psi_hat = plan.fft(psi)
    grad_psi = plan.ifft(plan.grad_hat(psi_hat), psi)
    return plan.ifft(coupling_hat(plan, psi, psi_hat, grad_psi, u, pointwise_dot(u, u),
                                  cubic_product(psi), params), psi)


def wave_nonlinear_hat(plan, psi, grad_psi, cubic, u, speed2, params, *, u_dot_grad=None):
    """Spectrum of the explicit remainder of the wave equation after
    removing (lam+i)/2 * lap, dealiased:
    -i lam u.grad(psi) - (lam/2) |u|^2 psi - (lam + i) mu |psi|^2 psi.
    Takes psi, its gradient grad_psi and cubic = cubic_product(psi) in
    physical space, and the squared speed speed2 = pointwise_dot(u, u),
    which a caller that keeps u frozen over several stages forms once;
    u_dot_grad = pointwise_dot(u, grad_psi) is formed here when not given.
    Its one transform is the forward transform of the sum, in place."""
    if u_dot_grad is None:
        u_dot_grad = pointwise_dot(u, grad_psi)
    # the terms summed into one buffer, in the order a - b - c takes them
    nonlinear = (-1j * params.lam) * u_dot_grad
    nonlinear -= 0.5 * params.lam * speed2 * psi
    nonlinear -= (params.lam + 1j) * params.mu * cubic
    return plan.dealias_in_place(plan.fft(nonlinear, overwrite_x=True))


def _exchange_field(psi, coupling):
    """Re(conj(psi) C[psi]) from psi and coupling = C[psi]: the density
    source is 2 lam times it and the momentum source's drag 2 lam u times
    it.  The one body that forms it."""
    # from the real and imaginary views: no conj or complex product is formed
    exchange = psi.real * coupling.real
    exchange += psi.imag * coupling.imag
    return exchange


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
    # Im(conj(grad psi) C) from the real and imaginary views, in one buffer
    source = grad_psi.real * coupling.imag
    term = grad_psi.imag * coupling.real
    source -= term
    np.multiply(u, exchange, out=term)
    source += term
    source *= -2.0 * params.lam
    return source


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
    """Raise a "density-floor" PhysicsEvent, stamped with time, the node and
    the value there, if the density rho dips below the floor anywhere, or a
    "blow-up" one, stamped with time and the node, if it is NaN somewhere
    (argmin finds a NaN first), which no comparison with the floor sees."""
    idx_flat = int(np.argmin(rho))
    value = float(rho.flat[idx_flat])
    if not value >= params.eps:
        loc = tuple(int(i) for i in np.unravel_index(idx_flat, rho.shape))
        if np.isnan(value):
            raise PhysicsEvent("blow-up", float(time),
                               f"density is NaN at t={time:.6g}, node {loc}", loc)
        raise PhysicsEvent("density-floor", float(time),
                           f"density {value:.6g} fell below the floor {params.eps:.6g} "
                           f"at t={time:.6g}, node {loc}", loc, value)


def _curl_rows(d):
    """(i, j) of each row d_i u_j - d_j u_i of curl(u): none in 1D, the
    vorticity in 2D, and in 3D row k at ((k+1) mod 3, (k+2) mod 3)."""
    return {1: (), 2: ((0, 1),), 3: ((1, 2), (2, 0), (0, 1))}[d]


def _add_lamb_cross(out, u, curl):
    """Add u x curl(u) to the stacked (d, ...) field out, in place and one
    row at a time, from the rows of _curl_rows; in 2D curl(u) is w e_z and
    u x w e_z = (u_1 w, -u_0 w).  Nothing in 1D, where the only solenoidal
    u is constant."""
    if len(u) == 2:
        (w,) = curl
        out[0] += u[1] * w
        out[1] -= u[0] * w
    elif len(u) == 3:
        for k in range(3):
            out[k] += u[(k + 1) % 3] * curl[(k + 2) % 3]
            out[k] -= u[(k + 2) % 3] * curl[(k + 1) % 3]


def velocity_rhs_hat(plan, psi, psi_hat, grad_psi, cubic, u, u_hat, speed2, rho, params,
                     p_star=None, *, viscous=None):
    """Spectra of the pre-projection acceleration of the non-conservative
    momentum equation, -u.grad(u) + (nu lap(u) - grad(p*) + momentum
    source) / rho, and of the density flux rho u, with the exchange field
    Re(conj(psi) C[psi]), which the density equation's source
    2 lam Re(conj(psi) C[psi]) shares with the source's drag: returns
    (accel_hat, flux_hat, exchange), both spectra 2/3-truncated.  p_star is
    the spectrum of p*, which the pressure split
    (SpectralPlan.split_leray_hat) passes and the density-weighted
    projection does not (None: no pressure term).  viscous is the
    multiplier -nu |k|^2 on u_hat's layout, which a caller that solves at
    one nu many times builds once.  One truncation covers the whole
    acceleration, the untruncated source and grad(p*) / rho included.

    The advection is in rotation (Lamb) form, -u.grad(u) =
    u x curl(u) - grad(|u|^2 / 2) for solenoidal u: for u inside the
    dealias ball its products are alias-free after truncation, so it gives
    the truncated -div(u u) to round-off (Zang, Appl. Numer. Math. 7, 1991)
    with fewer transformed rows: 2 in 2D and 4 in 3D (curl(u) and
    |u|^2 / 2), where the d(d+1)/2 products u_i u_j take 3 and 6.
    psi_hat, grad_psi and cubic = cubic_product(psi) are the spectrum,
    gradient and self-interaction product of psi, u_hat the spectrum of u
    and speed2 = pointwise_dot(u, u).  Two transform calls besides the
    coupling's two (its forward transform and C[psi] back to physical
    space): nu lap(u) - grad(p*) and curl(u) back to physical space
    (d + 0, 1 or 3 rows in 1D, 2D and 3D), and
    (nu lap(u) - grad(p*) + source) / rho + u x curl(u), |u|^2 / 2 and
    rho u forward (2d + 1 rows).  So a 2D stage transforms 10 fields and a
    3D one 15."""
    coupling = plan.ifft(coupling_hat(plan, psi, psi_hat, grad_psi, u, speed2, cubic, params),
                         psi, overwrite_x=True)
    exchange = _exchange_field(psi, coupling)
    source = _momentum_source_raw(grad_psi, u, coupling, exchange, params)
    del coupling
    tab = plan.tables(u_hat)
    d = plan.grid.d
    curl_rows = _curl_rows(d)
    explicit = np.empty((d + len(curl_rows),) + u_hat.shape[1:], dtype=u_hat.dtype)
    if viscous is None:
        viscous = -params.nu * tab.k2
    np.multiply(viscous, u_hat, out=explicit[:d])
    if p_star is not None:
        explicit[:d] -= tab.ik * p_star
    for row, (i, j) in enumerate(curl_rows, start=d):
        np.subtract(tab.ik[i] * u_hat[j], tab.ik[j] * u_hat[i], out=explicit[row])
    explicit = plan.ifft(explicit, u)
    explicit[:d] += source
    del source
    # the stack is filled in place, the source formed before and u x curl(u)
    # added row by row, and only the real exchange field is held across its
    # transform: the temporaries of these steps set a 32^3 run's peak memory
    stack = np.empty((2 * d + 1,) + rho.shape)
    np.divide(explicit[:d], rho, out=stack[:d])
    _add_lamb_cross(stack[:d], u, explicit[d:])
    del explicit
    np.multiply(0.5, speed2, out=stack[d])
    np.multiply(rho, u, out=stack[d + 1:])
    spectra = plan.fft(stack)
    del stack
    spectra[:d] -= tab.ik * spectra[d]
    plan.dealias_in_place(spectra)
    return spectra[:d], spectra[d + 1:], exchange
