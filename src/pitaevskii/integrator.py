"""Time stepping: Strang-split wavefunction step, IMEX projection step for the
fluid, explicit dealiased transport for the density.

One step of size dt is the composition

    wave half-step  ->  fluid + density full step  ->  wave half-step

* The wave substep treats the linear part exactly in Fourier space.  The
  relaxation contributes +lam/2 * lap(psi) (real diffusion) on top of the
  i/2 * lap(psi) dispersion, so the multiplier is exp(-(lam+i)/2 |k|^2 tau);
  the remaining advection/potential/cubic terms advance with an explicit
  midpoint stage.
* The fluid substep is a midpoint predictor-corrector with Crank-Nicolson
  viscosity at a constant reference density rho_bar = (m+M)/2 (the
  variable-density remainder is explicit), followed by Leray projection.
  Each stage's acceleration stays a spectrum through the density-weighted
  pressure projection and into its Helmholtz solve, and the pressures are
  kept as spectra.
* Pressure warm starts: run() carries a PressureHistory, the pressure
  spectra of the last two steps.  The predictor's solve starts from their
  linear extrapolation in time, the corrector's from this step's predictor
  pressure plus the last step's corrector - predictor offset.  step() on its
  own starts the predictor cold and the corrector from the predictor.  Both
  solve to the same tolerance, so the trajectories agree to round-off times
  that tolerance.
* The density advances with the same midpoint staging: spectral dealiased
  transport plus the mass-exchange source.

Each piece has local error O(dt^3), so the composition is second order.
A step that would drag the density below the configured floor raises
DensityFloorViolation; non-finite values raise BlowUp with the last valid
time; a pressure projection that misses its tolerance raises
ProjectionNotConverged.  run() converts each into a structured event on the
trajectory.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .diagnostics import measure
from .model import (
    BlowUp,
    DensityFloorViolation,
    State,
    density_floor_check,
    mass_exchange,
    velocity_rhs_hat,
    wave_nonlinear_hat,
)
from .norms import lp_norm
from .spectral import ProjectionNotConverged, plan_for


@dataclass(frozen=True)
class StepConfig:
    dt_init: float
    dt_min: float = 1e-9
    dt_max: float = 1.0
    cfl: float = 0.4
    adaptive: bool = False
    dealias: bool = True

    def __post_init__(self):
        if not 0 < self.dt_min <= self.dt_init <= self.dt_max:
            raise ValueError(
                f"need 0 < dt_min <= dt_init <= dt_max, got "
                f"{self.dt_min}, {self.dt_init}, {self.dt_max}"
            )
        if not 0 < self.cfl <= 1:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")


class CflViolation(Exception):
    """The CFL-admissible step fell below dt_min."""

    def __init__(self, proposal, dt_min, time):
        self.proposal = proposal
        self.dt_min = dt_min
        self.time = time
        super().__init__(
            f"CFL-admissible dt {proposal:.3e} below dt_min {dt_min:.3e} at t={time:.6g}"
        )


@dataclass
class PhysicsEvent:
    kind: str                 # "density-floor", "blow-up", "cfl" or "projection"
    time: float
    message: str
    location: Optional[tuple] = None
    value: Optional[float] = None


@dataclass
class Trajectory:
    records: list
    snapshots: list = field(default_factory=list)   # (time, State) pairs
    event: Optional[PhysicsEvent] = None
    final_state: Optional[State] = None

    @property
    def times(self):
        return np.array([r.t for r in self.records])


def _wave_substep(plan, psi, psi_hat, u, params, tau):
    """Advance the wavefunction by tau with u frozen: exact linear flow
    bracketed around an explicit midpoint stage for the rest.  Takes and
    returns psi together with its spectrum psi_hat."""
    lin = np.exp(-(params.lam + 1j) * 0.5 * plan.tables(psi_hat).k2 * (0.5 * tau))
    psi_hat = lin * psi_hat
    psi = plan.ifft(psi_hat, psi)
    k1_hat = wave_nonlinear_hat(plan, psi, psi_hat, u, params)
    mid_hat = psi_hat + 0.5 * tau * k1_hat
    k2_hat = wave_nonlinear_hat(plan, plan.ifft(mid_hat, psi), mid_hat, u, params)
    psi_hat = lin * (psi_hat + tau * k2_hat)
    return plan.ifft(psi_hat, psi), psi_hat


def _fluid_explicit_accel(plan, psi, psi_hat, grad_psi, u, u_hat, rho, params, rho_bar):
    """Spectrum of the acceleration minus the implicit (nu/rho_bar) lap(u)
    part, and the coupling field; u_hat is the spectrum of u, psi_hat and
    grad_psi those of the frozen psi."""
    accel_hat, coupling = velocity_rhs_hat(plan, psi, psi_hat, grad_psi, u, u_hat, rho, params)
    return accel_hat + (params.nu / rho_bar) * plan.tables(u_hat).k2 * u_hat, coupling


def _density_rhs(plan, psi, u, rho, params, coupling):
    # divergence of the dealiased flux, fused in spectral space
    state = State(0.0, psi, u, rho, plan.grid)
    div_hat = plan.div_hat(plan.dealias_hat(plan.fft(rho * u)))
    return -plan.ifft(div_hat, rho) + mass_exchange(state, params, coupling)


class PressureHistory:
    """Pressure spectra of the last two accepted steps, which run() carries
    from step to step to warm-start both projections of the next one.

    The predictor's guess extrapolates the predictor pressures of the last
    two steps linearly to the start of this step,
    P_-1 + (dt_-1 / dt_-2) (P_-1 - P_-2), which is 2 P_-1 - P_-2 at fixed dt;
    the corrector's guess is this step's predictor pressure plus the last
    step's corrector - predictor offset.  An empty history is a cold start:
    no guess for the predictor, the predictor's pressure for the corrector.
    Memory is O(1) in the horizon.
    """

    def __init__(self):
        self._steps = []      # (dt, predictor pressure, corrector - predictor), newest last

    def predictor_guess(self):
        if not self._steps:
            return None
        if len(self._steps) == 1:
            return self._steps[0][1]
        (dt_2, p_2, _), (dt_1, p_1, _) = self._steps
        return p_1 + (dt_1 / dt_2) * (p_1 - p_2)

    def corrector_guess(self, predictor):
        if not self._steps:
            return predictor
        return predictor + self._steps[-1][2]

    def push(self, dt, predictor, corrector):
        self._steps = self._steps[-1:] + [(dt, predictor, corrector - predictor)]


def _fluid_substep(plan, psi, psi_hat, u, rho, params, dt, t0, history):
    """Midpoint IMEX step for (u, rho) with psi frozen.

    The pressure enters through the density-weighted projection of the
    acceleration: ut = a - (1/rho) grad(p) with a true scalar pressure, so
    the gradient stays energy-orthogonal to the velocity and u remains
    divergence-free.  With uniform density this is the plain Leray
    projection.  The projections and the Helmholtz solves act on spectra:
    each projected acceleration spectrum feeds its Helmholtz solve directly,
    the predictor's u_hat also serves the corrector's lap(u), and the
    midpoint velocity's spectrum feeds the corrector's acceleration.
    Both projections start from the guesses of the PressureHistory.
    Returns (u, rho, predictor pressure spectrum, corrector pressure
    spectrum).
    """
    rho_bar = 0.5 * (params.m + params.M)
    alpha = params.nu * dt / (2.0 * rho_bar)
    grad_psi = plan.ifft(plan.grad_hat(psi_hat), psi)
    u_hat = plan.fft(u)
    alpha_k2 = alpha * plan.tables(u_hat).k2

    accel0_hat, coupling0 = _fluid_explicit_accel(plan, psi, psi_hat, grad_psi, u, u_hat, rho,
                                                  params, rho_bar)
    accel0_hat, p_pred = plan.weighted_leray_hat(accel0_hat, rho,
                                                 initial_pressure_hat=history.predictor_guess())
    u_half_hat = (u_hat + 0.5 * dt * accel0_hat) / (1.0 + alpha_k2)
    u_half = plan.ifft(u_half_hat, u)
    rho_half = rho + 0.5 * dt * _density_rhs(plan, psi, u, rho, params, coupling0)
    density_floor_check(rho_half, params, t0 + 0.5 * dt)

    accel1_hat, coupling1 = _fluid_explicit_accel(plan, psi, psi_hat, grad_psi, u_half, u_half_hat,
                                                  rho_half, params, rho_bar)
    accel1_hat, p_corr = plan.weighted_leray_hat(accel1_hat, rho_half,
                                                 initial_pressure_hat=history.corrector_guess(p_pred))
    u_new = plan.ifft(((1.0 - alpha_k2) * u_hat + dt * accel1_hat) / (1.0 + alpha_k2), u)
    rho_new = rho + dt * _density_rhs(plan, psi, u_half, rho_half, params, coupling1)
    density_floor_check(rho_new, params, t0 + dt)
    return u_new, rho_new, p_pred, p_corr


def step(state, params, dt, config=None, *, history=None):
    """Advance one Strang step of size dt (dt < 0 is allowed for reversal
    experiments with the dissipative constants set to zero).

    The pressure projections start cold unless a PressureHistory is passed;
    run() passes its own, and an accepted step is pushed onto it.
    """
    if dt == 0:
        raise ValueError("dt must be nonzero")
    if history is None:
        history = PressureHistory()
    truncate = config.dealias if config is not None else True
    plan = plan_for(state.grid, truncate=truncate)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        psi, psi_hat = _wave_substep(plan, state.psi, plan.fft(state.psi), state.u, params, 0.5 * dt)
        u, rho, p_pred, p_corr = _fluid_substep(plan, psi, psi_hat, state.u, state.rho, params,
                                                dt, state.t, history)
        psi, _ = _wave_substep(plan, psi, psi_hat, u, params, 0.5 * dt)
    new = State(state.t + dt, psi, u, rho, state.grid)
    if not (np.all(np.isfinite(psi)) and np.all(np.isfinite(u)) and np.all(np.isfinite(rho))):
        raise BlowUp(state.t, "step output")
    history.push(dt, p_pred, p_corr)
    return new


def adaptive_dt(state, config):
    """CFL-limited step: clamp(cfl * dx / (||u||_inf + c0), dt_min, dt_max)
    with c0 = max(1, k_max/2) covering the explicit dispersive residuals."""
    g = state.grid
    umax = lp_norm(g, state.u, np.inf)
    c0 = max(1.0, 0.5 * g.k_max)
    proposal = config.cfl * min(g.dx) / (umax + c0)
    if proposal < config.dt_min:
        raise CflViolation(proposal, config.dt_min, state.t)
    return min(max(proposal, config.dt_min), config.dt_max)


def ingest(state, params):
    """Validate and normalize initial data: band-limit the fields and project
    the velocity onto its divergence-free part.  Requires rho0 in [m, M]."""
    state.validate()
    if state.t != 0.0:
        raise ValueError(f"initial state must start at t=0, got t={state.t}")
    rmin, rmax = float(state.rho.min()), float(state.rho.max())
    if rmin < params.m or rmax > params.M:
        raise ValueError(
            f"initial density must lie in [m, M] = [{params.m}, {params.M}], "
            f"got range [{rmin:.6g}, {rmax:.6g}]"
        )
    plan = plan_for(state.grid)
    psi = plan.dealias(state.psi)
    rho = plan.dealias(state.rho)
    u, _ = plan.leray_project(plan.dealias(state.u))
    return State(0.0, psi, u, rho, state.grid)


def run(initial, params, config, horizon, observers=(), snapshot_every=0, store_states=False):
    """Integrate from t=0 to the horizon and collect diagnostics.

    A record is produced for every accepted step (the initial state included).
    Observers are called after each accepted step with (time, state, record)
    and must not mutate the state.  snapshot_every > 0 stores a state copy
    every that many steps (plus the initial and final states); store_states
    stores every step, which the stability harness uses at desk scales.

    Density-floor violations, blow-ups, CFL failures and a pressure
    projection that misses its tolerance end the run early with a structured
    event on the trajectory; the records collected so far are kept.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    state = ingest(initial, params)
    rec = measure(state, params)
    records = [rec]
    snapshots = []
    if snapshot_every > 0 or store_states:
        snapshots.append((state.t, state.copy()))
    event = None
    n_steps = 0
    history = PressureHistory()
    tiny = 1e-12 * max(1.0, horizon)
    while state.t < horizon - tiny:
        try:
            dt = adaptive_dt(state, config) if config.adaptive else config.dt_init
            dt = min(dt, horizon - state.t)
            new_state = step(state, params, dt, config, history=history)
        except DensityFloorViolation as exc:
            event = PhysicsEvent("density-floor", exc.time, str(exc), exc.location, exc.value)
            break
        except BlowUp as exc:
            event = PhysicsEvent("blow-up", exc.last_valid_time, str(exc))
            break
        except CflViolation as exc:
            event = PhysicsEvent("cfl", exc.time, str(exc))
            break
        except ProjectionNotConverged as exc:
            event = PhysicsEvent("projection", state.t, str(exc))
            break
        rec = measure(new_state, params, prev_state=state)
        records.append(rec)
        n_steps += 1
        state = new_state
        if store_states or (snapshot_every > 0 and n_steps % snapshot_every == 0):
            snapshots.append((state.t, state.copy()))
        for obs in observers:
            obs(state.t, state, rec)
    if snapshot_every > 0 and not store_states and (not snapshots or snapshots[-1][0] != state.t):
        snapshots.append((state.t, state.copy()))
    return Trajectory(records=records, snapshots=snapshots, event=event, final_state=state)
