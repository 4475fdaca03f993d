"""Time stepping: Strang-split wavefunction step, IMEX projection step for the
fluid, explicit dealiased transport for the density.

One step of size dt is the composition

    wave half-step  ->  fluid + density full step  ->  wave half-step

* The wave substep treats the linear part exactly in Fourier space.  The
  relaxation contributes +lam/2 * lap(psi) (real diffusion) on top of the
  i/2 * lap(psi) dispersion, so the multiplier is exp(-(lam+i)/2 |k|^2 tau);
  the remaining advection/potential/cubic terms advance with the
  integrating-factor (Lawson) midpoint rule, whose first stage is evaluated
  at the substep's start.  There psi and grad(psi) already exist in
  physical space: the first wave half-step reads them from the previous
  step's last inverse transform, the second from the fluid substep's
  frozen fields.  So only each midpoint stage transforms back.
* The fluid substep is a midpoint predictor-corrector with Crank-Nicolson
  viscosity at a constant reference density rho_bar = (m+M)/2 (the
  variable-density remainder is explicit), followed by a pressure
  projection.  Each stage's acceleration stays a spectrum through the
  projection and into its Helmholtz solve, and the pressures are kept as
  spectra.  A stage projects in one of two ways:
  - the density-weighted projection, a PCG solve of the variable-coefficient
    pressure equation (SpectralPlan.weighted_leray_hat);
  - the constant-coefficient pressure split (SpectralPlan.split_leray_hat):
    (1/rho) grad p = (1/rho0) grad p + (1/rho - 1/rho0) grad p*, with rho0
    the stage density's minimum and p* the pressure extrapolated from the
    history, so the stage costs one exact Leray projection and one flux (d
    inverse and d forward transforms) instead of an iteration.  A stage
    takes it when the history holds a step that started before this one
    and the stage density's contrast max/min is below
    spectral.DENSITY_PRECONDITIONER_CONTRAST (4): from a run's second step
    on.  A run's first step, a lone step() and every stage from contrast 4
    on solve by PCG.
* run() carries a StepHistory from step to step.  It holds:
  - the pressure spectra of the last four steps.  A PCG solve starts from
    their extrapolation in time: the predictor's from the cubic through the
    predictor pressures, the corrector's from this step's predictor
    pressure plus the quadratic through the last three corrector -
    predictor offsets (lower orders while fewer steps exist).  The split's
    p* takes lines through the last two of each instead: with quadratic
    offsets it is unstable from contrast 2.  After one step the predictor's
    line runs through that step's predictor and corrector pressures, at its
    start and its midpoint.  step() on its own starts the predictor cold
    and the corrector from the predictor;
  - one slot, carried = (state, psi_hat, u_hat, [psi, grad(psi)]): the
    accepted state, the spectra that the last wave substep and the fluid
    substep form before their inverse transforms, and the stack that step()
    takes back in one inverse transform at its end.  measure() reads the
    spectra and grad(psi) from it, and the next step empties it and starts
    from it instead of transforming the state again;
  - the wave propagator of the last step size, reused while dt and the
    parameters stay the same.
  Below contrast 4 a run and a loop of lone step() calls are therefore two
  discretizations, whose gap falls with dt: at 32^2 over 10 * 2^-10 it is
  1.6e-10 relative in u at dt = 2^-10, 1.1e-11 at 2^-11 and 1.3e-12 at
  2^-12.
  From contrast 4 on both solve every stage to the same PCG tolerance and
  agree to round-off times that tolerance.
* The density advances with the same midpoint staging: spectral dealiased
  transport plus the mass-exchange source, whose field Re(conj(psi) C[psi])
  each stage forms once for it and the momentum drag.  The frozen psi and
  grad(psi) come from the first wave half-step in one inverse transform,
  and start the second.

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
from .grid import check_constraints, pointwise_dot
from .model import (
    BlowUp,
    DensityFloorViolation,
    State,
    density_floor_check,
    velocity_rhs_hat,
    wave_nonlinear_hat,
)
from .norms import lp_norm
from .spectral import DENSITY_PRECONDITIONER_CONTRAST, ProjectionNotConverged, plan_for


@dataclass(frozen=True)
class StepConfig:
    dt_init: float
    dt_min: float = 1e-9
    dt_max: float = 1.0
    cfl: float = 0.4
    adaptive: bool = False

    def __post_init__(self):
        check_constraints([
            (("dt_init", "dt_min", "dt_max"), "need 0 < dt_min <= dt_init <= dt_max",
             0 < self.dt_min <= self.dt_init <= self.dt_max),
            (("cfl",), "cfl must lie in (0, 1]", 0 < self.cfl <= 1),
        ])


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
    snapshots: list = field(default_factory=list)   # copies of the accepted States
    event: Optional[PhysicsEvent] = None
    final_state: Optional[State] = None
    # the moderate halves of the Gronwall driver that stability experiments
    # on this base computed, by (params, bundle, record index)
    moderate_halves: dict = field(default_factory=dict, repr=False)

    @property
    def times(self):
        return np.array([r.t for r in self.records])


def _wave_propagator(plan, psi_hat, params, tau):
    """Exact linear wave flow over tau/2, exp(-(lam+i)/2 |k|^2 tau/2), on
    psi_hat's layout: the factor _wave_substep(..., tau, lin) applies."""
    return np.exp(-(params.lam + 1j) * 0.5 * plan.tables(psi_hat).k2 * (0.5 * tau))


def _psi_and_gradient(plan, psi_hat):
    """psi and grad(psi), stacked (d+1, ...), from psi_hat in one inverse
    transform: the same bits as d+1 separate transforms."""
    stack = np.empty((plan.grid.d + 1,) + psi_hat.shape, dtype=psi_hat.dtype)
    stack[0] = psi_hat
    np.multiply(plan.tables(psi_hat).ik, psi_hat, out=stack[1:])
    return plan.ifft(stack, psi_hat)   # complex, as psi is


def _carry(plan, state):
    """StepHistory.carried for state, formed from its own fields."""
    psi_hat = plan.fft(state.psi)
    return state, psi_hat, plan.fft(state.u), _psi_and_gradient(plan, psi_hat)


def _wave_substep(plan, psi_hat, fields, u, params, tau, lin):
    """Advance the wavefunction's spectrum psi_hat by tau with u frozen, by
    the integrating-factor (Lawson) midpoint rule: the linear flow is exact
    and the remainder N = wave_nonlinear_hat takes an explicit midpoint
    stage in its frame.  With E = lin, that flow over tau/2
    (_wave_propagator(plan, psi_hat, params, tau)),

        k1 = N(psi_hat),  mid = E (psi_hat + tau/2 k1),
        out = E (E psi_hat + tau N(mid)).

    fields is _psi_and_gradient(plan, psi_hat), which the caller already
    holds, so only the midpoint stage transforms back; |u|^2 is formed once,
    u being frozen.  Lawson, SIAM J. Numer. Anal. 4 (1967); Hochbruck &
    Ostermann, Acta Numerica 19 (2010)."""
    speed2 = pointwise_dot(u, u)

    def nonlinear_hat(stack):
        return wave_nonlinear_hat(plan, stack[0], stack[1:], u, speed2, params)

    mid_hat = lin * (psi_hat + 0.5 * tau * nonlinear_hat(fields))
    return lin * (lin * psi_hat + tau * nonlinear_hat(_psi_and_gradient(plan, mid_hat)))


def _fluid_explicit_accel(plan, psi, psi_hat, grad_psi, psi2, u, u_hat, rho, params, rho_bar):
    """Spectrum of the acceleration minus the implicit (nu/rho_bar) lap(u)
    part, and the exchange field Re(conj(psi) C[psi]); u_hat is the
    spectrum of u, psi_hat, grad_psi and psi2 the spectrum, gradient and
    squared modulus of the frozen psi."""
    accel_hat, exchange = velocity_rhs_hat(plan, psi, psi_hat, grad_psi, psi2, u, u_hat, rho,
                                           params)
    return accel_hat + (params.nu / rho_bar) * plan.tables(u_hat).k2 * u_hat, exchange


def _density_rhs(plan, u, rho, params, exchange):
    """-div(rho u), the dealiased flux's divergence fused in spectral space,
    plus the mass exchange 2 lam Re(conj(psi) C[psi]) = 2 lam exchange."""
    div_hat = plan.div_hat(plan.dealias_hat(plan.fft(rho * u)))
    return -plan.ifft(div_hat, rho) + 2.0 * params.lam * exchange


def _lagrange(steps, column, t):
    """The polynomial through the points (start time, step[column]) of the
    history entries steps, at t."""
    total = 0.0
    for i, si in enumerate(steps):
        weight = 1.0
        for j, sj in enumerate(steps):
            if j != i:
                weight *= (t - sj[0]) / (si[0] - sj[0])
        total = total + weight * si[column]
    return total


class StepHistory:
    """What run() carries from one accepted step to the next: the pressure
    spectra of the last four steps, which start both projections of the
    next one, the accepted state with what step() formed of it, and the
    wave propagator of the last step size.

    Pressures: each entry holds a step's start time, its dt, its predictor
    pressure and its corrector - predictor offset.  Every guess for a step
    from t extrapolates to t through the stored steps that started strictly
    before t, so a step retried from t never uses its own discarded attempt.
    - PCG warm starts: the predictor's guess is the Lagrange polynomial
      through the stored predictor pressures, cubic once four steps exist,
      linear after two; the corrector's is this step's predictor pressure
      plus the Lagrange extrapolation of the last three offsets, quadratic
      once three exist.  No guess (predictor) or the predictor's pressure
      (corrector) while no step is stored.
    - The pressure split's p*: the same with lines through the last two
      predictor pressures and the last two offsets.  With one stored step
      (a run's second step) the predictor's line runs through that step's
      two pressure nodes in time, its predictor pressure at its start t1
      and its corrector pressure at its midpoint t1 + dt1/2, where the
      corrector stage is evaluated; the corrector's p* is its predictor
      pressure plus the stored offset.  Both are O(dt^2).  None while no
      step is stored.  Only lines keep the split stable: with quadratic
      offsets its error recurrence z^3 = a (3 z^2 - 3 z + 1),
      a = 1 - min rho / max rho, has a root of modulus 1 at contrast 2,
      and 32^2 runs at contrast 2.78 and 3.9 broke down before T = 0.5;
      with lines |z| = sqrt(a) < 1.
    The nodes must be start times: a node at each step's end is off by that
    step's dt, which cancels only at fixed dt.  Memory is O(1) in the
    horizon.

    carried is None or (state, psi_hat, u_hat, stack): the spectra
    plan.fft of state.psi and state.u and the stack [psi, grad(psi)] =
    _psi_and_gradient(plan, psi_hat), which step() formed for the state it
    returned.  run() reads them for measure(); the next step() takes the
    slot, empties it and uses what it holds only if it is for that very
    state object, so the stack lives until that step's first wave stage and
    no longer.  The propagator is reused only for the same plan, tau and
    params.
    """

    def __init__(self):
        self._steps = []      # (start time, dt, predictor, corrector - predictor), newest last
        self.carried = None
        self._propagator = None   # (plan, tau, params, lin)

    def _before(self, t, count):
        """The last `count` stored steps that started strictly before t."""
        return [s for s in self._steps if s[0] < t][-count:]

    def predictor_guess(self, t):
        steps = self._before(t, 4)
        return _lagrange(steps, 2, t) if steps else None

    def corrector_guess(self, t, predictor):
        steps = self._before(t, 3)
        return predictor + _lagrange(steps, 3, t) if steps else predictor

    def split_predictor(self, t):
        """p* of the predictor's pressure split, or None."""
        steps = self._before(t, 2)
        if len(steps) == 2:
            return _lagrange(steps, 2, t)
        if not steps:
            return None
        t1, dt1, predictor, offset = steps[0]
        return predictor + ((t - t1) / (0.5 * dt1)) * offset

    def split_corrector(self, t, predictor):
        """p* of the corrector's pressure split, or None."""
        steps = self._before(t, 2)
        return predictor + _lagrange(steps, 3, t) if steps else None

    def push(self, t, dt, predictor, corrector):
        """Record the step of size dt from t; it replaces a step pushed from
        the same t (a retry), whose repeated node would make the
        extrapolation divide by zero."""
        kept = [s for s in self._steps if s[0] != t]
        self._steps = kept[-3:] + [(t, dt, predictor, corrector - predictor)]

    def propagator(self, plan, psi_hat, params, tau):
        """_wave_propagator(plan, psi_hat, params, tau), reused while the
        plan, tau and params stay those of the last call."""
        cached = self._propagator
        if cached is not None and cached[0] is plan and cached[1] == tau and cached[2] == params:
            return cached[3]
        lin = _wave_propagator(plan, psi_hat, params, tau)
        self._propagator = (plan, tau, params, lin)
        return lin


def _split_applies(rho):
    """Whether a stage at density rho may take the pressure split: its
    contrast max/min is below DENSITY_PRECONDITIONER_CONTRAST.  From there
    on the split's explicit remainder grows and PCG keeps the stage."""
    return float(rho.max()) / float(rho.min()) < DENSITY_PRECONDITIONER_CONTRAST


def _fluid_substep(plan, psi, psi_hat, grad_psi, u, u_hat, rho, params, dt, t0, history):
    """Midpoint IMEX step for (u, rho) with psi frozen; psi_hat and grad_psi
    are the spectrum and gradient of psi, u_hat the spectrum of u.

    The pressure enters through the density-weighted projection of the
    acceleration: ut = a - (1/rho) grad(p) with a true scalar pressure, so
    the gradient stays energy-orthogonal to the velocity and u remains
    divergence-free.  With uniform density this is the plain Leray
    projection.  The projections and the Helmholtz solves act on spectra:
    each projected acceleration spectrum feeds its Helmholtz solve directly,
    the predictor's u_hat also serves the corrector's lap(u), and the
    midpoint velocity's spectrum feeds the corrector's acceleration.
    Each stage solves by PCG from the StepHistory's guess, or takes the
    pressure split with the history's p* (see the module docstring).
    |psi|^2 is formed once, and each stage's exchange field
    Re(conj(psi) C[psi]) serves its drag and its density source.  Returns
    (u, its spectrum, rho, predictor pressure spectrum, corrector pressure
    spectrum).
    """
    rho_bar = 0.5 * (params.m + params.M)
    alpha = params.nu * dt / (2.0 * rho_bar)
    psi2 = psi.real ** 2 + psi.imag ** 2
    alpha_k2 = alpha * plan.tables(u_hat).k2

    accel0_hat, exchange0 = _fluid_explicit_accel(plan, psi, psi_hat, grad_psi, psi2, u, u_hat,
                                                  rho, params, rho_bar)
    p_star = history.split_predictor(t0) if _split_applies(rho) else None
    if p_star is None:
        accel0_hat, p_pred = plan.weighted_leray_hat(
            accel0_hat, rho, initial_pressure_hat=history.predictor_guess(t0))
    else:
        accel0_hat, p_pred = plan.split_leray_hat(accel0_hat, rho, p_star)
    u_half_hat = plan.helmholtz_hat(u_hat + 0.5 * dt * accel0_hat, alpha)
    u_half = plan.ifft(u_half_hat, u)
    rho_half = rho + 0.5 * dt * _density_rhs(plan, u, rho, params, exchange0)
    density_floor_check(rho_half, params, t0 + 0.5 * dt)

    accel1_hat, exchange1 = _fluid_explicit_accel(plan, psi, psi_hat, grad_psi, psi2, u_half,
                                                  u_half_hat, rho_half, params, rho_bar)
    p_star = history.split_corrector(t0, p_pred) if _split_applies(rho_half) else None
    if p_star is None:
        accel1_hat, p_corr = plan.weighted_leray_hat(
            accel1_hat, rho_half, initial_pressure_hat=history.corrector_guess(t0, p_pred))
    else:
        accel1_hat, p_corr = plan.split_leray_hat(accel1_hat, rho_half, p_star)
    u_new_hat = plan.helmholtz_hat((1.0 - alpha_k2) * u_hat + dt * accel1_hat, alpha)
    u_new = plan.ifft(u_new_hat, u)
    rho_new = rho + dt * _density_rhs(plan, u_half, rho_half, params, exchange1)
    density_floor_check(rho_new, params, t0 + dt)
    return u_new, u_new_hat, rho_new, p_pred, p_corr


def step(state, params, dt, *, history=None):
    """Advance one Strang step of size dt (dt < 0 is allowed for reversal
    experiments with the dissipative constants set to zero).

    The pressure projections are cold PCG solves unless a StepHistory is
    passed; run() passes its own.  With an earlier step on it (from a
    run's second step on), a stage below contrast 4 takes the pressure
    split; a run's first step and a lone step() solve by PCG.  The step
    empties the history's carried slot and starts from the spectra and the
    [psi, grad(psi)] stack it holds if they are for this very state object;
    otherwise, as a lone step(), it forms them from the state.  It takes
    the wave propagator of an equal step size from the history.  An
    accepted step is pushed onto the history with its dt, and the slot then
    carries its output with that output's spectra and stack.
    """
    if dt == 0:
        raise ValueError("dt must be nonzero")
    if history is None:
        history = StepHistory()
    plan = plan_for(state.grid)
    carried, history.carried = history.carried, None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if carried is None or carried[0] is not state:
            carried = _carry(plan, state)
        _, psi_hat, u_hat, fields = carried
        carried = None   # the old stack goes with the first wave stage
        # both wave half-steps share tau = dt/2 and so their linear flow
        tau = 0.5 * dt
        lin = history.propagator(plan, psi_hat, params, tau)
        psi_hat = _wave_substep(plan, psi_hat, fields, state.u, params, tau, lin)
        # the frozen psi and grad(psi) of the fluid substep start the second
        # wave half-step
        fields = _psi_and_gradient(plan, psi_hat)
        u, u_hat, rho, p_pred, p_corr = _fluid_substep(plan, fields[0], psi_hat, fields[1:],
                                                       state.u, u_hat, state.rho, params, dt,
                                                       state.t, history)
        psi_hat = _wave_substep(plan, psi_hat, fields, u, params, tau, lin)
        fields = _psi_and_gradient(plan, psi_hat)
    # a copy, so that the state does not hold the carried stack
    psi = fields[0].copy()
    new = State(state.t + dt, psi, u, rho, state.grid)
    if not (np.all(np.isfinite(psi)) and np.all(np.isfinite(u)) and np.all(np.isfinite(rho))):
        raise BlowUp(state.t, "step output")
    history.push(state.t, dt, p_pred, p_corr)
    history.carried = (new, psi_hat, u_hat, fields)
    return new


def adaptive_dt(state, config):
    """CFL-limited step: min(cfl * dx / (||u||_inf + c0), dt_max) with
    c0 = max(1, k_max/2) covering the explicit dispersive residuals; a
    proposal below dt_min raises CflViolation."""
    g = state.grid
    umax = lp_norm(g, state.u, np.inf)
    c0 = max(1.0, 0.5 * g.k_max)
    proposal = config.cfl * min(g.dx) / (umax + c0)
    if proposal < config.dt_min:
        raise CflViolation(proposal, config.dt_min, state.t)
    return min(proposal, config.dt_max)


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
    u = plan.dealias(state.u)
    u = plan.ifft(plan._leray_hat(plan.fft(u))[0], u)
    return State(0.0, psi, u, rho, state.grid)


def run(initial, params, config, horizon, observers=(), store_states=False,
        diagnostics=True):
    """Integrate from t=0 to the horizon and collect diagnostics.

    A record is produced for every accepted step (the initial state included).
    With diagnostics=False no measure() is called: the trajectory's records
    and times are empty and observers get None for the record; the steps,
    the stored states, the final state and the event are the same bits.
    Observers are called after each accepted step with (time, state, record)
    and must not mutate the state; one that writes the state out keeps
    memory flat in the horizon.  store_states keeps a copy of every state,
    the ingested initial one included, on the trajectory's snapshots: the
    stability harness pairs them at desk scales.

    One StepHistory carries pressures, the accepted state with its spectra
    and [psi, grad(psi)] stack, and the wave propagator from step to step,
    so from the second step on a stage below contrast 4 takes the pressure
    split (see the module docstring).  run() fills its carried slot for the
    ingested state, and measure() reads each accepted state's spectra and
    grad(psi) from the slot; run() holds none of them while the next step
    runs.

    Density-floor violations, blow-ups, CFL failures and a pressure
    projection that misses its tolerance end the run early with a structured
    event on the trajectory; the records collected so far are kept.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    state = ingest(initial, params)
    history = StepHistory()
    history.carried = _carry(plan_for(state.grid), state)

    def record(prev_state):
        accepted, psi_hat, u_hat, stack = history.carried
        return measure(accepted, params, prev_state, psi_hat=psi_hat, u_hat=u_hat,
                       grad_psi=stack[1:])

    records = [record(None)] if diagnostics else []
    snapshots = [state.copy()] if store_states else []
    event = None
    tiny = 1e-12 * max(1.0, horizon)
    while state.t < horizon - tiny:
        try:
            dt = adaptive_dt(state, config) if config.adaptive else config.dt_init
            dt = min(dt, horizon - state.t)
            new_state = step(state, params, dt, history=history)
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
        rec = None
        if diagnostics:
            rec = record(state)
            records.append(rec)
        state = new_state
        if store_states:
            snapshots.append(state.copy())
        for obs in observers:
            obs(state.t, state, rec)
    return Trajectory(records=records, snapshots=snapshots, event=event, final_state=state)
