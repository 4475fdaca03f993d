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
    history.  The stage's acceleration takes -(1/rho) grad p* in with its
    viscous term (model.velocity_rhs_hat), so the remainder passes through
    the acceleration's transforms and its 2/3 truncation, and
    (1/rho0) grad p* is a gradient the projection removes.  The split then
    costs one exact Leray projection on spectra, with no transform and no
    iteration.
  Both truncate what they take out of the velocity by the 2/3 rule, so u
  never leaves the dealias ball.
* run() carries a StepHistory from step to step: the pressures of the
  last four steps, the accepted state with the spectra step() formed of
  it, and the propagators of the last step size.  Its docstring states
  the rules once: which stage takes the split and which PCG, the p* and
  warm start each reads off the stored pressures, and the measured gap
  between a run and a loop of lone step() calls.
* The density advances with the same midpoint staging: spectral dealiased
  transport plus the mass-exchange source, whose field Re(conj(psi) C[psi])
  each stage forms once for it and the momentum drag.  Each stage's flux
  rho u rides its acceleration's forward transform.  The frozen psi and
  grad(psi) come from the first wave half-step in one inverse transform,
  and with |psi|^2 psi, formed once for both stages' couplings, start the
  second.  |u|^2 at the step's start is formed once for the first wave
  half-step and the predictor.

Each piece has local error O(dt^3), so the composition is second order.
A step that leaves the admissible set raises model.PhysicsEvent: of kind
"density-floor" where a stage would drag the density below the configured
floor, "blow-up" with the last valid time where its output is not finite.
adaptive_dt raises one of kind "cfl".  run() keeps the raised event,
without its traceback, as the trajectory's event; a pressure projection
that misses its tolerance (ProjectionNotConverged) becomes one of kind
"projection" at the step's start time.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .diagnostics import measure
from .grid import check_constraints, pointwise_dot
from .model import (
    PhysicsEvent,
    State,
    cubic_product,
    density_floor_check,
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

    def __post_init__(self):
        check_constraints([
            (("dt_init", "dt_min", "dt_max"), "need 0 < dt_min <= dt_init <= dt_max",
             0 < self.dt_min <= self.dt_init <= self.dt_max),
            (("cfl",), "cfl must lie in (0, 1]", 0 < self.cfl <= 1),
        ])


@dataclass
class Trajectory:
    records: list
    snapshots: list = field(default_factory=list)   # copies of the accepted States
    event: Optional[PhysicsEvent] = None       # what ended the run early
    final_state: Optional[State] = None
    # the moderate half of the Gronwall driver (the sum of its moderate
    # terms) that stability experiments on this base computed: one float
    # per (params, bundle, record index)
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


def _wave_substep(plan, psi_hat, fields, cubic, u, speed2, params, tau, lin):
    """Advance the wavefunction's spectrum psi_hat by tau with u frozen, by
    the integrating-factor (Lawson) midpoint rule: the linear flow is exact
    and the remainder N = wave_nonlinear_hat takes an explicit midpoint
    stage in its frame.  With E = lin, that flow over tau/2
    (_wave_propagator(plan, psi_hat, params, tau)),

        k1 = N(psi_hat),  mid = E (psi_hat + tau/2 k1),
        out = E (E psi_hat + tau N(mid)).

    fields is _psi_and_gradient(plan, psi_hat) and cubic its
    cubic_product, which the caller already holds, so only the midpoint
    stage transforms back; speed2 = pointwise_dot(u, u), u being frozen.
    Lawson, SIAM J. Numer. Anal. 4 (1967); Hochbruck & Ostermann, Acta
    Numerica 19 (2010)."""

    def nonlinear_hat(stack, cubic):
        return wave_nonlinear_hat(plan, stack[0], stack[1:], cubic, u, speed2, params)

    mid_hat = lin * (psi_hat + 0.5 * tau * nonlinear_hat(fields, cubic))
    mid = _psi_and_gradient(plan, mid_hat)
    return lin * (lin * psi_hat + tau * nonlinear_hat(mid, cubic_product(mid[0])))


def _fluid_explicit_accel(plan, psi, psi_hat, grad_psi, cubic, u, u_hat, speed2, rho, params,
                          p_star):
    """Spectrum of the acceleration minus the implicit (nu/rho_bar) lap(u)
    part, rho_bar = (m+M)/2, with -grad(p*) / rho in it for the pressure
    split's p* (p_star, None for PCG), the truncated spectrum of the density
    flux rho u and the exchange field Re(conj(psi) C[psi]), as
    velocity_rhs_hat returns them; u_hat and speed2 are the spectrum and
    squared modulus of u, psi_hat, grad_psi and cubic the spectrum,
    gradient and cubic_product of the frozen psi."""
    accel_hat, flux_hat, exchange = velocity_rhs_hat(plan, psi, psi_hat, grad_psi, cubic, u,
                                                     u_hat, speed2, rho, params, p_star)
    nu_bar = 2.0 * params.nu / (params.m + params.M)
    return accel_hat + nu_bar * plan.tables(u_hat).k2 * u_hat, flux_hat, exchange


def _helmholtz_alpha(params, dt):
    """The Crank-Nicolson coefficient nu dt / (2 rho_bar) of a fluid step of
    size dt, at the reference density rho_bar = (m+M)/2."""
    return params.nu * dt / (params.m + params.M)


def _density_rhs(plan, flux_hat, exchange, params):
    """-div(rho u) from the truncated spectrum flux_hat of the flux rho u,
    which velocity_rhs_hat transforms with the acceleration, plus the mass
    exchange 2 lam Re(conj(psi) C[psi]) = 2 lam exchange: one inverse
    transform."""
    return -plan.ifft(plan.div_hat(flux_hat), exchange) + 2.0 * params.lam * exchange


def _lagrange(nodes, values, t):
    """The polynomial through the points (nodes[i], values[i]), at t."""
    total = 0.0
    for i, (ti, vi) in enumerate(zip(nodes, values)):
        weight = 1.0
        for j, tj in enumerate(nodes):
            if j != i:
                weight *= (t - tj) / (ti - tj)
        total = total + weight * vi
    return total


class StepHistory:
    """What run() carries from one accepted step to the next: the pressure
    spectra of the last four steps, which start both projections of the
    next one, the accepted state with what step() formed of it, and the
    wave propagator and Helmholtz factor of the last step size.  These are
    the rules of the pressure history, stated here alone.

    Projections: a run's first step and a lone step() solve every stage by
    PCG.  From a run's second step on (the history holds a step that
    started before this one):
    - the predictor takes the split at every density contrast.  Its
      projection feeds only the corrector's evaluation point, so a defect
      delta in it reaches the new u as O(dt^2 delta) a step (Guermond &
      Salgado, J. Comput. Phys. 228, 2009);
    - the corrector takes the split while the stage density's contrast
      max/min is below SPLIT_MAX_CONTRAST (4), and solves by PCG from there
      on.

    Pressures: each entry holds a step's start time, its dt, its predictor
    pressure and its corrector - predictor offset, whose sum is its
    corrector pressure.  Every guess for a step from t
    extrapolates through the stored steps that started strictly before t,
    so a step retried from t never uses its own discarded attempt.
    - The pressure split's p* below SPLIT_MAX_CONTRAST (split_guess), at
      the step's start t: the predictor's is the line through the last two
      predictor pressures; the corrector's is this step's predictor
      pressure plus the line through the last two corrector - predictor
      offsets.  With one stored step (a run's second step) the predictor's
      line runs through that step's two pressure nodes in time, its
      predictor pressure at its start t1 and its corrector pressure at its
      midpoint t1 + dt1/2, where the corrector stage is evaluated; the
      corrector's p* is its predictor pressure plus the stored offset.
      Both are O(dt^2).  None while no step is stored.  Only lines keep
      the split stable: these guesses feed on the split's own pressures,
      and with quadratic offsets the error recurrence z^3 = a (3 z^2 -
      3 z + 1), a = 1 - min rho / max rho, has a root of modulus 1 at
      contrast 2 (32^2 runs at contrast 2.78 and 3.9 broke down before
      T = 0.5); with lines |z| = sqrt(a) < 1.
    - From contrast 4 on (corrector_curve): the Lagrange polynomial
      through the last stored corrector pressures, each at its step's
      midpoint t_k + dt_k/2.  The predictor's p* is the line through the
      last two at t, the corrector's PCG warm start the cubic through the
      last four at its midpoint t + dt/2.  Those pressures come from PCG
      solves, which meet their tolerance, so the split's error does not
      feed back into its p*.
    - A run's first step starts the predictor cold and the corrector from
      the predictor's pressure, as step() on its own does.
    The nodes must be start times: a node at each step's end is off by that
    step's dt, which cancels only at fixed dt.  Memory is O(1) in the
    horizon.

    A run and a loop of lone step() calls are therefore two
    discretizations, whose gap falls with dt.  At 32^2 over 10 * 2^-10 it
    is, relative in u, 1.6e-10 at dt = 2^-10, 1.1e-11 at 2^-11 and 1.3e-12
    at 2^-12 below contrast 4 (third order), and 2.3e-9, 5.8e-10 and
    1.5e-10 at contrast 16 (second order).  There the predictor's p* misses
    its PCG pressure by O(dt), 5.7e-4 relative at dt = 2^-10: both stages
    freeze psi at the step's midpoint, so the predictor's pressure lies off
    the corrector pressures' curve by that much.

    carried is None or (state, psi_hat, u_hat, stack): the spectra
    plan.fft of state.psi and state.u, which the last wave substep and the
    fluid substep form before their inverse transforms, and the stack
    [psi, grad(psi)] = _psi_and_gradient(plan, psi_hat), which step() takes
    back in one inverse transform at its end, all for the state it
    returned.  run() reads the spectra and grad(psi) for measure(); the
    next step() takes the slot, empties it and starts from what it holds
    instead of transforming the state again, but only if it is for that
    very state object, so the stack lives until that step's first wave
    stage and no longer.  The propagators, the wave half-steps' and the
    fluid stages' Helmholtz factor 1/(1 + alpha |k|^2), are reused only for
    the same plan, dt and params.
    """

    def __init__(self):
        self._steps = []      # (start time, dt, predictor, corrector - predictor), newest last
        self.carried = None
        self._propagators = None   # (plan, dt, params, lin, helm)

    def _before(self, t, count):
        """The last `count` stored steps that started strictly before t."""
        return [s for s in self._steps if s[0] < t][-count:]

    def corrector_curve(self, t, count, at):
        """The Lagrange polynomial through the corrector pressures of the
        last `count` steps that started before t, each at its midpoint time
        t_k + dt_k/2, where its corrector stage is evaluated, at time `at`;
        None while no such step is stored."""
        steps = self._before(t, count)
        if not steps:
            return None
        return _lagrange([s[0] + 0.5 * s[1] for s in steps], [s[2] + s[3] for s in steps], at)

    def split_guess(self, t, predictor=None):
        """p* of the predictor's (predictor None) or the corrector's pressure
        split below SPLIT_MAX_CONTRAST, or None."""
        steps = self._before(t, 2)
        if not steps:
            return None
        starts = [s[0] for s in steps]
        if predictor is not None:
            return predictor + _lagrange(starts, [s[3] for s in steps], t)
        if len(steps) == 2:
            return _lagrange(starts, [s[2] for s in steps], t)
        t1, dt1, p1, offset = steps[0]
        return p1 + ((t - t1) / (0.5 * dt1)) * offset

    def push(self, t, dt, predictor, corrector):
        """Record the step of size dt from t; it replaces a step pushed from
        the same t (a retry), whose repeated node would make the
        extrapolation divide by zero."""
        kept = [s for s in self._steps if s[0] != t]
        self._steps = kept[-3:] + [(t, dt, predictor, corrector - predictor)]

    def propagators(self, plan, psi_hat, u_hat, params, dt):
        """(lin, helm) of a step of size dt: the wave half-steps' propagator
        _wave_propagator(plan, psi_hat, params, dt/2) and the fluid stages'
        Helmholtz factor 1/(1 + alpha |k|^2) on u_hat's layout, alpha =
        _helmholtz_alpha(params, dt); reused while the plan, dt and params
        stay those of the last call."""
        cached = self._propagators
        if cached is None or cached[:3] != (plan, dt, params):
            cached = self._propagators = (
                plan, dt, params, _wave_propagator(plan, psi_hat, params, 0.5 * dt),
                plan.helmholtz_factor(u_hat, _helmholtz_alpha(params, dt)))
        return cached[3:]


# Density contrast max/min at which the pressure history's rules switch
# (StepHistory).  Splitting both stages at contrast 16 with split_guess's p*
# raised the energy residual of a 16-step 64^2 run 1.8e-9 -> 4.6e-8
SPLIT_MAX_CONTRAST = 4.0


def _split_applies(rho):
    """Whether a stage at density rho has contrast max/min below
    SPLIT_MAX_CONTRAST, where its pressure split takes split_guess's p*
    and the corrector takes the split too."""
    return float(rho.max()) / float(rho.min()) < SPLIT_MAX_CONTRAST


def _fluid_substep(plan, psi, psi_hat, grad_psi, cubic, u, u_hat, speed2, rho, params, dt, t0,
                   history, helm):
    """Midpoint IMEX step for (u, rho) with psi frozen; psi_hat, grad_psi
    and cubic are the spectrum, gradient and cubic_product of psi, u_hat
    and speed2 the spectrum and squared modulus of u.

    The pressure enters through the density-weighted projection of the
    acceleration: ut = a - (1/rho) grad(p) with a true scalar pressure, so
    the gradient stays energy-orthogonal to the velocity and u remains
    divergence-free.  With uniform density this is the plain Leray
    projection.  Predictor and corrector are one stage body: from (u_s,
    rho_s) it projects the explicit acceleration a (by the pressure split
    where the history has a p*, which a then carries, else by PCG from the
    history's warm start: StepHistory states which), solves
    (I - alpha lap) u' = start + h a on spectra with helm, the factor
    1/(1 + alpha |k|^2) of this dt, and advances rho by h, checking the
    floor at t0 + h.  The predictor starts from u_hat with h = dt/2, the
    corrector from (1 - alpha |k|^2) u_hat with h = dt and
    the predictor's pressure.  Each stage's exchange field
    Re(conj(psi) C[psi]) serves its drag and its density source, and its
    density flux rho_s u_s is transformed with its acceleration.  Returns
    (u, its spectrum, rho, predictor pressure spectrum, corrector pressure
    spectrum).
    """

    def stage(u_s, u_s_hat, speed2_s, rho_s, start_hat, h, p_pred=None):
        # p* of the pressure split, None where the stage solves by PCG
        if _split_applies(rho_s):
            p_star = history.split_guess(t0, p_pred)
        else:
            p_star = history.corrector_curve(t0, 2, t0) if p_pred is None else None
        accel_hat, flux_hat, exchange = _fluid_explicit_accel(
            plan, psi, psi_hat, grad_psi, cubic, u_s, u_s_hat, speed2_s, rho_s, params, p_star)
        # the density's rate now: the flux's spectrum shares its buffer with
        # the acceleration's transform, which then is not held through the
        # projection
        rho_rate = _density_rhs(plan, flux_hat, exchange, params)
        del flux_hat, exchange
        if p_star is None:
            # the corrector's midpoint t0 + dt/2; a predictor gets here only
            # on a history with no earlier step, and so starts cold
            guess = history.corrector_curve(t0, 4, t0 + 0.5 * h)
            accel_hat, p = plan.weighted_leray_hat(
                accel_hat, rho_s, initial_pressure_hat=p_pred if guess is None else guess)
        else:
            accel_hat, p = plan.split_leray_hat(accel_hat, rho_s, p_star)
        new_hat = plan.helmholtz_hat(start_hat + h * accel_hat, helm)
        new = plan.ifft(new_hat, u)
        rho_new = rho + h * rho_rate
        density_floor_check(rho_new, params, t0 + h)
        return new, new_hat, rho_new, p

    u_half, u_half_hat, rho_half, p_pred = stage(u, u_hat, speed2, rho, u_hat, 0.5 * dt)
    start_hat = (1.0 - _helmholtz_alpha(params, dt) * plan.tables(u_hat).k2) * u_hat
    u_new, u_new_hat, rho_new, p_corr = stage(u_half, u_half_hat, pointwise_dot(u_half, u_half),
                                              rho_half, start_hat, dt, p_pred)
    return u_new, u_new_hat, rho_new, p_pred, p_corr


def step(state, params, dt, *, history=None):
    """Advance one Strang step of size dt (dt < 0 is allowed for reversal
    experiments with the dissipative constants set to zero).

    The pressure projections are cold PCG solves unless a StepHistory is
    passed; run() passes its own, and StepHistory states which stage then
    takes the pressure split.  The step empties the history's carried slot and
    starts from the spectra and the [psi, grad(psi)] stack it holds if they
    are for this very state object; otherwise, as a lone step(), it forms
    them from the state.  It takes the wave propagator and Helmholtz factor
    of an equal step size from the history.  An accepted step is pushed
    onto the history with its dt, and the slot then carries its output with
    that output's spectra and stack.
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
        lin, helm = history.propagators(plan, psi_hat, u_hat, params, dt)
        # |u_n|^2 serves the first wave half-step and the predictor
        speed2 = pointwise_dot(state.u, state.u)
        psi_hat = _wave_substep(plan, psi_hat, fields, cubic_product(fields[0]), state.u, speed2,
                                params, tau, lin)
        # the frozen psi, grad(psi) and |psi|^2 psi of the fluid substep
        # start the second wave half-step
        fields = _psi_and_gradient(plan, psi_hat)
        cubic = cubic_product(fields[0])
        u, u_hat, rho, p_pred, p_corr = _fluid_substep(plan, fields[0], psi_hat, fields[1:], cubic,
                                                       state.u, u_hat, speed2, state.rho, params,
                                                       dt, state.t, history, helm)
        psi_hat = _wave_substep(plan, psi_hat, fields, cubic, u, pointwise_dot(u, u), params,
                                tau, lin)
        fields = _psi_and_gradient(plan, psi_hat)
    # a copy, so that the state does not hold the carried stack
    psi = fields[0].copy()
    new = State(state.t + dt, psi, u, rho, state.grid)
    if not (np.all(np.isfinite(psi)) and np.all(np.isfinite(u)) and np.all(np.isfinite(rho))):
        raise PhysicsEvent("blow-up", float(state.t),
                           f"non-finite values in step output; last valid time t={state.t:.6g}")
    history.push(state.t, dt, p_pred, p_corr)
    history.carried = (new, psi_hat, u_hat, fields)
    return new


def adaptive_dt(state, config):
    """CFL-limited step: min(cfl * dx / (||u||_inf + c0), dt_max) with
    c0 = max(1, k_max/2) covering the explicit dispersive residuals; a
    proposal below dt_min raises a "cfl" PhysicsEvent."""
    g = state.grid
    umax = lp_norm(g, state.u, np.inf)
    c0 = max(1.0, 0.5 * g.k_max)
    proposal = config.cfl * min(g.dx) / (umax + c0)
    if proposal < config.dt_min:
        raise PhysicsEvent("cfl", state.t, f"CFL-admissible dt {proposal:.3e} below dt_min "
                                           f"{config.dt_min:.3e} at t={state.t:.6g}")
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
    u = plan.ifft(plan.leray_hat(plan.fft(u))[0], u)
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
    and [psi, grad(psi)] stack, and the propagators from step to step; its
    docstring states which stage takes the pressure split.  run() fills its carried slot for the ingested state, and measure()
    reads each accepted state's spectra and grad(psi) from the slot; run()
    holds none of them while the next step runs.

    A PhysicsEvent (a density-floor breach, a blow-up, a CFL failure) or a
    pressure projection that misses its tolerance ends the run early: the
    trajectory's event is the PhysicsEvent, of kind "projection" for the
    latter, and the records collected so far are kept.
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
        except PhysicsEvent as exc:
            # without its traceback the event holds no step frame or field
            event = exc.with_traceback(None)
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
