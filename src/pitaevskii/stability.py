"""Paired-trajectory stability experiments.

The uniqueness mechanism of the model is a Gronwall inequality: the squared
difference norms between two solutions grow at most like exp(C * int H) with
an integrable driver H built from norms of the two trajectories.  The
experiment runs a base ("moderate") trajectory and a perturbed ("weak") one,
measures the difference functional

    D(t) = ||grad(psi - psi~)||^2 + ||u - u~||^2 + ||rho - rho~||^2,

assembles the driver bundle H(t), fits the envelope constant on the first
half of the run and validates the envelope on the second half.  A zero
perturbation must reproduce the base run bit for bit, which is the discrete
rendering of "the solutions are identical".

Each term of H is a norm of one of the two states, so H is a weak half
plus a moderate half, each the sum of its own terms; a state's H^s norms
are read off one Parseval density per field.  The runs that an experiment
starts take no diagnostics (run(..., diagnostics=False)): only their
stored states are read.  A sweep passes one base trajectory to each of its
experiments (base=), which then run the base once and form the moderate
half at each of its records once, keeping it on the base.

A spatially uniform / single-plane-wave reduction of the full system closes
into a small ODE; reduced_ode_oracle integrates it with a high-order adaptive
scheme and serves as the reference trajectory for integrator accuracy tests.
The oracle imports its integrator (scipy.integrate) on first call, so the
solver and the stability driver never load it.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import norms
from .diagnostics import cumulative_trapezoid, trapezoid_steps
from .grid import check_constraints, pointwise_dot
from .initial_conditions import lattice_wavevector
from .integrator import run
from .model import PhysicsEvent, coupling_hat, cubic_product
from .spectral import plan_for

TARGETS = ("psi", "u", "rho", "all")
BUNDLES = ("full", "core")


def bundle_constraints(bundle):
    """The (fields, message, holds) constraint on a Gronwall bundle name, for
    check_constraints."""
    return [(("bundle",), f"bundle must be one of {', '.join(BUNDLES)}", bundle in BUNDLES)]


@dataclass
class DifferenceRecord:
    t: float
    wave_l2: float     # ||psi - psi~||_L2^2
    wave_grad: float   # ||grad(psi - psi~)||_L2^2
    vel_l2: float      # ||u - u~||_L2^2
    rho_l2: float      # ||rho - rho~||_L2^2
    total: float       # wave_grad + vel_l2 + rho_l2
    driver: Optional[float] = None


@dataclass(frozen=True)
class PerturbationSpec:
    """What to nudge in the initial data and by how much.

    target    -- 'psi', 'u', 'rho' or 'all'
    mode      -- lattice mode m of the cosine perturbation pattern, whose
                 wavevector is k = 2 pi m / L
    amplitude -- relative size delta_p >= 0; 0 means an exact copy (bitwise)
    """

    target: str = "psi"
    mode: tuple = (1, 0)
    amplitude: float = 1e-6

    def __post_init__(self):
        check_constraints(self.constraints(self.target, self.amplitude))

    @staticmethod
    def constraints(target, amplitude):
        """The (fields, message, holds) constraints on a target and an
        amplitude, for check_constraints."""
        return [
            (("target",), f"target must be one of {', '.join(TARGETS)}", target in TARGETS),
            (("amplitude",), "delta_p must be >= 0", amplitude >= 0),
        ]


def difference_norms(state_a, state_b):
    """Squared difference norms between two states at the same time."""
    if state_a.grid is not state_b.grid:
        raise ValueError("states live on different grids")
    if abs(state_a.t - state_b.t) > 1e-12 * max(1.0, abs(state_a.t)):
        raise ValueError(f"states are at different times: {state_a.t} vs {state_b.t}")
    g = state_a.grid
    plan = plan_for(g)
    dpsi = state_a.psi - state_b.psi
    du = state_a.u - state_b.u
    drho = state_a.rho - state_b.rho
    # each squared L^2 norm is one node sum, the gradient term one Parseval sum
    wave_l2 = float(np.vdot(dpsi, dpsi).real) * g.cell_volume
    wave_grad = norms.sobolev_sq(*norms.spectral_density_hat(plan, plan.fft(dpsi)), g.volume,
                                 1.0, homogeneous=True)
    vel_l2 = float(np.vdot(du, du)) * g.cell_volume
    rho_l2 = float(np.vdot(drho, drho)) * g.cell_volume
    return DifferenceRecord(
        t=float(state_a.t),
        wave_l2=wave_l2,
        wave_grad=wave_grad,
        vel_l2=vel_l2,
        rho_l2=rho_l2,
        total=wave_grad + vel_l2 + rho_l2,
    )


def gronwall_bundle(weak, moderate, params, dt_moderate_u, bundle="full"):
    """Driver H(t) from the dominant monomials of the difference estimates.

    weak is the perturbed trajectory's state, moderate the base one; the
    extra regularity norms (grad rho in L^3, dt u in L^3) are computed on the
    moderate state only, matching the asymmetric roles of the two solutions.
    Constant prefactors are absorbed into the fitted envelope constant.
    Every term is a norm of one state, so H is the weak half (_weak_half)
    plus the moderate half (_moderate_half), each summed on its own.
    """
    check_constraints(bundle_constraints(bundle))
    if dt_moderate_u is None:
        raise ValueError("gronwall_bundle needs the time derivative of the moderate velocity")
    weak_half = _weak_half(weak, params, bundle)
    return weak_half + _moderate_half(moderate, dt_moderate_u, params, bundle)


def _sobolev_reader(state, params, bundle):
    """A function (field, s) -> the H^s norm of state's field 'psi', 'u' or,
    in the full bundle, 'c', the coupling C[psi]: each field is transformed
    once (the coupling's spectrum from psi's) and weighed as one Parseval
    density, and a norm is formed only when a term reads it."""
    g = state.grid
    plan = plan_for(g)
    psi, u = state.psi, state.u
    psi_hat = plan.fft(psi)
    dens = {"psi": norms.spectral_density_hat(plan, psi_hat),
            "u": norms.spectral_density_hat(plan, plan.fft(u))}
    if bundle == "full":
        grad_psi = plan.ifft(plan.grad_hat(psi_hat), psi)
        c_hat = coupling_hat(plan, psi, psi_hat, grad_psi, u, pointwise_dot(u, u),
                             cubic_product(psi), params)
        dens["c"] = norms.spectral_density_hat(plan, c_hat)
    return lambda name, s: math.sqrt(norms.sobolev_sq(*dens[name], g.volume, s))


def _weak_half(weak, params, bundle):
    """The sum of the driver's terms in the weak state alone."""
    h = _sobolev_reader(weak, params, bundle)
    total = h("u", 1.0) ** 4 + h("psi", 2.0) ** 4 + (1.0 + params.mu ** 2) * h("psi", 1.0) ** 4
    if bundle == "full":
        total += h("u", 2.0) ** 2 + h("c", 0.0) * h("c", 1.0)
    return total


def _moderate_half(moderate, rate, params, bundle):
    """The sum of the driver's terms in the moderate state and its
    velocity's time derivative rate alone."""
    g = moderate.grid
    h = _sobolev_reader(moderate, params, bundle)
    u_h1 = h("u", 1.0)
    total = (u_h1 ** 4 + h("psi", 2.0) ** 4 + norms.lp_norm(g, rate, 3) ** 2
             + norms.lp_norm(g, plan_for(g).gradient(moderate.rho), 3) ** 2)
    if bundle == "full":
        u_h2 = h("u", 2.0)
        total += u_h2 ** 2 + u_h1 ** 2 * u_h2 ** 2 + u_h1 ** 2 * h("c", 0.0) ** 2
    return total


def perturb_state(state, spec, params):
    """Additive single-mode perturbation of the initial data.

    The velocity perturbation is projected divergence-free afterwards; the
    density perturbation is clipped back into [m, M] so the run still
    ingests.  amplitude == 0 returns an exact copy.  A mode with more
    entries than the grid has axes is a ValueError.
    """
    g = state.grid
    k = lattice_wavevector(spec.mode, g.lengths)
    out = state.copy()
    if spec.amplitude == 0:
        return out
    plan = plan_for(g)
    mesh = g.meshes()
    phase = sum(ki * xi for ki, xi in zip(k, mesh))
    pattern = np.cos(phase)
    pattern_s = np.sin(phase)
    if spec.target in ("psi", "all"):
        scale = float(np.abs(out.psi).max()) or 1.0
        out.psi = out.psi + spec.amplitude * scale * (pattern + 0.5j * pattern_s)
    if spec.target in ("u", "all"):
        scale = float(np.abs(out.u).max()) or 1.0
        bump = np.stack([pattern if i == 0 else 0.5 * pattern_s for i in range(g.d)])
        u = out.u + spec.amplitude * scale * bump
        out.u = plan.ifft(plan.leray_hat(plan.fft(u))[0], u)
    if spec.target in ("rho", "all"):
        scale = 0.5 * (params.M - params.m)
        if scale == 0.0:
            raise ValueError("cannot perturb rho: m == M leaves no room inside [m, M]")
        out.rho = np.clip(out.rho + spec.amplitude * scale * pattern, params.m, params.M)
    return out


@dataclass
class StabilityReport:
    records: list
    c_hat: Optional[float]
    envelope_margin: Optional[float]
    driver_integral: float
    determinism_failure: bool
    amplitude: float
    event: Optional[PhysicsEvent] = None   # the base run's, else the perturbed run's
    notes: list = field(default_factory=list)

    @property
    def inconclusive(self):
        """A nonzero perturbation whose envelope was never fitted (fewer than
        four records, or no fitting step with a ratio): no verdict."""
        return self.amplitude != 0.0 and self.envelope_margin is None

    @property
    def envelope_ok(self):
        return not self.inconclusive and (self.envelope_margin is None or self.envelope_margin <= 10.0)

    @property
    def passed(self):
        return not self.determinism_failure and self.envelope_ok and self.event is None

    @property
    def verdict(self):
        """'pass', 'inconclusive' when an untested envelope is all that keeps
        the report from passing, else 'FAIL'."""
        if self.passed:
            return "pass"
        if self.inconclusive and not self.determinism_failure and self.event is None:
            return "inconclusive"
        return "FAIL"


def fit_envelope(records):
    """Envelope constant from the first half, margin from the second half.

    c_hat is the largest per-step ratio (log D(t+dt) - log D(t)) / int H dt
    over the fitting window; the margin is max D(t) / (D(0) exp(c_hat
    int_0^t H)) over the validation window.  Returns (c_hat, margin, int_0^T
    H): (None, None, 0.0) when D(0) = 0 (the zero-perturbation case) or with
    fewer than four records, c_hat = margin = None when no fitting step
    yields a ratio.
    """
    ts = np.array([r.t for r in records])
    d = np.array([r.total for r in records])
    h = np.array([r.driver for r in records], dtype=float)
    if d[0] == 0.0 or len(records) < 4:
        return None, None, 0.0
    steps_h = trapezoid_steps(ts, h)
    cum_h = cumulative_trapezoid(ts, h)
    t_mid = 0.5 * (ts[0] + ts[-1])
    c_hat = None
    for i in range(len(ts) - 1):
        if ts[i + 1] > t_mid:
            break
        if d[i] > 0 and d[i + 1] > 0 and steps_h[i] > 0:
            slope = (math.log(d[i + 1]) - math.log(d[i])) / steps_h[i]
            c_hat = slope if c_hat is None else max(c_hat, slope)
    if c_hat is None:
        return None, None, float(cum_h[-1])
    margin = 0.0
    for i in range(len(ts)):
        if ts[i] <= t_mid:
            continue
        envelope = d[0] * math.exp(c_hat * cum_h[i])
        if envelope > 0:
            margin = max(margin, d[i] / envelope)
    return c_hat, margin, float(cum_h[-1])


def stability_experiment(initial, params, step_config, spec, horizon, bundle="full",
                         base=None):
    """Run the paired experiment and assemble the report.

    The base run is the moderate trajectory, the perturbed run the weak one.
    Both store every state and neither takes diagnostics: difference and
    driver records pair the two runs' stored states step by step.  The runs
    share step sizes only at fixed dt: under adaptive stepping
    difference_norms rejects a pair more than 1e-12 apart in time and lets a
    smaller skew through.  A precomputed base trajectory (run with
    store_states=True from the same initial data) can be passed to amortize
    it across a sweep: the base is run once, and the driver's moderate half
    at each record, which depends on the base alone, is computed once per
    params and bundle and kept on the base (Trajectory.moderate_halves).  A
    base without a stored state for every record is a ValueError.  An
    unknown bundle is rejected before any run.  A run that ends early with a
    physics event leaves the records to the states both runs reached; the
    report's event is the base run's, else the perturbed run's, and its
    notes name each run that ended early.
    """
    check_constraints(bundle_constraints(bundle))
    if base is None:
        base = run(initial, params, step_config, horizon, store_states=True, diagnostics=False)
    if not base.snapshots or (base.records and len(base.snapshots) != len(base.records)):
        raise ValueError("the base trajectory lacks a state per record: run it with store_states=True")
    perturbed = run(perturb_state(initial, spec, params), params, step_config, horizon,
                    store_states=True, diagnostics=False)

    last = len(base.snapshots) - 1
    records = []
    for i in range(min(last + 1, len(perturbed.snapshots))):
        st_b = base.snapshots[i]
        st_p = perturbed.snapshots[i]
        rec = difference_norms(st_p, st_b)
        key = (params, bundle, i)
        if key not in base.moderate_halves:
            # the base run's centred dt u, one-sided at the ends, 0 at equal times
            st_lo = base.snapshots[max(i - 1, 0)]
            st_hi = base.snapshots[min(i + 1, last)]
            dt = st_hi.t - st_lo.t
            rate = np.zeros_like(st_b.u) if dt == 0 else (st_hi.u - st_lo.u) / dt
            base.moderate_halves[key] = _moderate_half(st_b, rate, params, bundle)
        rec.driver = _weak_half(st_p, params, bundle) + base.moderate_halves[key]
        records.append(rec)

    determinism_failure = False
    if spec.amplitude == 0.0:
        scale = max(norms.lp_norm(initial.grid, initial.psi, 2) ** 2, 1e-30)
        determinism_failure = any(r.total > 1e-20 * scale for r in records)

    c_hat, margin, total_h = fit_envelope(records) if spec.amplitude > 0 else (None, None, 0.0)
    notes = [f"{label} run ended early: {traj.event.message}"
             for label, traj in (("base", base), ("perturbed", perturbed)) if traj.event is not None]
    return StabilityReport(
        records=records,
        c_hat=c_hat,
        envelope_margin=margin,
        driver_integral=total_h,
        determinism_failure=determinism_failure,
        amplitude=spec.amplitude,
        event=base.event or perturbed.event,
        notes=notes,
    )


# -- reduced plane-wave oracle ---------------------------------------------


@dataclass
class OracleTrajectory:
    ts: np.ndarray
    amp: np.ndarray          # complex wavefunction amplitude a(t)
    vel: np.ndarray          # (n, d) uniform velocity
    rho: np.ndarray          # (n,) uniform density
    mode: np.ndarray         # the lattice wavevector k


def reduced_ode_oracle(params, k, a0, u0, rho0, horizon, tol=1e-10, n_samples=401):
    """Integrate the exact plane-wave reduction of the coupled system.

    For psi = a(t) exp(i k.x), uniform u and rho the dynamics closes into

        a'   = -lam beta a - i (|k|^2/2 + mu |a|^2) a
        rho' = 2 lam beta |a|^2
        u'   = 2 lam |a|^2 beta (k - u) / rho,   beta = |k - u|^2/2 + mu |a|^2

    and conserves rho + |a|^2 and rho u + k |a|^2.  DOP853 with rtol = atol =
    tol; the conservation drift is verified to 10 * tol and the run fails if
    that cannot be met.  A zero horizon returns the initial point at every
    sample time without integrating.
    """
    if not rho0 > 0:
        raise ValueError(f"need rho0 > 0, got {rho0}")
    if not tol > 0:
        raise ValueError(f"need tol > 0, got {tol}")
    if not horizon >= 0:
        raise ValueError(f"need horizon >= 0, got {horizon}")
    k = np.atleast_1d(np.asarray(k, dtype=float))
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    if k.size != u0.size:
        raise ValueError(f"k has {k.size} entries but u0 has {u0.size}")
    d = k.size
    k2 = float(np.dot(k, k))

    def rhs(_, y):
        a = y[0] + 1j * y[1]
        u = y[2:2 + d]
        rho = y[2 + d]
        rel = k - u
        beta = 0.5 * float(np.dot(rel, rel)) + params.mu * abs(a) ** 2
        da = -params.lam * beta * a - 1j * (0.5 * k2 + params.mu * abs(a) ** 2) * a
        du = 2.0 * params.lam * abs(a) ** 2 * beta * rel / rho
        drho = 2.0 * params.lam * beta * abs(a) ** 2
        return np.concatenate([[da.real, da.imag], du, [drho]])

    y0 = np.concatenate([[np.real(a0), np.imag(a0)], u0, [rho0]])
    ts = np.linspace(0.0, horizon, n_samples)
    if horizon == 0:
        y = np.repeat(y0[:, None], n_samples, axis=1)
    else:
        # imported here, not at module level: it adds ~25 MB that no solver run needs
        from scipy.integrate import solve_ivp

        sol = solve_ivp(rhs, (0.0, horizon), y0, method="DOP853",
                        rtol=tol, atol=tol, t_eval=ts, dense_output=False)
        if not sol.success:
            raise RuntimeError(f"oracle integration failed: {sol.message}")
        y = sol.y

    amp = y[0] + 1j * y[1]
    vel = y[2:2 + d].T.copy()
    rho = y[2 + d]

    mass = rho + np.abs(amp) ** 2
    mom = rho[:, None] * vel + np.outer(np.abs(amp) ** 2, k)
    mass_scale = max(abs(mass[0]), 1.0)
    mom_scale = max(float(np.abs(mom[0]).max()), 1.0)
    drift = max(
        float(np.abs(mass - mass[0]).max()) / mass_scale,
        float(np.abs(mom - mom[0]).max()) / mom_scale,
    )
    if drift > 10.0 * tol:
        raise RuntimeError(
            f"oracle conservation drift {drift:.3e} exceeds 10*tol = {10 * tol:.3e}"
        )
    return OracleTrajectory(ts=ts, amp=amp, vel=vel, rho=rho, mode=k)

