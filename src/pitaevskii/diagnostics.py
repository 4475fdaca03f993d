"""Per-step diagnostics: energy balance, mass/density bounds, Sobolev norms,
and the empirical functional-inequality validator.

The central identity monitored here is the energy equality

    E(t) + int_0^t [ nu ||grad u||^2 + 2 lam ||C[psi]||^2 ] dtau = E(0)

with E = 0.5 ||sqrt(rho) u||^2 + 0.5 ||grad psi||^2 + (mu/2) ||psi||_L4^4.
Its residual r(t) is zero for the exact dynamics, so what remains measures
the time discretization alone (the spatial discretization is spectral).
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import norms
from .grid import pointwise_dot
from .model import coupling_hat
from .spectral import plan_for

@dataclass
class DiagnosticsRecord:
    t: float
    energy: float
    diss_visc: float          # nu ||grad u||^2
    diss_relax: float         # 2 lam ||C[psi]||^2
    mass_wave: float          # ||psi||_L2^2
    mass_fluid: float         # int rho
    rho_min: float
    rho_max: float
    second_energy: float      # 1 + ||lap psi||^2 + nu ||grad u||^2
    second_diss: float        # lam ||grad C[psi]||^2 + ||sqrt(rho) dt u||^2 + (nu^2/M') ||lap u||^2
    sob_wave: float           # ||psi||_{H^{5/2+delta}}
    sob_vel: float            # ||u||_{H^{3/2+delta}}
    sob_coupling: float       # ||C[psi]||_{H^{3/2+delta}}
    dt_wave_l2: float         # backward-difference ||dt psi||_L2 (0 on the first record)
    dt_vel_l2: float
    dt_rho_hm1: float         # backward-difference ||dt rho||_{H^-1}
    momentum: tuple = field(default_factory=tuple)  # int rho u + Im(conj(psi) grad psi)

    def scalars(self):
        return [getattr(self, name) for name in RECORD_SCALARS]


# the record's scalar fields, which are also its CSV columns in this order;
# the momentum vector is appended as mom_0[, mom_1[, mom_2]]
RECORD_SCALARS = tuple(f.name for f in fields(DiagnosticsRecord) if f.name != "momentum")


def measure(state, params, prev_state=None, *, psi_hat=None, u_hat=None, grad_psi=None):
    """Build the diagnostics record for one accepted step.

    Time-derivative entries are backward differences against prev_state,
    which must lie at another time, and zero on the initial record.  psi_hat
    and u_hat, the spectra plan.fft of state.psi and state.u, and grad_psi,
    the inverse transform of psi_hat's gradient, may be passed in by a
    caller that holds them.

    Each pointwise product is formed once: |psi|^2 serves the wave mass,
    the quartic energy and the coupling, |u|^2 the kinetic energy and the
    coupling.  Integrals of products are dot products, every Sobolev-type
    entry weighs one Parseval density per field, and the time differences
    divide their norms by dt, not their fields.  Given all three, two
    transform calls: the coupling's forward transform and the density
    difference's for its H^-1 norm (one more for each of them not given).
    """
    g = state.grid
    plan = plan_for(g)
    psi, u, rho = state.psi, state.u, state.rho
    if psi_hat is None:
        psi_hat = plan.fft(psi)
    if u_hat is None:
        u_hat = plan.fft(u)
    cell = g.cell_volume
    vol = g.volume
    psi2 = psi.real ** 2 + psi.imag ** 2
    speed2 = pointwise_dot(u, u)
    if grad_psi is None:
        grad_psi = plan.ifft(plan.grad_hat(psi_hat), psi)
    c_hat = coupling_hat(plan, psi, psi_hat, grad_psi, u, speed2, psi2 * psi, params)

    # one Parseval density per field serves every Sobolev-type entry; the
    # real velocity's half spectrum carries the Hermitian weights
    psi_dens = norms.spectral_density_hat(plan, psi_hat)
    c_dens = norms.spectral_density_hat(plan, c_hat)
    u_dens = norms.spectral_density_hat(plan, u_hat)

    def sob_sq(dens, s, homogeneous=False):
        return norms.sobolev_sq(*dens, vol, s, homogeneous)

    grad_psi_sq = sob_sq(psi_dens, 1.0, homogeneous=True)
    grad_u_sq = sob_sq(u_dens, 1.0, homogeneous=True)
    lap_psi_sq = sob_sq(psi_dens, 2.0, homogeneous=True)
    lap_u_sq = sob_sq(u_dens, 2.0, homogeneous=True)
    grad_coupling_sq = sob_sq(c_dens, 1.0, homogeneous=True)
    coupling_l2_sq = sob_sq(c_dens, 0.0)
    sob_wave = math.sqrt(sob_sq(psi_dens, 2.5 + params.delta))
    sob_vel = math.sqrt(sob_sq(u_dens, 1.5 + params.delta))
    sob_coupling = math.sqrt(sob_sq(c_dens, 1.5 + params.delta))

    kinetic = 0.5 * float(np.vdot(rho, speed2)) * cell
    quartic = 0.5 * params.mu * float(np.vdot(psi2, psi2)) * cell
    energy_val = kinetic + 0.5 * grad_psi_sq + quartic

    dt_wave = dt_vel = dt_rho = 0.0
    ud_term = 0.0
    if prev_state is not None:
        dt_step = abs(state.t - prev_state.t)
        if dt_step == 0:
            raise ValueError(f"prev_state is at the state's time: {prev_state.t} vs {state.t}")
        dpsi = psi - prev_state.psi
        du = u - prev_state.u
        dt_wave = math.sqrt(np.vdot(dpsi, dpsi).real * cell) / dt_step
        dt_vel = math.sqrt(float(np.vdot(du, du)) * cell) / dt_step
        dt_rho = norms.sobolev_norm(g, rho - prev_state.rho, -1.0) / dt_step
        ud_term = float(np.vdot(rho, pointwise_dot(du, du))) * cell / dt_step ** 2

    # int rho u_i + int Im(conj(psi) d_i psi)
    mom = [(float(np.vdot(rho, u[i])) + np.vdot(psi, grad_psi[i]).imag) * cell for i in range(g.d)]

    return DiagnosticsRecord(
        t=float(state.t),
        energy=energy_val,
        diss_visc=params.nu * grad_u_sq,
        diss_relax=2.0 * params.lam * coupling_l2_sq,
        mass_wave=float(np.sum(psi2)) * cell,
        mass_fluid=norms.integral(g, rho),
        rho_min=float(rho.min()),
        rho_max=float(rho.max()),
        second_energy=1.0 + lap_psi_sq + params.nu * grad_u_sq,
        second_diss=params.lam * grad_coupling_sq + ud_term + params.nu ** 2 / params.m_prime * lap_u_sq,
        sob_wave=sob_wave,
        sob_vel=sob_vel,
        sob_coupling=sob_coupling,
        dt_wave_l2=dt_wave,
        dt_vel_l2=dt_vel,
        dt_rho_hm1=dt_rho,
        momentum=tuple(float(v) for v in mom),
    )


def energy_budget(records):
    """Residual series r(t) = E(t) + int_0^t (diss_visc + diss_relax) - E(0).

    The time integral uses the trapezoid rule over the record times, so
    r(0) = 0 exactly and |r| measures the step error of the integrator.
    """
    if len(records) < 1:
        raise ValueError("need at least one record")
    e = np.array([r.energy for r in records])
    cum = cumulative_trapezoid([r.t for r in records], [r.diss_visc + r.diss_relax for r in records])
    return e + cum - e[0]


def trapezoid_steps(ts, values):
    """Trapezoid-rule area 0.5 * (a + b) * dt of each step between the
    sample times ts."""
    values = np.asarray(values, dtype=float)
    return 0.5 * (values[1:] + values[:-1]) * np.diff(np.asarray(ts, dtype=float))


def cumulative_trapezoid(ts, values):
    """Trapezoid-rule integral of values from ts[0] to each ts[i]: 0, then
    the running sum of the trapezoid_steps."""
    return np.concatenate([[0.0], np.cumsum(trapezoid_steps(ts, values))])


@dataclass
class BoundCheck:
    """One a priori bound as its signed margin, bound minus value: it passes
    on a positive margin when strict, else on a nonnegative one.  For finite
    operands that sign decides exactly as the comparison of the two does."""

    name: str
    margin: float
    strict: bool = False
    observation: bool = False  # True: reported, never fatal

    @property
    def passed(self):
        return self.margin > 0 if self.strict else self.margin >= 0


def bounds_report(record, params, reference=None, y_integral=None, mass_tol=None):
    """Evaluate the a priori bounds on one record.

    reference is the initial record (defaults to the record itself, so the
    initial record passes everything).  The density bounds are strict, the
    others admit equality.  The growth checks on the second-order
    quantities are observations: they are guaranteed only up to the model's
    own existence horizon, which the artifact does not compute.  mass_tol
    overrides the 1e-8 relative tolerance for the total-mass check; that
    contract is pinned at the reference step size and a second-order scheme
    needs (dt/dt_ref)^2 headroom at coarser steps.
    """
    tol = 1e-8
    if reference is None:
        reference = record
    if mass_tol is None:
        mass_tol = tol
    total_0 = reference.mass_wave + reference.mass_fluid
    drift = abs(record.mass_wave + record.mass_fluid - total_0)
    checks = [
        BoundCheck("wave_mass_nonincreasing",
                   reference.mass_wave * (1.0 + tol) - record.mass_wave),
        BoundCheck("density_above_floor", record.rho_min - params.eps, strict=True),
        BoundCheck("density_below_ceiling", params.m_prime * (1.0 + tol) - record.rho_max,
                   strict=True),
        BoundCheck("total_mass_constant", mass_tol * abs(total_0) - drift),
        BoundCheck("second_energy_doubling",
                   2.0 * reference.second_energy - record.second_energy, observation=True),
    ]
    if y_integral is not None:
        checks.append(BoundCheck("second_diss_integral",
                                 31.0 * reference.second_energy - y_integral, observation=True))
    return checks


def growth_budget(initial_record, params, horizon):
    """Informational growth functional for the chosen horizon.

    Combines the second-order initial energy X0 and the initial Sobolev sizes
    into lam*(M'/nu^2)*X0 + (lam*M'/(nu^2 eps) + gamma)*X0^2*T + lam*E1^2*T.
    gamma is a free constant (params.gamma, default 1) and the value is
    logged, never asserted.  At nu = 0 the two terms over nu^2 are inf when
    lam > 0 and 0 when lam = 0.
    """
    x0 = initial_record.second_energy
    e1 = initial_record.sob_vel ** 2 + initial_record.sob_wave ** 2
    mp = params.m_prime
    if params.nu > 0:
        viscous = params.lam * mp / params.nu ** 2
        viscous_eps = params.lam * mp / (params.nu ** 2 * params.eps)
    else:
        viscous = viscous_eps = math.inf if params.lam > 0 else 0.0
    return (
        viscous * x0
        + (viscous_eps + params.gamma) * x0 ** 2 * horizon
        + params.lam * e1 ** 2 * horizon
    )


@dataclass
class TimeDerivativeReport:
    wave_l2l2: float
    vel_l2l2: float
    rho_l2hm1: float


def time_derivative_report(records):
    """L^2-in-time aggregates of the backward-difference derivative norms."""
    if len(records) < 2:
        return TimeDerivativeReport(0.0, 0.0, 0.0)
    ts = np.array([r.t for r in records])
    dts = np.diff(ts)
    wave = math.sqrt(float(np.sum(np.array([r.dt_wave_l2 for r in records[1:]]) ** 2 * dts)))
    vel = math.sqrt(float(np.sum(np.array([r.dt_vel_l2 for r in records[1:]]) ** 2 * dts)))
    rho = math.sqrt(float(np.sum(np.array([r.dt_rho_hm1 for r in records[1:]]) ** 2 * dts)))
    return TimeDerivativeReport(wave, vel, rho)


# -- functional-inequality validator --------------------------------------

INEQUALITIES_3D = ("poincare", "ladyzhenskaya", "agmon", "lebesgue_l3", "h1_l6")
INEQUALITIES_ANY_D = ("poincare", "lebesgue_l3")


@dataclass
class ValidatorReport:
    max_ratio: dict
    n_fields: int
    n_skipped: int
    cap: float
    passed: bool
    notice: str = ""


def _inequality_ratios(grid, f):
    l2 = norms.lp_norm(grid, f, 2)
    if l2 == 0.0:
        return None
    grad = plan_for(grid).gradient(f)
    grad_l2 = norms.lp_norm(grid, grad, 2)
    if grad_l2 == 0.0:
        return None
    out = {"poincare": l2 / grad_l2}
    l3 = norms.lp_norm(grid, f, 3)
    l6 = norms.lp_norm(grid, f, 6)
    out["lebesgue_l3"] = l3 / math.sqrt(l2 * l6)
    if grid.d == 3:
        l4 = norms.lp_norm(grid, f, 4)
        out["ladyzhenskaya"] = l4 / (l2 ** 0.25 * grad_l2 ** 0.75)
        h1 = norms.sobolev_norm(grid, f, 1.0)
        h2 = norms.sobolev_norm(grid, f, 2.0)
        out["agmon"] = norms.lp_norm(grid, f, np.inf) / math.sqrt(h1 * h2)
        out["h1_l6"] = l6 / h1
    return out


def inequality_validator(grid, fields):
    """Empirical constants for the Sobolev/Lebesgue inequalities.

    Every field has its mean removed (the homogeneous ratios require it);
    zero fields are skipped.  The inequalities are theorems, so each maximal
    ratio over the sample is a finite empirical constant; a ratio above the
    cap of 100 indicates an implementation bug, not new mathematics.

    On grids with d != 3 only the dimension-independent subset is evaluated
    and the report carries a notice.
    """
    cap = 100.0
    names = INEQUALITIES_3D if grid.d == 3 else INEQUALITIES_ANY_D
    notice = "" if grid.d == 3 else (
        f"dimension {grid.d}: restricted to {', '.join(names)} "
        "(the remaining exponents are specific to d=3)"
    )
    best = {name: 0.0 for name in names}
    skipped = 0
    for f in fields:
        f = np.asarray(f)
        f = f - np.mean(f)
        ratios = _inequality_ratios(grid, f)
        if ratios is None:
            skipped += 1
            continue
        for name in names:
            best[name] = max(best[name], ratios[name])
    passed = all(np.isfinite(v) and v <= cap for v in best.values())
    return ValidatorReport(best, len(fields) - skipped, skipped, cap, passed, notice)
