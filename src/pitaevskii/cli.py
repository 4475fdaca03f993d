"""Command-line front end.

Subcommands (each takes one config file):

    simulate     integrate to the horizon, write the diagnostics CSV and
                 optional field snapshots
    stability    paired-run uniqueness experiment with the Gronwall envelope
    convergence  dt-refinement study of the energy-equality residual
    validate     model-identity property suite + functional-inequality
                 validator on random smooth fields
    oracle       reduced plane-wave ODE reference trajectory

Exit codes: 0 = every asserted invariant passed; 1 = a physics event ended
the run (density floor, blow-up, CFL, a pressure projection that missed its
tolerance) or an asserted verdict failed or was inconclusive (a stability
envelope never tested); 2 = usage or configuration error, non-finite
initial fields included.

simulate prints a notice line, which does not change its exit code, when
the relative energy-equality residual max|r|/E(0) exceeds the acceptance
tolerance ENERGY_TOL: the run's step size then does not resolve it.
"""

import argparse
import itertools
import os
import sys

import numpy as np

from .config import ConfigError, load_config
from .diagnostics import (
    bounds_report,
    cumulative_trapezoid,
    energy_budget,
    growth_budget,
    inequality_validator,
    time_derivative_report,
)
from .initial_conditions import (
    build_initial_state,
    gaussian_random_field,
    plane_wave_parameters,
    random_smooth_state,
)
from .integrator import ingest, run
from .model import (coupling_hat, momentum_source, momentum_source_conservative, spectra_of,
                    velocity_rhs_hat, wave_nonlinear_hat)
from .norms import inner_product, integral, lp_norm, sobolev_sq, spectral_density_hat
from .snapshot_io import write_difference_series, write_snapshot, write_timeseries
from .spectral import plan_for
from .stability import PerturbationSpec, reduced_ode_oracle, stability_experiment

# max|r(t)| / E(0) of the energy equality that the acceptance runs meet at
# dt = 5e-4; simulate reports a run above it, it does not fail it
ENERGY_TOL = 1e-6


def _fmt(x):
    return repr(float(x))


def _print_event(event):
    print(f"physics event [{event.kind}] at t={_fmt(event.time)}: {event.message}")


def _load(path):
    try:
        return load_config(path)
    except ConfigError as exc:
        print("configuration errors:", file=sys.stderr)
        for ln, msg in exc.errors:
            where = f"line {ln}: " if ln else ""
            print(f"  {where}{msg}", file=sys.stderr)
        return None
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return None


def _build(cfg):
    grid = cfg.grid.build()
    state = build_initial_state(grid, cfg.params, cfg.ic)
    return grid, state


def cmd_simulate(cfg):
    grid, state = _build(cfg)
    os.makedirs(cfg.output.dir, exist_ok=True)
    every = cfg.output.snapshot_every
    snapshot_times = []

    def snapshot(st):
        write_snapshot(st, cfg.params, os.path.join(cfg.output.dir, f"snap_{len(snapshot_times):06d}.pitv"))
        snapshot_times.append(st.t)

    # snapshots are written as the run takes them, so no state is held: the
    # initial state as run() ingests it, every snapshot_every-th step, and the
    # final state when it is off that cadence
    observers = []
    if every > 0:
        snapshot(ingest(state, cfg.params))
        steps = itertools.count(1)
        observers.append(lambda t, st, rec: snapshot(st) if next(steps) % every == 0 else None)
    traj = run(state, cfg.params, cfg.integrator, cfg.experiment.horizon, observers=observers)
    if every > 0 and snapshot_times[-1] != traj.final_state.t:
        snapshot(traj.final_state)
    series_path = os.path.join(cfg.output.dir, cfg.output.timeseries)
    write_timeseries(traj.records, series_path, every=cfg.output.csv_every)

    first = traj.records[0]
    last = traj.records[-1]
    residual = float(np.abs(energy_budget(traj.records)).max())
    relative = residual / max(first.energy, 1e-300)
    print(f"steps: {len(traj.records) - 1}   final time: {_fmt(last.t)}")
    print(f"energy: initial {_fmt(first.energy)}  final {_fmt(last.energy)}")
    print(f"energy-equality residual: max {_fmt(residual)} (relative {_fmt(relative)})")
    if relative > ENERGY_TOL:
        print(f"notice: relative energy-equality residual {_fmt(relative)} exceeds the "
              f"acceptance tolerance {_fmt(ENERGY_TOL)}")
    print(f"growth budget (gamma={_fmt(cfg.params.gamma)}, informational): "
          f"{_fmt(growth_budget(first, cfg.params, cfg.experiment.horizon))}")
    tdr = time_derivative_report(traj.records)
    print(f"time-derivative norms: wave {_fmt(tdr.wave_l2l2)}  "
          f"velocity {_fmt(tdr.vel_l2l2)}  density(H^-1) {_fmt(tdr.rho_l2hm1)}")

    failed = []
    y_ints = cumulative_trapezoid([r.t for r in traj.records], [r.second_diss for r in traj.records])
    # the mass drift is second order in the largest step the run took
    dt = max(np.diff(traj.times) if cfg.integrator.adaptive else (), default=cfg.integrator.dt_init)
    mass_tol = 1e-8 * max(1.0, (dt / 5e-4) ** 2)
    for rec, y_int in zip(traj.records, y_ints):
        checks = bounds_report(rec, cfg.params, reference=first, y_integral=y_int,
                               mass_tol=mass_tol)
        failed += [(rec.t, check) for check in checks if not check.passed and not check.observation]
    for t, check in failed[:5]:
        print(f"BOUND FAILED at t={_fmt(t)}: {check.name} (margin {_fmt(check.margin)})")
    # the summary is the last record's checks
    for check in checks:
        tag = "observation" if check.observation else "assertion"
        status = "pass" if check.passed else "FAIL"
        print(f"bound {check.name}: {status} ({tag}, margin {_fmt(check.margin)})")
    print(f"series: {series_path}")

    if traj.event is not None:
        _print_event(traj.event)
        return 1
    return 1 if failed else 0


def cmd_stability(cfg):
    grid, state = _build(cfg)
    os.makedirs(cfg.output.dir, exist_ok=True)
    spec = PerturbationSpec(
        target=cfg.experiment.target,
        mode=cfg.experiment.mode,
        amplitude=cfg.experiment.delta_p,
    )
    report = stability_experiment(state, cfg.params, cfg.integrator, spec,
                                  cfg.experiment.horizon, bundle=cfg.experiment.bundle)
    path = os.path.join(cfg.output.dir, "stability.csv")
    write_difference_series(report, path)
    d0 = report.records[0].total if report.records else 0.0
    dmax = max((r.total for r in report.records), default=0.0)
    print(f"perturbation: target={spec.target} amplitude={_fmt(spec.amplitude)}")
    print(f"difference: D(0)={_fmt(d0)}  sup D={_fmt(dmax)}")
    print(f"driver integral: {_fmt(report.driver_integral)}")
    print(f"envelope constant: {'n/a' if report.c_hat is None else _fmt(report.c_hat)}")
    print(f"envelope margin: {'n/a' if report.envelope_margin is None else _fmt(report.envelope_margin)}")
    print(f"determinism failure: {str(report.determinism_failure).lower()}")
    print(f"verdict: {report.verdict}")
    print(f"series: {path}")
    if report.event is not None:
        _print_event(report.event)
    return 0 if report.passed else 1


def cmd_convergence(cfg):
    from dataclasses import replace

    if not cfg.experiment.horizon > 0:
        raise ValueError(f"the convergence study needs experiment.T > 0, got {cfg.experiment.horizon}")
    if cfg.integrator.adaptive:
        raise ValueError("the convergence study refines a fixed step: set integrator.adaptive = false")
    grid, state = _build(cfg)

    def residual(initial, dt, label):
        # max|r|/E0 of a run at fixed dt, or None (with a line) if it ended early
        step_cfg = replace(cfg.integrator, dt_init=dt, dt_min=min(cfg.integrator.dt_min, dt))
        traj = run(initial, cfg.params, step_cfg, cfg.experiment.horizon)
        if traj.event is not None:
            print(f"{label} ended early: {traj.event.message}")
            return None
        e0 = traj.records[0].energy
        if not e0 > 0:
            raise ValueError(f"the convergence study scales the residual by the initial energy "
                             f"E(0), which is {_fmt(e0)}: give the initial data some energy")
        return float(np.abs(energy_budget(traj.records)).max() / e0)

    residuals = []
    dts = [cfg.integrator.dt_init, cfg.integrator.dt_init / 2, cfg.integrator.dt_init / 4]
    for dt in dts:
        residuals.append(residual(state.copy(), dt, f"run at dt={_fmt(dt)}"))
        if residuals[-1] is None:
            return 1
        print(f"dt={_fmt(dt)}: max|r|/E0 = {_fmt(residuals[-1])}")
    orders = [float(np.log2(a / b)) for a, b in zip(residuals, residuals[1:])]
    ok = True
    for (dt, order) in zip(dts, orders):
        print(f"observed order {_fmt(dt)} -> {_fmt(dt / 2)}: {_fmt(order)}")
        ok = ok and 1.7 <= order <= 2.3

    # spatial half of the study: at the finest dt, refine the mesh 1.5x; the
    # residual barely moves because the spatial error is spectrally small
    fine_n = tuple(int(np.ceil(v * 1.5 / 2)) * 2 for v in cfg.grid.n)
    fine_grid = replace(cfg.grid, n=fine_n).build()
    fine_res = residual(build_initial_state(fine_grid, cfg.params, cfg.ic), dts[-1],
                        "refined-grid run")
    if fine_res is None:
        return 1
    rel_change = abs(fine_res - residuals[-1]) / residuals[-1]
    print(f"grid {cfg.grid.n} -> {fine_n} at dt={_fmt(dts[-1])}: "
          f"max|r|/E0 = {_fmt(fine_res)} (change {_fmt(rel_change)}; "
          "time error dominates, consistent with spectral spatial accuracy)")

    print(f"verdict: {'pass' if ok else 'FAIL'} (expected order 2.0 +/- 0.3)")
    return 0 if ok else 1


def cmd_validate(cfg):
    grid = cfg.grid.build()
    params = cfg.params
    plan = plan_for(grid)
    rng = np.random.default_rng(cfg.ic.seed)
    checks = []

    # the identities are checked on the bodies the step runs, fed the
    # state's Spectra as the step's are: the exchange field velocity_rhs_hat
    # returns and dt psi as the wave substep integrates it;
    # momentum_source_conservative is the one independent form
    worst_quad = worst_form = worst_exchange = worst_div = worst_split = 0.0
    for _ in range(100):
        st = random_smooth_state(grid, params, 0.5, rng)
        # the projector on the raw velocity v: div w = 0 and w + grad chi = v
        v = st.u
        st.u, chi = plan.leray_project(v)
        vmax = max(np.abs(v).max(), 1e-300)
        worst_div = max(worst_div, float(np.abs(plan.divergence(st.u)).max() / vmax))
        worst_split = max(worst_split, float(np.abs(st.u + plan.gradient(chi) - v).max() / vmax))
        psi, u = st.psi, st.u
        _, psi_hat, u_hat, stack, speed2, cubic, u_dot_grad = spectra_of(plan, st)
        grad_psi = stack[1:]
        coupling = plan.ifft(coupling_hat(plan, psi, psi_hat, grad_psi, u, speed2, cubic, params,
                                          u_dot_grad=u_dot_grad), psi)
        _, _, exchange = velocity_rhs_hat(plan, psi, psi_hat, grad_psi, cubic, u, u_hat, speed2,
                                          st.rho, params)

        # Re<psi, C[psi]> = 0.5 ||(-i grad - u) psi||^2 + mu ||psi||_L4^4
        lhs = integral(grid, exchange)
        rhs = (0.5 * lp_norm(grid, -1j * grad_psi - u * psi, 2) ** 2
               + params.mu * lp_norm(grid, psi, 4) ** 4)
        worst_quad = max(worst_quad, abs(lhs - rhs) / max(abs(rhs), 1e-300))

        cons = momentum_source_conservative(st, params, coupling)
        noncons = momentum_source(st, params, coupling)
        drag = 2 * params.lam * plan.dealias(u * exchange)
        projected, _ = plan.leray_project(cons - noncons - drag)
        scale = max(np.abs(cons).max(), np.abs(noncons).max(), 1e-300)
        worst_form = max(worst_form, float(np.abs(projected).max() / scale))

        src = integral(grid, 2.0 * params.lam * exchange)
        linear = -(params.lam + 1j) * 0.5 * plan.tables(psi_hat).k2 * psi_hat
        nonlinear = wave_nonlinear_hat(plan, psi, grad_psi, cubic, u, speed2, params,
                                       u_dot_grad=u_dot_grad)
        dt_psi = plan.ifft(linear + nonlinear, psi)
        dmass = 2.0 * inner_product(grid, psi, dt_psi).real
        # scaled by the Cauchy-Schwarz bound on dmass, which unlike src does
        # not vanish at lam = 0
        bound = 2.0 * lp_norm(grid, psi, 2) * lp_norm(grid, dt_psi, 2)
        worst_exchange = max(worst_exchange, abs(src + dmass) / max(bound, 1e-300))

    checks.append(("coupling quadratic form", worst_quad, 1e-10))
    checks.append(("source-form equivalence", worst_form, 1e-10))
    checks.append(("mass-exchange antisymmetry", worst_exchange, 1e-10))
    checks.append(("projector divergence", worst_div, 1e-12))
    checks.append(("projector decomposition", worst_split, 1e-12))

    f = gaussian_random_field(grid, np.random.default_rng(cfg.ic.seed + 1), band_limit=False)
    hs = plan.helmholtz_solve(f, 0.7)
    checks.append(("helmholtz residual",
                   float(np.abs(hs - 0.7 * plan.laplacian(hs) - f).max()
                         / max(np.abs(f).max(), 1e-300)), 1e-12))
    # the Parseval weights every norm and PCG inner product uses
    quad = lp_norm(grid, f, 2) ** 2
    dens, tab = spectral_density_hat(plan, plan.fft(f))
    checks.append(("parseval", abs(quad - sobolev_sq(dens, tab, grid.volume, 0.0)) / quad, 1e-12))

    ok = True
    for name, value, tol in checks:
        status = "pass" if value <= tol else "FAIL"
        ok = ok and value <= tol
        print(f"{name}: {status} (worst {_fmt(value)}, tolerance {_fmt(tol)})")

    def sample_fields(seed, count):
        r = np.random.default_rng(seed)
        return [gaussian_random_field(grid, r, band_limit=False) for _ in range(count)]

    rep_a = inequality_validator(grid, sample_fields(cfg.ic.seed + 10, 100))
    rep_b = inequality_validator(grid, sample_fields(cfg.ic.seed + 11, 100))
    if rep_a.notice:
        print(f"note: {rep_a.notice}")
    for name in rep_a.max_ratio:
        a, b = rep_a.max_ratio[name], rep_b.max_ratio[name]
        spread = abs(a - b) / max(a, b)
        stable = spread <= 0.2
        inside = a <= rep_a.cap and b <= rep_b.cap
        status = "pass" if (stable and inside) else "FAIL"
        ok = ok and stable and inside
        print(f"inequality {name}: {status} (ratios {_fmt(a)} / {_fmt(b)}, "
              f"spread {_fmt(spread)}, cap {_fmt(rep_a.cap)})")
    print(f"verdict: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_oracle(cfg):
    os.makedirs(cfg.output.dir, exist_ok=True)
    grid_d = cfg.grid.d
    k, a0, vel = plane_wave_parameters(cfg.ic, cfg.grid.lengths)
    traj = reduced_ode_oracle(cfg.params, k, a0, vel, cfg.ic.rho0,
                              cfg.experiment.horizon, tol=1e-12)
    path = os.path.join(cfg.output.dir, "oracle.csv")
    header = ["t", "re_a", "im_a", "abs_a", *(f"u_{i}" for i in range(grid_d)), "rho",
              "mass_invariant", "momentum_invariant_0"]
    rows = [",".join(header)]
    for i, t in enumerate(traj.ts):
        a = traj.amp[i]
        mass = traj.rho[i] + abs(a) ** 2
        mom0 = traj.rho[i] * traj.vel[i, 0] + abs(a) ** 2 * traj.mode[0]
        cells = [t, a.real, a.imag, abs(a), *traj.vel[i], traj.rho[i], mass, mom0]
        rows.append(",".join(_fmt(c) for c in cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"oracle horizon: {_fmt(cfg.experiment.horizon)}  samples: {len(traj.ts)}")
    print(f"final |a|: {_fmt(abs(traj.amp[-1]))}  final rho: {_fmt(traj.rho[-1])}")
    print(f"series: {path}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pitaevskii",
        description="Pseudo-spectral simulator and verification harness for the "
                    "Pitaevskii two-fluid model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("simulate", cmd_simulate), ("stability", cmd_stability),
                     ("convergence", cmd_convergence), ("validate", cmd_validate),
                     ("oracle", cmd_oracle)):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the run configuration file")
        p.set_defaults(fn=fn)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    cfg = _load(args.config)
    if cfg is None:
        return 2
    try:
        return args.fn(cfg)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
