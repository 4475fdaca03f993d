"""Hand-written mutants of the solver and the tests that kill them.

Each entry of MUTANTS replaces one piece of source text, which occurs
exactly once in its module, by a mutant, and names the tests that must
fail on it.  tests/test_mutant_table.py checks in Tier-1 that every
source text is still there, once, inside the function the entry names, so
the table cannot rot silently.  This runner first runs the chosen
mutants' killing tests on an unmutated copy of the tree and stops unless
they all pass there; then it applies each mutant to a fresh copy and runs
its killing tests on it:

    python tools/mutants.py [--workdir DIR] [NAME ...]

It prints KILLED or SURVIVED per mutant and exits 1 if any survives.  The
tree itself is never modified.
Mutation testing: DeMillo, Lipton & Sayward, IEEE Computer 11 (1978); Jia &
Harman, IEEE TSE 37 (2011).
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]


@dataclass(frozen=True)
class Mutant:
    name: str
    site: str          # "module:qualname" of the function the source text sits in
    source: str        # occurs exactly once in the module's file
    mutant: str
    killers: tuple     # pytest node ids that fail on the mutant

    @property
    def path(self):
        module = self.site.split(":")[0]
        return os.path.join("src", *module.split(".")) + ".py"


MUTANTS = (
    # thresholds that decide a verdict or a solve
    Mutant("pcg-stops-at-10-tol", "pitaevskii.spectral:SpectralPlan.weighted_leray_hat",
           "target = max(tol * rhs_norm, floor)", "target = max(10 * tol * rhs_norm, floor)",
           ("tests/test_spectral_ops.py::test_weighted_projection_meets_its_tolerance",)),
    # a residual asked to fall below the round-off of div(v): PCG stalls
    Mutant("pcg-target-below-round-off", "pitaevskii.spectral:SpectralPlan.weighted_leray_hat",
           "target = max(tol * rhs_norm, floor)", "target = tol * rhs_norm",
           ("tests/test_spectral_ops.py::"
            "test_weighted_projection_of_a_nearly_solenoidal_field_returns",)),
    # PCG's final correction left untruncated: u leaves the dealias ball
    Mutant("untruncated-pcg-correction", "pitaevskii.spectral:SpectralPlan.weighted_leray_hat",
           "what = self.dealias_in_place(flux_p)", "what = flux_p",
           ("tests/test_integrator.py::test_pcg_steps_keep_u_inside_the_dealias_ball",)),
    # the constant-coefficient preconditioner 1/(r_bar |k'|^2), and the
    # scalar one |k'|^-1 rho |k'|^-1, in place of L^-1 (-div(rho grad L^-1)),
    # each negated as the solve takes it: cold solves and the cold step on
    # the workloads' data cost more
    Mutant("constant-preconditioner", "pitaevskii.spectral:SpectralPlan.weighted_leray_hat",
           "return pointwise_dot(tab.ik_inv_kk, self.fft(grad))",
           "return res * (tab.inv_kk / -r_bar)",
           ("tests/test_spectral_ops.py::test_weighted_projection_cold_iterations",
            "tests/test_transform_budget.py::test_step_transform_budget[smooth]")),
    Mutant("scalar-preconditioner", "pitaevskii.spectral:SpectralPlan.weighted_leray_hat",
           "grad = self.ifft(tab.ik_inv_kk * res, weight)\n"
           "            grad *= weight\n"
           "            return pointwise_dot(tab.ik_inv_kk, self.fft(grad))",
           "inv_k = np.sqrt(tab.inv_kk)\n"
           "            return -inv_k * self.fft(weight * self.ifft(inv_k * res, weight))",
           ("tests/test_spectral_ops.py::test_weighted_projection_cold_iterations",
            "tests/test_transform_budget.py::test_step_transform_budget[contrast]")),
    # the sign the negated system folds into the step length, flipped: the
    # iteration climbs away from the solution; and the conjugate direction
    # dropped for the preconditioned residual (steepest descent)
    Mutant("pcg-step-sign", "pitaevskii.spectral:SpectralPlan.weighted_leray_hat",
           "step = rz / tab.dot(direction, q)", "step = -rz / tab.dot(direction, q)",
           ("tests/test_spectral_ops.py::test_weighted_projection_meets_its_tolerance",)),
    Mutant("pcg-direction-restarts", "pitaevskii.spectral:SpectralPlan.weighted_leray_hat",
           "direction *= rz / rz_old", "direction *= 0.0",
           ("tests/test_spectral_ops.py::test_weighted_projection_cold_iterations",)),
    Mutant("zero-pair-threshold-1e-10", "pitaevskii.stability:stability_experiment",
           "r.total > 1e-20 * scale", "r.total > 1e-10 * scale",
           ("tests/test_stability.py::test_zero_pair_determinism_threshold",)),
    Mutant("zero-pair-from-equal-starts-only", "pitaevskii.stability:stability_experiment",
           "determinism_failure = any(r.total",
           "determinism_failure = records[0].total == 0.0 and any(r.total",
           ("tests/test_stability.py::"
            "test_zero_pair_that_differs_from_the_start_fails_determinism",)),
    Mutant("envelope-fits-the-whole-run", "pitaevskii.stability:fit_envelope",
           "if ts[i + 1] > t_mid:", "if ts[i + 1] > ts[-1]:",
           ("tests/test_stability.py::"
            "test_fit_envelope_fits_the_first_half_and_validates_the_second",)),
    Mutant("pairing-skew-1e-6", "pitaevskii.stability:difference_norms",
           "abs(state_a.t - state_b.t) > 1e-12 *", "abs(state_a.t - state_b.t) > 1e-6 *",
           ("tests/test_stability.py::test_difference_norms_mismatch_errors",)),
    Mutant("simulate-mass-tol-1e-6", "pitaevskii.cli:cmd_simulate",
           "mass_tol = 1e-8 * max(", "mass_tol = 1e-6 * max(",
           ("tests/test_cli.py::test_simulate_fails_a_total_mass_drift_above_1e_8",)),
    Mutant("convergence-order-window", "pitaevskii.cli:cmd_convergence",
           "ok = ok and 1.7 <= order <= 2.3", "ok = ok and 1.2 <= order <= 2.8",
           ("tests/test_cli.py::test_convergence_verdict_holds_the_order_to_2_within_0_3",)),
    Mutant("validate-spread-0.9", "pitaevskii.cli:cmd_validate",
           "stable = spread <= 0.2", "stable = spread <= 0.9",
           ("tests/test_cli.py::"
            "test_validate_fails_an_inequality_ratio_that_spreads_past_0_2",)),
    Mutant("second-dissipation-cap-62", "pitaevskii.diagnostics:bounds_report",
           "31.0 * reference.second_energy - y_integral",
           "62.0 * reference.second_energy - y_integral",
           ("tests/test_diagnostics.py::"
            "test_second_dissipation_integral_is_capped_at_31_times_the_initial_energy",)),
    # a density floor touched exactly is a breach
    Mutant("floor-bound-not-strict", "pitaevskii.diagnostics:bounds_report",
           "record.rho_min - params.eps, strict=True", "record.rho_min - params.eps",
           ("tests/test_diagnostics.py::test_each_bound_holds_or_fails_at_its_boundary",)),
    # the weak half's |psi|_H1^4 term carries the self-interaction's 1 + mu^2
    Mutant("weak-half-drops-mu", "pitaevskii.stability:_weak_half",
           "(1.0 + params.mu ** 2) *", "",
           ("tests/test_stability.py::test_gronwall_bundle_plane_wave_closed_form",)),
    Mutant("split-threshold-2", "pitaevskii.integrator:_split_applies",
           "< SPLIT_MAX_CONTRAST", "< 2.0",
           ("tests/test_integrator.py::test_run_takes_the_split_on_warm_low_contrast_stages",)),
    Mutant("horizon-slack-1e-6", "pitaevskii.integrator:run",
           "tiny = 1e-12 * max(1.0, horizon)", "tiny = 1e-6 * max(1.0, horizon)",
           ("tests/test_integrator.py::test_run_takes_a_last_step_of_1e9_to_the_horizon",)),
    # a stored event that keeps its traceback holds the failed step's frames
    # and fields for as long as the trajectory lives
    Mutant("stored-event-keeps-its-traceback", "pitaevskii.integrator:run",
           "event = exc.with_traceback(None)", "event = exc",
           ("tests/test_integrator.py::test_run_keeps_one_event_per_kind_without_its_traceback",)),
    Mutant("projector-check-on-the-projected-field", "pitaevskii.cli:cmd_validate",
           "float(np.abs(st.u + plan.gradient(chi) - v).max() / vmax)",
           "float(np.abs(st.u + plan.gradient(chi) - st.u - plan.gradient(chi)).max() / vmax)",
           ("tests/test_cli.py::test_validate_fails_on_a_broken_projector",)),
    # the fluid stage body and the pressure guesses
    Mutant("stage-half-update", "pitaevskii.integrator:_fluid_substep.stage",
           "accel_hat *= h", "accel_hat *= 0.5 * h",
           ("tests/test_reference_runs.py",)),
    Mutant("stage-density-from-the-stage", "pitaevskii.integrator:_fluid_substep.stage",
           "rho_new = rho + h * rho_rate", "rho_new = rho_s + h * rho_rate",
           ("tests/test_reference_runs.py",)),
    Mutant("stage-floor-time", "pitaevskii.integrator:_fluid_substep.stage",
           "density_floor_check(rho_new, params, t0 + h)",
           "density_floor_check(rho_new, params, t0 + dt)",
           ("tests/test_integrator.py::"
            "test_density_floor_breach_at_the_midpoint_is_stamped_there",)),
    # the curve through the corrector pressures, which gives the
    # high-contrast predictor's p* (a line) and the corrector's PCG warm
    # start (a cubic)
    Mutant("pcg-guess-three-steps", "pitaevskii.integrator:StepHistory.corrector_curve",
           "steps = self._before(t, count)", "steps = self._before(t, min(count, 3))",
           ("tests/test_integrator.py::test_pressure_history_extrapolates_in_time",)),
    Mutant("pcg-guess-constant-offset", "pitaevskii.integrator:StepHistory.corrector_curve",
           "return _lagrange([s[0] + 0.5 * s[1] for s in steps], [s[2] + s[3] for s in steps], at)",
           "return steps[-1][2] + steps[-1][3]",
           ("tests/test_integrator.py::test_pressure_history_extrapolates_in_time",)),
    # the high-contrast predictor solves by PCG again, from the corrector
    # pressures' cubic: each warm step pays a second solve
    Mutant("predictor-pcg-above-4", "pitaevskii.integrator:_fluid_substep.stage",
           "p_star = history.corrector_curve(t0, 2, t0) if p_pred is None else None",
           "p_star = None",
           ("tests/test_transform_budget.py::test_run_steady_state_transform_budget",)),
    Mutant("split-guess-first-slope", "pitaevskii.integrator:StepHistory.split_guess",
           "return p1 + ((t - t1) / (0.5 * dt1)) * offset",
           "return p1 + ((t - t1) / dt1) * offset",
           ("tests/test_integrator.py::test_split_guesses_are_exact_on_lines_in_time",
            "tests/test_reference_runs.py")),
    Mutant("split-guess-corrector-offset", "pitaevskii.integrator:StepHistory.split_guess",
           "return predictor + _lagrange(starts, [s[3] for s in steps], t)",
           "return predictor",
           ("tests/test_integrator.py::test_split_guesses_are_exact_on_lines_in_time",
            "tests/test_reference_runs.py")),
    # rho0 reaches the velocity only through the split's stored pressure,
    # which the next stage's p* extrapolates: the reference runs see it
    Mutant("split-rho0-max", "pitaevskii.spectral:SpectralPlan.split_leray_hat",
           "rho0 = float(np.min(weight))", "rho0 = float(np.max(weight))",
           ("tests/test_reference_runs.py",)),
    # the fold of p* into the acceleration: the split's pressure without its
    # p* term, and grad(p*) folded in with the wrong sign
    Mutant("split-pressure-without-p-star", "pitaevskii.spectral:SpectralPlan.split_leray_hat",
           "np.add(chihat, pressure_hat, out=chihat, where=self._half.mask_nonzero)", "pass",
           ("tests/test_spectral_ops.py::"
            "test_split_projection_at_the_solved_pressure_is_the_weighted_projection",
            "tests/test_reference_runs.py")),
    Mutant("fold-sign", "pitaevskii.model:velocity_rhs_hat",
           "explicit[:d] -= tab.ik * p_star", "explicit[:d] += tab.ik * p_star",
           ("tests/test_integrator.py::"
            "test_truncated_split_converges_to_the_untruncated_split_with_the_grid",
            "tests/test_reference_runs.py")),
    # the wave stage as it was before the Lawson rule (the first stage at
    # E psi_hat, not at psi_hat): the reference runs see the change of scheme
    Mutant("wave-stage-before-lawson", "pitaevskii.integrator:_wave_substep",
           "    mid_hat = lin * (psi_hat + 0.5 * tau * nonlinear_hat(fields, cubic, u_dot_grad))\n"
           "    mid = psi_and_gradient(plan, mid_hat)\n"
           "    return lin * (lin * psi_hat + tau * nonlinear_hat(mid, cubic_product(mid[0])))",
           "    psi_hat = lin * psi_hat\n"
           "    first = psi_and_gradient(plan, psi_hat)\n"
           "    mid_hat = psi_hat + 0.5 * tau * nonlinear_hat(first, cubic_product(first[0]))\n"
           "    mid = psi_and_gradient(plan, mid_hat)\n"
           "    return lin * (psi_hat + tau * nonlinear_hat(mid, cubic_product(mid[0])))",
           ("tests/test_reference_runs.py",)),
    # the products a step carries: |u|^2 of the velocity from before the
    # fluid substep carried with the new state (its second wave half-step
    # still forms the new one); the state's psi transformed in place into
    # the spectrum spectra_of forms
    Mutant("stale-end-speed", "pitaevskii.integrator:step",
           "        speed2 = pointwise_dot(u, u)\n"
           "        psi_hat = _wave_substep(plan, psi_hat, fields, cubic, u, speed2, params, tau, "
           "props.lin)",
           "        psi_hat = _wave_substep(plan, psi_hat, fields, cubic, u, pointwise_dot(u, u), "
           "params, tau, props.lin)",
           ("tests/test_integrator.py::test_carried_stack_is_handed_out_once_and_feeds_measure",
            "tests/test_integrator.py::test_run_records_equal_measure_of_the_stored_states")),
    Mutant("borrowed-spectrum-in-place", "pitaevskii.model:spectra_of",
           "psi_hat = plan.fft(state.psi)", "psi_hat = plan.fft(state.psi, overwrite_x=True)",
           ("tests/test_integrator.py::"
            "test_in_place_transforms_leave_borrowed_arrays_as_they_are",)),
    # a state's Spectra: |psi|^2 psi formed of the state's psi, not of the
    # stack's, which differs from it in the last bits unless a step formed
    # the state from that stack; and measure() forming its own Spectra
    # where it is given the state's
    Mutant("spectra-cubic-of-the-state", "pitaevskii.model:spectra_of",
           "cubic_product(stack[0]), pointwise_dot(u, stack[1:])",
           "cubic_product(state.psi), pointwise_dot(u, stack[1:])",
           ("tests/test_integrator.py::"
            "test_run_hands_the_carried_stack_to_measure_and_the_next_step",)),
    Mutant("measure-rebuilds-given-spectra", "pitaevskii.diagnostics:measure",
           "if spectra is None or spectra.state is not state:", "if True:",
           ("tests/test_diagnostics.py::test_measure_reads_the_spectra_of_its_own_state_only",)),
    # the advection's rotation form with u x curl(u) subtracted (-u x curl(u)
    # added), and a 2/3 truncation in place that leaves the last axis's slab
    Mutant("lamb-cross-sign", "pitaevskii.model:velocity_rhs_hat",
           "_add_lamb_cross(stack[:d], u, explicit[d:])",
           "_add_lamb_cross(stack[:d], -u, explicit[d:])",
           ("tests/test_model_rhs.py::test_velocity_rhs_matches_double_dealiased_advective_form",)),
    Mutant("truncate-skips-last-axis", "pitaevskii.spectral:SpectralPlan.dealias_in_place",
           "for cut in self.tables(fhat).cuts:", "for cut in self.tables(fhat).cuts[:-1]:",
           ("tests/test_spectral_real.py::test_in_place_truncation_is_the_mask_product",)),
)


def _copy_tree(dest):
    """The files the killing tests read, copied to dest."""
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name),
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def _run_tests(killers, workdir, prefix, mutant=None):
    """pytest's exit code for the killing tests on a copy of the tree,
    with mutant (a Mutant, or None for the tree as it is) applied."""
    dest = tempfile.mkdtemp(prefix=f"{prefix}-", dir=workdir)
    try:
        _copy_tree(dest)
        if mutant is not None:
            path = os.path.join(dest, mutant.path)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            if text.count(mutant.source) != 1:
                raise RuntimeError(f"{mutant.name}: source text does not occur exactly once "
                                   f"in {mutant.path}")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(mutant.source, mutant.mutant))
        env = dict(os.environ, PYTHONPATH=os.path.join(dest, "src"))
        proc = subprocess.run(PYTEST + sorted(killers), cwd=dest, env=env,
                              capture_output=True, text=True)
        if proc.returncode not in (0, 1):
            # 2-5: interrupted, internal or usage error, nothing collected
            raise RuntimeError(f"{prefix}: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}")
        return proc.returncode
    finally:
        shutil.rmtree(dest, ignore_errors=True)


def check_baseline(mutants, workdir=None):
    """Raise unless every killing test of mutants passes on the unmutated
    tree, so that a failure on a mutant is the mutant's doing."""
    killers = {k for m in mutants for k in m.killers}
    if _run_tests(killers, workdir, "unmutated") != 0:
        raise RuntimeError("the killing tests fail on the unmutated tree")


def run_mutant(m, workdir=None):
    """True if the mutant is killed: a test it names fails on a copy of the
    tree carrying it."""
    return _run_tests(m.killers, workdir, m.name, m) == 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--workdir", default=None, help="where the mutated copies go")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - {m.name for m in MUTANTS})
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    if args.workdir is not None:
        os.makedirs(args.workdir, exist_ok=True)
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    check_baseline(chosen, args.workdir)
    survivors = []
    for m in chosen:
        killed = run_mutant(m, args.workdir)
        print(f"{'KILLED' if killed else 'SURVIVED':8s} {m.name}", flush=True)
        if not killed:
            survivors.append(m.name)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
