"""One workload in one process: set-up, timed repetitions, untimed checks.

Started by run.py with the thread variables pinned to 1; prints one JSON
object.  The set-up clock starts before numpy and the package are imported.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--trace] [--setup-only] [--out DIR]
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pitaevskii  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from machine import environment  # noqa: E402


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", default=os.path.join(ROOT, ".perfbench_out"))
    return ap.parse_args(argv)


def end_to_end(reps, clock):
    """Metrics of the untraced repetitions, calibrated and as wall time."""
    out = {}
    for prefix, scaled in (("", True), ("wall_", False)):
        run_s = [r.calibrated if scaled else r.seconds for r in reps]
        lat_ms = [1e3 * (wl.calibrated(sec, clock.cal_around(i)) if scaled else sec)
                  for sec, i in clock.latencies]
        deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
        out.update({
            f"{prefix}run_s": statistics.median(run_s),
            f"{prefix}steps_per_s": clock.steps / sum(run_s),
            f"{prefix}step_ms_p50": deciles[4],
            f"{prefix}step_ms_p90": deciles[8],
        })
    out["step_samples"] = len(clock.latencies)
    return out


def per_layer(layer_spans, traced, plain, parse_s):
    """Per-layer metrics from the spans of the traced repetitions.  Every
    time is calibrated self time per accepted step unless its name says
    otherwise."""
    scale = statistics.median(r.calibrated / r.seconds for r in traced)
    selfs = spans.self_times(layer_spans)
    incl = spans.inclusive_transforms(layer_spans)
    self_by, calls_by, dur_by = {}, {}, {}
    for sid, _parent, name, start, end, _extra in layer_spans:
        self_by[name] = self_by.get(name, 0.0) + selfs[sid]
        calls_by[name] = calls_by.get(name, 0) + 1
        dur_by[name] = dur_by.get(name, 0.0) + (end - start)
    steps = calls_by.get("integrator.step", 0)
    if steps == 0:
        raise RuntimeError("the traced repetitions made no step")

    def per_step(x):
        return x / steps

    def time_per_step(*names):
        return scale * per_step(sum(self_by.get(n, 0.0) for n in names))

    def inside(name, key):
        return sum(incl.get(s[0], {}).get(key, 0) for s in layer_spans if s[2] == name)

    iters, residuals, hits = [], [], 0
    for sid, _parent, name, _start, _end, extra in layer_spans:
        if name != "spectral.project" or extra is None:
            continue
        _tag, d, max_iter, residual = extra
        counts = incl.get(sid, {})
        inverse = counts.get("ifft", 0) + counts.get("irfft", 0)
        # d inverse transforms (grad p) per iteration, and 2d + 2 outside
        # the loop (p, grad p and the final Leray projection)
        n_it = max(0, (inverse - 2 * d - 2) // d)
        iters.append(n_it)
        residuals.append(residual)
        hits += n_it >= max_iter
    measure_calls = calls_by.get("diagnostics.measure", 0)
    return {
        "spectral.fft_per_step": per_step(inside("integrator.step", "fft")),
        "spectral.ifft_per_step": per_step(inside("integrator.step", "ifft")),
        "spectral.rfft_per_step": per_step(inside("integrator.step", "rfft")
                                           + inside("integrator.step", "irfft")),
        "spectral.fft_s": time_per_step("spectral.fft", "spectral.ifft",
                                        "spectral.rfft", "spectral.irfft"),
        "spectral.fft_gflop_per_step": per_step(inside("integrator.step", "flop")) / 1e9,
        "spectral.fft_mb_per_step": per_step(inside("integrator.step", "bytes")) / 1e6,
        "spectral.project_calls_per_step": per_step(len(iters)),
        "spectral.project_iters_mean": statistics.fmean(iters) if iters else 0.0,
        "spectral.project_iters_max": max(iters, default=0),
        "spectral.project_s": time_per_step("spectral.project"),
        "spectral.project_max_iter_hits": per_step(hits),
        "spectral.project_residual_max": max(residuals, default=0.0),
        "spectral.helmholtz_s": time_per_step("spectral.helmholtz"),
        "spectral.dealias_calls_per_step": per_step(calls_by.get("spectral.dealias", 0)),
        "spectral.dealias_s": time_per_step("spectral.dealias"),
        "spectral.other_s": time_per_step("spectral.other"),
        "model.coupling_calls_per_step": per_step(calls_by.get("model.coupling", 0)),
        "model.coupling_s": time_per_step("model.coupling"),
        "model.momentum_source_s": time_per_step("model.momentum_source"),
        "model.mass_exchange_s": time_per_step("model.mass_exchange"),
        "integrator.wave_substep_s": time_per_step("integrator.wave_substep"),
        "integrator.fluid_accel_s": time_per_step("integrator.fluid_accel"),
        "integrator.density_rhs_s": time_per_step("integrator.density_rhs"),
        "integrator.fluid_substep_s": time_per_step("integrator.fluid_substep"),
        "integrator.step_self_s": time_per_step("integrator.step"),
        "diagnostics.measure_s": time_per_step("diagnostics.measure"),
        "diagnostics.measure_share": (dur_by.get("diagnostics.measure", 0.0)
                                      / dur_by["bench.rep"]),
        "diagnostics.measure_fft_per_call": (inside("diagnostics.measure", "fft")
                                             / measure_calls if measure_calls else 0.0),
        "diagnostics.measure_ifft_per_call": (inside("diagnostics.measure", "ifft")
                                              / measure_calls if measure_calls else 0.0),
        "norms.sobolev_s": time_per_step("norms.sobolev"),
        "norms.lp_s": time_per_step("norms.lp"),
        "stability.difference_norms_s": time_per_step("stability.difference_norms"),
        "stability.gronwall_bundle_s": time_per_step("stability.gronwall_bundle"),
        "snapshot_io.write_s": time_per_step("snapshot_io.write"),
        "config.parse_s": parse_s,
        # wall time: the two kinds of repetition alternate, so contention
        # hits both alike, and calibrating them differently would bias it
        "trace.overhead_s": (statistics.median(r.seconds for r in traced)
                             - statistics.median(r.seconds for r in plain)),
    }


def calibration(samples=5):
    return statistics.median(wl.calibration_kernel() for _ in range(samples))


def main(argv=None):
    args = parse_args(argv)
    if os.path.dirname(os.path.abspath(pitaevskii.__file__)) != os.path.join(ROOT, "src", "pitaevskii"):
        raise SystemExit(f"pitaevskii imported from {pitaevskii.__file__}, not this checkout")
    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    w = wl.WORKLOADS[args.workload]
    run_id = f"{w.name}-seed{args.seed}-pid{os.getpid()}"
    tracer = spans.Tracer(run_id) if args.trace else None
    if tracer is not None:
        tracer.install()
        tracer.recording = True
    prep = wl.prepare(w, args.seed)
    wall_setup_s = time.perf_counter() - SETUP_START
    if tracer is not None:
        tracer.recording = False
        tracer.uninstall()
    setup_cal = calibration()
    setup = {"wall_setup_s": wall_setup_s, "setup_s": wl.calibrated(wall_setup_s, setup_cal)}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    setup_spans = list(tracer.spans) if tracer is not None else []
    parse_s = wl.calibrated(sum(s[4] - s[3] for s in setup_spans if s[2] == "config.parse"),
                            setup_cal)

    out_dir = os.path.join(args.out, f"{w.name}-seed{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    clock = wl.StepClock()
    plain, traced = [], []
    attempted = failed = 0
    problems, inconsistent = [], []
    energy, bytes_written = [], []
    reference = None
    timed = 0.0
    while True:
        if tracer is not None and len(traced) < len(plain):
            tracer.install()
            tracer.recording = True
            paused_before = tracer.paused_s
            with tracer.span("bench.rep"):
                rep = wl.run_rep(prep, wl.StepClock(calibrate=False), out_dir)
            tracer.recording = False
            tracer.uninstall()
            rep.seconds -= tracer.paused_s - paused_before
            rep.calibrated = wl.calibrated(rep.seconds, calibration())
            traced.append(rep)
        else:
            rep = wl.run_rep(prep, clock, out_dir)
            plain.append(rep)
        timed += rep.seconds
        records = rep.outcomes[0][1].records
        for check in wl.check_rep(prep, rep, reference):
            attempted += 1
            failed += bool(check.fails)
            problems += [f"{check.op}: {msg}" for msg in check.fails]
            inconsistent += check.inconsistent
        reference = reference or wl.record_digest(records)
        energy.append(wl.energy_residual_rel(records))
        bytes_written.append(sum(os.path.getsize(p) for p in rep.files))
        # the checked outputs go, so that memory does not grow with the
        # number of repetitions
        rep.outcomes = rep.files = records = None
        gc.collect()
        if timed >= args.seconds and (tracer is None or traced):
            break

    result = {
        "workload": w.name,
        "seed": args.seed,
        "run_id": run_id,
        "attempted": attempted,
        "failed": failed,
        "correct": not inconsistent,
        "problems": sorted(set(problems)),
        "reps": len(plain),
        "traced_reps": len(traced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "energy_residual_rel": statistics.median(energy),
        "ok_ops": (attempted - failed) / attempted,
        "cal_nominal_s": wl.CAL_NOMINAL_S,
        "environment": environment(wl.field_bytes(prep.grid)),
        **setup,
        **end_to_end(plain, clock),
    }
    if tracer is not None:
        layers = per_layer(tracer.spans[len(setup_spans):], traced, plain, parse_s)
        peak = max(r.states_stored_peak for r in traced)
        layers["stability.states_stored_peak"] = peak
        layers["stability.stored_state_mb"] = peak * wl.field_bytes(prep.grid) / 1e6
        layers["snapshot_io.bytes_written"] = statistics.median(bytes_written)
        result["layers"] = layers
        result["spans"] = len(tracer.spans)
        tracer.write(os.path.join(out_dir, "spans.csv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
