"""Benchmark of the pitaevskii solver: one workload per call.

    python3 perfbench/run.py --workload sim2d-64 --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout.  The workload runs in a fresh process with
the BLAS/OpenMP thread variables pinned to 1 (closed loop, one caller: each
step waits for the previous one).  With --trace 0 it prints the end-to-end
metrics; with --trace 1 a traced run prints the per-layer metrics.  The last
line of standard output is one JSON object; the full record, with the
environment and sample counts, goes to .perfbench_out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from machine import THREAD_VARS  # noqa: E402

# set-up is timed in the measuring process and in this many more fresh ones
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "energy_residual_rel": "ratio",
    "ok_ops": "fraction",
}

PER_LAYER = {
    "spectral.fft_per_step": "1/step",
    "spectral.ifft_per_step": "1/step",
    "spectral.rfft_per_step": "1/step",
    "spectral.fft_s": "s/step",
    "spectral.fft_gflop_per_step": "GFLOP/step",
    "spectral.fft_mb_per_step": "MB/step",
    "spectral.project_calls_per_step": "1/step",
    "spectral.project_iters_mean": "count",
    "spectral.project_iters_max": "count",
    "spectral.project_s": "s/step",
    "spectral.project_max_iter_hits": "1/step",
    "spectral.project_residual_max": "ratio",
    "spectral.helmholtz_s": "s/step",
    "spectral.dealias_calls_per_step": "1/step",
    "spectral.dealias_s": "s/step",
    "spectral.other_s": "s/step",
    "model.coupling_calls_per_step": "1/step",
    "model.coupling_s": "s/step",
    "model.momentum_source_s": "s/step",
    "model.mass_exchange_s": "s/step",
    "integrator.wave_substep_s": "s/step",
    "integrator.fluid_accel_s": "s/step",
    "integrator.density_rhs_s": "s/step",
    "integrator.fluid_substep_s": "s/step",
    "integrator.step_self_s": "s/step",
    "diagnostics.measure_s": "s/step",
    "diagnostics.measure_share": "fraction",
    "diagnostics.measure_fft_per_call": "1/call",
    "diagnostics.measure_ifft_per_call": "1/call",
    "norms.sobolev_s": "s/step",
    "norms.lp_s": "s/step",
    "stability.difference_norms_s": "s/step",
    "stability.gronwall_bundle_s": "s/step",
    "stability.states_stored_peak": "count",
    "stability.stored_state_mb": "MB",
    "snapshot_io.write_s": "s/step",
    "snapshot_io.bytes_written": "B",
    "config.parse_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def spawn(args):
    """Run the worker in a fresh process and return its JSON record."""
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pitaevskii", "__init__.py")):
        print(f"no pitaevskii package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--out", OUT]
    setups = []
    if not args.trace:
        setups = [spawn(common + ["--setup-only"]) for _ in range(SETUP_PROBES)]
    rec = spawn(common + (["--trace"] if args.trace else []))
    setups.append({k: rec[k] for k in ("setup_s", "wall_setup_s")})
    rec["setup_samples"] = setups
    for key in ("setup_s", "wall_setup_s"):
        rec[key] = statistics.median(s[key] for s in setups)

    if args.trace:
        values, units = rec["layers"], PER_LAYER
    else:
        values, units = rec, END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"result-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(rec, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  run {rec['run_id']}")
    print(f"environment {json.dumps(rec['environment'])}")
    print(f"samples: {rec['reps']} repetitions, {rec['step_samples']} step "
          f"latencies, {len(setups)} set-ups; operations {rec['attempted']} attempted, "
          f"{rec['failed']} failed (failed_ops {rec['failed'] / rec['attempted']:.4g})")
    for problem in rec["problems"]:
        print(f"failed check: {problem}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
