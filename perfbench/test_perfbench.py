"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from worker import per_layer  # noqa: E402

from pitaevskii.grid import make_grid  # noqa: E402
from pitaevskii.spectral import SpectralPlan, plan_for  # noqa: E402


def test_self_time_subtracts_union_of_children():
    # root [0, 10]; children [1, 3] and [2, 5] overlap, [8, 12] runs past
    # the root's end; a grandchild [1.5, 2] sits inside [1, 3]
    tree = [
        (1, 0, "root", 0.0, 10.0, None),
        (2, 1, "a", 1.0, 3.0, None),
        (3, 1, "b", 2.0, 5.0, None),
        (4, 1, "c", 8.0, 12.0, None),
        (5, 2, "leaf", 1.5, 2.0, None),
    ]
    selfs = spans.self_times(tree)
    assert selfs[1] == pytest.approx(10.0 - (4.0 + 2.0))
    assert selfs[2] == pytest.approx(1.5)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(4.0)
    assert selfs[5] == pytest.approx(0.5)


def test_gradient_in_2d_is_one_forward_and_two_inverse_transforms():
    grid = make_grid(2, [8, 8], [2 * np.pi, 2 * np.pi])
    plan = plan_for(grid)
    f = np.cos(grid.meshes()[0])
    orig_fftn, orig_gradient = np.fft.fftn, vars(SpectralPlan)["gradient"]
    tracer = spans.Tracer("test")
    tracer.install()
    tracer.recording = True
    try:
        plan.gradient(f)
    finally:
        tracer.recording = False
        tracer.uninstall()
    assert np.fft.fftn is orig_fftn and vars(SpectralPlan)["gradient"] is orig_gradient
    (grad_span,) = [s for s in tracer.spans if s[2] == "spectral.other"]
    counts = spans.inclusive_transforms(tracer.spans)[grad_span[0]]
    assert counts.get("fft", 0) + counts.get("rfft", 0) == 1
    assert counts.get("ifft", 0) + counts.get("irfft", 0) == 2


def test_stacked_vectors_count_as_components():
    import scipy.fft

    tracer = spans.Tracer("test")
    tracer.install()
    tracer.recording = True
    try:
        np.fft.fftn(np.zeros((3, 4, 4)), axes=(-2, -1))
        np.fft.irfftn(np.zeros((2, 4, 3), dtype=complex), axes=(-2, -1))
        scipy.fft.fftn(np.zeros((4, 4)))
    finally:
        tracer.recording = False
        tracer.uninstall()
    assert [(s[5][0], s[5][1], s[5][2]) for s in tracer.spans] == [
        ("fft", 3, 16), ("irfft", 2, 16), ("fft", 1, 16)]


def traced_layers(prep, out_dir):
    tracer = spans.Tracer("test")
    tracer.install()
    tracer.recording = True
    try:
        with tracer.span("bench.rep"):
            rep = wl.run_rep(prep, wl.StepClock(calibrate=False), out_dir)
    finally:
        tracer.recording = False
        tracer.uninstall()
    rep.calibrated = rep.seconds
    return per_layer(tracer.spans, [rep], [rep], 0.0)


def test_counts_repeat_exactly_across_traced_runs(tmp_path):
    tiny = wl.Workload("tiny", "sim", 2, 16, 3)
    prep = wl.prepare(tiny, seed=7)
    first = traced_layers(prep, str(tmp_path))
    second = traced_layers(prep, str(tmp_path))
    counts = [k for k in first if "per_step" in k or "iters" in k or "per_call" in k
              or k.endswith("hits")]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["spectral.fft_per_step"] > 0


def test_benchmark_json_matches_the_runner():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
