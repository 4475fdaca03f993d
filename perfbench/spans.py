"""In-memory span tracer that wraps the package's functions from outside.

A span is (id, parent id, name, start, end, attrs).  Spans are recorded only
while the tracer is recording; with it off every wrapper is a plain
pass-through, and `uninstall` puts the original functions back.

Layer functions are replaced wherever a pitaevskii module holds them by name
(for example `coupling_term` is imported by name into integrator,
diagnostics, stability and cli), and SpectralPlan methods are replaced on the
class.  The n-dimensional FFT entry points of numpy.fft and scipy.fft are
wrapped too, so every transform is counted whatever module issues it.
"""

import functools
import importlib
import inspect
import math
import sys
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name) of the functions traced in each layer
LAYER_FUNCTIONS = (
    ("pitaevskii.config", "parse_config", "config.parse"),
    ("pitaevskii.model", "coupling_term", "model.coupling"),
    ("pitaevskii.model", "momentum_source", "model.momentum_source"),
    ("pitaevskii.model", "mass_exchange", "model.mass_exchange"),
    ("pitaevskii.integrator", "step", "integrator.step"),
    ("pitaevskii.integrator", "_wave_substep", "integrator.wave_substep"),
    ("pitaevskii.integrator", "_fluid_substep", "integrator.fluid_substep"),
    ("pitaevskii.integrator", "_fluid_explicit_accel", "integrator.fluid_accel"),
    ("pitaevskii.integrator", "_density_rhs", "integrator.density_rhs"),
    ("pitaevskii.diagnostics", "measure", "diagnostics.measure"),
    ("pitaevskii.norms", "sobolev_norm", "norms.sobolev"),
    ("pitaevskii.norms", "lp_norm", "norms.lp"),
    ("pitaevskii.stability", "difference_norms", "stability.difference_norms"),
    ("pitaevskii.stability", "gronwall_bundle", "stability.gronwall_bundle"),
    ("pitaevskii.snapshot_io", "write_timeseries", "snapshot_io.write"),
    ("pitaevskii.snapshot_io", "write_snapshot", "snapshot_io.write"),
    ("pitaevskii.snapshot_io", "write_difference_series", "snapshot_io.write"),
)

PLAN_METHODS = {
    "weighted_leray_project": "spectral.project",
    "helmholtz_solve": "spectral.helmholtz",
    "dealias": "spectral.dealias",
    "gradient": "spectral.other",
    "divergence": "spectral.other",
    "laplacian": "spectral.other",
    "leray_project": "spectral.other",
}

# entry point -> transform kind
FFT_KINDS = {
    "fftn": "fft", "fft2": "fft",
    "ifftn": "ifft", "ifft2": "ifft",
    "rfftn": "rfft", "rfft2": "rfft",
    "irfftn": "irfft", "irfft2": "irfft",
}
FFT_MODULES = ("numpy.fft", "scipy.fft")


def transformed_axes(ndim, s, axes):
    if axes is None:
        axes = range(ndim - len(s), ndim) if s is not None else range(ndim)
    return sorted({ax % ndim for ax in axes})


def fft_fields(shape, axes):
    """Fields in one call: a stacked vector counts as its components, i.e.
    the product of the lengths of the axes that are not transformed."""
    return math.prod(n for i, n in enumerate(shape) if i not in axes)


def pressure_residual(plan, v, weight, pressure):
    """max |div((1/rho) grad p) - div v| / max |div v| for a returned pressure."""
    div_v = plan.divergence(v)
    scale = float(np.abs(div_v).max())
    if scale == 0.0:
        return 0.0
    flux = plan.gradient(pressure) / np.asarray(weight)
    return float(np.abs(plan.divergence(flux) - div_v).max()) / scale


class Tracer:
    """Collects the spans of one workload run under one run id."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.recording = False
        self.paused_s = 0.0
        self._stack = [0]
        self._next_id = 1
        self._restore = []

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def call(self, name, fn, args, kwargs, attrs=None):
        if not self.recording:
            return fn(*args, **kwargs)
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, None))
        if attrs is not None:
            self.spans[-1] = (sid, parent, name, start, end, attrs(args, kwargs, out))
        return out

    @contextmanager
    def span(self, name):
        if not self.recording:
            yield
            return
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, None))

    @contextmanager
    def paused(self):
        """Work done inside is neither recorded nor charged to the run."""
        was, self.recording = self.recording, False
        start = time.perf_counter()
        try:
            yield
        finally:
            self.paused_s += time.perf_counter() - start
            self.recording = was

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)
        return wrapper

    def _fft_wrapper(self, kind, fn):
        name = "spectral." + kind
        default_axes = inspect.signature(fn).parameters["axes"].default

        @functools.wraps(fn)
        def wrapper(a, s=None, axes=None, *args, **kwargs):
            if not self.recording:
                return fn(a, s, axes, *args, **kwargs)
            # a nested entry point inside this call is not counted again
            self.recording = False
            start = time.perf_counter()
            try:
                out = fn(a, s, axes, *args, **kwargs)
            finally:
                end = time.perf_counter()
                self.recording = True
            arr = np.asarray(a)
            ax = transformed_axes(arr.ndim, s, axes if axes is not None else default_axes)
            sized = out if kind == "irfft" else arr
            points = math.prod(sized.shape[i] for i in ax)
            extra = (kind, fft_fields(arr.shape, ax), points, arr.nbytes + out.nbytes)
            self.spans.append((self._next_id, self._stack[-1], name, start, end, extra))
            self._next_id += 1
            return out
        return wrapper

    def _projection_attrs(self, fn):
        sig = inspect.signature(fn)

        def attrs(args, kwargs, out):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            with self.paused():
                residual = pressure_residual(a["self"], a["v"], a["weight"], out[1])
            return ("project", a["self"].grid.d, a["max_iter"], residual)
        return attrs

    def _replace_everywhere(self, orig, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "pitaevskii":
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, orig))

    def install(self):
        """Put the wrappers in place; the package must be imported first."""
        from pitaevskii.spectral import SpectralPlan

        if self._restore:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, span_name in LAYER_FUNCTIONS:
            orig = getattr(importlib.import_module(mod_name), attr)
            self._replace_everywhere(orig, self._wrap(span_name, orig))
        for attr, span_name in PLAN_METHODS.items():
            orig = vars(SpectralPlan)[attr]
            attrs = self._projection_attrs(orig) if span_name == "spectral.project" else None
            setattr(SpectralPlan, attr, self._wrap(span_name, orig, attrs))
            self._restore.append((SpectralPlan, attr, orig))
        for mod_name in FFT_MODULES:
            mod = importlib.import_module(mod_name)
            for attr, kind in FFT_KINDS.items():
                orig = getattr(mod, attr)
                setattr(mod, attr, self._fft_wrapper(kind, orig))
                self._restore.append((mod, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    def write(self, path):
        """Spans as CSV, times in ns from the first span's start."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# run_id={self.run_id}\n")
            fh.write("span_id,parent_id,name,start_ns,end_ns,attrs\n")
            for sid, parent, name, start, end, extra in sorted(self.spans, key=lambda s: s[0]):
                tag = "" if extra is None else " ".join(str(x) for x in extra)
                fh.write(f"{sid},{parent},{name},{round((start - t0) * 1e9)},"
                         f"{round((end - t0) * 1e9)},{tag}\n")


# -- analysis ---------------------------------------------------------------


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    covered by the union of its children's intervals.  Returns {id: s}."""
    children = {}
    for _sid, parent, _name, start, end, _extra in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _name, start, end, _extra in spans:
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if run_hi is not None and lo <= run_hi:
                run_hi = max(run_hi, hi)
                continue
            if run_hi is not None:
                covered += run_hi - run_lo
            run_lo, run_hi = lo, hi
        if run_hi is not None:
            covered += run_hi - run_lo
        out[sid] = (end - start) - covered
    return out


def transform_flops(kind, points):
    """Conventional flop count of one field transform of `points` points
    (5 N log2 N complex, half that real); computed, not measured."""
    per = 5.0 if kind in ("fft", "ifft") else 2.5
    return per * points * math.log2(points) if points > 1 else 0.0


def inclusive_transforms(spans):
    """Transforms issued inside each span, itself included, as {id: {key:
    total}} with keys the four kinds (field counts), "flop" and "bytes";
    spans without transforms are left out."""
    parent_of = {s[0]: s[1] for s in spans}
    totals = {}
    for sid, _parent, _name, _start, _end, extra in spans:
        if extra is None or extra[0] not in ("fft", "ifft", "rfft", "irfft"):
            continue
        kind, fields, points, nbytes = extra
        add = {kind: fields, "flop": fields * transform_flops(kind, points), "bytes": nbytes}
        node = sid
        while node:
            bucket = totals.setdefault(node, {})
            for key, val in add.items():
                bucket[key] = bucket.get(key, 0) + val
            node = parent_of.get(node, 0)
    return totals
