"""Environment record stored with every result."""

import glob
import os
import platform
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def cpu_model():
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def caches():
    """Data and unified cache sizes of cpu0 by level, e.g. {"L2": "2048K"}."""
    out = {}
    for idx in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        if _read(os.path.join(idx, "type")) in ("Data", "Unified"):
            out[f"L{_read(os.path.join(idx, 'level'))}"] = _read(os.path.join(idx, "size"))
    return out


def environment(field_bytes):
    import numpy
    import scipy

    cache = caches()
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "caches": cache,
        "llc": cache.get(max(cache), "") if cache else "",
        "field_working_set_bytes": field_bytes,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }
