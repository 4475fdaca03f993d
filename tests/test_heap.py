"""Allocator policy: once the heap has grown to its high-water mark, a 3D
step maps no fresh pages.

Without it glibc returns the large freed temporaries of a 32^3 step (scipy.fft
buffers and outputs among them) to the operating system, and the next step
faults them back in: thousands of minor page faults per step.
"""

import platform

import numpy as np
import pytest

from pitaevskii import spectral
from pitaevskii.grid import make_grid
from pitaevskii.integrator import StepConfig, run
from pitaevskii.model import Params, State

from conftest import random_state_fields

ON_GLIBC = platform.system() == "Linux" and platform.libc_ver()[0] == "glibc"
DT = 2.0 ** -11
STEPS = 6
# pages a warm run may still map over steps 2-6 (glibc's default thresholds
# let this run fault about 11000)
MAX_WARM_FAULTS = 64


def faults_per_step(initial, params):
    """Minor page faults between consecutive accepted steps of a fixed-dt
    run: one entry for each of steps 2..STEPS."""
    import resource  # POSIX only, like the test that calls this

    counts = []

    def observer(t, state, record):
        counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

    run(initial, params, StepConfig(dt_init=DT), STEPS * DT, observers=(observer,))
    assert len(counts) == STEPS
    return np.diff(counts)


@pytest.mark.skipif(not ON_GLIBC, reason="the heap thresholds are glibc mallopt settings (Linux/glibc only)")
def test_warm_3d_run_faults_no_pages():
    grid = make_grid(3, [32, 32, 32], [2 * np.pi] * 3)
    params = Params(lam=1.0, mu=1.0, nu=0.1, m=0.8, M=1.2, eps=0.4)
    psi, u, rho = random_state_fields(grid, np.random.default_rng(2029), amp=0.4, rho_var=0.15)
    initial = State(0.0, psi, u, rho, grid)
    faults_per_step(initial, params)  # grows the heap to its high-water mark
    warm = faults_per_step(initial, params)
    assert int(warm.sum()) <= MAX_WARM_FAULTS, f"minor faults on steps 2-{STEPS}: {warm.tolist()}"


class FakeLibc:
    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


@pytest.fixture
def fake_libc(monkeypatch):
    libc = FakeLibc()
    monkeypatch.setattr(spectral, "_heap_retained", None)
    monkeypatch.setattr(spectral.ctypes, "CDLL", lambda name: libc)
    return libc


def test_retain_heap_sets_both_thresholds_once(fake_libc, monkeypatch):
    monkeypatch.setattr(spectral.platform, "libc_ver", lambda: ("glibc", "2.36"))
    assert spectral._retain_heap() is True
    assert spectral._retain_heap() is True
    assert fake_libc.calls == [(-3, 32 << 20), (-1, 1 << 30)]


def test_retain_heap_leaves_other_allocators_alone(fake_libc, monkeypatch):
    monkeypatch.setattr(spectral.platform, "libc_ver", lambda: ("", ""))
    assert spectral._retain_heap() is False
    assert spectral._retain_heap() is False
    assert fake_libc.calls == []
