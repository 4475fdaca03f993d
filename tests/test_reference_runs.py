import os

import pytest

from reference_runs import RUNS, deviation, fingerprint

FINGERPRINTS = os.path.join(os.path.dirname(__file__), "fingerprints")
# above the round-off spread between hosts (BLAS dot products and the FFT
# build), well below the 1.5e-10 to 3.3e-9 by which the wave stage before
# the Lawson rule (tools/mutants.py, wave-stage-before-lawson) moves these
# runs
TOL = 1e-12


@pytest.mark.parametrize("name", list(RUNS))
def test_run_matches_its_reference_fingerprint(name):
    # a fresh run against the committed fingerprint (tools/write_fingerprints.py);
    # a change that moves it further regenerates the files and states the move
    with open(os.path.join(FINGERPRINTS, f"{name}.txt"), encoding="utf-8") as fh:
        reference = fh.read()
    worst = deviation(reference, fingerprint(name))
    assert worst <= TOL, f"{name} deviates from its reference by {worst:.3e}"


def test_deviation_sees_a_moved_value():
    # one series value moved by 1e-11 of its column reads as that move
    with open(os.path.join(FINGERPRINTS, "sim2d-32.txt"), encoding="utf-8") as fh:
        reference = fh.read()
    header, rest = reference.split("[series]\n", 1)
    names, first, tail = rest.split("\n", 2)
    cells = first.split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-11))
    moved = header + "[series]\n" + names + "\n" + ",".join(cells) + "\n" + tail
    assert deviation(reference, moved) == pytest.approx(1e-11, rel=0.5)
    assert deviation(reference, reference) == 0.0
