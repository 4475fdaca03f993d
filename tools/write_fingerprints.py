"""Write the reference-run fingerprints that tests/test_reference_runs.py
compares fresh runs with.

    PYTHONPATH=src python tools/write_fingerprints.py [OUT_DIR]

OUT_DIR defaults to tests/fingerprints.  The runs and the file format are
defined in tests/reference_runs.py.  A change that moves a run beyond the
test's tolerance regenerates the files in the same commit and states the
old -> new deviation (reference_runs.deviation) in CHANGES.md.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from reference_runs import RUNS, fingerprint  # noqa: E402


def main(argv):
    out_dir = argv[0] if argv else os.path.join(ROOT, "tests", "fingerprints")
    os.makedirs(out_dir, exist_ok=True)
    for name in RUNS:
        path = os.path.join(out_dir, f"{name}.txt")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(fingerprint(name))
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
