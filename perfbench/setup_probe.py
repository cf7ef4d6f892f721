"""Time one benchmark set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED SIZE WORKDIR

Imports tangleflow, then generates and writes the workload's design files
into WORKDIR, and prints the seconds this took.  run.py starts several of
these one after another and reports their median as setup_s.
"""
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    name, seed, size, workdir = argv
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import tangleflow  # noqa: F401  (the import is what is timed)

    workloads.setup(name, int(seed), size, ROOT, workdir)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
