"""Script entry point: ``python3 benchmarks/e2e/run.py ...`` from the
root of a checkout (the form BENCHMARK.json names).  Equivalent to
``python -m benchmarks.e2e``."""

import pathlib
import sys
import time

_STARTED = time.perf_counter()

if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent.parent))
    from benchmarks.e2e.cli import main

    raise SystemExit(main(started=_STARTED))
