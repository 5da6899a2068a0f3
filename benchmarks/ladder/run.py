"""Entry point named by ``BENCHMARK.json``: ``python3 benchmarks/ladder/run.py
--workload W --seed N --seconds S --trace 0|1`` from the root of a checkout.

Runs ``python -m benchmarks.ladder bench`` in this process.  The script's
own directory is dropped from ``sys.path`` so the package is only ever
imported under its one name, ``benchmarks.ladder``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:] = [p for p in sys.path if p and Path(p).resolve() != HERE]
sys.path.insert(0, str(HERE.parents[1]))

from benchmarks.ladder.__main__ import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["bench", *sys.argv[1:]]))
