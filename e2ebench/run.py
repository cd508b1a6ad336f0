"""Entry point of the end-to-end benchmark.

Run from the repository root::

    python3 e2ebench/run.py --workload snb-interactive --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The benchmark
imports the library from ``src/`` next to this directory and fails
without printing a result when it is missing.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

if __name__ == "__main__":
    if not (SOURCE / "repro").is_dir():
        sys.exit(f"no library source at {SOURCE}; run from a repository checkout")
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))
    from e2e_bench import main

    sys.exit(main())
