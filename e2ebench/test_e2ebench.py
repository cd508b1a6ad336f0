"""Determinism of the end-to-end benchmark's counts, and the separation
of layers its workloads are built for.

Two runs with one seed must agree exactly on every per-layer count and
on ``memory_cells``; only timings may differ.  Run as a script to print
how far the counts move across seeds::

    python3 e2ebench/test_e2ebench.py 1 2 3
"""

import functools
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import e2e_bench as bench  # noqa: E402

#: small step counts, each a multiple of the workload's granule
SMALL_STEPS = {"snb-interactive": 390, "snb-windowed": 40, "view-churn": 26}


def small_run(workload: str, seed: int) -> dict:
    """One small traced run, checked against recomputation."""
    run = bench.measure(
        workload, seed, SMALL_STEPS[workload], trace=True,
        require_tails=False, setups=1,
    )
    assert run["correct"], run["info"]["problems"] + run["info"]["errors"]
    assert run["failed"] == 0
    return run


def counts(run: dict) -> dict:
    """Every per-layer count of *run*, with both sessions' memory cells."""
    found = {name: run["metrics"][name][0] for name in bench.COUNT_METRICS}
    found["memory_cells"] = run["info"]["memory_cells"]
    found["ledger_memory_cells"] = run["info"]["ledger_memory_cells"]
    return found


@functools.cache
def first_run(workload: str) -> dict:
    return small_run(workload, 5)


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_same_seed_gives_identical_counts(workload):
    assert counts(first_run(workload)) == counts(small_run(workload, 5))


def test_ledger_separates_the_workloads():
    interactive = first_run("snb-interactive")["metrics"]
    windowed = first_run("snb-windowed")["metrics"]
    churn = first_run("view-churn")["metrics"]
    assert interactive["batch.net_per_raw"][0] == 1.0
    assert windowed["batch.net_per_raw"][0] < 1.0
    assert (
        interactive["merge.views_notified_ratio"][0] * 10
        < windowed["merge.views_notified_ratio"][0]
    )
    # only view-churn spends most of its measured phase registering
    share = "rete.build_compile_share"
    assert churn[share][0] > 0.5
    assert interactive[share][0] < 0.5 and windowed[share][0] < 0.5


if __name__ == "__main__":
    seeds = [int(arg) for arg in sys.argv[1:]] or [1, 2, 3]
    for workload in sorted(bench.WORKLOADS):
        runs = [counts(small_run(workload, seed)) for seed in seeds]
        print(f"== {workload}: counts across seeds {seeds}")
        for name in runs[0]:
            values = [run[name] for run in runs]
            middle = statistics.median(values)
            spread = (max(values) - min(values)) / middle if middle else 0.0
            print(f"  {name:34s} median {middle:12.4f}  (max-min)/median {spread:.3f}")
