"""Helpers shared by the benchmark runner and its session processes.

Stdlib only: the runner imports this without importing the program.
"""

from __future__ import annotations

import difflib
import math
import sys
from typing import Sequence

#: workload name -> what one "op" of it is (the unit of ``ops_per_s``
#: and of every per-layer metric).
WORKLOADS = {
    "paper-exhibits": "exhibit render",
    "sweep-incremental": "sweep variant run",
    "service-closed-loop": "service job",
}

#: session.time_kernel()'s time in ms on a quiet 2-vCPU Xeon host; every
#: timing is reported at that host speed (README.md, "Host-speed
#: calibration").
REFERENCE_MS = 4.0


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks.

    Same definition as numpy's default ``"linear"`` method.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    weight = position - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def log_failure(workload: str, operation: str, detail: str) -> None:
    """One failed operation, on stderr: workload, operation, detail."""
    print(f"[perfbench FAIL] {workload} :: {operation}", file=sys.stderr)
    for line in detail.splitlines()[:12]:
        print(f"    {line}", file=sys.stderr)
    sys.stderr.flush()


def diff_head(expected: str, actual: str) -> str:
    """The first lines of a unified diff, for failure logs."""
    diff = difflib.unified_diff(
        expected.splitlines(keepends=True),
        actual.splitlines(keepends=True),
        fromfile="golden",
        tofile="observed",
    )
    return "".join(line for _, line in zip(range(10), diff))
