"""Job arrival process for the multi-tenancy evaluation (§7.4).

The paper's multi-tenant experiments submit HPT jobs with
exponentially distributed interarrival times; within a workload type
the concrete workloads rotate round-robin; when two types are mixed
each contributes 50 % of the jobs; 20 % of jobs are *unseen* (their
profiles are not in the ground-truth history).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..schema import positional_pickle
from ..workloads.spec import WorkloadSpec, rng_for


@positional_pickle
@dataclass(frozen=True)
class JobArrival:
    """One job submission: when, which workload, seen before or not."""

    index: int
    arrival_time_s: float
    workload: WorkloadSpec
    unseen: bool


def generate_arrivals(
    workloads_by_type: Sequence[Sequence[WorkloadSpec]],
    num_jobs: int,
    mean_interarrival_s: float,
    unseen_fraction: float = 0.2,
    seed: int = 0,
) -> List[JobArrival]:
    """Build the arrival trace of one multi-tenancy experiment.

    Parameters
    ----------
    workloads_by_type:
        One sequence of workloads per type; types are interleaved with
        equal shares (paper: "each of them corresponds to 50% of the
        overall jobs"), and workloads rotate round-robin within their
        type.
    num_jobs:
        Total jobs to submit.
    mean_interarrival_s:
        Mean of the exponential interarrival distribution.
    unseen_fraction:
        Fraction of jobs marked *unseen*: the scheduler treats them as
        never profiled before (paper: 20 %).
    """
    if num_jobs < 1:
        raise ValueError("num_jobs must be >= 1")
    if mean_interarrival_s <= 0:
        raise ValueError("mean_interarrival_s must be positive")
    if not 0.0 <= unseen_fraction <= 1.0:
        raise ValueError("unseen_fraction must be in [0, 1]")
    groups = [list(g) for g in workloads_by_type if g]
    if not groups:
        raise ValueError("need at least one non-empty workload group")

    rng = rng_for("mt-arrivals", seed, num_jobs, mean_interarrival_s)
    cursors = [0] * len(groups)
    arrivals: List[JobArrival] = []
    clock = 0.0
    for index in range(num_jobs):
        clock += float(rng.exponential(mean_interarrival_s))
        group = index % len(groups)  # equal balance across types
        workload = groups[group][cursors[group] % len(groups[group])]
        cursors[group] += 1
        arrivals.append(
            JobArrival(
                index=index,
                arrival_time_s=clock,
                workload=workload,
                unseen=bool(rng.random() < unseen_fraction),
            )
        )
    return arrivals
