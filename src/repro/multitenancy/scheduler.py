"""FIFO multi-tenant scheduler for HPT jobs (§5.1, §7.4).

HPT jobs arrive over time on a shared cluster and are admitted in FIFO
order with a bounded number of concurrently running jobs (admitted
jobs share the cluster's nodes through the normal allocation path).
The reported metric is the average *response time* — submission to
completion — per workload type (paper Figs 13 & 14).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Generator, List, Optional, Sequence

from ..schema import positional_pickle
from ..simulation.cluster import SimCluster
from ..simulation.des import Environment, Resource
from ..tune.runner import HptJobRunner, HptJobSpec, HptResult
from ..workloads.spec import WorkloadSpec
from .arrivals import JobArrival

#: builds the HptJobSpec for one arrival; receives the (possibly
#: unseen-variant) workload and the arrival metadata.
SpecFactory = Callable[[WorkloadSpec, JobArrival], HptJobSpec]


def unseen_variant(workload: WorkloadSpec, index: int) -> WorkloadSpec:
    """A behavioural variant of a workload the system never profiled.

    The paper marks 20 % of multi-tenant jobs as unseen; this helper
    perturbs the cost coefficients and the identity (which drives the
    simulated PMU signature), so the ground-truth similarity lookup
    correctly treats the variant as new.
    """
    return replace(
        workload,
        name=f"{workload.name}#unseen{index}",
        compute_per_sample=workload.compute_per_sample * 1.15,
        sync_per_core=workload.sync_per_core * 0.9,
        mem_base_gb=workload.mem_base_gb * 1.1,
        base_accuracy=min(1.0, workload.base_accuracy * 0.98),
    )


@positional_pickle
@dataclass
class JobRecord:
    """One job's lifecycle in a multi-tenancy run."""

    arrival: JobArrival
    result: HptResult
    started_at: float

    @property
    def response_time_s(self) -> float:
        return self.result.finished_at - self.arrival.arrival_time_s

    @property
    def queue_wait_s(self) -> float:
        return self.started_at - self.arrival.arrival_time_s

    @property
    def workload_type(self) -> str:
        return self.arrival.workload.workload_type


@positional_pickle
@dataclass
class MultiTenancyResult:
    """All jobs of one multi-tenancy experiment."""

    records: List[JobRecord] = field(default_factory=list)

    def mean_response_time_s(self, workload_type: Optional[str] = None) -> float:
        matching = [
            r
            for r in self.records
            if workload_type is None or r.workload_type == workload_type
        ]
        if not matching:
            return 0.0
        return sum(r.response_time_s for r in matching) / len(matching)

    def mean_queue_wait_s(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.queue_wait_s for r in self.records) / len(self.records)


class FifoJobScheduler:
    """Admits arriving HPT jobs FIFO with bounded concurrency."""

    def __init__(
        self,
        env: Environment,
        cluster: SimCluster,
        spec_factory: SpecFactory,
        max_concurrent_jobs: int = 2,
    ):
        if max_concurrent_jobs < 1:
            raise ValueError("max_concurrent_jobs must be >= 1")
        self.env = env
        self.cluster = cluster
        self.spec_factory = spec_factory
        self.slots = Resource(env, max_concurrent_jobs)
        self.result = MultiTenancyResult()

    def _job(self, arrival: JobArrival) -> Generator:
        workload = arrival.workload
        if arrival.unseen:
            workload = unseen_variant(workload, arrival.index)
            arrival = replace(arrival, workload=workload)
        spec = self.spec_factory(workload, arrival)
        yield self.slots.request()
        started = self.env.now
        try:
            result: HptResult = yield from HptJobRunner(
                self.env, self.cluster, spec
            ).run()
        finally:
            self.slots.release()
        self.result.records.append(
            JobRecord(arrival=arrival, result=result, started_at=started)
        )

    def run(self, arrivals: Sequence[JobArrival]) -> Generator:
        """DES process: submit every arrival at its time, wait for all."""
        ordered = sorted(arrivals, key=lambda a: a.arrival_time_s)
        processes = []
        for arrival in ordered:
            delay = arrival.arrival_time_s - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            processes.append(self.env.process(self._job(arrival)))
        if processes:
            yield self.env.all_of(processes)
        return self.result


def run_multi_tenancy(
    env: Environment,
    cluster: SimCluster,
    arrivals: Sequence[JobArrival],
    spec_factory: SpecFactory,
    max_concurrent_jobs: int = 2,
) -> MultiTenancyResult:
    """Convenience wrapper: run a full multi-tenancy trace to completion."""
    scheduler = FifoJobScheduler(
        env, cluster, spec_factory, max_concurrent_jobs=max_concurrent_jobs
    )
    process = env.process(scheduler.run(arrivals))
    env.run()
    return process.value
