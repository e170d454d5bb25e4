"""Tests for arrivals generation and the FIFO multi-tenant scheduler."""

import statistics

import pytest

from repro.hpo.algorithms import RandomSearch
from repro.hpo.space import Choice, SearchSpace
from repro.multitenancy.arrivals import generate_arrivals
from repro.multitenancy.scheduler import (
    FifoJobScheduler,
    run_multi_tenancy,
    unseen_variant,
)
from repro.scenarios import PAPER_DISTRIBUTED_CLUSTER
from repro.simulation.des import Environment
from repro.tune.runner import HptJobSpec
from repro.workloads.registry import LENET_MNIST, workloads_of_type


def fresh_cluster():
    """A new environment and the paper's 4-node testbed in it."""
    env = Environment()
    return env, PAPER_DISTRIBUTED_CLUSTER.build(env)


def tiny_spec(workload, arrival=None, seed=0):
    space = SearchSpace(
        {
            "batch_size": Choice([64, 256]),
            "learning_rate": Choice([0.01]),
            "epochs": Choice([2]),
        }
    )
    return HptJobSpec(
        workload=workload,
        algorithm_factory=lambda: RandomSearch(space, num_samples=2, seed=seed),
        name=f"job-{workload.name}",
    )


class TestArrivals:
    def test_validation(self):
        with pytest.raises(ValueError):
            generate_arrivals([workloads_of_type("I")], 0, 10.0)
        with pytest.raises(ValueError):
            generate_arrivals([workloads_of_type("I")], 5, 0.0)
        with pytest.raises(ValueError):
            generate_arrivals([workloads_of_type("I")], 5, 10.0, unseen_fraction=2.0)
        with pytest.raises(ValueError):
            generate_arrivals([[]], 5, 10.0)

    def test_times_strictly_increasing(self):
        arrivals = generate_arrivals([workloads_of_type("I")], 20, 100.0, seed=1)
        times = [a.arrival_time_s for a in arrivals]
        assert times == sorted(times)
        assert times[0] > 0

    def test_mean_interarrival_approximated(self):
        arrivals = generate_arrivals([workloads_of_type("I")], 400, 50.0, seed=2)
        gaps = [
            b.arrival_time_s - a.arrival_time_s
            for a, b in zip(arrivals, arrivals[1:])
        ]
        assert statistics.mean(gaps) == pytest.approx(50.0, rel=0.25)

    def test_equal_type_balance(self):
        arrivals = generate_arrivals(
            [workloads_of_type("I"), workloads_of_type("II")], 10, 10.0, seed=0
        )
        type1 = sum(1 for a in arrivals if a.workload.workload_type == "I")
        assert type1 == 5

    def test_round_robin_within_type(self):
        arrivals = generate_arrivals([workloads_of_type("I")], 4, 10.0, seed=0)
        names = [a.workload.name for a in arrivals]
        assert names == [
            "lenet-mnist", "lenet-fashion", "lenet-mnist", "lenet-fashion",
        ]

    def test_unseen_fraction_statistics(self):
        arrivals = generate_arrivals(
            [workloads_of_type("I")], 500, 10.0, unseen_fraction=0.2, seed=3
        )
        fraction = sum(a.unseen for a in arrivals) / len(arrivals)
        assert fraction == pytest.approx(0.2, abs=0.06)

    def test_deterministic_per_seed(self):
        a = generate_arrivals([workloads_of_type("I")], 10, 10.0, seed=5)
        b = generate_arrivals([workloads_of_type("I")], 10, 10.0, seed=5)
        assert a == b


class TestUnseenVariant:
    def test_variant_differs_from_original(self):
        variant = unseen_variant(LENET_MNIST, 3)
        assert variant.name != LENET_MNIST.name
        assert variant.compute_per_sample > LENET_MNIST.compute_per_sample
        assert variant.workload_type == LENET_MNIST.workload_type

    def test_variant_indices_distinct(self):
        assert (
            unseen_variant(LENET_MNIST, 1).name != unseen_variant(LENET_MNIST, 2).name
        )


class TestScheduler:
    def test_all_jobs_complete(self):
        env, cluster = fresh_cluster()
        arrivals = generate_arrivals([workloads_of_type("I")], 4, 200.0, seed=0)
        result = run_multi_tenancy(
            env, cluster, arrivals, tiny_spec, max_concurrent_jobs=2
        )
        assert len(result.records) == 4

    def test_response_time_includes_queue_wait(self):
        env, cluster = fresh_cluster()
        arrivals = generate_arrivals(
            [workloads_of_type("I")], 4, 1.0, seed=0, unseen_fraction=0.0
        )
        result = run_multi_tenancy(
            env, cluster, arrivals, tiny_spec, max_concurrent_jobs=1
        )
        for record in result.records:
            assert record.response_time_s >= record.result.tuning_time_s - 1e-9
        # with near-simultaneous arrivals and one slot, someone queued
        assert result.mean_queue_wait_s() > 0

    def test_fifo_admission_order(self):
        env, cluster = fresh_cluster()
        arrivals = generate_arrivals(
            [workloads_of_type("I")], 4, 1.0, seed=0, unseen_fraction=0.0
        )
        result = run_multi_tenancy(
            env, cluster, arrivals, tiny_spec, max_concurrent_jobs=1
        )
        records = sorted(result.records, key=lambda r: r.arrival.index)
        starts = [r.started_at for r in records]
        assert starts == sorted(starts)

    def test_unseen_jobs_use_variant(self):
        env, cluster = fresh_cluster()
        arrivals = generate_arrivals(
            [workloads_of_type("I")], 6, 100.0, seed=1, unseen_fraction=1.0
        )
        result = run_multi_tenancy(
            env, cluster, arrivals, tiny_spec, max_concurrent_jobs=2
        )
        assert all("#unseen" in r.arrival.workload.name for r in result.records)

    def test_mean_response_by_type(self):
        env, cluster = fresh_cluster()
        arrivals = generate_arrivals(
            [workloads_of_type("I"), workloads_of_type("II")],
            4,
            500.0,
            seed=0,
            unseen_fraction=0.0,
        )
        result = run_multi_tenancy(
            env, cluster, arrivals, tiny_spec, max_concurrent_jobs=2
        )
        overall = result.mean_response_time_s()
        t1 = result.mean_response_time_s("I")
        t2 = result.mean_response_time_s("II")
        assert min(t1, t2) <= overall <= max(t1, t2)
        assert result.mean_response_time_s("III") == 0.0

    def test_trace_ends_when_last_job_finishes(self):
        env, cluster = fresh_cluster()
        arrivals = generate_arrivals([workloads_of_type("I")], 3, 100.0, seed=0)
        result = run_multi_tenancy(env, cluster, arrivals, tiny_spec)
        assert env.now == max(r.result.finished_at for r in result.records)

    def test_records_in_completion_order(self):
        env, cluster = fresh_cluster()
        arrivals = generate_arrivals(
            [workloads_of_type("I"), workloads_of_type("II")], 5, 50.0, seed=2
        )
        result = run_multi_tenancy(
            env, cluster, arrivals, tiny_spec, max_concurrent_jobs=2
        )
        finished = [r.result.finished_at for r in result.records]
        assert finished == sorted(finished)

    @pytest.mark.parametrize("slots", [1, 2, 3])
    def test_running_jobs_never_exceed_slots(self, slots):
        env, cluster = fresh_cluster()
        arrivals = generate_arrivals(
            [workloads_of_type("I")], 5, 1.0, seed=0, unseen_fraction=0.0
        )
        result = run_multi_tenancy(
            env, cluster, arrivals, tiny_spec, max_concurrent_jobs=slots
        )
        spans = [(r.started_at, r.result.finished_at) for r in result.records]
        running = [sum(1 for s, f in spans if s <= start < f) for start, _ in spans]
        # the slots fill up, and never overfill
        assert max(running) == min(slots, len(spans))

    def test_concurrency_validation(self):
        env, cluster = fresh_cluster()
        with pytest.raises(ValueError):
            FifoJobScheduler(env, cluster, tiny_spec, max_concurrent_jobs=0)
