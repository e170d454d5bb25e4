"""Tests for the HPT-job runner and objectives."""

import pytest

from repro.hpo.algorithms import RandomSearch
from repro.hpo.hyperband import HyperBand
from repro.hpo.space import Choice, SearchSpace, joint_space, paper_hyper_space
from repro.scenarios import PAPER_DISTRIBUTED_CLUSTER
from repro.simulation.cluster import NodeSpec, SimCluster
from repro.simulation.des import Environment
from repro.tune.objectives import (
    accuracy_objective,
    accuracy_per_time_objective,
    energy_system_objective,
    runtime_system_objective,
)
from repro.tune.runner import DEFAULT_SYSTEM, HptJobSpec, run_hpt_job
from repro.tune.trial import EpochRecord, TrialResult
from repro.workloads.registry import LENET_MNIST
from repro.workloads.spec import HyperParams, SystemParams


def run_job(spec, cluster_factory=PAPER_DISTRIBUTED_CLUSTER.build):
    env = Environment()
    cluster = cluster_factory(env)
    process = run_hpt_job(env, cluster, spec)
    env.run()
    return process.value


def small_space():
    return SearchSpace(
        {
            "batch_size": Choice([64, 256]),
            "learning_rate": Choice([0.01]),
            "epochs": Choice([2]),
        }
    )


class TestSpecValidation:
    def test_policy_names(self):
        with pytest.raises(ValueError):
            HptJobSpec(
                workload=LENET_MNIST,
                algorithm_factory=lambda: RandomSearch(small_space(), 2),
                system_policy="v3",
            )

    def test_hooks_policy_needs_factory(self):
        with pytest.raises(ValueError):
            HptJobSpec(
                workload=LENET_MNIST,
                algorithm_factory=lambda: RandomSearch(small_space(), 2),
                system_policy="hooks",
            )

    def test_max_concurrent_validation(self):
        with pytest.raises(ValueError):
            HptJobSpec(
                workload=LENET_MNIST,
                algorithm_factory=lambda: RandomSearch(small_space(), 2),
                max_concurrent=0,
            )


class TestV1Policy:
    def test_all_trials_use_default_system(self):
        spec = HptJobSpec(
            workload=LENET_MNIST,
            algorithm_factory=lambda: RandomSearch(
                small_space(), num_samples=4, seed=0
            ),
            system_policy="v1",
        )
        result = run_job(spec)
        for trial in result.trials:
            assert trial.final_system == DEFAULT_SYSTEM

    def test_best_is_argmax_accuracy(self):
        spec = HptJobSpec(
            workload=LENET_MNIST,
            algorithm_factory=lambda: RandomSearch(
                small_space(), num_samples=4, seed=0
            ),
            objective=accuracy_objective,
            system_policy="v1",
        )
        result = run_job(spec)
        assert result.best_accuracy == pytest.approx(
            max(t.accuracy for t in result.trials)
        )

    def test_result_counters(self):
        spec = HptJobSpec(
            workload=LENET_MNIST,
            algorithm_factory=lambda: RandomSearch(
                small_space(), num_samples=5, seed=0
            ),
        )
        result = run_job(spec)
        assert result.num_trials == 5
        assert result.tuning_time_s > 0
        assert result.tuning_energy_j > 0
        assert result.response_time_s == pytest.approx(result.tuning_time_s)


class TestV2Policy:
    def test_trials_use_sampled_system(self):
        spec = HptJobSpec(
            workload=LENET_MNIST,
            algorithm_factory=lambda: RandomSearch(
                joint_space(), num_samples=6, seed=0
            ),
            objective=accuracy_per_time_objective,
            system_policy="v2",
        )
        result = run_job(spec)
        cores_seen = {t.final_system.cores for t in result.trials}
        assert len(cores_seen) > 1  # actually varied

    def test_v2_requires_system_dims(self):
        spec = HptJobSpec(
            workload=LENET_MNIST,
            algorithm_factory=lambda: RandomSearch(
                small_space(), num_samples=2, seed=0
            ),
            system_policy="v2",
        )
        env = Environment()
        cluster = PAPER_DISTRIBUTED_CLUSTER.build(env)
        process = run_hpt_job(env, cluster, spec)
        env.run()
        with pytest.raises(ValueError):
            _ = process.value

    def test_system_clipped_to_cluster(self):
        def tiny_cluster(env):
            return SimCluster(env, [NodeSpec(name="n0", cores=8, memory_gb=16.0)])

        spec = HptJobSpec(
            workload=LENET_MNIST,
            algorithm_factory=lambda: RandomSearch(
                joint_space(), num_samples=6, seed=1
            ),
            system_policy="v2",
        )
        result = run_job(spec, cluster_factory=tiny_cluster)
        for trial in result.trials:
            assert trial.final_system.cores <= 8
            assert trial.final_system.memory_gb <= 16.0


class TestConcurrencyAndTimeline:
    def test_max_concurrent_one_serialises(self):
        def spec(concurrent):
            return HptJobSpec(
                workload=LENET_MNIST,
                algorithm_factory=lambda: RandomSearch(
                    small_space(), num_samples=4, seed=0
                ),
                max_concurrent=concurrent,
            )

        serial = run_job(spec(1))
        parallel = run_job(spec(4))
        assert serial.tuning_time_s > parallel.tuning_time_s

    def test_timeline_monotone(self):
        spec = HptJobSpec(
            workload=LENET_MNIST,
            algorithm_factory=lambda: RandomSearch(
                small_space(), num_samples=6, seed=0
            ),
        )
        result = run_job(spec)
        times = [p.wall_time_s for p in result.timeline]
        assert times == sorted(times)
        best = [p.best_accuracy for p in result.timeline]
        assert all(b >= a - 1e-12 for a, b in zip(best, best[1:]))

    def test_hyperband_job_completes(self):
        spec = HptJobSpec(
            workload=LENET_MNIST,
            algorithm_factory=lambda: HyperBand(
                paper_hyper_space(), max_epochs=9, eta=3, seed=0
            ),
        )
        result = run_job(spec)
        assert result.num_trials == 17  # 9 + 5 + 3 configs
        assert result.best_hyper is not None

    def test_trial_setup_cost_lengthens_tuning(self):
        def spec(setup):
            return HptJobSpec(
                workload=LENET_MNIST,
                algorithm_factory=lambda: RandomSearch(
                    small_space(), num_samples=4, seed=0
                ),
                trial_setup_s=setup,
                max_concurrent=1,
            )

        cheap = run_job(spec(0.0))
        costly = run_job(spec(50.0))
        assert costly.tuning_time_s == pytest.approx(cheap.tuning_time_s + 200.0)


class TestObjectives:
    def make_result(self, accuracy, epoch_time, epochs=10):
        records = [
            EpochRecord(
                epoch=e,
                duration_s=epoch_time,
                accuracy=accuracy,
                system=SystemParams(cores=4, memory_gb=8.0),
                energy_j=100.0,
            )
            for e in range(1, epochs + 1)
        ]
        return TrialResult(
            trial_id="t",
            workload=LENET_MNIST,
            hyper=HyperParams(epochs=epochs),
            final_system=SystemParams(cores=4, memory_gb=8.0),
            accuracy=accuracy,
            training_time_s=epoch_time * epochs,
            energy_j=100.0 * epochs,
            epochs_run=epochs,
            start_time=0.0,
            end_time=epoch_time * epochs,
            records=records,
        )

    def test_v1_is_accuracy(self):
        assert accuracy_objective(self.make_result(0.9, 10.0)) == 0.9

    def test_v2_prefers_faster_at_equal_accuracy(self):
        fast = accuracy_per_time_objective(self.make_result(0.8, 10.0))
        slow = accuracy_per_time_objective(self.make_result(0.8, 40.0))
        assert fast > slow

    def test_v2_prefers_better_at_equal_speed(self):
        good = accuracy_per_time_objective(self.make_result(0.9, 10.0))
        bad = accuracy_per_time_objective(self.make_result(0.5, 10.0))
        assert good > bad

    def test_v2_accepts_bounded_accuracy_loss_for_big_speedup(self):
        accurate_slow = accuracy_per_time_objective(self.make_result(0.92, 80.0))
        weaker_fast = accuracy_per_time_objective(self.make_result(0.75, 15.0))
        assert weaker_fast > accurate_slow

    def test_system_objectives(self):
        assert runtime_system_objective(10.0, 100.0) > runtime_system_objective(
            20.0, 100.0
        )
        assert energy_system_objective(10.0, 100.0) > energy_system_objective(
            10.0, 200.0
        )
        with pytest.raises(ValueError):
            runtime_system_objective(0.0, 1.0)
        with pytest.raises(ValueError):
            energy_system_objective(-1.0, 1.0)
