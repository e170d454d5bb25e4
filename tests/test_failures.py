"""Failure-injection tests: OOM trials and runner resilience."""

import pytest

from repro.hpo.algorithms import RandomSearch
from repro.hpo.hyperband import HyperBand
from repro.hpo.space import Choice, SearchSpace, joint_space
from repro.scenarios import PAPER_DISTRIBUTED_CLUSTER, execute_job
from repro.simulation.cluster import NodeSpec, SimCluster
from repro.simulation.des import Environment
from repro.tune.errors import TrialError, TrialOutOfMemory
from repro.tune.objectives import accuracy_per_time_objective
from repro.tune.runner import HptJobSpec
from repro.tune.trainer import run_trial
from repro.workloads.perfmodel import working_set_gb
from repro.workloads.registry import CNN_NEWS20, LENET_MNIST
from repro.workloads.spec import HyperParams, SystemParams


def run_single(hyper, system, oom_threshold, workload=CNN_NEWS20):
    env = Environment()
    cluster = SimCluster(env, [NodeSpec("n0", cores=16, memory_gb=64.0)])
    process = env.process(
        run_trial(
            env,
            cluster,
            trial_id="t0",
            workload=workload,
            hyper=hyper,
            system=system,
            oom_threshold=oom_threshold,
        )
    )
    env.run()
    return env, cluster, process


class TestTrialOom:
    STARVED = SystemParams(cores=4, memory_gb=4.0)
    BIG_BATCH = HyperParams(batch_size=1024, embedding_dim=300, epochs=3)

    def test_starved_trial_dies(self):
        assert working_set_gb(CNN_NEWS20, self.BIG_BATCH) > 2.0 * 4.0
        _, _, process = run_single(self.BIG_BATCH, self.STARVED, oom_threshold=2.0)
        with pytest.raises(TrialOutOfMemory):
            _ = process.value

    def test_oom_error_carries_details(self):
        _, _, process = run_single(self.BIG_BATCH, self.STARVED, oom_threshold=2.0)
        try:
            _ = process.value
        except TrialOutOfMemory as error:
            assert error.trial_id == "t0"
            assert error.working_set_gb > error.memory_gb
            assert isinstance(error, TrialError)

    def test_resources_released_after_oom(self):
        _, cluster, process = run_single(
            self.BIG_BATCH, self.STARVED, oom_threshold=2.0
        )
        with pytest.raises(TrialOutOfMemory):
            _ = process.value
        node = cluster.nodes[0]
        assert node.cores.level == node.spec.cores
        assert node.memory.level == node.spec.memory_gb

    def test_thrash_costs_time_before_death(self):
        env, _, process = run_single(self.BIG_BATCH, self.STARVED, oom_threshold=2.0)
        with pytest.raises(TrialOutOfMemory):
            _ = process.value
        assert env.now > 0  # half an epoch of thrashing was simulated

    def test_disabled_by_default(self):
        _, _, process = run_single(self.BIG_BATCH, self.STARVED, oom_threshold=None)
        result = process.value  # slow (penalised) but alive
        assert result.epochs_run == 3

    def test_well_fed_trial_unaffected(self):
        _, _, process = run_single(
            self.BIG_BATCH, SystemParams(cores=4, memory_gb=32.0), oom_threshold=2.0
        )
        assert process.value.accuracy > 0


class TestRunnerResilience:
    def job_spec(self, **kwargs):
        space = joint_space(nlp=True)
        defaults = dict(
            workload=CNN_NEWS20,
            algorithm_factory=lambda: RandomSearch(space, num_samples=30, seed=2),
            objective=accuracy_per_time_objective,
            system_policy="v2",
            oom_threshold=1.8,
        )
        defaults.update(kwargs)
        return HptJobSpec(**defaults)

    def run(self, spec):
        return execute_job(spec, PAPER_DISTRIBUTED_CLUSTER)

    def test_job_survives_oom_trials(self):
        result = self.run(self.job_spec())
        assert result.num_failures > 0  # some 4GB samples die
        assert result.num_trials + result.num_failures == 30
        assert result.best_hyper is not None  # survivors still win

    def test_failures_never_best(self):
        result = self.run(self.job_spec())
        assert result.best_accuracy > 0.0
        failed_ids = {f.trial_id for f in result.failures}
        assert all(t.trial_id not in failed_ids for t in result.trials)

    def test_failure_records_error(self):
        result = self.run(self.job_spec())
        for failure in result.failures:
            assert isinstance(failure.error, TrialOutOfMemory)
            assert failure.failed_at >= 0

    def test_hyperband_survives_failures(self):
        spec = self.job_spec(
            algorithm_factory=lambda: HyperBand(
                joint_space(nlp=True), max_epochs=9, eta=3, seed=2
            )
        )
        result = self.run(spec)
        assert result.best_hyper is not None
        assert result.num_failures > 0
