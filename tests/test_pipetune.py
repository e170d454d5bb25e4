"""Tests for the PipeTune session, hooks pipeline and ablations."""

import numpy as np
import pytest

from repro.core import pipetune
from repro.core.pipetune import PipeTuneConfig, PipeTuneSession
from repro.counters.profiler import EpochProfiler
from repro.hpo.algorithms import RandomSearch
from repro.hpo.space import Choice, SearchSpace
from repro.scenarios import (
    PAPER_DISTRIBUTED_CLUSTER,
    PAPER_SINGLE_NODE,
    ChainExecutor,
    Scenario,
    ScenarioRunner,
    execute_job,
    session_for_cluster,
    tune_v1,
)
from repro.scenarios import pipetune as pipetune_policy
from repro.tune.objectives import runtime_system_objective
from repro.workloads.registry import LENET_FASHION, LENET_MNIST, type12_workloads
from repro.workloads.spec import HyperParams, SystemParams


def paper_session(distributed=True, config=None, seed=0):
    """A session sized for one of the two paper testbeds."""
    cluster = PAPER_DISTRIBUTED_CLUSTER if distributed else PAPER_SINGLE_NODE
    return session_for_cluster(cluster, config=config, seed=seed)


def small_space(epochs=8):
    return SearchSpace(
        {
            "batch_size": Choice([64, 256]),
            "learning_rate": Choice([0.01]),
            "epochs": Choice([epochs]),
        }
    )


def run_pipetune_job(session, workload=LENET_MNIST, seed=0, num_samples=4, epochs=8):
    spec = session.job_spec(
        workload,
        algorithm_factory=lambda: RandomSearch(
            small_space(epochs), num_samples=num_samples, seed=seed
        ),
    )
    return execute_job(spec, PAPER_DISTRIBUTED_CLUSTER)


class TestWarmStart:
    def test_warm_start_populates_ground_truth(self):
        session = paper_session()
        added = session.warm_start(type12_workloads())
        assert added == 16  # 4 workloads x 4 batch sizes
        assert len(session.ground_truth) == 16

    def test_warm_session_hits_without_probing(self):
        session = paper_session()
        session.warm_start(type12_workloads())
        run_pipetune_job(session)
        assert session.stats.ground_truth_hits > 0
        assert session.stats.probing_trials == 0
        assert session.stats.hit_rate == 1.0

    def test_warm_best_configs_are_sensible(self):
        """Offline campaign must not pick memory-starved configs."""
        session = paper_session()
        session.warm_start([LENET_MNIST])
        for entry in session.ground_truth.entries:
            assert entry.best_system.memory_gb >= 8.0  # working set > 4 GB


class TestCampaignMemo:
    """The §7.2 campaign runs once per (workload, batch, cluster shape)."""

    @staticmethod
    def snapshot(session):
        return [
            (e.features.tobytes(), e.best_system, e.workload_name)
            for e in session.ground_truth.entries
        ]

    def test_hit_equals_miss(self):
        pipetune._offline_campaign.cache_clear()
        missed = paper_session()
        missed.warm_start(type12_workloads())
        hit = paper_session()
        hit.warm_start(type12_workloads())
        assert pipetune._offline_campaign.cache_info().hits == 16
        pipetune._offline_campaign.cache_clear()
        fresh = paper_session()
        fresh.warm_start(type12_workloads())
        assert self.snapshot(hit) == self.snapshot(missed) == self.snapshot(fresh)

    def test_stored_features_are_read_only(self):
        session = paper_session()
        session.warm_start([LENET_MNIST])
        with pytest.raises(ValueError):
            session.ground_truth.entries[0].features[0] = 0.0

    def test_cluster_shape_is_part_of_the_key(self):
        pipetune._offline_campaign.cache_clear()
        paper_session(distributed=True).warm_start([LENET_MNIST])
        paper_session(distributed=False).warm_start([LENET_MNIST])
        assert pipetune._offline_campaign.cache_info().misses == 8
        session = paper_session()
        session.config.cores_grid = (4, 8)
        session.warm_start([LENET_MNIST])
        assert pipetune._offline_campaign.cache_info().misses == 12

    def test_int_and_float_values_do_not_share_a_point(self):
        # 24 == 24.0, but the two key different RNG streams.
        args = (LENET_MNIST, HyperParams(batch_size=64), 2)
        grids = ((4, 8), (8.0, 16.0), runtime_system_objective, 8)
        as_float = pipetune.offline_campaign(
            *args, SystemParams(cores=8, memory_gb=24.0), *grids
        )
        as_int = pipetune.offline_campaign(
            *args, SystemParams(cores=8, memory_gb=24), *grids
        )
        assert not np.array_equal(as_float[0], as_int[0])

    def test_sessions_share_one_campaign(self, monkeypatch):
        calls = []
        profile_epoch = EpochProfiler.profile_epoch

        def counted(self, *args, **kwargs):
            calls.append(args[1])
            return profile_epoch(self, *args, **kwargs)

        monkeypatch.setattr(EpochProfiler, "profile_epoch", counted)
        pipetune._offline_campaign.cache_clear()
        paper_session(seed=0).warm_start(type12_workloads())
        assert len(calls) == 16 * 2  # 16 points x 2 repetitions
        paper_session(seed=1).warm_start(type12_workloads())
        assert len(calls) == 16 * 2


class TestColdStart:
    def test_cold_session_probes_then_stores(self):
        session = paper_session()
        run_pipetune_job(session, num_samples=4, epochs=10)
        assert session.stats.ground_truth_misses > 0
        assert session.stats.probing_trials > 0
        assert session.stats.entries_stored > 0
        assert len(session.ground_truth) == session.stats.entries_stored

    def test_second_job_benefits_from_first(self):
        session = paper_session()
        run_pipetune_job(session, workload=LENET_MNIST, seed=0)
        misses_before = session.stats.ground_truth_misses
        run_pipetune_job(session, workload=LENET_MNIST, seed=1)
        assert session.stats.ground_truth_hits > 0
        # most of job 2's trials hit instead of missing
        new_misses = session.stats.ground_truth_misses - misses_before
        assert new_misses <= session.stats.ground_truth_hits

    def test_short_trials_skip_probing(self):
        """1-epoch trials have no probing budget: run at default."""
        session = paper_session()
        spec = session.job_spec(
            LENET_MNIST,
            algorithm_factory=lambda: RandomSearch(
                small_space(epochs=2), num_samples=2, seed=0
            ),
        )
        result = execute_job(spec, PAPER_DISTRIBUTED_CLUSTER)
        assert session.stats.probing_trials == 0
        assert result.num_trials == 2


@pytest.fixture(scope="module")
def lenet_pair():
    """Tune V1 and a warm PipeTune job on LeNet/MNIST, seed 0, plus the
    PipeTune session that ran it."""
    scenario = (
        Scenario.builder("pipeline-effects")
        .workloads("lenet-mnist")
        .compare(tune_v1(), pipetune_policy())
        .build()
    )
    plan = ScenarioRunner(scenario).plan(seed=0)
    executor = ChainExecutor(scenario, plan.scale, plan.seed)
    v1, result = (executor.run_step(step) for step in plan.steps)
    (session,) = executor.sessions.values()
    return v1, result, session


class TestPipelineEffects:
    def test_accuracy_parity_with_v1(self, lenet_pair):
        v1, result, _ = lenet_pair
        assert result.best_accuracy == pytest.approx(v1.best_accuracy, abs=0.03)

    def test_tuning_time_below_v1(self, lenet_pair):
        v1, result, _ = lenet_pair
        assert result.tuning_time_s < v1.tuning_time_s

    def test_tuning_energy_below_v1(self, lenet_pair):
        v1, result, _ = lenet_pair
        assert result.tuning_energy_j < v1.tuning_energy_j

    def test_trials_reconfigure_away_from_default(self, lenet_pair):
        _, result, session = lenet_pair
        assert session.stats.reconfigurations > 0
        assert any(
            t.final_system != spec_default
            for t in result.trials
            for spec_default in [SystemParams(cores=8, memory_gb=32.0)]
        )


class TestAblations:
    def test_ground_truth_disabled_always_probes(self):
        config = PipeTuneConfig(use_ground_truth=False)
        session = paper_session(config=config)
        session.warm_start(type12_workloads())
        run_pipetune_job(session, epochs=10)
        assert session.stats.ground_truth_hits == 0
        assert session.stats.probing_trials > 0

    def test_non_pipelined_variant_is_slower(self):
        def tuning_time(pipelined):
            config = PipeTuneConfig(pipelined=pipelined, decision_delay_s=10.0)
            session = paper_session(config=config)
            session.warm_start(type12_workloads())
            return run_pipetune_job(session, epochs=10).tuning_time_s

        assert tuning_time(False) > tuning_time(True)

    def test_clip_to_cluster(self):
        session = PipeTuneSession(max_cores=8, max_memory_gb=16.0)
        clipped = session.clip_to_cluster(SystemParams(cores=16, memory_gb=32.0))
        assert clipped == SystemParams(cores=8, memory_gb=16.0)
        untouched = session.clip_to_cluster(SystemParams(cores=4, memory_gb=8.0))
        assert untouched == SystemParams(cores=4, memory_gb=8.0)


class TestStartHints:
    def test_hint_set_after_resolution(self):
        session = paper_session()
        session.warm_start(type12_workloads())
        assert session.start_hint(LENET_MNIST) is None
        run_pipetune_job(session)
        assert session.start_hint(LENET_MNIST) is not None

    def test_hint_is_per_workload(self):
        session = paper_session()
        session.warm_start(type12_workloads())
        run_pipetune_job(session, workload=LENET_MNIST)
        assert session.start_hint(LENET_FASHION) is None
