"""Tests for the telemetry recorder (metrics -> time-series store)."""

import pytest

from repro.hpo.algorithms import RandomSearch
from repro.hpo.space import Choice, SearchSpace
from repro.scenarios import PAPER_DISTRIBUTED_CLUSTER
from repro.simulation.cluster import NodeSpec, SimCluster
from repro.simulation.des import Environment
from repro.telemetry.recorder import MetricsRecorder
from repro.tune.runner import HptJobSpec, run_hpt_job
from repro.tune.trainer import run_trial
from repro.workloads.registry import LENET_MNIST
from repro.workloads.spec import HyperParams, SystemParams


def setup_run(record_power=True, epochs=3):
    env = Environment()
    cluster = SimCluster(env, [NodeSpec("n0", cores=16, memory_gb=64.0)])
    recorder = MetricsRecorder(env, cluster, record_power=record_power)
    process = env.process(
        run_trial(
            env,
            cluster,
            trial_id="t0",
            workload=LENET_MNIST,
            hyper=HyperParams(batch_size=64, epochs=epochs),
            system=SystemParams(cores=4, memory_gb=16.0),
            hooks=recorder.wrap_hooks(),
        )
    )
    env.run()
    return recorder, process.value


class TestEpochRecording:
    def test_every_epoch_recorded(self):
        recorder, result = setup_run(epochs=4)
        assert recorder.epochs_recorded() == 4
        assert recorder.epochs_recorded("lenet-mnist") == 4
        assert recorder.epochs_recorded("other") == 0

    def test_epoch_fields_match_trial(self):
        recorder, result = setup_run()
        points = recorder.store.query("trial_epoch", tags={"trial": "t0"})
        assert [p.fields["epoch"] for p in points] == [1.0, 2.0, 3.0]
        assert points[-1].fields["accuracy"] == pytest.approx(result.accuracy)
        assert sum(p.fields["duration_s"] for p in points) == pytest.approx(
            result.training_time_s
        )

    def test_summary_recorded(self):
        recorder, result = setup_run()
        summaries = recorder.store.query("trial_summary", tags={"trial": "t0"})
        assert len(summaries) == 1
        assert summaries[0].fields["epochs"] == 3.0
        assert summaries[0].fields["energy_j"] == pytest.approx(result.energy_j)

    def test_accuracy_series_ordered(self):
        recorder, _ = setup_run(epochs=5)
        series = recorder.trial_accuracy_series("t0")
        times = [t for t, _ in series]
        assert times == sorted(times)
        assert len(series) == 5


class TestPowerRecording:
    def test_power_samples_on_changes(self):
        recorder, _ = setup_run()
        samples = recorder.store.query("node_power", tags={"node": "n0"})
        # initial + 2 changes per epoch (busy up, busy down) x 3 epochs
        assert len(samples) == 1 + 6
        watts = [p.fields["watts"] for p in samples]
        assert max(watts) > min(watts)

    def test_power_recording_can_be_disabled(self):
        recorder, _ = setup_run(record_power=False)
        assert recorder.store.query("node_power") == []

    def test_mean_cluster_power(self):
        recorder, _ = setup_run()
        assert recorder.mean_cluster_power_w() > 0
        assert MetricsRecorder(
            Environment(),
            SimCluster(Environment(), [NodeSpec("x", 4, 8.0)]),
            record_power=False,
        ).mean_cluster_power_w() == 0.0


class TestJobIntegration:
    def test_hooks_wrapper_records_whole_job(self):
        env = Environment()
        cluster = PAPER_DISTRIBUTED_CLUSTER.build(env)
        recorder = MetricsRecorder(env, cluster, record_power=False)
        space = SearchSpace(
            {
                "batch_size": Choice([64, 256]),
                "learning_rate": Choice([0.01]),
                "epochs": Choice([2]),
            }
        )
        spec = HptJobSpec(
            workload=LENET_MNIST,
            algorithm_factory=lambda: RandomSearch(space, num_samples=3, seed=0),
            hooks_wrapper=recorder.wrap_hooks,
        )
        process = run_hpt_job(env, cluster, spec)
        env.run()
        result = process.value
        assert result.num_trials == 3
        assert recorder.epochs_recorded() == 6  # 3 trials x 2 epochs
        assert len(recorder.store.query("trial_summary")) == 3

    def test_persists_via_store(self, tmp_path):
        recorder, _ = setup_run()
        path = str(tmp_path / "telemetry.jsonl")
        count = recorder.store.save(path)
        assert count > 0
        from repro.tsdb.store import TimeSeriesStore

        loaded = TimeSeriesStore.load(path)
        assert len(loaded) == count
