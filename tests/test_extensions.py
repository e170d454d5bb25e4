"""Tests for the paper's stated extensions implemented here.

* CPU frequency (DVFS) as a third system parameter (§7.1.4: "the same
  mechanisms can be applied to any other parameter of interest").
* Hyperparameter-augmented similarity features (§5.4 future work).
* A similarity model with k != 2 (the paper evaluates k = 2, §5.4).
"""

import numpy as np
import pytest

from repro.core.groundtruth import GroundTruth, GroundTruthEntry
from repro.core.pipetune import PipeTuneConfig, PipeTuneSession
from repro.core.probing import ProbeSample, ProbingController
from repro.simulation.cluster import NodeSpec, SimCluster
from repro.simulation.des import Environment
from repro.tune.trainer import run_trial, trial_energy_j
from repro.workloads.perfmodel import epoch_time
from repro.workloads.registry import LENET_MNIST, type12_workloads
from repro.workloads.spec import (
    BASE_CPU_FREQ_GHZ,
    HyperParams,
    SystemParams,
    TrialConfig,
)


class TestDvfs:
    def cfg(self, freq):
        return TrialConfig(
            LENET_MNIST,
            HyperParams(batch_size=256),
            SystemParams(cores=4, memory_gb=16.0, cpu_freq_ghz=freq),
        )

    def test_default_frequency_is_nominal(self):
        assert SystemParams(cores=4, memory_gb=8.0).cpu_freq_ghz == BASE_CPU_FREQ_GHZ

    def test_frequency_validation(self):
        with pytest.raises(ValueError):
            SystemParams(cores=4, memory_gb=8.0, cpu_freq_ghz=0.1)

    def test_lower_clock_slows_compute(self):
        fast = epoch_time(self.cfg(BASE_CPU_FREQ_GHZ), noisy=False)
        slow = epoch_time(self.cfg(1.8), noisy=False)
        assert slow > fast

    def test_sync_term_unaffected_by_clock(self):
        """Only the compute term scales with frequency."""
        from repro.workloads.perfmodel import epoch_cost

        fast = epoch_cost(self.cfg(BASE_CPU_FREQ_GHZ), noisy=False)
        slow = epoch_cost(self.cfg(1.8), noisy=False)
        assert slow.compute_s == pytest.approx(2.0 * fast.compute_s)
        assert slow.sync_s == pytest.approx(fast.sync_s)

    def test_lower_clock_draws_less_power(self):
        env = Environment()
        cluster = SimCluster(env, [NodeSpec("n0", cores=8, memory_gb=32.0)])

        def alloc_for(freq):
            holder = {}

            def proc():
                a = yield from cluster.allocate(4, 8.0)
                holder["a"] = a
                a.release()

            env.process(proc())
            env.run()
            return holder["a"]

        allocation = alloc_for(3.6)
        full = trial_energy_j(
            LENET_MNIST, SystemParams(4, 8.0, cpu_freq_ghz=3.6), allocation, 4.0, 10.0
        )
        halved = trial_energy_j(
            LENET_MNIST, SystemParams(4, 8.0, cpu_freq_ghz=1.8), allocation, 4.0, 10.0
        )
        assert halved < full

    def test_dict_roundtrip_with_frequency(self):
        system = SystemParams(cores=8, memory_gb=16.0, cpu_freq_ghz=2.4)
        assert SystemParams.from_dict(system.as_dict()) == system

    def test_probing_frequency_phase(self):
        controller = ProbingController(
            initial=SystemParams(8, 32.0),
            cores_grid=(4, 8),
            memory_grid_gb=(16.0, 32.0),
            frequency_grid_ghz=(1.8, 2.7, 3.6),
        )
        seen = []
        while True:
            config = controller.next_config()
            if config is None:
                break
            seen.append(config)
            # lower clocks take longer but use less energy here
            controller.record(
                ProbeSample(config, 60.0 * 3.6 / config.cpu_freq_ghz,
                            1000.0 * config.cpu_freq_ghz)
            )
        freq_probes = [c for c in seen if c.cpu_freq_ghz != BASE_CPU_FREQ_GHZ]
        assert len(freq_probes) == 2  # 1.8 and 2.7 (3.6 already probed)
        # runtime objective: full clock wins
        assert controller.best_system().cpu_freq_ghz == BASE_CPU_FREQ_GHZ

    def test_frequency_grid_in_pipetune_config(self):
        config = PipeTuneConfig(frequency_grid_ghz=(1.8, 3.6))
        session = PipeTuneSession(config=config)
        assert session.config.frequency_grid_ghz == (1.8, 3.6)

    def test_trial_runs_at_reduced_clock(self):
        env = Environment()
        cluster = SimCluster(env, [NodeSpec("n0", cores=8, memory_gb=32.0)])
        process = env.process(
            run_trial(
                env,
                cluster,
                trial_id="dvfs",
                workload=LENET_MNIST,
                hyper=HyperParams(batch_size=256, epochs=2),
                system=SystemParams(cores=4, memory_gb=16.0, cpu_freq_ghz=1.8),
            )
        )
        env.run()
        assert process.value.final_system.cpu_freq_ghz == 1.8


class TestHyperAugmentedSimilarity:
    def test_disabled_by_default(self):
        session = PipeTuneSession()
        features = np.zeros(58)
        out = session.augment_features(features, HyperParams())
        assert out.shape == (58,)

    def test_appends_five_dimensions(self):
        session = PipeTuneSession(config=PipeTuneConfig(similarity_include_hyper=True))
        out = session.augment_features(np.zeros(58), HyperParams(batch_size=1024))
        assert out.shape == (63,)
        assert out[58] == pytest.approx(1.0)  # log2(1024)/10

    def test_weight_scales_extra_dims(self):
        config = PipeTuneConfig(similarity_include_hyper=True, hyper_feature_weight=2.0)
        session = PipeTuneSession(config=config)
        out = session.augment_features(np.zeros(58), HyperParams(batch_size=1024))
        assert out[58] == pytest.approx(2.0)

    def test_distinguishes_batch_regimes(self):
        """With augmentation, small- and large-batch entries of one
        workload separate cleanly in feature space."""
        config = PipeTuneConfig(similarity_include_hyper=True, hyper_feature_weight=3.0)
        session = PipeTuneSession(config=config)
        session.warm_start([LENET_MNIST])
        entries = session.ground_truth.entries
        small = next(e for e in entries if "lenet" in e.workload_name)
        assert all(e.features.shape == (63,) for e in entries)
        distances = [
            float(np.linalg.norm(entries[0].features - e.features))
            for e in entries[1:]
        ]
        assert max(distances) > 0.3  # batch dimension separates them

    def test_warm_session_still_hits(self):
        config = PipeTuneConfig(similarity_include_hyper=True)
        from tests.test_pipetune import paper_session, run_pipetune_job

        session = paper_session(config=config)
        session.warm_start(type12_workloads())

        run_pipetune_job(session)
        assert session.stats.ground_truth_hits > 0


class TestSimilarityK:
    def test_k3_model(self):
        gt = GroundTruth(k=3, min_entries=6)
        rng = np.random.default_rng(0)
        for center, cores in ((0.0, 4), (5.0, 8), (10.0, 16)):
            for i in range(3):
                gt.add(
                    GroundTruthEntry(
                        features=np.full(58, center) + rng.normal(0, 0.05, 58),
                        best_system=SystemParams(cores=cores, memory_gb=8.0),
                    )
                )
        gt.refit()
        match = gt.query(np.full(58, 5.0))
        assert match is not None
        assert match.system.cores == 8
