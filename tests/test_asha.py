"""Tests for the ASHA (asynchronous successive halving) scheduler."""

import pytest

from repro.hpo.algorithms import Observation
from repro.hpo.asha import Asha
from repro.hpo.space import Choice, LogUniform, SearchSpace, Uniform
from repro.tune.runner import HptJobSpec, run_hpt_job
from repro.scenarios import PAPER_DISTRIBUTED_CLUSTER
from repro.simulation.des import Environment
from repro.workloads.registry import LENET_MNIST


def space():
    return SearchSpace(
        {
            "batch_size": Choice([32, 64, 256]),
            "learning_rate": LogUniform(1e-3, 1e-1),
            "dropout": Uniform(0.0, 0.5),
            "epochs": Choice([9]),
        }
    )


def drive(algo, score_fn):
    observations = []
    while not algo.done:
        batch = algo.next_batch()
        if not batch:
            break
        for suggestion in batch:
            obs = Observation(
                trial_id=suggestion.trial_id,
                score=score_fn(suggestion.params),
                epochs_run=suggestion.target_epochs,
            )
            algo.report(obs)
            observations.append((suggestion, obs))
    return observations


class TestAshaStructure:
    def test_rung_epochs_geometric(self):
        algo = Asha(space(), max_epochs=9, eta=3)
        assert algo.rung_epochs == [1, 3, 9]

    def test_epochs_domain_ignored(self):
        assert "epochs" not in Asha(space()).space

    def test_budget_off_the_geometric_ladder_is_the_top_rung(self):
        assert Asha(space(), max_epochs=10, eta=3).rung_epochs == [1, 3, 9, 10]
        assert Asha(space(), max_epochs=1, eta=3).rung_epochs == [1]

    def test_validation(self):
        with pytest.raises(ValueError):
            Asha(space(), max_epochs=0)
        with pytest.raises(ValueError):
            Asha(space(), eta=1)
        with pytest.raises(ValueError):
            Asha(space(), num_samples=0)


class TestAshaBehaviour:
    def test_report_unknown_trial_raises(self):
        algo = Asha(space(), num_samples=3)
        algo.next_batch()
        with pytest.raises(KeyError):
            algo.report(Observation("ghost", 0.0, 1))

    def test_seeded_reproducibility(self):
        def run(seed):
            algo = Asha(space(), max_epochs=9, eta=3, num_samples=9, seed=seed)
            return [
                (s.trial_id, s.params, s.start_epoch, s.target_epochs)
                for s, _ in drive(algo, lambda p: p["dropout"])
            ]

        assert run(4) == run(4)
        assert run(4) != run(5)

    def test_samples_all_configs(self):
        algo = Asha(space(), num_samples=9, seed=0)
        observations = drive(algo, lambda p: p["x"] if "x" in p else 0.5)
        rung0 = [s for s, _ in observations if s.start_epoch == 0]
        assert len(rung0) == 9
        assert algo.done

    def test_top_fraction_promoted(self):
        algo = Asha(space(), max_epochs=9, eta=3, num_samples=9, seed=0)
        observations = drive(algo, lambda p: p["dropout"])
        promotions = [s for s, _ in observations if s.start_epoch > 0]
        # 9 rung-0 trials -> ~3 promoted to rung 1 -> ~1 to rung 2
        assert 3 <= len(promotions) <= 6

    def test_promoted_trials_resume(self):
        algo = Asha(space(), max_epochs=9, eta=3, num_samples=9, seed=0)
        observations = drive(algo, lambda p: p["dropout"])
        for suggestion, _ in observations:
            if suggestion.start_epoch > 0:
                assert suggestion.target_epochs > suggestion.start_epoch
                assert suggestion.start_epoch in (1, 3)

    def test_best_config_reaches_top_rung(self):
        algo = Asha(space(), max_epochs=9, eta=3, num_samples=9, seed=1)
        observations = drive(algo, lambda p: p["dropout"])
        best_dropout = max(s.params["dropout"] for s, _ in observations)
        top_rung = [
            s for s, _ in observations if s.target_epochs == 9
        ]
        assert any(
            s.params["dropout"] == pytest.approx(best_dropout) for s in top_rung
        )

    def test_asynchronous_promotion_without_rung_barrier(self):
        """A promotion can be issued before all rung-0 trials report."""
        algo = Asha(space(), max_epochs=9, eta=3, num_samples=9, seed=0)
        first = algo.next_batch()
        assert len(first) == 9
        # report only 3 of 9: ASHA may already promote the top one
        for suggestion in first[:3]:
            algo.report(Observation(suggestion.trial_id, 1.0, 1))
        batch = algo.next_batch()
        assert any(s.start_epoch == 1 for s in batch)

    def test_runs_inside_hpt_job(self):
        env = Environment()
        cluster = PAPER_DISTRIBUTED_CLUSTER.build(env)
        spec = HptJobSpec(
            workload=LENET_MNIST,
            algorithm_factory=lambda: Asha(
                space(), max_epochs=9, eta=3, num_samples=9, seed=0
            ),
            name="asha-job",
        )
        process = run_hpt_job(env, cluster, spec)
        env.run()
        result = process.value
        assert result.best_hyper is not None
        assert result.best_accuracy > 0.5
