"""Tests for the search algorithms (grid, random, HyperBand, BO, GA, PBT)."""

import math

import numpy as np
import pytest

from repro.hpo.algorithms import GridSearch, Observation, RandomSearch, Suggestion
from repro.hpo.bayesian import (
    BayesianOptimisation,
    GaussianProcess,
    expected_improvement,
)
from repro.hpo.genetic import GeneticSearch
from repro.hpo.hyperband import HyperBand
from repro.hpo.pbt import PopulationBasedTraining
from repro.hpo.space import Choice, LogUniform, SearchSpace, Uniform


def toy_space():
    return SearchSpace(
        {
            "x": Uniform(0.0, 1.0),
            "y": LogUniform(0.01, 1.0),
            "epochs": Choice([2, 4]),
        }
    )


def total_configs(algo):
    """Number of distinct configurations a HyperBand run starts."""
    return sum(bracket.rungs[0].survivors for bracket in algo._brackets)


def quadratic_score(params):
    """Smooth objective peaked at x=0.7, y=0.1."""
    return -((params["x"] - 0.7) ** 2) - (math.log10(params["y"]) + 1.0) ** 2


def drive(algorithm, score_fn, epochs_run=None):
    """Run an algorithm to exhaustion against a synthetic objective."""
    observations = []
    while not algorithm.done:
        batch = algorithm.next_batch()
        if not batch:
            break
        for suggestion in batch:
            score = score_fn(suggestion.params)
            obs = Observation(
                trial_id=suggestion.trial_id,
                params=suggestion.params,
                score=score,
                accuracy=max(0.0, min(1.0, 0.5 + score)),
                training_time_s=10.0,
                epochs_run=epochs_run or suggestion.target_epochs,
            )
            algorithm.report(obs)
            observations.append(obs)
    return observations


class TestSuggestion:
    def test_target_must_exceed_start(self):
        with pytest.raises(ValueError):
            Suggestion(trial_id="t", params={}, target_epochs=3, start_epoch=3)


class TestGridSearch:
    def test_covers_full_grid(self):
        space = SearchSpace({"a": Choice([1, 2]), "b": Choice([3, 4])})
        algo = GridSearch(space, points_per_dim=3)
        observations = drive(algo, lambda p: 0.0)
        assert len(observations) == 4
        assert {(o.params["a"], o.params["b"]) for o in observations} == {
            (1, 3), (1, 4), (2, 3), (2, 4)
        }

    def test_epochs_axis_drives_trial_length(self):
        algo = GridSearch(toy_space(), points_per_dim=2)
        batch = algo.next_batch()
        lengths = {s.target_epochs for s in batch}
        assert lengths == {2, 4}

    def test_done_requires_reports(self):
        algo = GridSearch(SearchSpace({"a": Choice([1])}), points_per_dim=1)
        algo.next_batch()
        assert not algo.done
        assert algo.pending_count == 1

    def test_report_unknown_trial_raises(self):
        algo = GridSearch(SearchSpace({"a": Choice([1])}))
        with pytest.raises(KeyError):
            algo.report(
                Observation("ghost", {}, 0.0, 0.0, 0.0, 1)
            )


class TestRandomSearch:
    def test_emits_exactly_num_samples(self):
        algo = RandomSearch(toy_space(), num_samples=13)
        observations = drive(algo, quadratic_score)
        assert len(observations) == 13
        assert algo.done

    def test_samples_within_domains(self):
        algo = RandomSearch(toy_space(), num_samples=30)
        for obs in drive(algo, quadratic_score):
            assert 0.0 <= obs.params["x"] <= 1.0
            assert 0.01 <= obs.params["y"] <= 1.0

    def test_seeded_reproducibility(self):
        a = drive(RandomSearch(toy_space(), num_samples=5, seed=3), quadratic_score)
        b = drive(RandomSearch(toy_space(), num_samples=5, seed=3), quadratic_score)
        assert [o.params for o in a] == [o.params for o in b]

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomSearch(toy_space(), num_samples=0)


class TestHyperBand:
    def test_bracket_structure_r9_eta3(self):
        algo = HyperBand(toy_space(), max_epochs=9, eta=3)
        assert algo.s_max == 2
        assert len(algo._brackets) == 3
        first = algo._brackets[0]
        assert [r.epochs for r in first.rungs] == [1, 3, 9]
        assert [r.survivors for r in first.rungs] == [9, 3, 1]

    def test_sample_scale_multiplies_configs(self):
        base = HyperBand(toy_space(), max_epochs=9, eta=3)
        scaled = HyperBand(toy_space(), max_epochs=9, eta=3, sample_scale=1.5)
        assert total_configs(scaled) > total_configs(base)

    def test_epochs_domain_is_ignored(self):
        algo = HyperBand(toy_space(), max_epochs=9, eta=3)
        assert "epochs" not in algo.space

    def test_promotion_keeps_best(self):
        algo = HyperBand(toy_space(), max_epochs=9, eta=3, seed=1)
        rung0 = algo.next_batch()
        scores = {}
        for i, s in enumerate(rung0):
            scores[s.trial_id] = float(i)  # last trial is best
            algo.report(
                Observation(s.trial_id, s.params, float(i), 0.5, 1.0, s.target_epochs)
            )
        rung1 = algo.next_batch()
        promoted = {s.trial_id for s in rung1}
        expected = {t for t, sc in sorted(scores.items(), key=lambda kv: -kv[1])[:3]}
        assert promoted == expected

    def test_promoted_trials_resume_from_checkpoint(self):
        algo = HyperBand(toy_space(), max_epochs=9, eta=3, seed=1)
        rung0 = algo.next_batch()
        for s in rung0:
            algo.report(
                Observation(s.trial_id, s.params, 1.0, 0.5, 1.0, s.target_epochs)
            )
        rung1 = algo.next_batch()
        for s in rung1:
            assert s.start_epoch == 1
            assert s.target_epochs == 3

    def test_runs_to_completion(self):
        algo = HyperBand(toy_space(), max_epochs=9, eta=3, seed=0)
        observations = drive(algo, quadratic_score)
        assert algo.done
        # bracket sizes for R=9, eta=3: 9 + 5 + 3 starts
        starts = {o.trial_id for o in observations}
        assert len(starts) == total_configs(algo) == 9 + 5 + 3

    def test_waits_for_pending_rung(self):
        algo = HyperBand(toy_space(), max_epochs=9, eta=3)
        algo.next_batch()
        assert algo.next_batch() == []  # rung still pending

    def test_validation(self):
        with pytest.raises(ValueError):
            HyperBand(toy_space(), max_epochs=0)
        with pytest.raises(ValueError):
            HyperBand(toy_space(), eta=1)
        with pytest.raises(ValueError):
            HyperBand(toy_space(), sample_scale=0.0)


class TestGaussianProcess:
    def test_interpolates_training_points(self):
        x = np.array([[0.0], [0.5], [1.0]])
        y = np.array([1.0, 0.0, 1.0])
        gp = GaussianProcess(noise=1e-8)
        gp.fit(x, y)
        mean, std = gp.predict(x)
        np.testing.assert_allclose(mean, y, atol=1e-3)
        assert (std < 0.05).all()

    def test_uncertainty_grows_away_from_data(self):
        gp = GaussianProcess()
        gp.fit(np.array([[0.0]]), np.array([0.0]))
        _, near = gp.predict(np.array([[0.05]]))
        _, far = gp.predict(np.array([[3.0]]))
        assert far[0] > near[0]

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcess().predict(np.zeros((1, 1)))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            GaussianProcess().fit(np.zeros((3, 1)), np.zeros(2))

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            GaussianProcess(length_scale=0.0)


class TestExpectedImprovement:
    def test_positive_when_mean_exceeds_best(self):
        ei = expected_improvement(np.array([1.0]), np.array([0.1]), best=0.0)
        assert ei[0] > 0.9

    def test_small_when_hopeless(self):
        ei = expected_improvement(np.array([-5.0]), np.array([0.1]), best=0.0)
        assert ei[0] < 1e-6

    def test_uncertainty_gives_hope(self):
        narrow = expected_improvement(np.array([-1.0]), np.array([0.01]), best=0.0)
        wide = expected_improvement(np.array([-1.0]), np.array([2.0]), best=0.0)
        assert wide[0] > narrow[0]


class TestBayesianOptimisation:
    def test_sequential_batches_of_one(self):
        algo = BayesianOptimisation(toy_space(), num_samples=5, seed=0)
        batch = algo.next_batch()
        assert len(batch) == 1
        assert algo.next_batch() == []  # pending

    def test_beats_random_on_smooth_objective(self):
        def best_of(algo):
            return max(o.score for o in drive(algo, quadratic_score))

        bo = np.mean(
            [
                best_of(BayesianOptimisation(toy_space(), num_samples=20, seed=s))
                for s in range(3)
            ]
        )
        rnd = np.mean(
            [
                best_of(RandomSearch(toy_space(), num_samples=20, seed=s))
                for s in range(3)
            ]
        )
        assert bo >= rnd - 0.05  # BO should not be (meaningfully) worse

    def test_runs_to_completion(self):
        algo = BayesianOptimisation(toy_space(), num_samples=8, seed=0)
        observations = drive(algo, quadratic_score)
        assert len(observations) == 8
        assert algo.done


class TestGeneticSearch:
    def test_population_times_generations(self):
        algo = GeneticSearch(toy_space(), population=6, generations=3, seed=0)
        observations = drive(algo, quadratic_score)
        assert len(observations) == 18
        assert algo.done

    def test_later_generations_improve(self):
        algo = GeneticSearch(toy_space(), population=10, generations=4, seed=0)
        observations = drive(algo, quadratic_score)
        first = np.mean([o.score for o in observations[:10]])
        last = np.mean([o.score for o in observations[-10:]])
        assert last >= first

    def test_elitism_preserves_best_params(self):
        algo = GeneticSearch(
            toy_space(), population=6, generations=2, elitism=1, seed=0
        )
        gen0 = algo.next_batch()
        best_params = None
        for i, s in enumerate(gen0):
            score = 10.0 if i == 2 else 0.0
            if i == 2:
                best_params = s.params
            algo.report(Observation(s.trial_id, s.params, score, 0.5, 1.0, 2))
        gen1 = algo.next_batch()
        assert any(s.params == best_params for s in gen1)

    def test_offspring_within_domains(self):
        algo = GeneticSearch(toy_space(), population=8, generations=3, seed=1)
        for obs in drive(algo, quadratic_score):
            assert 0.0 <= obs.params["x"] <= 1.0
            assert 0.01 <= obs.params["y"] <= 1.0 + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            GeneticSearch(toy_space(), population=1)
        with pytest.raises(ValueError):
            GeneticSearch(toy_space(), population=4, elitism=4)


class TestPBT:
    def test_segments_advance_epochs(self):
        algo = PopulationBasedTraining(
            toy_space(), population=4, segment_epochs=2, segments=3, seed=0
        )
        seen_targets = []
        while not algo.done:
            batch = algo.next_batch()
            if not batch:
                break
            seen_targets.append(sorted(s.target_epochs for s in batch))
            for s in batch:
                algo.report(
                    Observation(
                        s.trial_id, s.params, quadratic_score(s.params), 0.5, 1.0,
                        s.target_epochs,
                    )
                )
        assert seen_targets[0] == [2, 2, 2, 2]
        assert max(seen_targets[-1]) == 6

    def test_exploit_copies_from_top(self):
        algo = PopulationBasedTraining(
            toy_space(),
            population=4,
            segment_epochs=1,
            segments=2,
            truncation=0.25,
            seed=0,
        )
        batch = algo.next_batch()
        for i, s in enumerate(batch):
            algo.report(Observation(s.trial_id, s.params, float(i), 0.5, 1.0, 1))
        # bottom member must have been reset to a top member's epochs
        second = algo.next_batch()
        assert len(second) == 4

    def test_epochs_domain_ignored(self):
        algo = PopulationBasedTraining(toy_space(), population=3, segments=1)
        assert "epochs" not in algo.space

    def test_validation(self):
        with pytest.raises(ValueError):
            PopulationBasedTraining(toy_space(), population=1)
        with pytest.raises(ValueError):
            PopulationBasedTraining(toy_space(), truncation=0.6)
