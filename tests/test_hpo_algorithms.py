"""Tests for the search algorithms (random search and HyperBand; ASHA
has its own file)."""

import math

import pytest

from repro.hpo.algorithms import Observation, RandomSearch, Suggestion
from repro.hpo.hyperband import HyperBand
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


def drive(algorithm, score_fn):
    """Run an algorithm to exhaustion against a synthetic objective;
    returns the suggestions it ran, in order."""
    ran = []
    while not algorithm.done:
        batch = algorithm.next_batch()
        if not batch:
            break
        for suggestion in batch:
            algorithm.report(
                Observation(
                    trial_id=suggestion.trial_id,
                    score=score_fn(suggestion.params),
                    epochs_run=suggestion.target_epochs,
                )
            )
            ran.append(suggestion)
    return ran


class TestSuggestion:
    def test_target_must_exceed_start(self):
        with pytest.raises(ValueError):
            Suggestion(trial_id="t", params={}, target_epochs=3, start_epoch=3)

    def test_resume_from_a_checkpoint(self):
        resumed = Suggestion(trial_id="t", params={}, target_epochs=9, start_epoch=3)
        assert resumed.start_epoch == 3 and resumed.target_epochs == 9


class TestRandomSearch:
    def test_emits_exactly_num_samples(self):
        algo = RandomSearch(toy_space(), num_samples=13)
        assert len(drive(algo, quadratic_score)) == 13
        assert algo.done

    def test_samples_within_domains(self):
        algo = RandomSearch(toy_space(), num_samples=30)
        for suggestion in drive(algo, quadratic_score):
            assert 0.0 <= suggestion.params["x"] <= 1.0
            assert 0.01 <= suggestion.params["y"] <= 1.0

    def test_seeded_reproducibility(self):
        a = drive(RandomSearch(toy_space(), num_samples=5, seed=3), quadratic_score)
        b = drive(RandomSearch(toy_space(), num_samples=5, seed=3), quadratic_score)
        assert [o.params for o in a] == [o.params for o in b]

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomSearch(toy_space(), num_samples=0)

    def test_done_requires_reports(self):
        algo = RandomSearch(toy_space(), num_samples=1)
        algo.next_batch()
        assert not algo.done
        assert algo.pending_count == 1

    def test_report_unknown_trial_raises(self):
        algo = RandomSearch(toy_space(), num_samples=1)
        with pytest.raises(KeyError):
            algo.report(Observation("ghost", 0.0, 1))

    def test_report_twice_raises(self):
        algo = RandomSearch(toy_space(), num_samples=1)
        (suggestion,) = algo.next_batch()
        algo.report(Observation(suggestion.trial_id, 0.0, 2))
        with pytest.raises(KeyError):
            algo.report(Observation(suggestion.trial_id, 0.0, 2))

    def test_epochs_axis_drives_trial_length(self):
        algo = RandomSearch(toy_space(), num_samples=20)
        ran = drive(algo, quadratic_score)
        for suggestion in ran:
            assert suggestion.target_epochs == suggestion.params["epochs"]
            assert suggestion.start_epoch == 0
        assert {s.target_epochs for s in ran} == {2, 4}

    def test_default_epochs_without_an_epochs_axis(self):
        space = toy_space().without("epochs")
        algo = RandomSearch(space, num_samples=4, epochs=7)
        assert [s.target_epochs for s in drive(algo, quadratic_score)] == [7] * 4

    def test_issues_every_sample_in_one_batch(self):
        algo = RandomSearch(toy_space(), num_samples=6)
        batch = algo.next_batch()
        assert len(batch) == 6
        assert len({s.trial_id for s in batch}) == 6
        assert algo.next_batch() == []
        assert algo.pending_count == 6


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
            algo.report(Observation(s.trial_id, float(i), s.target_epochs))
        rung1 = algo.next_batch()
        promoted = {s.trial_id for s in rung1}
        expected = {t for t, sc in sorted(scores.items(), key=lambda kv: -kv[1])[:3]}
        assert promoted == expected

    def test_promoted_trials_resume_from_checkpoint(self):
        algo = HyperBand(toy_space(), max_epochs=9, eta=3, seed=1)
        rung0 = algo.next_batch()
        for s in rung0:
            algo.report(Observation(s.trial_id, 1.0, s.target_epochs))
        rung1 = algo.next_batch()
        for s in rung1:
            assert s.start_epoch == 1
            assert s.target_epochs == 3

    def test_runs_to_completion(self):
        algo = HyperBand(toy_space(), max_epochs=9, eta=3, seed=0)
        ran = drive(algo, quadratic_score)
        assert algo.done
        # bracket sizes for R=9, eta=3: 9 + 5 + 3 starts
        starts = {s.trial_id for s in ran}
        assert len(starts) == total_configs(algo) == 9 + 5 + 3

    def test_waits_for_pending_rung(self):
        algo = HyperBand(toy_space(), max_epochs=9, eta=3)
        algo.next_batch()
        assert algo.next_batch() == []  # rung still pending

    def test_done_requires_reports(self):
        algo = HyperBand(toy_space(), max_epochs=3, eta=3)
        batch = algo.next_batch()
        assert not algo.done
        assert algo.pending_count == len(batch)

    def test_report_unknown_trial_raises(self):
        algo = HyperBand(toy_space(), max_epochs=9, eta=3)
        algo.next_batch()
        with pytest.raises(KeyError):
            algo.report(Observation("ghost", 0.0, 1))

    def test_promoted_trials_keep_their_params(self):
        algo = HyperBand(toy_space(), max_epochs=9, eta=3, seed=2)
        first_seen = {}
        for suggestion in drive(algo, quadratic_score):
            params = first_seen.setdefault(suggestion.trial_id, suggestion.params)
            assert suggestion.params == params

    def test_seeded_reproducibility(self):
        a = drive(HyperBand(toy_space(), max_epochs=9, eta=3, seed=5), quadratic_score)
        b = drive(HyperBand(toy_space(), max_epochs=9, eta=3, seed=5), quadratic_score)
        assert [(s.trial_id, s.params, s.target_epochs) for s in a] == [
            (s.trial_id, s.params, s.target_epochs) for s in b
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            HyperBand(toy_space(), max_epochs=0)
        with pytest.raises(ValueError):
            HyperBand(toy_space(), eta=1)
        with pytest.raises(ValueError):
            HyperBand(toy_space(), sample_scale=0.0)
