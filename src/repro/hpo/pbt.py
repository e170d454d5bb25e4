"""Population-Based Training (Jaderberg et al., 2017).

A population trains in parallel for fixed-length epoch segments; after
every segment the bottom quantile *exploits* (copies the params and
checkpoint of a top performer) and *explores* (perturbs the copied
hyperparameters). Mentioned in the paper's survey of tuning techniques
(§1); included for completeness of the tuning library.

Parameters that cannot change mid-training (``batch_size`` is the only
one in the paper space that plausibly could; we allow all, as Tune
does) are perturbed by resampling or scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .algorithms import Observation, SearchAlgorithm, Suggestion
from .space import SearchSpace


@dataclass
class _Member:
    trial_id: str
    params: Dict
    epochs_done: int
    last_score: float = float("-inf")


class PopulationBasedTraining(SearchAlgorithm):
    """Synchronous PBT with truncation selection."""

    def __init__(
        self,
        space: SearchSpace,
        population: int = 8,
        segment_epochs: int = 3,
        segments: int = 4,
        truncation: float = 0.25,
        perturb_factor: float = 1.2,
        resample_prob: float = 0.25,
        seed: int = 0,
    ):
        if population < 2:
            raise ValueError("population must be >= 2")
        if not 0 < truncation < 0.5:
            raise ValueError("truncation must be in (0, 0.5)")
        sampling_space = space.without("epochs") if "epochs" in space else space
        super().__init__(sampling_space, seed=seed)
        self.population = population
        self.segment_epochs = segment_epochs
        self.segments = segments
        self.truncation = truncation
        self.perturb_factor = perturb_factor
        self.resample_prob = resample_prob
        self._members: List[_Member] = []
        self._segment = 0
        self._segment_results: List[Observation] = []

    def _explore(self, params: Dict) -> Dict:
        """Perturb each hyperparameter (scale or resample)."""
        out = {}
        for name, domain in self.space.domains.items():
            value = params[name]
            if self._rng.random() < self.resample_prob:
                out[name] = domain.sample(self._rng)
                continue
            factor = (
                self.perturb_factor
                if self._rng.random() < 0.5
                else 1.0 / self.perturb_factor
            )
            try:
                out[name] = domain.clip(value * factor)
            except TypeError:
                out[name] = domain.sample(self._rng)
        return out

    def _exploit_and_explore(self) -> None:
        """Replace the bottom quantile by perturbed copies of the top."""
        count = max(1, int(self.population * self.truncation))
        ranked = sorted(self._members, key=lambda m: m.last_score, reverse=True)
        top, bottom = ranked[:count], ranked[-count:]
        for loser in bottom:
            winner = top[int(self._rng.integers(0, len(top)))]
            loser.params = self._explore(winner.params)
            loser.epochs_done = winner.epochs_done

    def next_batch(self) -> List[Suggestion]:
        if self._pending or self._segment >= self.segments:
            return []
        if self._segment == 0:
            self._members = [
                _Member(
                    trial_id=self._new_id("pbt"),
                    params=self.space.sample(self._rng),
                    epochs_done=0,
                )
                for _ in range(self.population)
            ]
        else:
            self._exploit_and_explore()
        self._segment_results = []
        self._segment += 1
        batch = []
        for member in self._members:
            target = member.epochs_done + self.segment_epochs
            batch.append(
                self._issue(
                    Suggestion(
                        trial_id=member.trial_id,
                        params=dict(member.params),
                        target_epochs=target,
                        start_epoch=member.epochs_done,
                        tag=f"segment{self._segment - 1}",
                    )
                )
            )
        return batch

    def report(self, observation: Observation) -> None:
        super().report(observation)
        self._segment_results.append(observation)
        for member in self._members:
            if member.trial_id == observation.trial_id:
                member.epochs_done = observation.epochs_run
                member.last_score = observation.score
                break
        else:
            raise KeyError(f"observation for unknown member {observation.trial_id}")

    @property
    def done(self) -> bool:
        return self._segment >= self.segments and not self._pending
