"""ASHA — Asynchronous Successive Halving (Li et al., MLSys 2020).

HyperBand's rungs are synchronisation barriers: a rung cannot promote
until its slowest trial finishes. ASHA removes the barrier — a trial is
promoted the moment it is in the top ``1/eta`` of *whatever has been
observed so far* at its rung — which keeps the cluster busy and suits
PipeTune's pipelined philosophy. The paper lists its scheduler as
swappable (§6: "Tune allows to switch among the available ones, as
well as to implement new ones"); ASHA is the natural next one.

Implementation notes: the algorithm emits one suggestion at a time
(the runner may hold many in flight); on every report it either
promotes the reported trial to the next rung or samples a fresh
configuration at the base rung.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .algorithms import Observation, SearchAlgorithm, Suggestion
from .space import SearchSpace


@dataclass
class _RungEntry:
    trial_id: str
    score: float
    promoted: bool = False


class Asha(SearchAlgorithm):
    """Asynchronous successive halving over an epoch budget."""

    def __init__(
        self,
        space: SearchSpace,
        max_epochs: int = 9,
        eta: int = 3,
        num_samples: int = 20,
        seed: int = 0,
    ):
        if max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if eta < 2:
            raise ValueError("eta must be >= 2")
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        sampling_space = space.without("epochs") if "epochs" in space else space
        super().__init__(sampling_space, seed=seed)
        self.max_epochs = max_epochs
        self.eta = eta
        self.num_samples = num_samples
        #: rung index -> epochs trained when the rung is reached
        self.rung_epochs = self._build_rungs()
        #: rung index -> observed entries
        self._rungs: Dict[int, List[_RungEntry]] = {
            i: [] for i in range(len(self.rung_epochs))
        }
        self._params: Dict[str, Dict] = {}
        self._trial_rung: Dict[str, int] = {}
        self._sampled = 0
        self._inflight_promotions: List[Suggestion] = []

    def _build_rungs(self) -> List[int]:
        rungs = []
        epochs = 1
        while epochs < self.max_epochs:
            rungs.append(epochs)
            epochs *= self.eta
        rungs.append(self.max_epochs)
        return rungs

    # -- promotion logic ---------------------------------------------------
    def _promotable(self, rung: int) -> Optional[_RungEntry]:
        """Top-1/eta entry of a rung that has not been promoted yet."""
        if rung >= len(self.rung_epochs) - 1:
            return None
        entries = self._rungs[rung]
        if not entries:
            return None
        keep = max(1, len(entries) // self.eta)
        ranked = sorted(entries, key=lambda e: e.score, reverse=True)
        for entry in ranked[:keep]:
            if not entry.promoted:
                return entry
        return None

    def _promotion_suggestion(self) -> Optional[Suggestion]:
        for rung in range(len(self.rung_epochs) - 2, -1, -1):
            entry = self._promotable(rung)
            if entry is None:
                continue
            entry.promoted = True
            next_rung = rung + 1
            self._trial_rung[entry.trial_id] = next_rung
            return Suggestion(
                trial_id=entry.trial_id,
                params=self._params[entry.trial_id],
                target_epochs=self.rung_epochs[next_rung],
                start_epoch=self.rung_epochs[rung],
                tag=f"asha-rung{next_rung}",
            )
        return None

    def _fresh_suggestion(self) -> Optional[Suggestion]:
        if self._sampled >= self.num_samples:
            return None
        self._sampled += 1
        trial_id = self._new_id("asha")
        params = self.space.sample(self._rng)
        self._params[trial_id] = params
        self._trial_rung[trial_id] = 0
        return Suggestion(
            trial_id=trial_id,
            params=params,
            target_epochs=self.rung_epochs[0],
            start_epoch=0,
            tag="asha-rung0",
        )

    # -- SearchAlgorithm interface -------------------------------------------
    def next_batch(self) -> List[Suggestion]:
        batch: List[Suggestion] = []
        while True:
            suggestion = self._promotion_suggestion() or self._fresh_suggestion()
            if suggestion is None:
                break
            batch.append(self._issue(suggestion))
        return batch

    def report(self, observation: Observation) -> None:
        super().report(observation)
        rung = self._trial_rung[observation.trial_id]
        self._rungs[rung].append(
            _RungEntry(trial_id=observation.trial_id, score=observation.score)
        )

    @property
    def done(self) -> bool:
        if self._pending or self._sampled < self.num_samples:
            return False
        # finished when no promotion remains actionable
        return all(
            self._promotable(r) is None for r in range(len(self.rung_epochs) - 1)
        )
