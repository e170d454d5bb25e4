"""HyperBand (Li et al., JMLR 2017) — the paper's default scheduler (§6).

HyperBand runs ``s_max + 1`` brackets of successive halving. Bracket
``s`` starts ``n = ceil((s_max+1) / (s+1) * eta**s)`` configurations at
``r = R * eta**-s`` epochs each; after every rung only the top ``1/eta``
fraction (by score) survives and trains ``eta`` times longer, resuming
from its checkpoint.

The paper's search space contains an ``epochs`` hyperparameter, but
HyperBand itself owns the epoch budget — so like Ray Tune, the
``epochs`` domain is ignored during sampling and the rung resource is
used instead (a trial that survives every rung trains for ``R`` epochs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from .algorithms import Observation, SearchAlgorithm, Suggestion
from .space import SearchSpace


@dataclass
class _Rung:
    """One successive-halving rung within a bracket."""

    epochs: int
    survivors: int
    results: List[Observation] = field(default_factory=list)
    launched: bool = False


@dataclass
class _Bracket:
    index: int
    rungs: List[_Rung]
    configs: List[Dict] = field(default_factory=list)
    rung_cursor: int = 0

    @property
    def finished(self) -> bool:
        return self.rung_cursor >= len(self.rungs)


class HyperBand(SearchAlgorithm):
    """Bandit-based early stopping over successive-halving brackets."""

    def __init__(
        self,
        space: SearchSpace,
        max_epochs: int = 27,
        eta: int = 3,
        sample_scale: float = 1.0,
        seed: int = 0,
    ):
        if max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if eta < 2:
            raise ValueError("eta must be >= 2")
        if sample_scale <= 0:
            raise ValueError("sample_scale must be positive")
        sampling_space = space.without("epochs") if "epochs" in space else space
        super().__init__(sampling_space, seed=seed)
        self.max_epochs = max_epochs
        self.eta = eta
        #: multiplier on per-bracket sample counts. Larger search
        #: spaces need proportionally more configurations for the same
        #: coverage — the paper's Tune V2 (hyper + system space)
        #: explores more than Tune V1 for this reason (§7.3).
        self.sample_scale = sample_scale
        self.s_max = int(math.log(max_epochs, eta))
        self._brackets = [self._build_bracket(s) for s in range(self.s_max, -1, -1)]
        self._bracket_cursor = 0
        #: checkpointed progress per trial id (epochs already trained)
        self._checkpoints: Dict[str, int] = {}
        #: params per trial id (stable across rungs)
        self._params: Dict[str, Dict] = {}

    def _build_bracket(self, s: int) -> _Bracket:
        n = math.ceil((self.s_max + 1) / (s + 1) * self.eta**s * self.sample_scale)
        r = self.max_epochs * self.eta**-s
        rungs = []
        for i in range(s + 1):
            epochs = int(round(r * self.eta**i))
            survivors = max(1, int(n * self.eta**-i))
            rungs.append(_Rung(epochs=max(1, epochs), survivors=survivors))
        return _Bracket(index=s, rungs=rungs)

    # ------------------------------------------------------------------
    def next_batch(self) -> List[Suggestion]:
        if self._pending:
            return []  # wait for the current rung to drain
        while self._bracket_cursor < len(self._brackets):
            bracket = self._brackets[self._bracket_cursor]
            if bracket.finished:
                self._bracket_cursor += 1
                continue
            rung = bracket.rungs[bracket.rung_cursor]
            if rung.launched:
                # rung complete (report() advanced us past pending)
                self._advance_rung(bracket)
                continue
            suggestions = self._launch_rung(bracket, rung)
            if not suggestions:
                # No survivors reached this rung: skip it.
                self._advance_rung(bracket)
                continue
            return suggestions
        return []

    def _launch_rung(self, bracket: _Bracket, rung: _Rung) -> List[Suggestion]:
        rung.launched = True
        suggestions = []
        if bracket.rung_cursor == 0:
            count = rung.survivors
            for _ in range(count):
                trial_id = self._new_id(f"hb{bracket.index}")
                params = self.space.sample(self._rng)
                self._params[trial_id] = params
                self._checkpoints[trial_id] = 0
                suggestions.append(
                    Suggestion(
                        trial_id=trial_id,
                        params=params,
                        target_epochs=rung.epochs,
                        start_epoch=0,
                        tag=f"bracket{bracket.index}/rung0",
                    )
                )
        else:
            previous = bracket.rungs[bracket.rung_cursor - 1]
            ranked = sorted(previous.results, key=lambda o: o.score, reverse=True)
            for obs in ranked[: rung.survivors]:
                start = self._checkpoints[obs.trial_id]
                suggestions.append(
                    Suggestion(
                        trial_id=obs.trial_id,
                        params=self._params[obs.trial_id],
                        target_epochs=max(rung.epochs, start + 1),
                        start_epoch=start,
                        tag=f"bracket{bracket.index}/rung{bracket.rung_cursor}",
                    )
                )
        for s in suggestions:
            self._issue(s)
        return suggestions

    def _advance_rung(self, bracket: _Bracket) -> None:
        bracket.rung_cursor += 1

    def report(self, observation: Observation) -> None:
        super().report(observation)
        self._checkpoints[observation.trial_id] = observation.epochs_run
        bracket = self._brackets[self._bracket_cursor]
        rung = bracket.rungs[bracket.rung_cursor]
        rung.results.append(observation)
        if not self._pending:
            self._advance_rung(bracket)

    @property
    def done(self) -> bool:
        return (
            self._bracket_cursor >= len(self._brackets)
            or all(b.finished for b in self._brackets)
        ) and not self._pending
