"""Search-algorithm interface plus random search.

All algorithms in this package implement the same narrow-waist
interface (mirroring Tune's scheduler/search split, §2):

* :meth:`SearchAlgorithm.next_batch` returns :class:`Suggestion`
  objects to execute (possibly resuming checkpointed trials);
* :meth:`SearchAlgorithm.report` feeds back one finished suggestion;
* :attr:`SearchAlgorithm.done` signals exhaustion.

Scores are always *maximised*; the objective functions live in
:mod:`repro.tune.objectives`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List

from ..workloads.spec import rng_for
from .space import SearchSpace


@dataclass
class Suggestion:
    """One unit of work for the trial runner.

    ``start_epoch`` > 0 means: resume the trial from a checkpoint
    (an earlier rung of HyperBand or ASHA) and train until
    ``target_epochs``.
    """

    trial_id: str
    params: Dict
    target_epochs: int
    start_epoch: int = 0
    tag: str = ""

    def __post_init__(self):
        if self.target_epochs <= self.start_epoch:
            raise ValueError("target_epochs must exceed start_epoch")


@dataclass
class Observation:
    """Feedback for one completed suggestion: its score and the
    cumulative epochs its checkpoint holds."""

    trial_id: str
    score: float
    epochs_run: int


class SearchAlgorithm:
    """Base class; subclasses override :meth:`next_batch` / :meth:`report`."""

    def __init__(self, space: SearchSpace, seed: int = 0):
        self.space = space
        self.seed = seed
        self._rng = rng_for("hpo-search", seed)
        self._pending: Dict[str, Suggestion] = {}
        self._ids = itertools.count()

    # -- subclass API --------------------------------------------------------
    def next_batch(self) -> List[Suggestion]:
        raise NotImplementedError

    @property
    def done(self) -> bool:
        raise NotImplementedError

    # -- shared plumbing -------------------------------------------------------
    def _new_id(self, prefix: str) -> str:
        return f"{prefix}-{next(self._ids):04d}"

    def _issue(self, suggestion: Suggestion) -> Suggestion:
        self._pending[suggestion.trial_id] = suggestion
        return suggestion

    def report(self, observation: Observation) -> None:
        if observation.trial_id not in self._pending:
            raise KeyError(f"unknown/finished trial {observation.trial_id!r}")
        del self._pending[observation.trial_id]

    @property
    def pending_count(self) -> int:
        return len(self._pending)


class RandomSearch(SearchAlgorithm):
    """IID random sampling (Bergstra & Bengio, 2012)."""

    def __init__(
        self,
        space: SearchSpace,
        num_samples: int = 20,
        epochs: int = 10,
        seed: int = 0,
    ):
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        super().__init__(space, seed=seed)
        self.num_samples = num_samples
        self._default_epochs = epochs
        self._emitted = 0

    def next_batch(self) -> List[Suggestion]:
        batch = []
        while self._emitted < self.num_samples:
            config = self.space.sample(self._rng)
            self._emitted += 1
            epochs = int(config.get("epochs", self._default_epochs))
            batch.append(
                self._issue(
                    Suggestion(
                        trial_id=self._new_id("rand"),
                        params=config,
                        target_epochs=epochs,
                        tag="random",
                    )
                )
            )
        return batch

    @property
    def done(self) -> bool:
        return self._emitted >= self.num_samples and not self._pending
