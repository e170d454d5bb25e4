"""Declarative fault model: what the hostile world does to trials.

Real clusters are not the paper's well-behaved testbed: spot instances
get preempted, nodes churn, trials crash for transient reasons, and
some placements simply run slow. This module declares those faults as
frozen, JSON-round-trippable specs and draws every injection from
counter-keyed Philox streams keyed on ``(fault spec repr, trial id,
attempt, epoch)`` (:func:`~repro.workloads.spec.stable_seed`) — never on
draw order or process identity — so an injected fault schedule is
bit-identical under any execution backend and any worker count. A
trial reads them once per attempt, via the memoized
:meth:`FaultModel.schedule`.

The split of responsibilities mirrors the RAFDA separation the
scenario layer is built on: *declaration* lives here (and in
:class:`~repro.scenarios.spec.FailureSpec`), *injection* happens in
:func:`~repro.tune.trainer.run_trial` (which raises the matching
:mod:`~repro.tune.errors` exception mid-epoch), and *recovery policy*
lives in :class:`~repro.tune.runner.HptJobRunner` (checkpoint restore,
reschedule, retry with backoff — all in simulated time).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

from ..schema import Spec, positional_pickle
from ..workloads.spec import _cache_repr, _keyed_draw, key_reprs, repr_seed, rng_for

#: fixed injection precedence within one epoch: at most one fault
#: fires per epoch, the first matching kind wins.
FAULT_KINDS = ("preemption", "churn", "crash")


@dataclass(frozen=True)
class RetryPolicy(Spec):
    """Per-job recovery policy for transient trial crashes.

    ``backoff_s(i)`` is the simulated wait before re-running a crashed
    trial for the ``i``-th time (0-based): exponential backoff,
    ``backoff_base_s * backoff_factor ** i``.
    """

    max_retries: int = 2
    backoff_base_s: float = 30.0
    backoff_factor: float = 2.0

    def backoff_s(self, retry_index: int) -> float:
        return self.backoff_base_s * self.backoff_factor**retry_index

    def problems(self, where: str = "retry policy") -> List[str]:
        issues = []
        if self.max_retries < 0:
            issues.append(f"{where}: max_retries must be >= 0")
        if self.backoff_base_s < 0:
            issues.append(f"{where}: backoff_base_s must be >= 0")
        if self.backoff_factor < 1.0:
            issues.append(f"{where}: backoff_factor must be >= 1")
        return issues


@dataclass(frozen=True)
class PreemptionSpec(Spec):
    """Spot-instance preemption with checkpoint/restore.

    Each epoch the trial survives with probability
    ``1 - rate_per_epoch``; on preemption it loses the work since its
    last checkpoint (taken every ``checkpoint_every_epochs`` completed
    epochs) and the runner resumes it from that checkpoint after
    paying ``restore_cost_s`` of simulated restore time (``None``
    defers to the EC2 cost seam,
    :data:`repro.ec2.pricing.CHECKPOINT_RESTORE_S`). ``max_events``
    bounds recoveries per trial; one preemption beyond it fails the
    trial for good.
    """

    rate_per_epoch: float = 0.05
    checkpoint_every_epochs: int = 3
    restore_cost_s: Optional[float] = None
    max_events: int = 4

    @property
    def effective_restore_cost_s(self) -> float:
        if self.restore_cost_s is not None:
            return self.restore_cost_s
        from ..ec2.pricing import CHECKPOINT_RESTORE_S

        return CHECKPOINT_RESTORE_S

    def problems(self, where: str = "preemption") -> List[str]:
        issues = []
        if not 0.0 <= self.rate_per_epoch <= 1.0:
            issues.append(f"{where}: rate_per_epoch must be in [0, 1]")
        if self.checkpoint_every_epochs < 1:
            issues.append(f"{where}: checkpoint_every_epochs must be >= 1")
        if self.restore_cost_s is not None and self.restore_cost_s < 0:
            issues.append(f"{where}: restore_cost_s must be >= 0")
        if self.max_events < 0:
            issues.append(f"{where}: max_events must be >= 0")
        return issues


@dataclass(frozen=True)
class ChurnSpec(Spec):
    """Node churn: the trial's node leaves the cluster mid-epoch.

    Unlike preemption there is no checkpoint to restore — the trial's
    local state is gone and the runner reschedules it from the start
    of its current segment after ``reschedule_delay_s`` of simulated
    placement delay. ``max_events`` bounds reschedules per trial.
    """

    rate_per_epoch: float = 0.03
    reschedule_delay_s: float = 120.0
    max_events: int = 2

    def problems(self, where: str = "churn") -> List[str]:
        issues = []
        if not 0.0 <= self.rate_per_epoch <= 1.0:
            issues.append(f"{where}: rate_per_epoch must be in [0, 1]")
        if self.reschedule_delay_s < 0:
            issues.append(f"{where}: reschedule_delay_s must be >= 0")
        if self.max_events < 0:
            issues.append(f"{where}: max_events must be >= 0")
        return issues


@dataclass(frozen=True)
class CrashSpec(Spec):
    """Transient trial crashes (OOM-killer races, executor hiccups).

    A crashed trial is retried from the start of its segment according
    to the job's :class:`RetryPolicy`; without one, a single crash
    fails the trial.
    """

    rate_per_epoch: float = 0.02

    def problems(self, where: str = "crash") -> List[str]:
        if not 0.0 <= self.rate_per_epoch <= 1.0:
            return [f"{where}: rate_per_epoch must be in [0, 1]"]
        return []


@dataclass(frozen=True)
class StragglerSpec(Spec):
    """Straggler placements: a fraction of trials runs slowed down.

    Whether a (trial, attempt) is a straggler is drawn once per
    attempt — re-placement after a fault re-rolls the dice — and a
    straggler's every epoch takes ``slowdown`` times longer.
    """

    fraction: float = 0.1
    slowdown: float = 2.0

    def problems(self, where: str = "straggler") -> List[str]:
        issues = []
        if not 0.0 <= self.fraction <= 1.0:
            issues.append(f"{where}: fraction must be in [0, 1]")
        if self.slowdown < 1.0:
            issues.append(f"{where}: slowdown must be >= 1")
        return issues


@positional_pickle
@dataclass(frozen=True)
class FaultEvent:
    """One injected fault and what the runner did about it."""

    trial_id: str
    kind: str  # one of FAULT_KINDS
    epoch: int
    at: float  # simulated time of the injection
    attempt: int
    action: str  # "resumed" | "restarted" | "retried" | "gave-up"


@_cache_repr
@dataclass(frozen=True)
class FaultModel:
    """The active fault kinds of one job, all optional.

    Deterministic by construction: every draw is keyed on the spec's
    repr, the trial id, the attempt number and the epoch — identical
    whether the trial runs serially, pooled, or resumed in a different
    process. :meth:`straggler_slowdown` and :meth:`schedule`'s
    per-epoch ``(hit, fraction)`` pairs are the draws; :meth:`schedule`
    is one memoized scan of them per attempt.
    """

    preemption: Optional[PreemptionSpec] = None
    churn: Optional[ChurnSpec] = None
    crash: Optional[CrashSpec] = None
    straggler: Optional[StragglerSpec] = None

    @property
    def active(self) -> bool:
        return any((self.preemption, self.churn, self.crash, self.straggler))

    def spec_for(self, kind: str):
        return getattr(self, kind)

    def straggler_slowdown(self, trial_id: str, attempt: int) -> float:
        """This attempt's epoch-duration multiplier (1.0 = healthy)."""
        spec = self.straggler
        if spec is None or spec.fraction <= 0.0:
            return 1.0
        stream = rng_for("fault", "straggler", repr(spec), trial_id, attempt)
        if stream.random() < spec.fraction:
            return spec.slowdown
        return 1.0

    def schedule(
        self, trial_id: str, attempt: int, first: int, last: int
    ) -> Tuple[float, Optional[Tuple[int, str, float]]]:
        """This attempt's straggler slowdown and the first fault firing
        in epochs ``first..last`` as ``(epoch, kind, fraction)``, or
        None, memoized per process. At most one fault fires per epoch,
        the first matching kind in :data:`FAULT_KINDS` order; the
        fraction is how far into the epoch it strikes (partial work is
        still paid for in simulated time)."""
        if not self.active:
            return 1.0, None
        return _schedule(repr(self), self, trial_id, attempt, first, last)

    def problems(self, where: str = "faults") -> List[str]:
        issues: List[str] = []
        for kind in FAULT_KINDS + ("straggler",):
            spec = self.spec_for(kind)
            if spec is not None:
                issues.extend(spec.problems(where=f"{where}.{kind}"))
        return issues


@lru_cache(maxsize=1024, typed=True)
def _schedule(
    key: str, model: FaultModel, trial_id: str, attempt: int, first: int, last: int
) -> Tuple[float, Optional[Tuple[int, str, float]]]:
    """:meth:`FaultModel.schedule`'s memo, keyed on the model's repr:
    ``CrashSpec(rate_per_epoch=1)`` and ``1.0`` are equal but key
    different streams (``typed`` does the same for the other keys).

    A full exhibit pass fills 482 entries and the service mix's two
    hostile jobs 215, so 1,024 holds either twice. A/B on a 2-vCPU
    host, ``perfbench/run.py --seconds 20``, 10 alternating pairs:
    ``service-closed-loop`` cold_ms median 50.5 -> 36.9 ms (10/10),
    and a warm exhibit pass builds 163 Philox streams, not 5,352.
    """
    slowdown = model.straggler_slowdown(trial_id, attempt)
    # Each epoch's draw is keyed on stable_seed("fault", kind, repr(spec),
    # trial_id, attempt, epoch); the reprs before the epoch are made once.
    active = []
    for kind in FAULT_KINDS:
        spec = model.spec_for(kind)
        if spec is not None and spec.rate_per_epoch > 0.0:
            prefix = key_reprs("fault", kind, repr(spec), trial_id, attempt)
            active.append((kind, spec.rate_per_epoch, prefix))
    for epoch in range(first, last + 1):
        for kind, rate, prefix in active:
            key = repr_seed((*prefix, repr(epoch)))
            hit, fraction = _keyed_draw(key, "random", 2)
            if hit < rate:
                return slowdown, (epoch, kind, float(fraction))
    return slowdown, None
