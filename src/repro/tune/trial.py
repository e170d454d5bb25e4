"""Trial state: per-epoch records and final results.

A *trial* is a single training run with a fixed hyperparameter
configuration (paper §5.2); PipeTune additionally varies the *system*
configuration across the trial's epochs, which is why every epoch
record carries its own :class:`~repro.workloads.spec.SystemParams`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..counters.profiler import EpochProfile
from ..schema import positional_pickle
from ..workloads.spec import HyperParams, SystemParams, WorkloadSpec


@positional_pickle
@dataclass(slots=True)
class EpochRecord:
    """Everything observed during one training epoch."""

    epoch: int  # 1-based index within the whole trial
    duration_s: float
    accuracy: float
    system: SystemParams
    energy_j: float
    profiled: bool = False
    probed: bool = False
    profile: Optional[EpochProfile] = None


@positional_pickle
@dataclass(slots=True)
class TrialResult:
    """Outcome of one trial segment (possibly resumed from a checkpoint)."""

    trial_id: str
    workload: WorkloadSpec
    hyper: HyperParams
    final_system: SystemParams
    accuracy: float
    training_time_s: float
    energy_j: float
    epochs_run: int  # cumulative epochs including resumed prefix
    start_time: float
    end_time: float
    records: List[EpochRecord] = field(default_factory=list)

    @property
    def wall_time_s(self) -> float:
        return self.end_time - self.start_time

    def mean_epoch_time_s(self) -> float:
        """Average epoch duration observed at the final system config."""
        if not self.records:
            return 0.0
        final = self.final_system
        final_system_records = [
            r for r in self.records if r.system is final or r.system == final
        ] or self.records
        return sum(r.duration_s for r in final_system_records) / len(
            final_system_records
        )

    def full_training_time_estimate(self) -> float:
        """Estimated time to train from scratch at the final settings.

        Used when a checkpoint-resumed trial wins the tuning job and
        the 'training duration of the achieved model' must be reported
        (paper Fig 11b): mean epoch time at the final system
        configuration times the total epoch count.
        """
        if not self.records:
            return self.training_time_s
        return self.mean_epoch_time_s() * self.epochs_run
