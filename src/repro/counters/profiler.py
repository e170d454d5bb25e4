"""Epoch-granular workload profiler built on the simulated PMU.

PipeTune's profiling phase (§5.3) samples the event set every second
during an epoch and stores the per-epoch average — that average vector
is the workload's fingerprint used by the ground-truth phase.

:class:`EpochProfiler` reproduces that: it divides an epoch into 1 s
sampling windows, groups them into at most :data:`MAX_STRATA` strata,
reads all strata through one batched PMU call, averages, and produces
an :class:`EpochProfile` whose :meth:`~EpochProfile.feature_vector` is
the log-scaled representation consumed by the clustering similarity
function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..schema import positional_pickle
from ..workloads.spec import TrialConfig
from .events import EVENT_NAMES, NUM_EVENTS
from .pmu import Pmu

#: paper samples events every second (§5.3).
SAMPLE_PERIOD_S = 1.0

#: relative CPU overhead the profiler adds to a profiled epoch
#: (perf's sampling cost; kept small — §7.3 "profiling overhead").
PROFILING_OVERHEAD = 0.015

#: upper bound on sampling strata per epoch, i.e. on the rows of the
#: one batched PMU read per profiled epoch. Also the stride of the PMU
#: noise rows: epoch ``e`` reads rows ``e * MAX_STRATA`` onwards, one
#: per stratum, so the rows stay dense and never overlap across epochs.
MAX_STRATA = 8


@positional_pickle
@dataclass(slots=True)
class EpochProfile:
    """Averaged per-epoch event profile of one trial epoch."""

    workload: str
    epoch: int
    duration_s: float
    avg_events_per_s: np.ndarray  # shape (58,)
    samples: int

    def __post_init__(self):
        if self.avg_events_per_s.shape != (NUM_EVENTS,):
            raise ValueError("profile vector must have 58 entries")

    def feature_vector(self, normalise: bool = True) -> np.ndarray:
        """log-scaled event profile — the clustering feature space.

        Event rates span > 6 decades (Fig 2's colour scale), so raw
        rates would let a single event dominate Euclidean distances;
        we work in log10.

        With ``normalise=True`` (the default used by the ground-truth
        phase), each log-rate is taken relative to the instruction
        rate. Absolute rates scale with the number of busy cores, so a
        workload profiled at 4 cores would otherwise look nothing like
        itself profiled at 16 cores; instruction-relative rates cancel
        that factor while preserving the per-event mix that identifies
        the workload.
        """
        logs = np.log10(1.0 + np.maximum(0.0, self.avg_events_per_s))
        if not normalise:
            return logs
        from .events import event_index  # local import avoids a cycle

        return logs - logs[event_index("instructions")]

    def events_per_epoch(self) -> np.ndarray:
        """Average total occurrences per epoch (Fig 2's cell values)."""
        return self.avg_events_per_s * self.duration_s

    def as_dict(self) -> Dict[str, float]:
        return dict(zip(EVENT_NAMES, self.avg_events_per_s))


class EpochProfiler:
    """Samples the PMU at 1 Hz across an epoch and averages."""

    def __init__(self, pmu: Optional[Pmu] = None):
        self.pmu = pmu or Pmu()

    def overhead_factor(self) -> float:
        """Multiplier on epoch duration while profiling is active."""
        return 1.0 + PROFILING_OVERHEAD

    def profile_epoch(
        self,
        config: TrialConfig,
        epoch: int,
        duration_s: float,
        busy_cores: float,
        noisy: bool = True,
    ) -> EpochProfile:
        """Profile one epoch of a trial.

        The epoch is split into ceil(duration) one-second windows (the
        last one possibly fractional). Sampling every simulated second
        individually would dominate run time for minute-long epochs;
        counts are linear in window length, so the windows are grouped
        into at most :data:`MAX_STRATA` equal strata, each keeping its
        own multiplexing noise. All strata are read in one PMU call
        (one row per stratum), summed stratum by stratum, and the
        profile stores the average rate.
        """
        if duration_s <= 0:
            raise ValueError("epoch duration must be positive")
        windows = max(1, math.ceil(duration_s / SAMPLE_PERIOD_S))
        strata = min(windows, MAX_STRATA)
        spans = np.empty(strata)
        remaining = duration_s
        for s in range(strata):
            spans[s] = span = remaining / (strata - s)
            remaining -= span
        counts = self.pmu.final_counts_batch(
            config, spans, busy_cores, epoch * MAX_STRATA, noisy
        )
        # Row by row, as a running total from zero (counts are never -0.0).
        total = np.add.reduce(counts, axis=0)
        return EpochProfile(
            workload=config.workload.name,
            epoch=epoch,
            duration_s=duration_s,
            avg_events_per_s=total / duration_s,
            samples=windows,
        )


def average_profiles(profiles: List[EpochProfile]) -> np.ndarray:
    """Mean feature vector over several epoch profiles: the two ufuncs
    ``np.mean`` calls, without its Python-level dispatch."""
    if not profiles:
        raise ValueError("need at least one profile")
    stack = np.array([p.feature_vector() for p in profiles])
    return np.add.reduce(stack, axis=0) / len(profiles)
