"""Simulated Performance Monitoring Unit with counter multiplexing.

The paper (§5.3) profiles 58 events on CPUs with only **2 generic and 3
fixed** hardware counters. The kernel time-multiplexes events over the
generic counters, and undercounted events are rescaled at read time:

``final_count = raw_count * time_enabled / time_running``

This module reproduces that pipeline: the *true* event count for an
interval comes from the workload signature and the work performed; the
PMU observes each event only for its share of the interval, and the
rescaling estimate adds a small blind-spot error (the paper's §5.3
caveat). The three fixed-counter events are measured continuously and
exactly.

Every read goes through one vector kernel over a run of consecutive
intervals, one row per interval: interval ``k`` of a run that starts at
noise row ``r`` draws noise row ``r + k``. A single-interval read is
the one-row case, so a profiled epoch and a lone read share one code
path and the same IEEE operations per element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..workloads.noise import noise_matrix
from ..workloads.perfmodel import memory_penalty
from ..workloads.spec import TrialConfig
from .events import (
    EVENT_NAMES,
    FIXED_COUNTER_EVENTS,
    MISSY_MASK,
    NUM_EVENTS,
    workload_signature,
)

#: hardware counter inventory of the simulated CPU (paper §5.3).
NUM_FIXED_COUNTERS = 3
NUM_GENERIC_COUNTERS = 2

_FIXED_EVENTS = frozenset(e for e in FIXED_COUNTER_EVENTS if e in EVENT_NAMES)
if len(_FIXED_EVENTS) > NUM_FIXED_COUNTERS:
    raise ValueError("more fixed events than fixed counters")

#: positions (in EVENT_NAMES order) of the events multiplexed over the
#: generic counters.
_GENERIC_IDX = np.array(
    [i for i, e in enumerate(EVENT_NAMES) if e not in _FIXED_EVENTS]
)

#: fraction of wall time each multiplexed event is measured.
_GENERIC_SHARE = NUM_GENERIC_COUNTERS / len(_GENERIC_IDX)

#: per-event share of the interval the PMU observes: ``_GENERIC_SHARE``
#: for multiplexed events, exactly 1.0 for fixed-counter ones (so a
#: product with it leaves fixed events' values bit-for-bit unchanged).
_OBSERVED_SHARE = np.ones(NUM_EVENTS)
_OBSERVED_SHARE[_GENERIC_IDX] = _GENERIC_SHARE


@dataclass(frozen=True)
class CounterReading:
    """One event's reading over a measurement interval."""

    event: str
    raw_count: float
    time_enabled: float
    time_running: float


def _modifier_vector(config: TrialConfig) -> np.ndarray:
    """Configuration-dependent deviation from the base signature rates.

    * memory pressure inflates cache-/TLB-miss style events;
    * larger batches improve locality, deflating miss rates slightly.
    """
    penalty = memory_penalty(config.workload, config.hyper, config.system)
    missy_modifier = penalty**1.5 * (32.0 / max(32, config.hyper.batch_size)) ** 0.1
    return np.where(MISSY_MASK, missy_modifier, 1.0)


def _spans_array(spans) -> Tuple[np.ndarray, float]:
    """``spans`` as a validated float64 vector, and its shortest span."""
    spans = np.asarray(spans, dtype=np.float64)
    if spans.ndim != 1 or spans.size == 0:
        raise ValueError("spans must be a non-empty vector of durations")
    shortest = np.minimum.reduce(spans)
    if shortest < 0:
        raise ValueError("duration must be non-negative")
    return spans, shortest


def _true_count_rows(
    config: TrialConfig,
    spans: np.ndarray,
    busy_cores: float,
    first_row: int,
    noisy: bool,
) -> np.ndarray:
    """Ground-truth event counts for consecutive intervals, shape
    ``(len(spans), NUM_EVENTS)``; ``spans`` is already validated.

    Counts scale with busy-core-seconds; the paper's Fig 2 observation
    (events repeat across epochs with the same occurrence) holds
    because the signature is static and only small per-epoch noise is
    added.
    """
    core_seconds = spans * max(0.0, busy_cores)
    signature = workload_signature(config.workload)
    counts = signature * core_seconds[:, None] * _modifier_vector(config)
    if noisy:
        block = noise_matrix(
            0.03,
            NUM_EVENTS,
            config.workload.name,
            "pmu-noise",
            config.hyper,
            config.system,
        )
        counts *= np.exp(block.rows(first_row, len(spans)))
    return counts


class Pmu:
    """Reads the 58-event set through the 5 available hardware counters."""

    def __init__(self, seed: int = 0):
        self._seed = seed

    def _observe(
        self,
        config: TrialConfig,
        spans: np.ndarray,
        busy_cores: float,
        first_row: int,
        noisy: bool,
    ):
        """The PMU kernel: one read per interval of ``spans``.

        Returns ``(raw, time_running)`` arrays of shape
        ``(len(spans), NUM_EVENTS)`` in :data:`EVENT_NAMES` order
        (``time_enabled`` is the row's span for every event). Row ``k``
        draws noise row ``first_row + k`` of both noise matrices.

        Multiplexed events observe only ``_GENERIC_SHARE`` of the
        interval; their raw counts carry extra sampling error because
        the unobserved windows may not look like the observed ones
        (blind spots, §5.3). The nth generic event consumes the nth
        blind-spot draw of its row.
        """
        raw = _true_count_rows(config, spans, busy_cores, first_row, noisy)
        raw *= _OBSERVED_SHARE
        if noisy:
            block = noise_matrix(
                # Blind-spot error shrinks with the observed share.
                0.02 * (1.0 - _GENERIC_SHARE),
                len(_GENERIC_IDX),
                "pmu-mux",
                self._seed,
                config.workload.name,
                config.hyper,
                config.system,
            )
            blind = block.rows(first_row, len(spans))
            raw[:, _GENERIC_IDX] *= np.maximum(0.0, 1.0 + blind)
        running = spans[:, None] * _OBSERVED_SHARE
        return raw, running

    def final_counts_batch(
        self,
        config: TrialConfig,
        spans,
        busy_cores: float,
        first_row: int = 0,
        noisy: bool = True,
    ) -> np.ndarray:
        """Rescaled (``raw * enabled / running``) rows for consecutive intervals.

        Row ``k`` is bit-identical to ``final_counts(config, spans[k],
        busy_cores, epoch=first_row + k, noisy=noisy)``.
        """
        spans, shortest = _spans_array(spans)
        raw, running = self._observe(config, spans, busy_cores, first_row, noisy)
        # The quotient is taken first: enabled / running rounds to at
        # least 1.0 whenever running <= enabled, so the estimate never
        # falls below the observed count ((raw * enabled) / running can
        # round one ulp under raw). An unobserved event reads 0.
        if shortest * _GENERIC_SHARE > 0.0:  # min(running) > 0: no mask
            return raw * (spans[:, None] / running)
        observed = running > 0.0
        final = raw * (spans[:, None] / np.where(observed, running, 1.0))
        final[~observed] = 0.0
        return final

    def read_interval(
        self,
        config: TrialConfig,
        duration_s: float,
        busy_cores: float,
        epoch: int = 0,
        noisy: bool = True,
    ) -> Dict[str, CounterReading]:
        """Measure all 58 events over one interval, with multiplexing.

        Returns per-event :class:`CounterReading` objects; callers that
        only need the rescaled vector should use :meth:`final_counts`,
        which shares the same kernel without materializing readings.
        """
        spans, _ = _spans_array([duration_s])
        raw, running = self._observe(config, spans, busy_cores, epoch, noisy)
        return {
            event: CounterReading(
                event=event,
                raw_count=raw_count,
                time_enabled=duration_s,
                time_running=time_running,
            )
            for event, raw_count, time_running in zip(EVENT_NAMES, raw[0], running[0])
        }

    def final_counts(
        self,
        config: TrialConfig,
        duration_s: float,
        busy_cores: float,
        epoch: int = 0,
        noisy: bool = True,
    ) -> np.ndarray:
        """The :meth:`read_interval` readings rescaled
        (``raw * enabled / running``), as one vector in
        :data:`EVENT_NAMES` order without building 58 dataclasses.
        """
        rows = self.final_counts_batch(config, [duration_s], busy_cores, epoch, noisy)
        return rows[0]
