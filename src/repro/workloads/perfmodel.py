"""Analytic performance model: epoch time, utilisation, working set.

This module stands in for BigDL/Spark synchronous mini-batch SGD on the
paper's testbed. The model is the standard cost decomposition of
synchronous data-parallel SGD (the same one the paper uses to explain
Figure 3b in §3.2):

* each epoch performs ``U = ceil(n_train / batch_size)`` weight
  updates;
* per update, each of the ``k`` cores computes gradients for a
  ``batch_size / k`` slice — but never smaller than a granularity
  floor, below which per-core overheads stop the slice from shrinking;
* per update, the cores synchronise model parameters: a fixed cost plus
  a term growing with ``log2(k)`` (tree all-reduce);
* a memory-pressure multiplier kicks in when the allocated memory is
  smaller than the working set.

Consequences (matching the paper's observations):

* small batches ⇒ many updates ⇒ synchronisation dominates ⇒ *more
  cores slow the epoch down* (Fig 3b, batch 64);
* large batches ⇒ few updates ⇒ compute dominates ⇒ more cores help
  (Fig 3b, batch 1024);
* energy follows runtime with a core-count-dependent power draw
  (Fig 3c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List

from .noise import clear_noise_blocks, noise_block
from .spec import (
    BASE_CPU_FREQ_GHZ,
    HyperParams,
    SystemParams,
    TrialConfig,
    WorkloadSpec,
)

#: smallest per-core mini-batch slice that still amortises per-core
#: launch overheads (samples); below this, adding cores stops helping
#: the compute term. The JVM/BigDL task-launch overhead the paper runs
#: on makes tiny per-core slices unprofitable (§3.2).
MIN_CORE_SLICE = 64.0


@dataclass(frozen=True)
class EpochCost:
    """Breakdown of one epoch's simulated cost."""

    compute_s: float
    sync_s: float
    overhead_s: float
    mem_penalty: float
    total_s: float
    utilisation: float  # fraction of allocated cores actively computing


@dataclass(slots=True)
class EpochCostBatch:
    """One trial segment's epoch costs, synthesized in a single pass.

    The compute/sync/memory terms depend only on (workload, hyper,
    system, contention), so they are scalars shared by every epoch;
    ``total_s`` carries the per-epoch totals as Python floats — the
    shared base times the epoch's noise factor, read from one window
    of the trial's :class:`~repro.workloads.noise.NoiseBlock`. Element
    ``i`` is bit-identical to ``epoch_cost(config, epochs[i],
    ...).total_s``: both read the same block position and apply the
    same float ops. Slotted and not frozen (one is built per segment).
    """

    compute_s: float
    sync_s: float
    overhead_s: float
    mem_penalty: float
    utilisation: float
    total_s: List[float]  # aligned with the requested epoch indices


def updates_per_epoch(workload: WorkloadSpec, hyper: HyperParams) -> int:
    """Number of synchronous weight updates in one epoch."""
    return max(1, math.ceil(workload.train_files / hyper.batch_size))


def working_set_gb(workload: WorkloadSpec, hyper: HyperParams) -> float:
    """Resident memory needed by a trial (model + batch buffers)."""
    ws = workload.mem_base_gb + hyper.batch_size * workload.mem_per_sample_gb
    if workload.uses_embedding:
        # Embedding tables grow linearly with the embedding dimension.
        ws += 0.004 * hyper.embedding_dim
    return ws


def memory_penalty(
    workload: WorkloadSpec, hyper: HyperParams, system: SystemParams
) -> float:
    """Multiplicative slowdown when memory is short of the working set.

    1.0 when memory suffices; grows linearly with the shortfall ratio
    (spill/GC pressure in the JVM-based BigDL stack the paper runs on).
    """
    ws = working_set_gb(workload, hyper)
    if system.memory_gb >= ws:
        return 1.0
    shortfall = ws / system.memory_gb - 1.0
    return 1.0 + workload.mem_pressure_slope * shortfall


@dataclass(frozen=True)
class _CostTerms:
    """Epoch-invariant cost terms of one (workload, hyper, system)."""

    compute_s: float
    sync_s: float
    mem_penalty: float
    utilisation: float


# Memoized: every segment and scalar epoch of a trial would otherwise
# recompute updates/compute/sync/penalty. The terms are pure in the
# frozen specs' fields, so a hit cannot change a number; specs equal
# field by field (an int 16 and a float 16.0) give the same terms.
@lru_cache(maxsize=4096)
def _cost_terms(w: WorkloadSpec, hp: HyperParams, sp: SystemParams) -> _CostTerms:
    k = sp.cores
    updates = updates_per_epoch(w, hp)

    # -- compute term ---------------------------------------------------
    # Each core processes a batch slice; slices cannot shrink below the
    # granularity floor, and parallel scaling is sub-linear (the
    # k**(1-alpha) factor models cache/bandwidth interference).
    slice_size = max(hp.batch_size / k, MIN_CORE_SLICE)
    effective_slice = min(float(hp.batch_size), slice_size)
    scaling_loss = k ** (1.0 - w.parallel_alpha)
    compute_per_update = w.compute_per_sample * effective_slice * scaling_loss
    # DVFS extension: compute time scales inversely with clock speed
    # (synchronisation below is network/latency-bound and does not).
    compute_per_update *= BASE_CPU_FREQ_GHZ / sp.cpu_freq_ghz
    if w.uses_embedding:
        # Wider embeddings mean more FLOPs per sample.
        compute_per_update *= 0.7 + 0.3 * hp.embedding_dim / w.embedding_opt
    compute = updates * compute_per_update

    # -- synchronisation term --------------------------------------------
    # Fixed handshake + tree all-reduce growing with log2(cores).
    sync_per_update = w.sync_per_core * (0.15 + math.log2(k)) if k > 1 else (
        w.sync_per_core * 0.15
    )
    sync = updates * sync_per_update

    penalty = memory_penalty(w, hp, sp)
    busy = compute / (compute + sync) if (compute + sync) > 0 else 1.0
    return _CostTerms(
        compute_s=compute, sync_s=sync, mem_penalty=penalty, utilisation=busy
    )


def _epoch_noise_block(w: WorkloadSpec, hp: HyperParams, sp: SystemParams):
    """The trial's epoch-noise block: one stream for all its epochs."""
    return noise_block(w.runtime_noise, w.name, "epoch-noise", hp, sp)


def clear_cost_caches() -> None:
    """Drop the memoized cost terms, noise windows and fault schedules
    (tests/benchmarks; all are pure in their keys, so clearing cannot
    change a number)."""
    from ..tune.faults import _schedule

    _cost_terms.cache_clear()
    clear_noise_blocks()
    _schedule.cache_clear()


def epoch_cost(
    config: TrialConfig,
    epoch: int = 0,
    contention: float = 1.0,
    noisy: bool = True,
) -> EpochCost:
    """Simulated wall-clock cost of one training epoch.

    Parameters
    ----------
    config:
        Workload + hyperparameters + system parameters.
    epoch:
        Epoch index; only used to position the deterministic noise
        draw inside the trial's epoch-noise block.
    contention:
        Slowdown factor >= 1 from co-located jobs pinned to the same
        cores (used by the Fig 5 experiment). 1.0 means exclusive use.
    noisy:
        Disable to obtain the noise-free analytic expectation (useful
        for property tests of monotonicity).
    """
    if contention < 1.0:
        raise ValueError("contention factor must be >= 1")
    w, hp, sp = config.workload, config.hyper, config.system
    terms = _cost_terms(w, hp, sp)
    total = (
        (terms.compute_s + terms.sync_s) * terms.mem_penalty * contention
        + w.epoch_overhead_s
    )
    if noisy:
        block = _epoch_noise_block(w, hp, sp)
        total *= max(0.5, 1.0 + block.value(epoch))
    return EpochCost(
        compute_s=terms.compute_s,
        sync_s=terms.sync_s,
        overhead_s=w.epoch_overhead_s,
        mem_penalty=terms.mem_penalty,
        total_s=total,
        utilisation=terms.utilisation,
    )


def epoch_cost_batch(
    config: TrialConfig,
    epochs: Iterable[int],
    contention: float = 1.0,
    noisy: bool = True,
) -> EpochCostBatch:
    """Simulated cost of many epochs of one trial, in one pass.

    Computes the epoch-invariant terms once, reads the epoch noise as
    one window of the trial's noise block, and builds the totals as
    Python floats in one list comprehension with the same float ops,
    in the same order, as :func:`epoch_cost`: ``total_s[i]`` is
    bit-identical to ``epoch_cost(config, epochs[i], contention,
    noisy).total_s``. :func:`repro.tune.trainer.run_trial` builds one
    batch per system-config segment of a trial and indexes it per
    epoch.
    """
    if contention < 1.0:
        raise ValueError("contention factor must be >= 1")
    w, hp, sp = config.workload, config.hyper, config.system
    terms = _cost_terms(w, hp, sp)
    base = (
        (terms.compute_s + terms.sync_s) * terms.mem_penalty * contention
        + w.epoch_overhead_s
    )
    epochs = list(epochs)
    if noisy and epochs:
        first = min(epochs)  # window() rejects a negative first epoch
        noise = _epoch_noise_block(w, hp, sp).window(first, max(epochs) + 1)
        totals = [base * max(0.5, 1.0 + noise[e - first]) for e in epochs]
    else:
        totals = [base] * len(epochs)
    return EpochCostBatch(
        compute_s=terms.compute_s,
        sync_s=terms.sync_s,
        overhead_s=w.epoch_overhead_s,
        mem_penalty=terms.mem_penalty,
        utilisation=terms.utilisation,
        total_s=totals,
    )


def epoch_time(
    config: TrialConfig, epoch: int = 0, contention: float = 1.0, noisy: bool = True
) -> float:
    """Convenience wrapper returning only the total epoch seconds."""
    return epoch_cost(config, epoch=epoch, contention=contention, noisy=noisy).total_s


def active_cores(config: TrialConfig, cost: "EpochCost | EpochCostBatch") -> float:
    """Average cores actively drawing compute power during an epoch.

    Utilisation is epoch-invariant (noise scales the total, not the
    compute/sync split), so an :class:`EpochCostBatch` yields the same
    single busy-core level as every one of its scalar epochs.

    Synchronisation phases are communication-bound and draw less, which
    the power model captures as a lower effective busy-core count.
    """
    sync_draw_fraction = 0.45
    return config.system.cores * (
        cost.utilisation + sync_draw_fraction * (1.0 - cost.utilisation)
    )
