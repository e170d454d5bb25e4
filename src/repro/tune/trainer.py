"""The trial trainer: a DES process executing one training segment.

This is the reproduction's equivalent of a BigDL training job. The
trainer:

* allocates cores + memory on the simulated cluster,
* iterates epochs, drawing their durations and accuracies from the
  workload models,
* raises/lowers the node's busy-core count around each epoch so the
  power model sees the load,
* lets a :class:`TrialHooks` instance observe epochs and adjust the
  system parameters at epoch boundaries — the hook mechanism is how
  PipeTune pipelines its system tuning inside a running trial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from ..counters.profiler import EpochProfiler
from ..simulation.cluster import Allocation, SimCluster
from ..simulation.des import Environment
from ..workloads.accuracy import accuracy_curve
from ..workloads.perfmodel import active_cores, epoch_cost_batch, working_set_gb
from .errors import NodeDeparted, TrialCrashed, TrialOutOfMemory, TrialPreempted
from .faults import FaultModel
from ..workloads.spec import (
    BASE_CPU_FREQ_GHZ,
    HyperParams,
    SystemParams,
    TrialConfig,
    WorkloadSpec,
    stable_seed,
)
from .trial import EpochRecord, TrialResult


@dataclass
class TrialContext:
    """Mutable view of a running trial, handed to hooks."""

    trial_id: str
    env: Environment
    cluster: SimCluster
    workload: WorkloadSpec
    hyper: HyperParams
    system: SystemParams
    allocation: Optional[Allocation] = None
    records: list = field(default_factory=list)
    #: epoch the trial will stop after (HyperBand rungs may be shorter
    #: than ``hyper.epochs``); hooks use it to budget probing.
    target_epochs: int = 0
    start_epoch: int = 0


class TrialHooks:
    """Default no-op hooks: plain training with fixed system params."""

    def on_start(self, ctx: TrialContext) -> None:
        """Called once the allocation is granted, before epoch 1."""

    def before_epoch(self, ctx: TrialContext, epoch: int) -> Optional[SystemParams]:
        """Return new system params to apply for this epoch, or None."""
        return None

    def wants_profiling(self, ctx: TrialContext, epoch: int) -> bool:
        """Whether the PMU profiler should sample this epoch."""
        return False

    def is_probe_epoch(self, ctx: TrialContext, epoch: int) -> bool:
        """Whether this epoch is a system-parameter probe sub-trial."""
        return False

    def epoch_extra_delay_s(self, ctx: TrialContext, epoch: int) -> float:
        """Extra wall time this hook adds to the epoch.

        PipeTune's pipelined design keeps this at zero (decisions run
        concurrently with training); the non-pipelined ablation makes
        tuning decisions on the critical path and returns a positive
        delay here.
        """
        return 0.0

    def after_epoch(self, ctx: TrialContext, record: EpochRecord) -> None:
        """Called with the finished epoch's record."""

    def on_end(self, ctx: TrialContext, result: TrialResult) -> None:
        """Called after the allocation is released."""


def run_trial(
    env: Environment,
    cluster: SimCluster,
    trial_id: str,
    workload: WorkloadSpec,
    hyper: HyperParams,
    system: SystemParams,
    start_epoch: int = 0,
    target_epochs: Optional[int] = None,
    hooks: Optional[TrialHooks] = None,
    contention: float = 1.0,
    setup_cost_s: float = 0.0,
    oom_threshold: Optional[float] = None,
    faults: Optional[FaultModel] = None,
    attempt: int = 0,
) -> Generator:
    """DES process: run epochs ``start_epoch+1 .. target_epochs``.

    Returns a :class:`TrialResult` (via the process event's value).
    ``start_epoch > 0`` resumes from a checkpoint: earlier epochs cost
    nothing (their state is on disk) but still count toward the
    learning curve.

    ``setup_cost_s`` is charged once after the allocation is granted:
    reshaping a trial's resources before it starts means restarting
    the executor stack with a different core/memory shape, which the
    Tune V2 baseline pays per trial (§4 "requires the resources used
    by each trial to be manually controlled"). PipeTune avoids it by
    resizing in place at epoch boundaries.

    ``oom_threshold`` enables failure injection: when the trial's
    working set exceeds ``oom_threshold`` times its memory allocation,
    the trial thrashes for half an epoch and dies with
    :class:`TrialOutOfMemory` (resources are still released). ``None``
    disables failures — memory shortage then only slows the trial via
    the pressure penalty, as in the paper's reported runs.

    ``faults`` injects the hostile-world fault model (preemption,
    churn, crashes, stragglers — see :mod:`~repro.tune.faults`): at
    most one fault fires per epoch, strikes a drawn fraction into it
    (the partial work is paid in simulated time) and raises the
    matching :class:`~repro.tune.errors.TrialError` subclass for the
    runner to recover from. ``attempt`` numbers the recoveries so each
    re-run draws its own deterministic fault schedule. ``None`` (the
    default) injects nothing and leaves every stream untouched.
    """
    hooks = hooks or TrialHooks()
    profiler = EpochProfiler()
    epochs = target_epochs if target_epochs is not None else hyper.epochs
    if epochs <= start_epoch:
        raise ValueError("target epochs must exceed start_epoch")
    if setup_cost_s < 0:
        raise ValueError("setup_cost_s must be >= 0")
    trial_seed = stable_seed("trial", trial_id, workload.name)
    slowdown, strike = 1.0, None
    if faults is not None:
        slowdown, strike = faults.schedule(trial_id, attempt, start_epoch + 1, epochs)
    strike_epoch = strike[0] if strike is not None else 0

    start_time = env.now
    allocation = yield from cluster.allocate(system.cores, system.memory_gb)
    node = allocation.node
    ctx = TrialContext(
        trial_id=trial_id,
        env=env,
        cluster=cluster,
        workload=workload,
        hyper=hyper,
        system=system,
        allocation=allocation,
        target_epochs=epochs,
        start_epoch=start_epoch,
    )
    total_time = 0.0
    total_energy = 0.0
    accuracy = 0.0

    try:
        hooks.on_start(ctx)
        if setup_cost_s:
            yield env.timeout(setup_cost_s)

        # Everything the epoch loop reads is precomputed as Python
        # floats: the trial's accuracies here, and per system-config
        # segment its config, busy level and epoch durations.
        accuracies = accuracy_curve(
            workload, hyper, epochs, trial_seed, start_epoch=start_epoch
        )
        working_set = working_set_gb(workload, hyper)
        segment_system = None
        for epoch in range(start_epoch + 1, epochs + 1):
            desired = hooks.before_epoch(ctx, epoch)
            if desired not in (None, ctx.system):  # identity, then equality
                # Best-effort reshape: a grow the node cannot satisfy
                # right now is skipped (this epoch runs at the old
                # shape) rather than blocking training mid-trial.
                if allocation.try_resize(desired.cores, desired.memory_gb):
                    ctx.system = desired
                else:
                    # A clock change needs no resources, so only the
                    # shape falls back to what the node still grants.
                    ctx.system = desired.replace(
                        cores=allocation.cores, memory_gb=allocation.memory_gb
                    )

            if ctx.system is not segment_system and ctx.system != segment_system:
                # The epoch durations of the rest of the trial at this
                # shape, indexed one per epoch below.
                segment_system = ctx.system
                segment_start = epoch
                config = TrialConfig(workload, hyper, segment_system)
                segment = epoch_cost_batch(
                    config, range(epoch, epochs + 1), contention
                )
                busy = active_cores(config, segment)
                # Busy cores draw per-core power, ~quadratic in the clock
                # (DVFS: P ~ f V^2, V ~ f), plus the trial's share of the
                # node's idle draw, so trial sums match the cluster meter.
                dvfs = (segment_system.cpu_freq_ghz / BASE_CPU_FREQ_GHZ) ** 2
                idle_share = node.spec.idle_watts * (allocation.cores / node.spec.cores)
                watts = busy * node.spec.core_watts * dvfs + idle_share
            epoch_s = segment.total_s[epoch - segment_start]

            if oom_threshold is not None:
                if working_set > oom_threshold * ctx.system.memory_gb:
                    # thrash for half an epoch before the OOM killer hits
                    yield env.timeout(0.5 * epoch_s)
                    raise TrialOutOfMemory(trial_id, working_set, ctx.system.memory_gb)
            duration = epoch_s * slowdown
            profiled = hooks.wants_profiling(ctx, epoch)
            if profiled:
                duration *= profiler.overhead_factor()
            duration += max(0.0, hooks.epoch_extra_delay_s(ctx, epoch))

            if epoch == strike_epoch:
                _, kind, fraction = strike
                # the partial epoch is wasted but not free: the
                # trial burns simulated time up to the strike.
                yield env.timeout(fraction * duration)
                if kind == "preemption":
                    every = faults.preemption.checkpoint_every_epochs
                    checkpoint = max(start_epoch, ((epoch - 1) // every) * every)
                    raise TrialPreempted(trial_id, epoch, checkpoint)
                if kind == "churn":
                    raise NodeDeparted(trial_id, epoch, node.spec.name)
                raise TrialCrashed(trial_id, epoch)

            node.notify_busy(busy)
            yield env.timeout(duration)
            node.notify_busy(-busy)

            accuracy = accuracies[epoch - start_epoch - 1]
            energy = watts * duration
            total_time += duration
            total_energy += energy

            profile = None
            if profiled:
                profile = profiler.profile_epoch(config, epoch, duration, busy)
            record = EpochRecord(
                epoch=epoch,
                duration_s=duration,
                accuracy=accuracy,
                system=ctx.system,
                energy_j=energy,
                profiled=profiled,
                probed=hooks.is_probe_epoch(ctx, epoch),
                profile=profile,
            )
            ctx.records.append(record)
            hooks.after_epoch(ctx, record)
    finally:
        allocation.release()

    result = TrialResult(
        trial_id=trial_id,
        workload=workload,
        hyper=hyper,
        final_system=ctx.system,
        accuracy=accuracy,
        training_time_s=total_time,
        energy_j=total_energy,
        epochs_run=epochs,
        start_time=start_time,
        end_time=env.now,
        records=ctx.records,
    )
    hooks.on_end(ctx, result)
    return result
