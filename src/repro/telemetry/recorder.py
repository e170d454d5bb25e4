"""Telemetry: stream run metrics into the time-series store.

The paper uses InfluxDB as the storage backend for "information
regarding the collected system metrics" (§6). This module is that
integration layer: a :class:`MetricsRecorder` subscribes to node power
changes and wraps trial hooks so that every epoch's runtime, accuracy,
energy and system shape — plus the cluster power signal — land in a
:class:`~repro.tsdb.store.TimeSeriesStore`, queryable after the run
and persistable to disk.

Measurements written:

* ``node_power``   — tags: node; fields: watts (on every change)
* ``trial_epoch``  — tags: trial, workload; fields: epoch, duration_s,
  accuracy, energy_j, cores, memory_gb, profiled, probed
* ``trial_summary``— tags: trial, workload; fields: accuracy,
  training_time_s, energy_j, epochs
"""

from __future__ import annotations

from typing import Optional

from ..simulation.cluster import Node, SimCluster
from ..simulation.des import Environment
from ..tsdb.point import Point
from ..tsdb.store import TimeSeriesStore
from ..tune.trainer import TrialContext, TrialHooks
from ..tune.trial import EpochRecord, TrialResult


class MetricsRecorder:
    """Writes cluster and trial metrics into a TimeSeriesStore."""

    def __init__(
        self,
        env: Environment,
        cluster: SimCluster,
        store: Optional[TimeSeriesStore] = None,
        record_power: bool = True,
    ):
        self.env = env
        self.cluster = cluster
        self.store = store if store is not None else TimeSeriesStore()
        if record_power:
            for node in cluster.nodes:
                node.add_power_listener(self._on_power)
                # initial level so queries start at t=0
                self._on_power(node, env.now, node.power_watts)

    # -- power stream ------------------------------------------------------
    def _on_power(self, node: Node, now: float, watts: float) -> None:
        self.store.write(
            Point(
                measurement="node_power",
                time=now,
                tags={"node": node.spec.name},
                fields={"watts": float(watts)},
            )
        )

    # -- trial stream -------------------------------------------------------
    def record_epoch(self, ctx: TrialContext, record: EpochRecord) -> None:
        self.store.write(
            Point(
                measurement="trial_epoch",
                time=self.env.now,
                tags={"trial": ctx.trial_id, "workload": ctx.workload.name},
                fields={
                    "epoch": float(record.epoch),
                    "duration_s": record.duration_s,
                    "accuracy": record.accuracy,
                    "energy_j": record.energy_j,
                    "cores": float(record.system.cores),
                    "memory_gb": record.system.memory_gb,
                    "profiled": float(record.profiled),
                    "probed": float(record.probed),
                },
            )
        )

    def record_summary(self, ctx: TrialContext, result: TrialResult) -> None:
        self.store.write(
            Point(
                measurement="trial_summary",
                time=self.env.now,
                tags={"trial": ctx.trial_id, "workload": ctx.workload.name},
                fields={
                    "accuracy": result.accuracy,
                    "training_time_s": result.training_time_s,
                    "energy_j": result.energy_j,
                    "epochs": float(result.epochs_run),
                },
            )
        )

    def wrap_hooks(self, inner: Optional[TrialHooks] = None) -> "RecordingHooks":
        """Trial hooks that record metrics and delegate to ``inner``."""
        return RecordingHooks(self, inner or TrialHooks())

    # -- convenience queries ----------------------------------------------------
    def mean_cluster_power_w(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> float:
        """Time-unweighted mean of recorded node power samples."""
        values = self.store.field_values("node_power", "watts", start=start, end=end)
        if not values:
            return 0.0
        return sum(values) / len(values)

    def trial_accuracy_series(self, trial_id: str):
        """[(time, accuracy)] for one trial's epochs."""
        return [
            (p.time, p.fields["accuracy"])
            for p in self.store.query("trial_epoch", tags={"trial": trial_id})
        ]

    def epochs_recorded(self, workload: Optional[str] = None) -> int:
        tags = {"workload": workload} if workload else None
        return len(self.store.query("trial_epoch", tags=tags))


class RecordingHooks(TrialHooks):
    """Decorator hooks: record every epoch, then delegate.

    Composes with any inner hooks (including PipeTune's) so telemetry
    never changes tuning behaviour.
    """

    def __init__(self, recorder: MetricsRecorder, inner: TrialHooks):
        self.recorder = recorder
        self.inner = inner

    def on_start(self, ctx: TrialContext) -> None:
        self.inner.on_start(ctx)

    def before_epoch(self, ctx: TrialContext, epoch: int):
        return self.inner.before_epoch(ctx, epoch)

    def wants_profiling(self, ctx: TrialContext, epoch: int) -> bool:
        return self.inner.wants_profiling(ctx, epoch)

    def is_probe_epoch(self, ctx: TrialContext, epoch: int) -> bool:
        return self.inner.is_probe_epoch(ctx, epoch)

    def epoch_extra_delay_s(self, ctx: TrialContext, epoch: int) -> float:
        return self.inner.epoch_extra_delay_s(ctx, epoch)

    def after_epoch(self, ctx: TrialContext, record: EpochRecord) -> None:
        self.recorder.record_epoch(ctx, record)
        self.inner.after_epoch(ctx, record)

    def on_end(self, ctx: TrialContext, result: TrialResult) -> None:
        self.recorder.record_summary(ctx, result)
        self.inner.on_end(ctx, result)
