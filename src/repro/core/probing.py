"""Probing: epoch-granular grid search over system configurations.

When the ground-truth phase cannot vouch for a new workload, PipeTune
probes (§5.6): each candidate system configuration is applied for one
epoch of the running trial, the metrics of interest (runtime, energy)
are collected, and the best configuration is applied for the remaining
epochs. The search over collected samples is O(n) in the number of
distinct configurations (§5.2).

Probing a full cores × memory grid can need more epochs than a trial
has, so the controller sweeps the two axes sequentially: first the
core counts (at generous memory), then memory sizes at the best core
count found — covering ``|cores| + |memory| - 1`` configurations
instead of the full product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..tune.objectives import runtime_system_objective
from ..workloads.spec import (
    PAPER_CORE_GRID,
    PAPER_MEMORY_GRID_GB,
    SystemParams,
)

SystemObjective = Callable[[float, float], float]

#: durations within this relative band are considered a tie and broken
#: toward the smaller resource footprint (frees capacity for other
#: tenants without measurable slowdown).
TIE_BAND = 0.03


@dataclass
class ProbeSample:
    """Metrics observed for one probed configuration (one epoch)."""

    system: SystemParams
    duration_s: float
    energy_j: float


class ProbingController:
    """Stateful two-phase sweep over (cores, memory) candidates."""

    def __init__(
        self,
        initial: SystemParams,
        cores_grid: Sequence[int] = PAPER_CORE_GRID,
        memory_grid_gb: Sequence[float] = PAPER_MEMORY_GRID_GB,
        max_probes: Optional[int] = None,
        objective: SystemObjective = runtime_system_objective,
    ):
        if not cores_grid or not memory_grid_gb:
            raise ValueError("probing grids cannot be empty")
        self.initial = initial
        self.objective = objective
        self.samples: List[ProbeSample] = []
        self._issued: List[SystemParams] = []
        probe_memory = max(memory_grid_gb)
        plan: List[SystemParams] = [
            SystemParams(cores=c, memory_gb=probe_memory)
            for c in sorted(set(cores_grid))
        ]
        self._core_phase_len = len(plan)
        self._memory_grid = sorted(set(memory_grid_gb), reverse=True)
        self._plan = plan
        self._memory_planned = False
        self._max_probes = max_probes if max_probes is not None else (
            len(plan) + len(self._memory_grid) - 1
        )
        if self._max_probes < 1:
            raise ValueError("max_probes must allow at least one probe")

    # -- plan iteration ---------------------------------------------------
    def _extend_with_memory_phase(self) -> None:
        """After the core sweep, sweep memory at the best core count."""
        if self._memory_planned:
            return
        self._memory_planned = True
        best = self.best_system()
        for memory in self._memory_grid:
            candidate = SystemParams(cores=best.cores, memory_gb=memory)
            if candidate not in self._issued and candidate not in self._plan:
                self._plan.append(candidate)

    def next_config(self) -> Optional[SystemParams]:
        """The next configuration to probe, or None when done."""
        if len(self._issued) >= self._max_probes:
            return None
        if len(self._issued) >= self._core_phase_len:
            self._extend_with_memory_phase()
        if len(self._issued) >= len(self._plan):
            return None
        config = self._plan[len(self._issued)]
        self._issued.append(config)
        return config

    def record(self, sample: ProbeSample) -> None:
        """Feed back the metrics of the epoch probed last."""
        if len(self.samples) >= len(self._issued):
            raise RuntimeError("record() without a matching next_config()")
        self.samples.append(sample)

    @property
    def probes_run(self) -> int:
        return len(self.samples)

    @property
    def exhausted(self) -> bool:
        if len(self._issued) > len(self.samples):
            return False  # a probe is in flight
        if len(self._issued) >= self._max_probes:
            return True
        if len(self._issued) >= self._core_phase_len:
            self._extend_with_memory_phase()
        return len(self._issued) >= len(self._plan)

    # -- decision ----------------------------------------------------------
    def best_sample(self) -> Optional[ProbeSample]:
        """O(n) scan for the configuration that best fits the objective.

        Near-tied durations are broken toward the smaller footprint.
        """
        if not self.samples:
            return None
        top = max(self.samples, key=lambda s: self.objective(s.duration_s, s.energy_j))
        contenders = [
            s
            for s in self.samples
            if s.duration_s <= top.duration_s * (1.0 + TIE_BAND)
        ]
        return min(
            contenders,
            key=lambda s: (
                s.system.memory_gb,
                s.system.cores,
                -self.objective(s.duration_s, s.energy_j),
            ),
        )

    def best_system(self) -> SystemParams:
        best = self.best_sample()
        return best.system if best is not None else self.initial
