"""Power and energy accounting for the simulated cluster.

The paper (§3.2, §7.1.1) estimates cluster energy as *"the trapezoidal
integral of the power values collected every second during training"*,
sampled from a LINDY iPower PDU at 1 W resolution and ~1.5 % precision.

We reproduce both layers:

* :class:`EnergyMeter` — exact piecewise-constant integration of the
  simulated node power signal (ground truth), and
* :class:`PduSampler` — the paper's measurement pipeline: 1 Hz samples,
  1 W quantisation, optional gaussian precision error, trapezoidal
  integration of the *samples*.

Keeping both lets tests assert that the PDU estimate converges to the
ground-truth integral, which is exactly the assumption the paper makes.
Both meter whole runs: the energy a probe epoch is scored by is
attributed per epoch by the trainer (``tune.trainer.run_trial``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..workloads.spec import rng_for
from .cluster import Node, SimCluster
from .des import Environment


@dataclass
class PowerSample:
    """One timestamped power reading for one node."""

    time: float
    watts: float


class EnergyMeter:
    """Exact energy integration over the node power signal.

    Node power in the simulator is piecewise constant (it only changes
    when a trial starts/stops computing or resizes), so the exact
    integral is a sum of rectangles; the trapezoidal rule on the change
    points reduces to the same thing.
    """

    def __init__(self, env: Environment, cluster: SimCluster):
        self.env = env
        self.cluster = cluster
        self._energy_joules: Dict[str, float] = {}
        self._last_change: Dict[str, Tuple[float, float]] = {}
        for node in cluster.nodes:
            self._energy_joules[node.spec.name] = 0.0
            self._last_change[node.spec.name] = (env.now, node.power_watts)
            node.add_power_listener(self._on_power_change)

    def _on_power_change(self, node: Node, now: float, watts: float) -> None:
        name = node.spec.name
        t0, w0 = self._last_change[name]
        self._energy_joules[name] += w0 * (now - t0)
        self._last_change[name] = (now, watts)

    def _settled(self, name: str) -> float:
        t0, w0 = self._last_change[name]
        return self._energy_joules[name] + w0 * (self.env.now - t0)

    def total_energy_joules(self) -> float:
        """Energy consumed by the whole cluster up to now."""
        return sum(self._settled(n.spec.name) for n in self.cluster.nodes)

    def total_energy_kj(self) -> float:
        return self.total_energy_joules() / 1000.0


class PduSampler:
    """Simulates the networked PDU: periodic quantised power samples.

    Run :meth:`process` inside the environment; it samples every
    ``period`` seconds until stopped. :meth:`energy_joules` applies the
    trapezoidal rule over the recorded samples, exactly as the paper
    computes energy from its PDU trace.
    """

    def __init__(
        self,
        env: Environment,
        cluster: SimCluster,
        period: float = 1.0,
        resolution_watts: float = 1.0,
        precision: float = 0.0,
        seed: int = 0,
    ):
        if period <= 0:
            raise ValueError("sampling period must be positive")
        self.env = env
        self.cluster = cluster
        self.period = period
        self.resolution = resolution_watts
        self.precision = precision
        self.samples: List[PowerSample] = []
        self._rng = rng_for("pdu-sampler", seed)
        self._running = False

    def _read(self) -> float:
        watts = sum(n.power_watts for n in self.cluster.nodes)
        if self.precision > 0:
            watts *= 1.0 + self._rng.normal(0.0, self.precision)
        if self.resolution > 0:
            watts = round(watts / self.resolution) * self.resolution
        return max(0.0, watts)

    def process(self, duration: Optional[float] = None):
        """Generator: sample until ``duration`` elapses (or forever)."""
        self._running = True
        start = self.env.now
        self.samples.append(PowerSample(self.env.now, self._read()))
        while self._running:
            yield self.env.timeout(self.period)
            self.samples.append(PowerSample(self.env.now, self._read()))
            if duration is not None and self.env.now - start >= duration:
                break

    def stop(self) -> None:
        self._running = False

    def energy_joules(self) -> float:
        """Trapezoidal integral of the sampled power trace."""
        if len(self.samples) < 2:
            return 0.0
        times = np.array([s.time for s in self.samples])
        watts = np.array([s.watts for s in self.samples])
        trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy 1/2 compat
        return float(trapezoid(watts, times))
