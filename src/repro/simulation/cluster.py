"""Simulated deep-learning cluster: nodes, allocations, FIFO placement.

Mirrors the paper's testbeds (§7.1.1), which are declared as
:class:`~repro.scenarios.spec.ClusterSpec` values and built with
``build(env)``:

* the distributed testbed — 4 nodes, 16 usable cores and 64 GiB each —
  used for Type-I / Type-II workloads
  (``PAPER_DISTRIBUTED_CLUSTER``), and
* the single-node testbed (8 cores, 24 GiB) used for Type-III
  (``PAPER_SINGLE_NODE``).

An :class:`Allocation` pins a number of cores and GB of memory on one
node for the lifetime of a training trial; PipeTune resizes it at epoch
boundaries, which is the whole point of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from .des import Container, Environment, SimulationError


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one cluster node."""

    name: str
    cores: int
    memory_gb: float
    idle_watts: float = 60.0
    core_watts: float = 11.5

    def __post_init__(self):
        if self.cores < 1:
            raise ValueError("node needs at least one core")
        if self.memory_gb <= 0:
            raise ValueError("node memory must be positive")


class Node:
    """Runtime state of one node: core/memory containers + power level."""

    def __init__(self, env: Environment, spec: NodeSpec):
        self.env = env
        self.spec = spec
        self.cores = Container(env, spec.cores)
        self.memory = Container(env, spec.memory_gb)
        self._active_cores = 0.0
        self._power_listeners: List = []

    @property
    def power_watts(self) -> float:
        """Instantaneous node power: idle draw + per-busy-core draw."""
        return self.spec.idle_watts + self.spec.core_watts * self._active_cores

    def add_power_listener(self, listener) -> None:
        """``listener(node, now, watts)`` fires on every power change."""
        self._power_listeners.append(listener)

    def _set_active_cores(self, value: float) -> None:
        self._active_cores = value
        watts = self.power_watts
        for listener in self._power_listeners:
            listener(self, self.env.now, watts)

    def notify_busy(self, delta_cores: float) -> None:
        """Adjust the number of cores actively computing by ``delta``."""
        new = self._active_cores + delta_cores
        if new < -1e-9 or new > self.spec.cores + 1e-9:
            raise SimulationError(
                f"active core count {new} outside [0, {self.spec.cores}]"
            )
        self._set_active_cores(max(0.0, min(float(self.spec.cores), new)))


class Allocation:
    """Cores + memory granted to one trial on one node.

    Supports in-place *resize* — the mechanism PipeTune uses to apply a
    new system-parameter configuration at an epoch boundary without
    restarting the trial.
    """

    def __init__(self, cluster: "SimCluster", node: Node, cores: int, memory_gb: float):
        self.cluster = cluster
        self.node = node
        self.cores = cores
        self.memory_gb = memory_gb
        self.released = False

    def try_resize(self, cores: int, memory_gb: float) -> bool:
        """Best-effort, non-blocking resize; True on success.

        Shrinks always succeed. Grows succeed only when the node can
        satisfy them immediately; otherwise nothing changes. This is
        the resize PipeTune uses at epoch boundaries: blocking mid-
        trial on a grow could deadlock two trials growing against each
        other, and waiting would stall training anyway — the epoch
        simply runs at the previous shape and the reshape is retried.
        """
        if self.released:
            raise SimulationError("try_resize() on released allocation")
        if cores < 1 or memory_gb <= 0:
            raise ValueError("resize target must be positive")
        if cores > self.node.spec.cores or memory_gb > self.node.spec.memory_gb:
            return False
        dc = cores - self.cores
        dm = memory_gb - self.memory_gb
        # Apply shrinks first — they can only help the grows below.
        if dc < 0:
            self.node.cores.put(-dc)
            self.cores = cores
            dc = 0
        if dm < 0:
            self.node.memory.put(-dm)
            self.memory_gb = memory_gb
            dm = 0
        if dc > 0:
            if not self.node.cores.try_get(dc):
                return self.cores == cores and self.memory_gb == memory_gb
            self.cores = cores
        if dm > 0:
            if not self.node.memory.try_get(dm):
                # Roll back a cores grow so the allocation stays coherent.
                if dc > 0:
                    self.node.cores.put(dc)
                    self.cores -= dc
                return False
            self.memory_gb = memory_gb
        return self.cores == cores and self.memory_gb == memory_gb

    def release(self) -> None:
        """Return all held resources to the node (idempotent-guarded)."""
        if self.released:
            raise SimulationError("double release of allocation")
        self.node.cores.put(self.cores)
        self.node.memory.put(self.memory_gb)
        self.released = True


@dataclass
class ClusterStats:
    """Aggregate accounting over a simulation run."""

    allocations: int = 0
    failed_placements: int = 0
    core_seconds: float = 0.0
    per_node_allocations: Dict[str, int] = field(default_factory=dict)


class SimCluster:
    """A set of nodes plus a first-fit / least-loaded placement policy."""

    def __init__(self, env: Environment, specs: List[NodeSpec]):
        if not specs:
            raise ValueError("cluster needs at least one node")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate node names")
        self.env = env
        self.nodes = [Node(env, spec) for spec in specs]
        self.stats = ClusterStats()

    def _feasible(self, cores: int, memory_gb: float) -> bool:
        return any(
            cores <= n.spec.cores and memory_gb <= n.spec.memory_gb
            for n in self.nodes
        )

    def _pick_node(self, cores: int, memory_gb: float) -> Optional[Node]:
        """Least-loaded node with immediate free capacity, else None."""
        candidates = [
            n
            for n in self.nodes
            if n.cores.level >= cores and n.memory.level >= memory_gb
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda n: (n.cores.level, n.memory.level))

    def allocate(self, cores: int, memory_gb: float) -> Generator:
        """Process generator yielding an :class:`Allocation`.

        Blocks (FIFO per node) until some node can host the request.
        Raises immediately if no node could *ever* host it.
        """
        if not self._feasible(cores, memory_gb):
            self.stats.failed_placements += 1
            raise ValueError(
                f"request ({cores} cores, {memory_gb} GB) exceeds every node"
            )
        node = self._pick_node(cores, memory_gb)
        if node is None:
            # Queue on the least-loaded feasible node.
            feasible = [
                n
                for n in self.nodes
                if cores <= n.spec.cores and memory_gb <= n.spec.memory_gb
            ]
            node = max(feasible, key=lambda n: (n.cores.level, n.memory.level))
        yield node.cores.get(cores)
        yield node.memory.get(memory_gb)
        self.stats.allocations += 1
        self.stats.per_node_allocations[node.spec.name] = (
            self.stats.per_node_allocations.get(node.spec.name, 0) + 1
        )
        return Allocation(self, node, cores, memory_gb)

