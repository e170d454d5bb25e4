"""Discrete-event simulation substrate (cluster, power, DES engine)."""

from .cluster import (
    Allocation,
    ClusterStats,
    Node,
    NodeSpec,
    SimCluster,
)
from .des import (
    AllOf,
    Container,
    Environment,
    Event,
    Process,
    Resource,
    SimulationError,
    Timeout,
)
from .power import EnergyMeter, IntervalEnergyMeter, PduSampler, PowerSample

__all__ = [
    "AllOf",
    "Allocation",
    "ClusterStats",
    "Container",
    "EnergyMeter",
    "Environment",
    "Event",
    "IntervalEnergyMeter",
    "Node",
    "NodeSpec",
    "PduSampler",
    "PowerSample",
    "Process",
    "Resource",
    "SimCluster",
    "SimulationError",
    "Timeout",
]
