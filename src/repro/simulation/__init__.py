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
    AnyOf,
    Container,
    Environment,
    Event,
    Interrupt,
    Process,
    Resource,
    SimulationError,
    Timeout,
)
from .power import EnergyMeter, IntervalEnergyMeter, PduSampler, PowerSample

__all__ = [
    "AllOf",
    "Allocation",
    "AnyOf",
    "ClusterStats",
    "Container",
    "EnergyMeter",
    "Environment",
    "Event",
    "Interrupt",
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
