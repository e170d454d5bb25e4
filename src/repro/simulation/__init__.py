"""Discrete-event simulation substrate (cluster, power, DES engine)."""

from .._lazy import lazy_exports

__all__ = lazy_exports(
    globals(),
    {
        ".cluster": ("Allocation", "ClusterStats", "Node", "NodeSpec", "SimCluster"),
        ".des": (
            "AllOf",
            "Container",
            "Environment",
            "Event",
            "Process",
            "Resource",
            "SimulationError",
            "Timeout",
        ),
        ".power": ("EnergyMeter", "IntervalEnergyMeter", "PduSampler", "PowerSample"),
    },
)
