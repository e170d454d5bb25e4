"""Simulated hardware performance counters (PMU, events, profiler)."""

from .._lazy import lazy_exports

__all__ = lazy_exports(
    globals(),
    {
        ".events": (
            "EVENT_NAMES",
            "FIXED_COUNTER_EVENTS",
            "NUM_EVENTS",
            "event_index",
            "workload_signature",
        ),
        ".pmu": (
            "NUM_FIXED_COUNTERS",
            "NUM_GENERIC_COUNTERS",
            "CounterReading",
            "Pmu",
        ),
        ".profiler": (
            "PROFILING_OVERHEAD",
            "SAMPLE_PERIOD_S",
            "EpochProfile",
            "EpochProfiler",
            "average_profiles",
        ),
    },
)
