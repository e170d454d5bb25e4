"""Embedded time-series store (InfluxDB stand-in)."""

from .._lazy import lazy_exports

__all__ = lazy_exports(
    globals(),
    {
        ".point": ("Point",),
        ".store": ("TimeSeriesStore",),
    },
)
