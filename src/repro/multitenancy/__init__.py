"""Multi-tenant FIFO scheduling of HPT jobs (paper §7.4)."""

from .._lazy import lazy_exports

__all__ = lazy_exports(
    globals(),
    {
        ".arrivals": ("JobArrival", "generate_arrivals"),
        ".scheduler": (
            "FifoJobScheduler",
            "JobRecord",
            "MultiTenancyResult",
            "run_multi_tenancy",
            "unseen_variant",
        ),
    },
)
