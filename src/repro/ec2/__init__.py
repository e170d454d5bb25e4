"""EC2 pricing model for the Fig 1 cost extrapolation."""

from .._lazy import lazy_exports

__all__ = lazy_exports(
    globals(),
    {
        ".pricing": (
            "CHECKPOINT_RESTORE_S",
            "M4_4XLARGE",
            "M5_12XLARGE",
            "M5_24XLARGE",
            "PAPER_INSTANCES",
            "SPOT_DISCOUNT",
            "SPOT_PROVISION_S",
            "InstanceType",
            "cost_table",
            "grid_trial_count",
            "mean_trial_time_s",
            "spot_price_per_hour",
            "spot_tuning_cost_usd",
            "tuning_cost_usd",
            "tuning_time_s",
        ),
    },
)
