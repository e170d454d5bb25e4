"""Hyperparameter-optimisation algorithms and search spaces."""

from .._lazy import lazy_exports

__all__ = lazy_exports(
    globals(),
    {
        ".asha": ("Asha",),
        ".algorithms": (
            "Observation",
            "RandomSearch",
            "SearchAlgorithm",
            "Suggestion",
        ),
        ".hyperband": ("HyperBand",),
        ".space": (
            "Choice",
            "Domain",
            "LogUniform",
            "SearchSpace",
            "Uniform",
            "joint_space",
            "paper_hyper_space",
            "paper_system_space",
            "split_config",
        ),
    },
)
