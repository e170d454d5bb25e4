"""Hyperparameter-optimisation algorithms and search spaces."""

from .._lazy import lazy_exports

__all__ = lazy_exports(
    globals(),
    {
        ".asha": ("Asha",),
        ".algorithms": (
            "GridSearch",
            "Observation",
            "RandomSearch",
            "SearchAlgorithm",
            "Suggestion",
        ),
        ".bayesian": (
            "BayesianOptimisation",
            "GaussianProcess",
            "expected_improvement",
        ),
        ".genetic": ("GeneticSearch",),
        ".hyperband": ("HyperBand",),
        ".pbt": ("PopulationBasedTraining",),
        ".space": (
            "Choice",
            "Domain",
            "IntUniform",
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
