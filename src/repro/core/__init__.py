"""PipeTune core: clustering, ground truth, probing, pipelined tuning."""

from .._lazy import lazy_exports

__all__ = lazy_exports(
    globals(),
    {
        ".clustering": ("KMeans", "pairwise_sq_distances"),
        ".groundtruth": ("GroundTruth", "GroundTruthEntry", "GroundTruthMatch"),
        ".pipetune": (
            "PipeTuneConfig",
            "PipeTuneHooks",
            "PipeTuneSession",
            "PipeTuneStats",
        ),
        ".probing": (
            "TIE_BAND",
            "ProbeSample",
            "ProbingController",
        ),
    },
)
