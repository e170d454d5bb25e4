"""Tune-like HPT-job execution layer (trials, objectives, runner)."""

from .._lazy import lazy_exports

__all__ = lazy_exports(
    globals(),
    {
        ".objectives": (
            "OBJECTIVES",
            "Objective",
            "accuracy_objective",
            "accuracy_per_time_objective",
            "energy_system_objective",
            "runtime_system_objective",
        ),
        ".errors": (
            "NodeDeparted",
            "TrialCrashed",
            "TrialError",
            "TrialOutOfMemory",
            "TrialPreempted",
        ),
        ".faults": (
            "ChurnSpec",
            "CrashSpec",
            "FaultEvent",
            "FaultModel",
            "PreemptionSpec",
            "RetryPolicy",
            "StragglerSpec",
        ),
        ".runner": (
            "DEFAULT_SYSTEM",
            "HptJobRunner",
            "HptJobSpec",
            "HptResult",
            "TimelinePoint",
            "TrialFailure",
            "run_hpt_job",
        ),
        ".trainer": ("TrialContext", "TrialHooks", "run_trial", "trial_energy_j"),
        ".trial": ("EpochRecord", "TrialResult"),
    },
)
