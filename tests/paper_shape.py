"""Paper-shape helpers: read the paper's claims back off an exhibit table.

``tests/test_experiments.py`` asserts with them; each reads one
registered exhibit's :class:`~repro.scenarios.result.ExperimentResult`
rows and returns the quantity a paper claim is about.
"""

from collections import Counter, defaultdict
from typing import Dict

from repro.scenarios.result import ExperimentResult
from repro.scenarios.runner import mean


def exponential_growth_ratio(result: ExperimentResult, column: str) -> float:
    """Mean ratio between consecutive rows of a Fig 1 column (≈3 expected)."""
    values = [row[column] for row in result.rows]
    ratios = [b / a for a, b in zip(values, values[1:]) if a > 0]
    if not ratios:
        return 1.0
    return sum(ratios) / len(ratios)


def max_training_cv(result: ExperimentResult) -> float:
    """Largest epoch-to-epoch variation over all Fig 2 events."""
    return max(row["cv"] for row in result.rows)


def cluster_purity(result: ExperimentResult) -> float:
    """Fraction of Fig 8 points whose cluster matches their majority type."""
    by_cluster = defaultdict(list)
    for row in result.rows:
        by_cluster[row["cluster"]].append(row["type"])
    agreeing = sum(
        Counter(types).most_common(1)[0][1] for types in by_cluster.values()
    )
    return agreeing / len(result.rows)


def time_to_accuracy(
    result: ExperimentResult, system: str, accuracy_pct: float
) -> float:
    """Fig 9 wall-clock until a system's best accuracy crosses a level."""
    for row in sorted(
        (r for r in result.rows if r["system"] == system),
        key=lambda r: r["wall_time_s"],
    ):
        if row["best_accuracy_pct"] >= accuracy_pct:
            return row["wall_time_s"]
    return float("inf")


def mean_trial_time(result: ExperimentResult, system: str) -> float:
    """Mean Fig 10 trial time of one system."""
    return mean(r["trial_time_s"] for r in result.rows if r["system"] == system)


def metric_by_system(
    result: ExperimentResult, workload: str, metric: str
) -> Dict[str, float]:
    """{system: value} for one workload and metric column (Figs 11/12)."""
    return {
        row["system"]: row[metric]
        for row in result.rows
        if row["workload"] == workload
    }
