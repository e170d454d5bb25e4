"""Committed exhibits: canonical run parameters + golden-trace harness.

Every exhibit is a registered scenario (:mod:`repro.scenarios`);
this package only records the (scale, seed) each committed trace
under ``benchmarks/results/`` is regenerated at
(:data:`EXHIBIT_RUNS`) and byte-diffs the result
(:mod:`repro.experiments.golden`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..scenarios import run_scenario

if TYPE_CHECKING:
    from ..scenarios.result import ExperimentResult


@dataclass(frozen=True)
class ExhibitRun:
    """Canonical (scale, seed) under which an exhibit is committed.

    ``benchmarks/results/*.txt`` are regenerated and byte-diffed at
    exactly these parameters — by the benchmark suite, by
    ``scripts/regenerate_exhibits.py`` and by CI's exhibits job — so
    they live in one place.
    """

    name: str
    scale: float
    seed: int = 0

    def run(self, workers: Optional[int] = None, backend=None) -> ExperimentResult:
        """Regenerate at the canonical parameters through the scenario
        registry. ``workers > 1`` executes on a process pool and
        ``backend`` overrides the backend outright (e.g. a caching
        one); the rendered bytes are identical either way."""
        return run_scenario(
            self.name,
            scale=self.scale,
            seed=self.seed,
            workers=workers,
            backend=backend,
        )


#: canonical regeneration parameters for every committed exhibit.
EXHIBIT_RUNS = {
    run.name: run
    for run in (
        ExhibitRun("fig01", scale=1.0),
        ExhibitRun("fig02", scale=1.0),
        ExhibitRun("fig03", scale=1.0),
        ExhibitRun("fig05", scale=0.5),
        ExhibitRun("table2", scale=1.0),
        ExhibitRun("fig08", scale=1.0),
        ExhibitRun("fig09", scale=1.0),
        ExhibitRun("fig10", scale=1.0),
        ExhibitRun("fig11", scale=0.67),
        ExhibitRun("fig12", scale=0.67),
        ExhibitRun("fig13", scale=0.67),
        ExhibitRun("fig14", scale=0.67),
        # hostile-world pack
        ExhibitRun("spot-market-lenet", scale=1.0),
        ExhibitRun("churn-and-crashes", scale=1.0),
        ExhibitRun("hostile-storm", scale=1.0),
    )
}

__all__ = ["EXHIBIT_RUNS", "ExhibitRun"]
