"""Golden-trace determinism harness for the committed exhibits.

The committed ``benchmarks/results/*.txt`` files are the golden traces
of the reproduction: every one of them must regenerate byte-for-byte
from the canonical :data:`repro.experiments.EXHIBIT_RUNS` parameters on
any machine, any run. This module is the single implementation of
"render an exhibit the way it is committed" plus the byte-diff against
the committed copy; it backs

* ``scripts/regenerate_exhibits.py`` (the operator entry point),
* ``tests/test_determinism.py`` (the tier-1 byte-diff), and
* CI's exhibits job (``--check`` over all exhibits).

Checking never writes: the goldens change only through
``regenerate_exhibits.py --update``, rerun once by any change that
touches random streams and committed together with the change that
explains them (see benchmarks/README.md, "Determinism contract &
re-baseline procedure").
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from ..schema import NotFound
from . import EXHIBIT_RUNS

if TYPE_CHECKING:
    from ..scenarios.cache import CacheStats

#: benchmarks/results relative to the repository root (three levels up
#: from this file: src/repro/experiments -> repo).
_REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
)
RESULTS_DIR = os.path.join(_REPO_ROOT, "benchmarks", "results")


def committed_path(name: str) -> str:
    """Path of one exhibit's committed golden trace."""
    return os.path.join(RESULTS_DIR, f"{name}.txt")


def render_result(result) -> str:
    """Serialize an ExperimentResult exactly as committed on disk.

    The single definition of the trace format (rendered table plus one
    trailing newline): every renderer below, the CLI's ``--out`` and
    the service's job traces go through it.
    """
    return result.format_table() + "\n"


def write_trace(name: str, content: str, results_dir: Optional[str] = None) -> str:
    """Write one exhibit's trace bytes verbatim; returns the path.

    The one file writer: ``regenerate_exhibits.py --update`` (into
    :data:`RESULTS_DIR`) and ``repro scenario run --out DIR`` call it.
    """
    results_dir = results_dir or RESULTS_DIR
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{name}.txt")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(content)
    return path


def resolve_names(names: Optional[Iterable[str]] = None) -> List[str]:
    """Validate/expand a user-supplied exhibit subset (None = all)."""
    if names is None:
        return list(EXHIBIT_RUNS)
    resolved = list(names)
    unknown = [n for n in resolved if n not in EXHIBIT_RUNS]
    if unknown:
        raise NotFound(
            f"unknown exhibits {unknown}; known: {sorted(EXHIBIT_RUNS)}"
        )
    return resolved


@dataclass(frozen=True)
class ExhibitDiff:
    """Outcome of regenerating one exhibit against its committed trace."""

    name: str
    #: the committed trace (:func:`read_committed`); None when missing.
    committed: Optional[str]
    regenerated: str
    #: regeneration time of this exhibit (``RunReport.elapsed_s``).
    elapsed_s: float = 0.0
    #: outcome-cache counters when the check ran through a cache dir.
    cache_stats: Optional[CacheStats] = None

    @property
    def matches(self) -> bool:
        return self.committed == self.regenerated

    @property
    def status(self) -> str:
        if self.committed is None:
            return "MISSING"
        return "ok" if self.matches else "DIFF"


def render_many(
    names: Optional[Iterable[str]] = None,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> List[Tuple[str, str, float, Optional[CacheStats]]]:
    """Render exhibits -> [(name, bytes, seconds, CacheStats-or-None)].

    The one fan-out behind :func:`check` and the operator script, in
    ``names`` order: every exhibit is planned at its canonical (scale,
    seed), all of their chains run through one backend (``workers > 1``
    spreads them over one process pool, ``cache_dir`` recalls and
    stores them in the outcome cache — the determinism contract
    extends to hits), and each exhibit is collected as soon as its last
    chain is back (:func:`~repro.scenarios.merge.run_reports`). A
    raising step escapes. Seconds are each exhibit's ``RunReport.elapsed_s``.
    """
    from ..scenarios.registry import get_definition
    from ..scenarios.backends import backend_for
    from ..scenarios.merge import run_reports

    names = resolve_names(names)
    backend = backend_for(workers, cache_dir=cache_dir)
    pairs = []
    for name in names:
        run = EXHIBIT_RUNS[name]
        runner = get_definition(name)
        plan = runner.plan(scale=run.scale, seed=run.seed)
        runner.validate(plan)
        pairs.append((runner, plan))
    return [
        (name, render_result(report.unwrap()), report.elapsed_s, report.cache_stats)
        for report, name in zip(run_reports(backend, pairs), names)
    ]


def check(
    names: Optional[Iterable[str]] = None,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> Dict[str, ExhibitDiff]:
    """Regenerate exhibits and byte-diff each against the committed file.

    Rendering runs like :func:`render_many`; the committed files are
    read and compared afterwards. Results are identical for any
    ``workers``, and a ``cache_dir`` run reports per-exhibit hit/miss
    counters on the diffs without changing a byte.
    """
    return {
        name: ExhibitDiff(name, read_committed(name), regenerated, elapsed, stats)
        for name, regenerated, elapsed, stats in render_many(
            names, workers=workers, cache_dir=cache_dir
        )
    }


def read_committed(name: str) -> Optional[str]:
    """One exhibit's committed trace bytes, or None when there is none."""
    path = committed_path(name)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return handle.read()

