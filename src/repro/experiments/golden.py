"""Golden-trace determinism harness for the committed exhibits.

The committed ``benchmarks/results/*.txt`` files are the golden traces
of the reproduction: every one of them must regenerate byte-for-byte
from the canonical :data:`repro.experiments.EXHIBIT_RUNS` parameters on
any machine, any run. This module is the single implementation of
"render an exhibit the way it is committed" plus the byte-diff against
the committed copy; it backs

* ``scripts/regenerate_exhibits.py`` (the operator entry point),
* the ``golden_exhibits`` test fixture (``tests/conftest.py``), and
* CI's exhibits job (``--check`` over all exhibits).

Any PR that touches random streams reruns this harness once in
``--update`` mode and commits the new traces together with the change
that explains them (see benchmarks/README.md, "Determinism contract &
re-baseline procedure").
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..scenarios.backends import map_tasks
from ..scenarios.cache import cached_backend
from . import EXHIBIT_RUNS

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
    trailing newline) — the benchmark suite's ``record_exhibit``
    fixture and every writer below go through it.
    """
    return result.format_table() + "\n"


def write_trace(name: str, content: str, results_dir: Optional[str] = None) -> str:
    """Write one exhibit's trace bytes verbatim; returns the path."""
    results_dir = results_dir or RESULTS_DIR
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{name}.txt")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(content)
    return path


def _render_with_stats(
    name: str, workers: Optional[int] = None, cache_dir: Optional[str] = None
):
    """Render one exhibit -> (bytes, CacheStats-or-None).

    With a ``cache_dir`` the run goes through the content-addressed
    outcome cache (:mod:`repro.scenarios.cache`); the determinism
    contract extends to hits — recalled bytes == recomputed bytes."""
    if cache_dir is None:
        return render_result(EXHIBIT_RUNS[name].run(workers=workers)), None
    backend = cached_backend(cache_dir=cache_dir, workers=workers)
    result = EXHIBIT_RUNS[name].run(backend=backend)
    return render_result(result), backend.stats


def render(
    name: str,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> str:
    """Regenerate one exhibit at its canonical (scale, seed) -> bytes.

    ``workers > 1`` runs the exhibit's scenario on a process-pool
    backend; the determinism contract guarantees identical bytes for
    any worker count (tests/test_scenarios_parallel.py proves it).
    ``cache_dir`` additionally memoizes chain outcomes on disk — same
    bytes, cold or warm."""
    content, _ = _render_with_stats(name, workers=workers, cache_dir=cache_dir)
    return content


def _resolve_parallelism(
    workers: Optional[int], jobs: Optional[int]
) -> Tuple[Optional[int], Optional[int]]:
    """Guard the two parallelism levels against nesting.

    ``jobs`` fans whole exhibits out over a pool; ``workers``
    parallelises inside one exhibit. Pool workers are daemonic and
    cannot open nested pools, so combining both is an error."""
    if jobs is not None and jobs > 1 and workers is not None and workers > 1:
        raise ValueError(
            "choose one parallelism level: jobs (across exhibits) or "
            "workers (within one exhibit), not both"
        )
    return workers, jobs


def resolve_names(names: Optional[Iterable[str]] = None) -> List[str]:
    """Validate/expand a user-supplied exhibit subset (None = all)."""
    if names is None:
        return list(EXHIBIT_RUNS)
    resolved = list(names)
    unknown = [n for n in resolved if n not in EXHIBIT_RUNS]
    if unknown:
        raise KeyError(
            f"unknown exhibits {unknown}; known: {sorted(EXHIBIT_RUNS)}"
        )
    return resolved


@dataclass(frozen=True)
class ExhibitDiff:
    """Outcome of regenerating one exhibit against its committed trace."""

    name: str
    matches: bool
    committed_exists: bool
    regenerated: str
    #: regeneration time of this exhibit (worker-side when pooled).
    elapsed_s: float = 0.0
    #: outcome-cache counters when the check ran through a cache dir.
    cache_hits: Optional[int] = None
    cache_misses: Optional[int] = None

    @property
    def status(self) -> str:
        if not self.committed_exists:
            return "MISSING"
        return "ok" if self.matches else "DIFF"


def _check_task(payload) -> ExhibitDiff:
    """Regenerate one exhibit and byte-diff it (picklable pool task)."""
    name, workers, cache_dir = payload
    started = time.perf_counter()
    regenerated, stats = _render_with_stats(
        name, workers=workers, cache_dir=cache_dir
    )
    elapsed = time.perf_counter() - started
    path = committed_path(name)
    exists = os.path.exists(path)
    committed = None
    if exists:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            committed = handle.read()
    return ExhibitDiff(
        name=name,
        matches=committed == regenerated,
        committed_exists=exists,
        regenerated=regenerated,
        elapsed_s=elapsed,
        cache_hits=stats.hits if stats is not None else None,
        cache_misses=stats.misses if stats is not None else None,
    )


def _map_exhibits(task, names: List[str], workers, jobs, cache_dir=None) -> List:
    return map_tasks(
        task, [(name, workers, cache_dir) for name in names], workers=jobs
    )


def check(
    names: Optional[Iterable[str]] = None,
    workers: Optional[int] = None,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> Dict[str, ExhibitDiff]:
    """Regenerate exhibits and byte-diff each against the committed file.

    ``jobs > 1`` regenerates exhibits concurrently on a process pool
    (one exhibit per task); ``workers > 1`` instead parallelises
    within each exhibit. Results are identical either way, and a
    ``cache_dir`` run reports per-exhibit hit/miss counters on the
    diffs without changing a byte.
    """
    workers, jobs = _resolve_parallelism(workers, jobs)
    resolved = resolve_names(names)
    diffs = _map_exhibits(_check_task, resolved, workers, jobs, cache_dir)
    return {diff.name: diff for diff in diffs}


def _render_task(payload) -> Tuple[str, str, float]:
    name, workers, cache_dir = payload
    started = time.perf_counter()
    content = render(name, workers=workers, cache_dir=cache_dir)
    return name, content, time.perf_counter() - started


def render_many(
    names: Optional[Iterable[str]] = None,
    workers: Optional[int] = None,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> List[Tuple[str, str, float]]:
    """Render exhibits -> [(name, bytes, render seconds)], in order.

    The public fan-out primitive behind :func:`regenerate` and the
    operator script: ``jobs > 1`` renders exhibits concurrently,
    ``workers > 1`` parallelises within each exhibit (never both —
    pool workers are daemonic). Elapsed times are worker-side.
    """
    workers, jobs = _resolve_parallelism(workers, jobs)
    return _map_exhibits(
        _render_task, resolve_names(names), workers, jobs, cache_dir
    )


def regenerate(
    names: Optional[Iterable[str]] = None,
    results_dir: Optional[str] = None,
    workers: Optional[int] = None,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> Dict[str, str]:
    """Regenerate exhibits onto disk; returns {name: path written}.

    Rendering parallelises like :func:`check`; the writes themselves
    always happen in this process, after every render finished.
    """
    return {
        name: write_trace(name, content, results_dir)
        for name, content, _ in render_many(
            names, workers=workers, jobs=jobs, cache_dir=cache_dir
        )
    }
