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
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..scenarios.backends import map_tasks
from ..scenarios.cache import CacheStats, cached_backend
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


def _render_task(payload) -> Tuple[str, str, float, Optional[CacheStats]]:
    """Render and time one exhibit (picklable pool task).

    Returns (name, bytes, render seconds, CacheStats-or-None). With a
    ``cache_dir`` the run goes through the content-addressed outcome
    cache (:mod:`repro.scenarios.cache`); the determinism contract
    extends to hits — recalled bytes == recomputed bytes."""
    name, workers, cache_dir = payload
    started = time.perf_counter()
    backend = None
    if cache_dir is not None:
        backend = cached_backend(cache_dir=cache_dir, workers=workers)
    result = EXHIBIT_RUNS[name].run(workers=workers, backend=backend)
    content = render_result(result)
    stats = backend.stats if backend is not None else None
    return name, content, time.perf_counter() - started, stats


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
    return _render_task((name, workers, cache_dir))[1]


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


def render_many(
    names: Optional[Iterable[str]] = None,
    workers: Optional[int] = None,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> List[Tuple[str, str, float, Optional[CacheStats]]]:
    """Render exhibits -> [(name, bytes, render seconds, CacheStats-or-None)].

    The one fan-out primitive behind :func:`check` and the operator
    script, in ``names`` order: ``jobs > 1`` renders exhibits
    concurrently, ``workers > 1`` parallelises within each exhibit
    (never both — pool workers are daemonic). Elapsed times are
    worker-side.
    """
    if jobs is not None and jobs > 1 and workers is not None and workers > 1:
        raise ValueError(
            "choose one parallelism level: jobs (across exhibits) or "
            "workers (within one exhibit), not both"
        )
    payloads = [(name, workers, cache_dir) for name in resolve_names(names)]
    return map_tasks(_render_task, payloads, workers=jobs)


def check(
    names: Optional[Iterable[str]] = None,
    workers: Optional[int] = None,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> Dict[str, ExhibitDiff]:
    """Regenerate exhibits and byte-diff each against the committed file.

    Rendering parallelises like :func:`render_many`; the committed
    files are read and compared in this process. Results are identical
    for any ``jobs``/``workers``, and a ``cache_dir`` run reports
    per-exhibit hit/miss counters on the diffs without changing a byte.
    """
    diffs = {}
    for name, regenerated, elapsed, stats in render_many(
        names, workers=workers, jobs=jobs, cache_dir=cache_dir
    ):
        path = committed_path(name)
        committed = None
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8", newline="") as handle:
                committed = handle.read()
        diffs[name] = ExhibitDiff(
            name=name,
            matches=committed == regenerated,
            committed_exists=committed is not None,
            regenerated=regenerated,
            elapsed_s=elapsed,
            cache_hits=stats.hits if stats is not None else None,
            cache_misses=stats.misses if stats is not None else None,
        )
    return diffs
