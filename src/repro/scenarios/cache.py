"""Content-addressed outcome cache: incremental sweeps & re-runs.

Chain outcomes are pure functions of their inputs: every random
stream is counter-keyed on spec reprs and seeds (PR 3), so a chain's
results are fully determined by (scenario repr, scale, seed, step
reprs) — exactly the bytes :func:`repro.workloads.spec.stable_seed`
keys streams on. This module memoizes chain outcomes on disk under a
sha256 of those same bytes:

* :func:`chain_key` — the content address of one
  :class:`~repro.scenarios.planner.ExecutionChain` of one plan, salted
  with a code-version string so a behavioural change busts every
  stale entry at once (:data:`CODE_VERSION`);
* :class:`OutcomeCache` — the on-disk store: checksummed pickle
  entries, atomic writes, and a ``load`` that treats *any* damage
  (truncation, garbage, checksum mismatch) as a miss — corruption can
  cost a recompute, never a crash and never wrong bytes;
* :class:`CachingBackend` — wraps any execution backend (serial or
  pooled): cache hits skip execution entirely, misses run
  on the wrapped backend's ``run_chains`` in one call and are stored,
  and both re-tile through :func:`~repro.scenarios.merge.
  merge_outcomes` so the collect phase cannot tell a hit from a
  recompute. That is the contract: a warm run is byte-identical to a
  cold run.

Failures are never cached: a chain whose outcome list contains any
:class:`~repro.scenarios.containment.ChainFailure` (including
cancellation skips) is recomputed next time.

An entry's payload is a plain pickle of the outcome list. The outcome
record classes (job, trial, epoch, profile, timeline, fault and table
records) are decorated with :func:`repro.schema.positional_pickle`,
so each record loads as one constructor call on its field values, and
the per-trial and per-epoch ones are slotted. A cache hit therefore
costs one call per record, not a dict of fields set one by one. An
entry written before that change pickled each record's ``__dict__``,
which a slotted class cannot take back: it fails to load, which is a
miss like any other damage, and the recompute rewrites it.

On top of the outcome store sits **sweep result persistence**: every
surviving variant of a sweep run lands as one TSDB measurement (one
point per table row, tagged by its axis values — the tagged
sub-column cache makes per-variant field queries cheap), runs
accumulate under ``<cache-dir>/sweeps/<name>/`` via
:class:`SweepRunStore`, and :func:`compare_sweep_runs` diffs two runs
field-by-field for the ``repro sweep compare`` CLI.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..schema import NotFound
from ..tsdb import Point, TimeSeriesStore
from .containment import is_failure
from .options import resolve_cache_dir
from .planner import ExecutionChain
from .runner import AnalysisStep, ScenarioPlan, Step

#: the code-version salt mixed into every chain key. Bump it whenever
#: a change alters what any step computes (new stream layout, changed
#: collector inputs, re-baselined goldens) — every stale entry then
#: misses at once instead of replaying old bytes — and whenever stored
#: entries may be wrong. "stateless-rng-v3" is such a bump: the goldens
#: are unchanged, but a daemon running two jobs at once could cache
#: outcomes corrupted by the (since fixed) noise-block growth race.
CODE_VERSION = "stateless-rng-v3"

_MAGIC = b"repro-outcome-cache\n"
_ENTRY_SUFFIX = ".outcome"


def step_cache_repr(step: Step) -> str:
    """The canonical step repr the chain key hashes.

    Job/trial/trace steps are frozen dataclasses of picklable specs —
    their generated repr is already deterministic bytes (and memoized
    by ``_cache_repr``). :class:`AnalysisStep` is the exception: its
    repr embeds the function object's memory address, so it is keyed
    on the step *name* instead — analysis functions are registered
    code, and code changes are what :data:`CODE_VERSION` versions.
    """
    if isinstance(step, AnalysisStep):
        return f"AnalysisStep(name={step.name!r})"
    return repr(step)


def chain_key(
    plan: ScenarioPlan, chain: ExecutionChain, salt: str = CODE_VERSION
) -> str:
    """sha256 content address of one chain of one plan.

    The digest covers exactly what determines the chain's outcomes —
    (salt, scenario repr, scale, seed, step reprs in chain order),
    joined the same way :func:`~repro.workloads.spec.stable_seed`
    joins its key parts. Chain *position* is deliberately absent: the
    same steps at a different plan index are the same computation.
    """
    parts = [salt, repr(plan.scenario), repr(plan.scale), repr(plan.seed)]
    parts.extend(step_cache_repr(step) for step in chain.steps)
    return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """Chain hit/miss counts through a :class:`CachingBackend`: one
    plan's (:meth:`CachingBackend.stats_for`), or a sum of them."""

    hits: int = 0
    misses: int = 0

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(self.hits + other.hits, self.misses + other.misses)

    def as_dict(self) -> Dict:
        return {"hits": self.hits, "misses": self.misses}


class OutcomeCache:
    """The on-disk content-addressed store of chain outcome lists.

    Entries live at ``<root>/<aa>/<digest>.outcome`` as
    ``magic || sha256(payload) || len(payload) || payload`` where the
    payload pickles the outcome list. Writes go through a temp file +
    ``os.replace`` so concurrent writers (pooled exhibit regeneration
    sharing one dir) can only ever leave a complete entry behind.
    """

    def __init__(self, root: Optional[str] = None, salt: str = CODE_VERSION):
        self.root = resolve_cache_dir(root)
        self.salt = salt

    def key(self, plan: ScenarioPlan, chain: ExecutionChain) -> str:
        return chain_key(plan, chain, salt=self.salt)

    def _path(self, digest: str) -> str:
        return os.path.join(self.root, digest[:2], digest[2:] + _ENTRY_SUFFIX)

    def load(self, digest: str) -> Optional[List]:
        """The stored outcome list, or None on miss *or any damage*.

        A truncated, garbled or checksum-failing entry is a miss — the
        caller recomputes and overwrites it. Nothing here raises.
        """
        try:
            with open(self._path(digest), "rb") as handle:
                blob = handle.read()
            if not blob.startswith(_MAGIC):
                return None
            offset = len(_MAGIC)
            checksum = blob[offset : offset + 32]
            length = int.from_bytes(blob[offset + 32 : offset + 40], "big")
            payload = blob[offset + 40 :]
            if len(payload) != length:
                return None
            if hashlib.sha256(payload).digest() != checksum:
                return None
            outcomes = pickle.loads(payload)
            if not isinstance(outcomes, list):
                return None
            return outcomes
        except Exception:
            return None

    def store(self, digest: str, outcomes: List) -> bool:
        """Persist one chain's outcomes; returns whether it stored.

        Refuses lists containing any contained failure (including
        cancellation skips): only complete, successful computations
        are worth replaying.
        """
        if any(is_failure(outcome) for outcome in outcomes):
            return False
        try:
            payload = pickle.dumps(list(outcomes), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        path = self._path(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        blob = (
            _MAGIC
            + hashlib.sha256(payload).digest()
            + len(payload).to_bytes(8, "big")
            + payload
        )
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except OSError:
            try:
                os.remove(tmp)
            except OSError:
                pass
            return False
        return True

    def __len__(self) -> int:
        count = 0
        if not os.path.isdir(self.root):
            return 0
        for _, _, files in os.walk(self.root):
            count += sum(1 for name in files if name.endswith(_ENTRY_SUFFIX))
        return count

    def __repr__(self) -> str:
        return f"OutcomeCache(root={self.root!r}, salt={self.salt!r})"


class CachingBackend:
    """Memoizes chain outcomes around any execution backend.

    ``run_chains`` looks every task's chain up in the
    :class:`OutcomeCache` and hands a hit back as soon as it is
    loaded; all misses then go to the wrapped backend's
    ``run_chains`` in one call, and each successful recompute is
    stored as it comes back. Hits and misses merge into plan order
    alike — indistinguishable bytes either way. :meth:`stats_for`
    reads one plan's hit/miss counts of the last call.
    """

    def __init__(self, inner, cache: Optional[OutcomeCache] = None):
        if not hasattr(inner, "run_chains"):
            raise TypeError(
                f"{type(inner).__name__} has no run_chains(tasks); "
                "CachingBackend needs a chain-granular backend"
            )
        self.inner = inner
        # explicit None check: OutcomeCache defines __len__, so an
        # *empty* cache is falsy and `cache or ...` would silently
        # swap a fresh cache dir for the default root.
        self.cache = OutcomeCache() if cache is None else cache
        self._hits: Dict[int, List[bool]] = {}

    def stats_for(self, plan: ScenarioPlan) -> CacheStats:
        """One plan's hit/miss counts in the last ``run_chains`` call."""
        hits = self._hits.get(id(plan), [])
        return CacheStats(hits=sum(hits), misses=len(hits) - sum(hits))

    def run_chains(self, tasks) -> Iterator[Tuple[int, List]]:
        tasks = list(tasks)
        # id(plan) -> hit flags; the task list keeps every plan alive.
        self._hits = {}
        keys: Dict[int, str] = {}
        for position, (plan, chain) in enumerate(tasks):
            key = self.cache.key(plan, chain)
            cached = self.cache.load(key)
            hit = cached is not None and len(cached) == len(chain.indices)
            self._hits.setdefault(id(plan), []).append(hit)
            if hit:
                yield position, cached
            else:
                keys[position] = key
        # hold no outcomes while a chain runs: a serial caller's memory
        # is one plan's outcomes at a time.
        cached = None
        misses = list(keys)
        if misses:
            executed = self.inner.run_chains([tasks[p] for p in misses])
            for offset, outcomes in executed:
                position = misses[offset]
                self.cache.store(keys[position], outcomes)
                yield position, outcomes
                del outcomes

    def __repr__(self) -> str:
        return f"CachingBackend(inner={self.inner!r}, cache={self.cache!r})"


# ---------------------------------------------------------------------------
# Sweep result persistence (TSDB measurements per variant)
# ---------------------------------------------------------------------------

#: measurement/tag-key identifiers reject ",= \n" — variant names
#: carry "=" and "," by construction, so they are transliterated.
_MEASUREMENT_SAFE = str.maketrans({",": ";", "=": ":", " ": "_", "\n": "_"})


def measurement_name(variant_name: str) -> str:
    """A TSDB-safe measurement name for one sweep variant."""
    return variant_name.translate(_MEASUREMENT_SAFE)


def _axis_tags(overrides) -> Dict[str, str]:
    from .sweep import _fmt  # late import: sweep imports this module

    return {path: _fmt(value) for path, value in overrides}


def sweep_points(outcome) -> List[Point]:
    """One TSDB point per result row of every surviving variant.

    Measurement = the (sanitised) variant name; time = row index; tags
    = the variant's axis values plus any non-numeric row columns;
    fields = the numeric row columns. Tagged per-variant queries hit
    the store's tagged sub-column cache.
    """
    points: List[Point] = []
    for variant in outcome.outcomes:
        if not variant.ok:
            continue
        measurement = measurement_name(variant.name)
        tags = _axis_tags(variant.overrides)
        for index, row in enumerate(variant.result.rows):
            fields = {
                key: float(value)
                for key, value in row.items()
                if isinstance(value, (int, float)) and not isinstance(value, bool)
            }
            if not fields:
                continue
            row_tags = dict(tags)
            for key, value in row.items():
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    row_tags[key] = str(value)
            points.append(
                Point(
                    measurement=measurement,
                    time=float(index),
                    tags=row_tags,
                    fields=fields,
                )
            )
    return points


def record_sweep(store: TimeSeriesStore, outcome) -> int:
    """Write one sweep run's variant tables into a TSDB store."""
    points = sweep_points(outcome)
    store.write_many(points)
    return len(points)


class SweepRunStore:
    """Sweep runs accumulated on disk, one (meta, points) pair each.

    Runs live under ``<root>/sweeps/<sweep-name>/<run-id>.meta.json``
    plus ``<run-id>.points.jsonl`` (the TSDB store's own JSON-lines
    persistence). Run ids are nanosecond timestamps, so lexicographic
    order is submission order and ``compare`` can default to the last
    two runs.
    """

    def __init__(self, root: Optional[str] = None):
        self.root = os.path.join(resolve_cache_dir(root), "sweeps")

    def _sweep_dir(self, sweep_name: str) -> str:
        return os.path.join(self.root, sweep_name)

    def save(self, outcome) -> str:
        """Persist one SweepResult; returns its run id."""
        # repro: allow[DET001] -- run ids are wall-clock stamped, never replayed
        run_id = f"{time.time_ns():020d}"
        directory = self._sweep_dir(outcome.sweep.name)
        os.makedirs(directory, exist_ok=True)
        store = TimeSeriesStore()
        points = record_sweep(store, outcome)
        meta = {
            "run_id": run_id,
            "sweep": outcome.sweep.as_dict(),
            "scale": outcome.scale,
            "seed": outcome.seed,
            "workers": outcome.workers,
            # repro: allow[DET001] -- provenance timestamp, not part of the outcome
            "recorded_at": time.time(),
            "points": points,
            "cache": outcome.cache_stats and outcome.cache_stats.as_dict(),
            "variants": [
                {
                    "name": variant.name,
                    "measurement": measurement_name(variant.name),
                    "ok": variant.ok,
                    "tags": _axis_tags(variant.overrides),
                    "error_type": variant.error_type,
                }
                for variant in outcome.outcomes
            ],
        }
        store.save(os.path.join(directory, f"{run_id}.points.jsonl"))
        meta_path = os.path.join(directory, f"{run_id}.meta.json")
        tmp = f"{meta_path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(meta, handle, indent=2, sort_keys=True)
        os.replace(tmp, meta_path)
        return run_id

    def runs(self, sweep_name: str) -> List[str]:
        """Run ids of one sweep, oldest first."""
        directory = self._sweep_dir(sweep_name)
        if not os.path.isdir(directory):
            return []
        return sorted(
            name[: -len(".meta.json")]
            for name in os.listdir(directory)
            if name.endswith(".meta.json")
        )

    def load(self, sweep_name: str, run_id: str) -> Tuple[Dict, TimeSeriesStore]:
        directory = self._sweep_dir(sweep_name)
        meta_path = os.path.join(directory, f"{run_id}.meta.json")
        if not os.path.exists(meta_path):
            raise NotFound(
                f"no run {run_id!r} of sweep {sweep_name!r}; "
                f"known: {self.runs(sweep_name)}"
            )
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        store = TimeSeriesStore.load(
            os.path.join(directory, f"{run_id}.points.jsonl")
        )
        return meta, store


class NoSweepRuns(LookupError):
    """compare asked for runs that are not on disk."""


def compare_sweep_runs(
    runs: SweepRunStore,
    sweep_name: str,
    run_a: Optional[str] = None,
    run_b: Optional[str] = None,
    metric: Optional[str] = None,
) -> Dict:
    """Field-by-field diff of two persisted runs of one sweep.

    Defaults to the two most recent runs. Every shared surviving
    variant contributes one row per numeric field (or just ``metric``
    when given): the per-run mean over the variant's table rows —
    fetched through tagged ``field_values`` queries, exercising the
    tagged sub-column cache — and their delta.
    """
    known = runs.runs(sweep_name)
    if run_a is None or run_b is None:
        if len(known) < 2:
            raise NoSweepRuns(
                f"sweep {sweep_name!r} has {len(known)} persisted run(s); "
                "compare needs two — run it twice with --cache first"
            )
        run_a, run_b = known[-2], known[-1]
    meta_a, store_a = runs.load(sweep_name, run_a)
    meta_b, store_b = runs.load(sweep_name, run_b)
    variants_a = {v["name"]: v for v in meta_a["variants"] if v["ok"]}
    variants_b = {v["name"]: v for v in meta_b["variants"] if v["ok"]}
    shared = [name for name in variants_a if name in variants_b]
    rows: List[Dict] = []
    for name in shared:
        variant = variants_a[name]
        measurement = variant["measurement"]
        tags = variant["tags"]
        fields_a = _numeric_fields(store_a, measurement)
        fields_b = _numeric_fields(store_b, measurement)
        fields = sorted(fields_a & fields_b)
        if metric is not None:
            fields = [f for f in fields if f == metric]
        for field in fields:
            values_a = store_a.field_values(measurement, field, tags=tags)
            values_b = store_b.field_values(measurement, field, tags=tags)
            mean_a = sum(values_a) / len(values_a) if values_a else None
            mean_b = sum(values_b) / len(values_b) if values_b else None
            rows.append(
                {
                    "variant": name,
                    "field": field,
                    "mean_a": mean_a,
                    "mean_b": mean_b,
                    "delta": (
                        None
                        if mean_a is None or mean_b is None
                        else mean_b - mean_a
                    ),
                    "identical": list(values_a) == list(values_b),
                }
            )
    return {
        "sweep": sweep_name,
        "run_a": run_a,
        "run_b": run_b,
        "rows": rows,
        "only_in_a": sorted(set(variants_a) - set(variants_b)),
        "only_in_b": sorted(set(variants_b) - set(variants_a)),
        "identical": bool(rows) and all(row["identical"] for row in rows),
    }


def _numeric_fields(store: TimeSeriesStore, measurement: str) -> set:
    fields = set()
    for point in store.query(measurement):
        fields.update(point.fields)
    return fields
