"""Outside-in layer tracing: timed spans around the program's entry points.

:func:`install` wraps each public entry point listed in
:data:`TARGETS` with a span that records its caller (the enclosing
span), wall time and self time, which is the wall time minus the part
covered by child spans. Functions are patched wherever callers resolve
them: every ``repro`` module attribute bound to the original object is
replaced, because ``from ... import`` sites hold their own reference.
Methods are patched on the defining class and on every loaded subclass
that overrides them. :func:`uninstall` puts every original back.

Spans live in per-thread tables (no lock on the hot path), aggregated
by ``(parent, name)`` edge, and are written out at the end. The
wrappers read only the clock: they never touch arguments, results or
random streams, so traced outputs stay byte-identical.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (layer metric prefix, module, attribute, mode). ``span`` targets
#: record calls and self time; ``count`` targets are generator
#: functions (DES processes), whose body runs later inside the
#: scheduler, so only their calls are counted.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("des.run", "repro.simulation.des", "Environment.run", "span"),
    ("trainer.run_trial", "repro.tune.trainer", "run_trial", "count"),
    ("hpo.next_batch", "repro.hpo.algorithms", "SearchAlgorithm.next_batch", "span"),
    ("hpo.report", "repro.hpo.algorithms", "SearchAlgorithm.report", "span"),
    ("spec.rng_for", "repro.workloads.spec", "rng_for", "span"),
    ("spec.stable_seed", "repro.workloads.spec", "stable_seed", "span"),
    ("noise.noise_block", "repro.workloads.noise", "noise_block", "span"),
    ("noise.noise_matrix", "repro.workloads.noise", "noise_matrix", "span"),
    ("perfmodel.epoch_cost", "repro.workloads.perfmodel", "epoch_cost", "span"),
    (
        "perfmodel.epoch_cost_batch",
        "repro.workloads.perfmodel",
        "epoch_cost_batch",
        "span",
    ),
    (
        "accuracy.accuracy_at_epoch",
        "repro.workloads.accuracy",
        "accuracy_at_epoch",
        "span",
    ),
    ("pmu.final_counts", "repro.counters.pmu", "Pmu.final_counts", "span"),
    ("pmu.read_interval", "repro.counters.pmu", "Pmu.read_interval", "span"),
    (
        "profiler.profile_epoch",
        "repro.counters.profiler",
        "EpochProfiler.profile_epoch",
        "span",
    ),
    (
        "pipetune.warm_start",
        "repro.core.pipetune",
        "PipeTuneSession.warm_start",
        "span",
    ),
    ("groundtruth.query", "repro.core.groundtruth", "GroundTruth.query", "span"),
    ("clustering.kmeans_fit", "repro.core.clustering", "KMeans.fit", "span"),
    (
        "scheduler.run_multi_tenancy",
        "repro.multitenancy.scheduler",
        "run_multi_tenancy",
        "span",
    ),
    ("runner.plan", "repro.scenarios.runner", "ScenarioRunner.plan", "span"),
    ("runner.execute", "repro.scenarios.runner", "ScenarioRunner.execute", "span"),
    ("runner.collect", "repro.scenarios.runner", "ScenarioRunner.collect", "span"),
    ("backends.run_step", "repro.scenarios.backends", "ChainExecutor.run_step", "span"),
    ("merge.merge_outcomes", "repro.scenarios.merge", "merge_outcomes", "span"),
    ("cache.load", "repro.scenarios.cache", "OutcomeCache.load", "span"),
    ("cache.store", "repro.scenarios.cache", "OutcomeCache.store", "span"),
    ("cache.chain_key", "repro.scenarios.cache", "chain_key", "span"),
    ("tsdb.write", "repro.tsdb.store", "TimeSeriesStore.write", "span"),
    (
        "tsdb.aggregate_windows",
        "repro.tsdb.store",
        "TimeSeriesStore.aggregate_windows",
        "span",
    ),
    ("golden.render_result", "repro.experiments.golden", "render_result", "span"),
    ("service.handle", "repro.service.app", "ServiceApp.handle", "span"),
)


def _count_cache_load(tracer: "Tracer", result) -> None:
    tracer.count("cache.load.misses" if result is None else "cache.load.hits")


def _count_status(tracer: "Tracer", response) -> None:
    status = response.status
    if 200 <= status < 300:
        tracer.count("service.status.2xx")
    elif status >= 500:
        tracer.count("service.status.503" if status == 503 else "service.status.5xx")
    elif status in (409, 429):
        tracer.count(f"service.status.{status}")


#: per-target result observers that turn return values into counters.
RESULT_COUNTERS: Dict[str, Callable] = {
    "cache.load": _count_cache_load,
    "service.handle": _count_status,
}


class Tracer:
    """Span and counter tables, one per thread, merged on read."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[Tuple[list, dict, dict]] = []

    def _state(self) -> Tuple[list, dict, dict]:
        """This thread's (span stack, edge table, counters)."""
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], {}, {})
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def count(self, name: str) -> None:
        counters = self._state()[2]
        counters[name] = counters.get(name, 0) + 1

    def _enter(self, state, name: str):
        frame = [name, 0.0, self.clock()]
        state[0].append(frame)
        return frame

    def _exit(self, state, frame) -> None:
        stack, edges, _ = state
        elapsed = self.clock() - frame[2]
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += elapsed
        key = (parent[0] if parent is not None else None, frame[0])
        entry = edges.get(key)
        if entry is None:
            edges[key] = [1, elapsed, elapsed - frame[1]]
        else:
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - frame[1]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block (the benchmark's own root spans)."""
        state = self._state()
        frame = self._enter(state, name)
        try:
            yield
        finally:
            self._exit(state, frame)

    def wrap(self, name: str, fn: Callable, mode: str = "span") -> Callable:
        """``fn`` behind a span (or a call counter, for ``count``)."""
        if mode == "count":
            calls = f"{name}.calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.count(calls)
                return fn(*args, **kwargs)

            return counted

        on_result = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            stack = state[0]
            if stack and stack[-1][0] == name:
                # an override calling super(): one logical call.
                return fn(*args, **kwargs)
            frame = self._enter(state, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(state, frame)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    # -- read-out -----------------------------------------------------------
    def edges(self) -> Dict[Tuple[Optional[str], str], List[float]]:
        """(parent, name) -> [calls, total_s, self_s], all threads."""
        merged: Dict[Tuple[Optional[str], str], List[float]] = {}
        with self._lock:
            tables = [state[1] for state in self._states]
        for table in tables:
            for key, (calls, total, own) in list(table.items()):
                entry = merged.setdefault(key, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
        return merged

    def totals(self) -> Dict[str, Dict[str, float]]:
        """name -> {calls, self_s}, summed over callers."""
        out: Dict[str, Dict[str, float]] = {}
        for (_, name), (calls, _, own) in self.edges().items():
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += calls
            entry["self_s"] += own
        return out

    def counters(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        with self._lock:
            tables = [state[2] for state in self._states]
        for table in tables:
            for name, value in list(table.items()):
                merged[name] = merged.get(name, 0) + value
        return merged


class Installation:
    """The patches one :func:`install` made, for :func:`uninstall`."""

    def __init__(self):
        #: (owner, attribute, original) in patch order.
        self.patches: List[Tuple[object, str, object]] = []
        #: id(wrapper) -> (wrapper, original), to unbind copies that
        #: ``from ... import`` made after install; holding the wrapper
        #: keeps its id from being reused.
        self.wrappers: Dict[int, Tuple[object, object]] = {}


def _subclasses(cls) -> List[type]:
    found, pending = [], [cls]
    while pending:
        klass = pending.pop()
        found.append(klass)
        pending.extend(klass.__subclasses__())
    return found


def _repro_modules() -> List[object]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(tracer: Tracer) -> Installation:
    """Wrap every target; returns what to undo."""
    importlib.import_module("repro")
    done = Installation()

    def patch(owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        done.patches.append((owner, attr, original))
        done.wrappers[id(wrapper)] = (wrapper, original)

    for name, module_name, attr, mode in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            class_name, method = attr.split(".")
            for klass in _subclasses(getattr(module, class_name)):
                original = klass.__dict__.get(method)
                if original is not None:
                    patch(klass, method, original, tracer.wrap(name, original, mode))
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap(name, original, mode)
        for holder in _repro_modules():
            for key, value in list(vars(holder).items()):
                if value is original:
                    patch(holder, key, original, wrapper)
    return done


def uninstall(done: Installation) -> None:
    """Restore every original, including copies bound after install."""
    for owner, attr, original in reversed(done.patches):
        setattr(owner, attr, original)
    for holder in _repro_modules():
        for key, value in list(vars(holder).items()):
            entry = done.wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(holder, key, entry[1])
    done.patches.clear()
    done.wrappers.clear()


@contextlib.contextmanager
def tracing(tracer: Tracer):
    """Targets wrapped for the duration of the block."""
    done = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(done)
