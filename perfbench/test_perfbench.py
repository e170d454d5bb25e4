"""Self-tests of the benchmark harness: percentiles, span self-time
arithmetic, host-speed rescaling, and that a traced run restores every
wrapped entry point."""

import importlib
import threading

import pytest

from perfbench import spans
from perfbench import session as bench_session
from perfbench.common import REFERENCE_MS, median, percentile


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_percentile_known_inputs():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == pytest.approx(2.5)
    assert percentile(values, 90) == pytest.approx(3.7)
    assert median([5.0]) == 5.0
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert percentile(list(range(101)), 90) == pytest.approx(90.0)
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 25) == 2.0


def test_timings_are_rescaled_to_reference_speed(monkeypatch):
    assert bench_session.time_kernel() > 0.0
    # the host ran at half speed on both sides: times count half
    assert bench_session.Session.scale(
        2 * REFERENCE_MS, 2 * REFERENCE_MS
    ) == pytest.approx(0.5)
    # half speed before, full speed after: the mean kernel time counts
    assert bench_session.Session.scale(
        2 * REFERENCE_MS, REFERENCE_MS
    ) == pytest.approx(2.0 / 3.0)
    kernels = iter([3.0, 9.0, 5.0])
    monkeypatch.setattr(bench_session, "time_kernel", lambda: next(kernels))
    session = bench_session.Session("paper-exhibits", 1, 0, 0.0, "unused")
    assert session.steady_kernel() == 5.0
    assert session.kernel_ms == [3.0, 9.0, 5.0]


def test_self_time_of_nested_spans():
    clock = ManualClock()
    tracer = spans.Tracer(clock=clock)

    def leaf():
        clock.advance(1.0)

    def branch():
        clock.advance(1.0)
        wrapped_leaf()
        clock.advance(2.0)

    def single():
        clock.advance(3.0)

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_branch = tracer.wrap("branch", branch)
    wrapped_single = tracer.wrap("single", single)
    with tracer.span("root"):
        clock.advance(1.0)
        wrapped_single()
        wrapped_branch()
        wrapped_branch()
        clock.advance(0.5)

    edges = tracer.edges()
    assert edges[(None, "root")] == [1, 12.5, 1.5]
    assert edges[("root", "single")] == [1, 3.0, 3.0]
    assert edges[("root", "branch")] == [2, 8.0, 6.0]
    assert edges[("branch", "leaf")] == [2, 2.0, 2.0]
    totals = tracer.totals()
    assert sum(entry["self_s"] for entry in totals.values()) == 12.5


def test_override_calling_super_is_one_call():
    clock = ManualClock()
    tracer = spans.Tracer(clock=clock)

    class Base:
        def step(self):
            clock.advance(1.0)

    class Child(Base):
        def step(self):
            clock.advance(2.0)
            super().step()

    Base.step = tracer.wrap("step", Base.__dict__["step"])
    Child.step = tracer.wrap("step", Child.__dict__["step"])
    Child().step()
    assert tracer.edges() == {(None, "step"): [1, 3.0, 3.0]}


def test_count_mode_and_threads_and_result_counters():
    tracer = spans.Tracer()

    def process():
        yield 1

    counted = tracer.wrap("trainer.run_trial", process, mode="count")
    assert list(counted()) == [1]
    load = tracer.wrap("cache.load", lambda hit: [] if hit else None)
    load(True)
    worker = threading.Thread(target=lambda: (counted(), load(False)))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert tracer.counters() == {
        "trainer.run_trial.calls": 2,
        "cache.load.hits": 1,
        "cache.load.misses": 1,
    }
    assert tracer.totals()["cache.load"]["calls"] == 2


def _bindings():
    """Every (owner, attribute) -> object the targets resolve to."""
    bound = {}
    for _, module_name, attr, _ in spans.TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            class_name, method = attr.split(".")
            for klass in spans._subclasses(getattr(module, class_name)):
                if method in klass.__dict__:
                    bound[(klass, method)] = klass.__dict__[method]
            continue
        original = getattr(module, attr)
        for holder in spans._repro_modules():
            for key, value in vars(holder).items():
                if value is original:
                    bound[(holder, key)] = value
    return bound


def test_traced_run_restores_every_wrapper_and_keeps_bytes():
    from repro.experiments import EXHIBIT_RUNS, golden

    faults = importlib.import_module("repro.tune.faults")
    before = _bindings()
    tracer = spans.Tracer()
    with spans.tracing(tracer):
        # a `from ... import` site is patched too, not just the definer
        assert faults.rng_for is not before[(faults, "rng_for")]
        # a copy bound after install must be unbound again on exit
        faults.late_copy = faults.rng_for
        with tracer.span("bench.pass"):
            text = golden.render_result(EXHIBIT_RUNS["fig01"].run())
    try:
        assert faults.late_copy is before[(faults, "rng_for")]
    finally:
        del faults.late_copy
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    with open(golden.committed_path("fig01"), encoding="utf-8", newline="") as f:
        assert text == f.read()
    totals = tracer.totals()
    assert totals["golden.render_result"]["calls"] == 1
    assert totals["runner.plan"]["calls"] == 1
