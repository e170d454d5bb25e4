"""Equivalence tests for the DES fast-path machinery.

The engine replaced proxy events and the all-heap queue with an
immediate deque plus deferred inline resumes. These tests pin the
ordering semantics that seed-for-seed reproducibility rests on:
zero-delay events and resumes-on-processed-events still fire in global
``(time, creation counter)`` order, interleaved with equal-time heap
entries exactly as the historical implementation scheduled them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.des import (
    Environment,
    SimulationError,
)

# A process program is a list of ops: sleep for a delay (zero delays
# go through the immediate deque), trigger and yield a fresh event, or
# yield one event shared by every process (already processed for all
# but the first to reach it).
OPS = st.one_of(
    st.tuples(st.just("sleep"), st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5])),
    st.tuples(st.just("signal"), st.none()),
    st.tuples(st.just("shared"), st.none()),
)
PROGRAMS = st.lists(st.lists(OPS, max_size=6), min_size=1, max_size=5)


def start_programs(env, programs):
    """Start one process per program; returns the log they append to."""
    log = []
    shared = env.event()

    def proc(pid, ops):
        for step, (op, arg) in enumerate(ops):
            if op == "sleep":
                yield env.timeout(arg)
            elif op == "signal":
                event = env.event()
                event.add_callback(
                    lambda e, pid=pid, step=step: log.append(
                        ("callback", pid, step, env.now)
                    )
                )
                event.succeed(step)
                yield event
            else:
                if not shared.ok:
                    shared.succeed(pid)
                yield shared
            log.append(("resumed", pid, step, env.now))
        return pid

    for pid, ops in enumerate(programs):
        env.process(proc(pid, ops))
    return log


class TestProcessedEventResumeOrdering:
    def test_yield_processed_event_defers_behind_queued_events(self):
        """A process yielding an already-processed event resumes at the
        same instant but AFTER events that were queued first."""
        env = Environment()
        order = []

        done = env.event()
        done.succeed("x")
        env.run()
        assert done.processed

        def waiter():
            value = yield done  # already processed -> deferred resume
            order.append(("waiter", value))

        def sibling():
            yield env.timeout(0.0)
            order.append(("sibling", None))

        # sibling's zero-delay timeout is created by process creation
        # order: waiter bootstraps first, then sibling. waiter's yield
        # of the processed event happens during its bootstrap, so its
        # deferred resume is queued after sibling's bootstrap but
        # before sibling's timeout.
        env.process(waiter())
        env.process(sibling())
        env.run()
        assert order == [("waiter", "x"), ("sibling", None)]

    def test_chained_processed_event_yields(self):
        """Repeatedly yielding processed events keeps making progress
        (each one defers once, then resumes)."""
        env = Environment()
        done = env.event()
        done.succeed(7)
        env.run()

        def chain():
            total = 0
            for _ in range(5):
                total += yield done
            return total

        p = env.process(chain())
        env.run()
        assert p.value == 35

    def test_value_and_exception_pass_through_deferred_resume(self):
        env = Environment()
        failed = env.event()
        failed.fail(ValueError("boom"))
        env.run()

        def waiter():
            try:
                yield failed
            except ValueError as error:
                return f"caught {error}"

        p = env.process(waiter())
        env.run()
        assert p.value == "caught boom"

    def test_equal_time_heap_entry_beats_younger_immediate_entry(self):
        """A heap event scheduled at time t with a lower counter fires
        before an immediate event created later at the same t."""
        env = Environment()
        order = []

        def early_sleeper():
            yield env.timeout(5.0)  # scheduled first: lowest counter at t=5
            order.append("heap")

        def trigger_then_listen():
            yield env.timeout(5.0 - 1e-9)
            # now (just before t=5) succeed an event: it is immediate,
            # created after the t=5 timeout, so it must run... at its
            # own (earlier) time — and a fresh zero-delay timeout at
            # exactly this time also precedes the t=5 heap entry.
            marker = env.event()
            marker.add_callback(lambda e: order.append("immediate"))
            marker.succeed()
            yield env.timeout(0.0)
            order.append("zero-delay")

        env.process(early_sleeper())
        env.process(trigger_then_listen())
        env.run()
        assert order == ["immediate", "zero-delay", "heap"]


class TestImmediateQueueMechanics:
    def test_step_processes_immediate_entries(self):
        env = Environment()
        seen = []
        event = env.event()
        event.add_callback(lambda e: seen.append(e._value))
        event.succeed("v")
        env.step()
        assert seen == ["v"]

    def test_run_until_processes_immediate_at_boundary(self):
        env = Environment()
        seen = []

        def proc():
            yield env.timeout(2.0)
            seen.append("woke")
            marker = env.event()
            marker.add_callback(lambda e: seen.append("immediate"))
            marker.succeed()
            yield env.timeout(5.0)
            seen.append("never")

        env.process(proc())
        env.run(until=2.0)
        assert seen == ["woke", "immediate"]
        assert env.now == 2.0

    def test_multiple_callbacks_promote_to_list(self):
        """Second subscriber on the compact single-callback storage."""
        env = Environment()
        event = env.event()
        seen = []
        event.add_callback(lambda e: seen.append("a"))
        event.add_callback(lambda e: seen.append("b"))
        event.add_callback(lambda e: seen.append("c"))
        event.succeed()
        env.run()
        assert seen == ["a", "b", "c"]

    def test_callback_added_after_processing_runs_immediately(self):
        env = Environment()
        event = env.event()
        event.succeed()
        env.run()
        seen = []
        event.add_callback(lambda e: seen.append(True))
        assert seen == [True]

    def test_yield_non_event_still_rejected(self):
        env = Environment()

        def proc():
            yield 42

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run()

    def test_two_processes_waiting_same_finished_process(self):
        """A processed Process event can feed several late waiters."""
        env = Environment()

        def quick():
            yield env.timeout(1.0)
            return 9

        child = env.process(quick())
        env.run()

        def late(scale):
            value = yield child
            return value * scale

        a = env.process(late(2))
        b = env.process(late(3))
        env.run()
        assert (a.value, b.value) == (18, 27)


class TestDriversAgree:
    """``run()`` inlines its own copy of the scheduling loop; it must
    fire events in exactly the order repeated ``step()`` calls do, and
    splitting a run at ``until`` boundaries must change nothing."""

    @given(programs=PROGRAMS)
    @settings(max_examples=150, deadline=None)
    def test_run_matches_repeated_step(self, programs):
        ran = Environment()
        by_run = start_programs(ran, programs)
        ran.run()

        stepped = Environment()
        by_step = start_programs(stepped, programs)
        while True:
            try:
                stepped.step()
            except SimulationError:
                break
        assert by_step == by_run
        assert stepped.now == ran.now

    @given(
        programs=PROGRAMS,
        cuts=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]), max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_split_runs_match_one_run(self, programs, cuts):
        whole = Environment()
        by_whole = start_programs(whole, programs)
        whole.run()

        split = Environment()
        by_split = start_programs(split, programs)
        for cut in sorted(cuts):
            split.run(until=cut)
        split.run()
        assert by_split == by_whole
