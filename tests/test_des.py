"""Tests for the discrete-event simulation engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.des import (
    AllOf,
    Container,
    Environment,
    Event,
    Process,
    Resource,
    SimulationError,
    Timeout,
)


class TestEvent:
    def test_succeed_delivers_value(self):
        env = Environment()
        event = env.event()
        event.succeed(42)
        env.run()
        assert event.value == 42
        assert event.ok

    def test_value_before_trigger_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            _ = env.event().value

    def test_double_trigger_raises(self):
        env = Environment()
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_fail_propagates_to_value(self):
        env = Environment()
        event = env.event()
        event.fail(ValueError("boom"))
        env.run()
        with pytest.raises(ValueError):
            _ = event.value

    def test_callback_after_processing_runs_immediately(self):
        env = Environment()
        event = env.event()
        event.succeed("x")
        env.run()
        seen = []
        event.add_callback(lambda e: seen.append(e._value))
        assert seen == ["x"]


class TestTimeoutAndClock:
    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_timeouts_fire_in_order(self):
        env = Environment()
        fired = []

        def proc(env, name, delay):
            yield env.timeout(delay)
            fired.append((env.now, name))

        env.process(proc(env, "late", 5.0))
        env.process(proc(env, "early", 1.0))
        env.process(proc(env, "mid", 3.0))
        env.run()
        assert fired == [(1.0, "early"), (3.0, "mid"), (5.0, "late")]

    def test_equal_times_fifo(self):
        env = Environment()
        order = []

        def proc(name):
            yield env.timeout(1.0)
            order.append(name)

        for name in "abc":
            env.process(proc(name))
        env.run()
        assert order == list("abc")

    def test_run_until_stops_clock(self):
        env = Environment()

        def proc():
            yield env.timeout(10.0)

        env.process(proc())
        env.run(until=4.0)
        assert env.now == 4.0

    def test_run_until_past_raises(self):
        env = Environment(initial_time=5.0)
        with pytest.raises(ValueError):
            env.run(until=1.0)

    def test_initial_time_offsets_timeouts(self):
        env = Environment(initial_time=4.0)
        fired = []
        env.timeout(1.5).add_callback(lambda e: fired.append(env.now))
        env.run()
        assert fired == [5.5]

    def test_run_until_on_empty_queue_advances_clock(self):
        env = Environment()
        env.run(until=7.0)
        assert env.now == 7.0

    def test_timeout_delivers_value(self):
        env = Environment()

        def proc():
            got = yield env.timeout(2.0, value="payload")
            return got

        p = env.process(proc())
        env.run()
        assert p.value == "payload"

    def test_step_empty_raises(self):
        with pytest.raises(SimulationError):
            Environment().step()

    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=30
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_clock_is_monotone_for_any_delays(self, delays):
        env = Environment()
        stamps = []

        def proc(d):
            yield env.timeout(d)
            stamps.append(env.now)

        for d in delays:
            env.process(proc(d))
        env.run()
        assert stamps == sorted(stamps)
        assert len(stamps) == len(delays)


class TestProcess:
    def test_return_value(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            return "done"

        p = env.process(proc())
        env.run()
        assert p.value == "done"

    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_yield_non_event_fails(self):
        env = Environment()

        def proc():
            yield 42

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run()

    def test_wait_on_other_process(self):
        env = Environment()

        def child():
            yield env.timeout(2.0)
            return 7

        def parent():
            value = yield env.process(child())
            return value * 2

        p = env.process(parent())
        env.run()
        assert p.value == 14
        assert env.now == 2.0

    def test_exception_propagates_to_waiter(self):
        env = Environment()

        def child():
            yield env.timeout(1.0)
            raise RuntimeError("child failed")

        def parent():
            try:
                yield env.process(child())
            except RuntimeError:
                return "caught"

        p = env.process(parent())
        env.run()
        assert p.value == "caught"

    def test_wait_on_already_finished_process(self):
        env = Environment()

        def quick():
            yield env.timeout(1.0)
            return 5

        child = env.process(quick())
        env.run()

        def parent():
            value = yield child
            return value

        p = env.process(parent())
        env.run()
        assert p.value == 5

    def test_process_event_fires_only_on_return(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            yield env.timeout(1.0)

        p = env.process(proc())
        env.run(until=1.5)
        assert not p.processed
        with pytest.raises(SimulationError):
            _ = p.value
        env.run()
        assert p.processed and p.ok
        assert p.value is None

    def test_failed_process_value_raises(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            raise KeyError("lost")

        p = env.process(proc())
        env.run()
        assert p.processed and not p.ok
        with pytest.raises(KeyError):
            _ = p.value


class TestConditions:
    def test_all_of_waits_for_all(self):
        env = Environment()

        def proc():
            t1 = env.timeout(1.0, value="a")
            t2 = env.timeout(3.0, value="b")
            result = yield env.all_of([t1, t2])
            return (env.now, sorted(result.values()))

        p = env.process(proc())
        env.run()
        assert p.value == (3.0, ["a", "b"])

    def test_all_of_empty_fires_immediately(self):
        env = Environment()

        def proc():
            yield env.all_of([])
            return env.now

        p = env.process(proc())
        env.run()
        assert p.value == 0.0

    def test_all_of_propagates_failure(self):
        env = Environment()
        bad = env.event()
        bad.fail(ValueError("x"))

        def proc():
            try:
                yield env.all_of([env.timeout(5.0), bad])
            except ValueError:
                return "failed"

        p = env.process(proc())
        env.run()
        assert p.value == "failed"


    def test_all_of_values_keyed_by_input_position(self):
        env = Environment()

        def proc():
            late = env.timeout(3.0, value="late")
            early = env.timeout(1.0, value="early")
            result = yield env.all_of([late, early])
            return list(result.items())

        p = env.process(proc())
        env.run()
        assert p.value == [(0, "late"), (1, "early")]

    def test_all_of_over_processed_children_fires_now(self):
        env = Environment()
        done = [env.timeout(1.0, value=i) for i in range(3)]
        env.run()

        def proc():
            result = yield env.all_of(done)
            return (env.now, result)

        p = env.process(proc())
        env.run()
        assert p.value == (1.0, {0: 0, 1: 1, 2: 2})

    def test_all_of_first_failure_wins(self):
        env = Environment()
        first, second = env.event(), env.event()

        def fail_later():
            yield env.timeout(1.0)
            first.fail(ValueError("first"))
            yield env.timeout(1.0)
            second.fail(KeyError("second"))

        env.process(fail_later())

        def proc():
            try:
                yield env.all_of([second, first])
            except ValueError as error:
                return (env.now, str(error))

        p = env.process(proc())
        env.run()
        assert p.value == (1.0, "first")

    def test_all_of_waits_for_an_event_listed_twice(self):
        env = Environment()

        def proc():
            late = env.timeout(2.0, value="late")
            result = yield env.all_of([late, env.timeout(1.0, value="early"), late])
            return (env.now, result)

        p = env.process(proc())
        env.run()
        assert p.value == (2.0, {0: "late", 1: "early", 2: "late"})


class TestImmediateGrants:
    """A grant free at once resumes its process behind the entries
    queued at that instant before the request, and ahead of those
    queued after it: the place a triggered grant would have taken."""

    @pytest.mark.parametrize("kind", ["request", "get"])
    def test_resume_keeps_its_place_in_the_instant(self, kind):
        env = Environment()
        resource = Resource(env, 1)
        container = Container(env, 4.0)
        trace = []

        def log(name):
            trace.append((env.now, name))

        def early():
            yield env.timeout(1.0)
            log("early wakes")
            yield env.timeout(0)  # queued before the request
            log("early resumes")

        def requester():
            yield env.timeout(1.0)
            log("requests")
            yield resource.request() if kind == "request" else container.get(1.0)
            log("granted")
            yield env.timeout(0)
            log("requester resumes")

        def late():
            yield env.timeout(1.0)
            log("late wakes")
            yield env.timeout(0)  # queued after the request
            log("late resumes")

        for body in (early, requester, late):
            env.process(body())
        env.run()
        assert trace == [
            (1.0, "early wakes"),
            (1.0, "requests"),
            (1.0, "late wakes"),
            (1.0, "early resumes"),
            (1.0, "granted"),
            (1.0, "late resumes"),
            (1.0, "requester resumes"),
        ]
        assert (resource.in_use, container.level) == (
            (1, 4.0) if kind == "request" else (0, 3.0)
        )


class TestResource:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Resource(Environment(), 0)

    def test_serialises_access(self):
        env = Environment()
        resource = Resource(env, 1)
        spans = []

        def worker(name):
            yield resource.request()
            start = env.now
            yield env.timeout(2.0)
            resource.release()
            spans.append((name, start, env.now))

        for name in ("a", "b", "c"):
            env.process(worker(name))
        env.run()
        # no two spans overlap
        for (_, s1, e1), (_, s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_release_without_request_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Resource(env, 1).release()

    def test_waiter_granted_when_holder_releases(self):
        env = Environment()
        resource = Resource(env, 1)
        granted = []

        def hog():
            yield resource.request()
            yield env.timeout(10.0)
            resource.release()

        def waiter():
            yield resource.request()
            granted.append(env.now)
            resource.release()

        env.process(hog())
        env.process(waiter())
        env.run(until=5.0)
        assert granted == []
        assert resource.in_use == 1
        env.run()
        assert granted == [10.0]
        assert resource.in_use == 0

    def test_release_wakes_waiters_fifo(self):
        env = Environment()
        resource = Resource(env, 2)
        order = []

        def worker(name, hold):
            yield resource.request()
            order.append((name, env.now))
            yield env.timeout(hold)
            resource.release()

        for name, hold in (("a", 4.0), ("b", 1.0), ("c", 1.0), ("d", 1.0)):
            env.process(worker(name, hold))
        env.run()
        assert order == [("a", 0.0), ("b", 0.0), ("c", 1.0), ("d", 2.0)]


class TestContainer:
    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            Container(env, 0)
        with pytest.raises(ValueError):
            Container(env, 10, init=20)

    def test_get_put_roundtrip(self):
        env = Environment()
        c = Container(env, 10.0)

        def proc():
            yield c.get(4.0)
            assert c.level == 6.0
            c.put(4.0)

        env.process(proc())
        env.run()
        assert c.level == 10.0

    def test_get_over_capacity_raises(self):
        env = Environment()
        with pytest.raises(ValueError):
            Container(env, 5.0).get(6.0)

    def test_put_overfull_raises(self):
        env = Environment()
        c = Container(env, 5.0)
        with pytest.raises(SimulationError):
            c.put(1.0)

    def test_fifo_no_overtaking(self):
        """A small request queued behind a big one must wait (FIFO)."""
        env = Environment()
        c = Container(env, 10.0)
        order = []

        def taker(name, amount, hold):
            yield c.get(amount)
            order.append(name)
            yield env.timeout(hold)
            c.put(amount)

        env.process(taker("first", 10.0, 5.0))
        env.process(taker("big", 8.0, 1.0))
        env.process(taker("small", 1.0, 1.0))
        env.run()
        assert order == ["first", "big", "small"]

    def test_try_get(self):
        env = Environment()
        c = Container(env, 10.0)
        assert c.try_get(7.0)
        assert c.level == 3.0
        assert not c.try_get(5.0)
        assert c.level == 3.0

    def test_try_get_blocked_by_waiters(self):
        env = Environment()
        c = Container(env, 10.0)

        def hog():
            yield c.get(10.0)
            yield env.timeout(5.0)
            c.put(10.0)

        def waiter():
            yield c.get(2.0)
            c.put(2.0)

        env.process(hog())
        env.process(waiter())
        env.run(until=2.0)
        # a waiter is queued: try_get must refuse even if level allowed
        assert not c.try_get(0.5)

    @given(
        amounts=st.lists(
            st.floats(min_value=0.1, max_value=5.0), min_size=1, max_size=20
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_conservation_property(self, amounts):
        """After all get/put pairs complete, the level is restored."""
        env = Environment()
        c = Container(env, 16.0)

        def proc(amount):
            yield c.get(amount)
            yield env.timeout(1.0)
            c.put(amount)

        for a in amounts:
            env.process(proc(a))
        env.run()
        assert c.level == pytest.approx(16.0)

    def test_put_serves_every_waiter_that_fits(self):
        env = Environment()
        c = Container(env, 10.0, init=0.0)
        served = []

        def taker(name, amount):
            yield c.get(amount)
            served.append((name, env.now))

        for name, amount in (("a", 3.0), ("b", 4.0), ("c", 5.0)):
            env.process(taker(name, amount))

        def producer():
            yield env.timeout(1.0)
            c.put(8.0)
            yield env.timeout(1.0)
            c.put(4.0)

        env.process(producer())
        env.run()
        assert served == [("a", 1.0), ("b", 1.0), ("c", 2.0)]
        assert c.level == pytest.approx(0.0)
