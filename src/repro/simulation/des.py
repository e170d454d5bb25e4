"""Generator-based discrete-event simulation engine.

This is the substrate on which the whole reproduction runs: training
trials, tuning jobs and multi-tenant clusters are simulated processes
that advance a virtual clock instead of occupying a physical testbed.

The design follows the classic coroutine DES style (simpy-like, but
self-contained): a :class:`Process` wraps a generator that *yields*
:class:`Event` objects; the :class:`Environment` owns a priority queue
of scheduled events and resumes processes when the events they wait on
fire.

Scheduling internals
--------------------
Events fire in ``(time, counter)`` order, where ``counter`` is a
global creation counter (FIFO among equal-time events). Two structures
back that ordering:

* a binary heap for events scheduled with a positive delay, and
* an *immediate* deque for zero-delay work: events triggered at the
  current instant and deferred process resumptions. Entries carry the
  same counters the heap would have used, and the deque is drained in
  counter order interleaved with equal-time heap entries, so the
  observable ordering is identical to an all-heap implementation —
  zero-delay events just skip the O(log n) heap round-trip. Nothing
  ever cancels an immediate entry, so draining one never skips.

A process that yields an *already processed* event is resumed through
an immediate-deque entry referencing that event directly, instead of
allocating a proxy :class:`Event` (the historical implementation); the
resume is still deferred behind already-queued same-time events, which
keeps seed-for-seed reproducibility.

A :meth:`Resource.request` or :meth:`Container.get` granted at once
returns its grant already processed, so yielding it takes that resume
path too, with the counter the grant's trigger would have taken. The
ordering stays identical *provided the process yields the grant before
creating any other event*, as every caller does
(``yield slots.request()``).

Example
-------
>>> env = Environment()
>>> log = []
>>> def worker(env, name, delay):
...     yield env.timeout(delay)
...     log.append((env.now, name))
>>> _ = env.process(worker(env, "a", 2.0))
>>> _ = env.process(worker(env, "b", 1.0))
>>> env.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import partial
from typing import Any, Callable, Generator, Iterable, List, Optional


class SimulationError(RuntimeError):
    """Raised for structural misuse of the simulation engine."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* at most once, either successfully (with an
    optional value) or with an exception. Callbacks registered before
    the trigger run when the environment processes the event; callbacks
    added afterwards run immediately.

    ``callbacks`` is stored compactly: ``None`` (no subscribers — or
    already processed, see ``_processed``), a single callable (the
    overwhelmingly common one-waiter case, no list allocation), or a
    list once a second subscriber appears.
    """

    __slots__ = (
        "env",
        "callbacks",
        "_value",
        "_exception",
        "_triggered",
        "_processed",
    )

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Any = None
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self._processed = False

    # -- state ------------------------------------------------------------
    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """Whether the event fired without an exception."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Schedule the event to fire successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Schedule the event to fire with ``exception``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        self.env._schedule(self)
        return self

    def _run_callbacks(self) -> None:
        self._processed = True
        callbacks = self.callbacks
        self.callbacks = None
        if callbacks is not None:
            if callbacks.__class__ is list:
                for callback in callbacks:
                    callback(self)
            else:
                callbacks(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback``; runs immediately if already processed."""
        if self._processed:
            callback(self)
            return
        callbacks = self.callbacks
        if callbacks is None:
            self.callbacks = callback
        elif callbacks.__class__ is list:
            callbacks.append(callback)
        else:
            self.callbacks = [callbacks, callback]


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        # Flattened Event.__init__ + Environment._schedule: timeouts are
        # the hot allocation of every simulated trial, and the chained
        # calls cost more than the work itself. ``env`` is deliberately
        # not stored: a timeout is pre-triggered and never re-scheduled,
        # so nothing reads it back.
        # KEEP IN SYNC with _bind_timeout below — env.timeout() runs
        # that one-frame closure copy of this body, not this method.
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.callbacks = None
        self._value = value
        self._exception = None
        self._triggered = True
        self._processed = False
        seq = env._seq
        env._seq = seq + 1
        if delay:
            heapq.heappush(env._queue, (env._now + delay, seq, self))
        else:
            env._immediate.append((seq, self, None))


def _bind_timeout(env: "Environment") -> Callable[..., Timeout]:
    """A one-frame ``env.timeout`` constructor.

    Mirrors :meth:`Timeout.__init__` exactly (kept as the canonical
    spelling) but builds the object via ``__new__`` in a closure over
    the environment's queues, skipping the chained type call — the
    single hottest allocation site of every simulated trial.
    """
    new = Timeout.__new__
    cls = Timeout
    queue = env._queue
    immediate = env._immediate
    push = heapq.heappush

    def timeout(delay: float, value: Any = None) -> Timeout:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        t = new(cls)
        t.callbacks = None
        t._value = value
        t._exception = None
        t._triggered = True
        t._processed = False
        seq = env._seq
        env._seq = seq + 1
        if delay:
            push(queue, (env._now + delay, seq, t))
        else:
            immediate.append((seq, t, None))
        return t

    return timeout


class Process(Event):
    """A running coroutine; also an event that fires when it returns.

    The wrapped generator yields events. When a yielded event fires,
    the process resumes with the event's value (or the event's
    exception is thrown into the generator).
    """

    __slots__ = (
        "_generator",
        "_send",
        "_throw",
        "_resume",
    )

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send"):
            raise TypeError("process requires a generator")
        super().__init__(env)
        self._generator = generator
        self._send = generator.send
        self._throw = generator.throw
        # One bound method for the whole lifetime: every yield would
        # otherwise allocate a fresh bound-method object to register.
        self._resume = self._resume_impl
        # Bootstrap: resume the process at the current time, behind
        # already-queued same-time events. The shared _BOOTSTRAP event
        # (value None, no exception) makes the first resume take the
        # ordinary send() path with no special-casing.
        env._defer_resume(_BOOTSTRAP, self)

    def _resume_impl(self, event: Event) -> None:
        try:
            if event._exception is None:
                next_event = self._send(event._value)
            else:
                next_event = self._throw(event._exception)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as error:  # noqa: BLE001 - fail the process event
            # The process body raised: the process event fails and
            # waiters receive the exception.
            self.fail(error)
            return
        try:
            processed = next_event._processed
        except AttributeError:
            raise SimulationError(
                f"process yielded non-event {next_event!r}"
            ) from None
        if processed:
            # Already processed: defer the resume behind same-time
            # events already in the queue — no proxy Event, no heap.
            self.env._defer_resume(next_event, self)
        else:
            callbacks = next_event.callbacks
            if callbacks is None:
                next_event.callbacks = self._resume
            elif callbacks.__class__ is list:
                callbacks.append(self._resume)
            else:
                next_event.callbacks = [callbacks, self._resume]


class _Bootstrap(Event):
    """Shared pre-triggered pseudo-event used to start every process."""

    __slots__ = ()

    def __init__(self):  # no Environment: never scheduled
        self.env = None
        self.callbacks = None
        self._value = None
        self._exception = None
        self._triggered = True
        self._processed = True


_BOOTSTRAP = _Bootstrap()


class AllOf(Event):
    """Fires once every child event has fired; value maps index->value.

    A child counts as *done* once it has been processed (its callbacks
    ran) — not merely triggered, since e.g. a Timeout is triggered at
    construction but fires later. The first failing child fails it.
    A count of pending positions (an event listed twice counts twice)
    spares a rescan of every child each time one finishes.
    """

    __slots__ = ("_events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._pending = sum(not e._processed for e in self._events)
        for event in self._events:
            if event._processed:
                self._on_child(event, 0)
            else:
                event.add_callback(self._on_child)
        if not self._events:
            self.succeed(self._collect())

    def _on_child(self, event: Event, finished: int = 1) -> None:
        # ``finished`` is 0 for a child processed before construction.
        if self._triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self._pending -= finished
        if not self._pending:
            self.succeed(self._collect())

    def _collect(self) -> dict:
        return {
            i: e._value
            for i, e in enumerate(self._events)
            if e.processed and e._exception is None
        }


class Environment:
    """Owner of the virtual clock and the pending-event queue.

    Delayed events live on a binary heap keyed ``(time, counter)``;
    zero-delay events and deferred process resumptions live on the
    *immediate* deque, whose entries are ``(counter, event, process)``:

    * ``process is None``  -> run ``event``'s callbacks;
    * ``process`` set      -> resume it from ``event`` (the shared
      ``_BOOTSTRAP`` sentinel starts a new process with ``send(None)``
      — the event slot is never ``None`` on a resume entry).

    Immediate entries are created at the current instant, are never
    cancelled, and are always drained before the clock advances, in
    counter order interleaved with equal-time heap entries —
    byte-for-byte the ordering an all-heap implementation produces.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_immediate",
        "_seq",
        "event",
        "timeout",
        "process",
    )

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List = []
        self._immediate: deque = deque()
        #: event sequence counter (FIFO tiebreak among equal times)
        self._seq = 0
        # C-level constructor bindings shadow the factory methods below:
        # event/timeout/process creation is the simulator's hottest
        # allocation path and the extra method frame is measurable.
        self.event = partial(Event, self)
        self.timeout = _bind_timeout(self)
        self.process = partial(Process, self)

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- event factories ---------------------------------------------------
    # event(), timeout(delay, value=None) and process(generator) are
    # bound as partials in __init__ (see above); they construct Event,
    # Timeout and Process respectively.

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event) -> None:
        """Queue a triggered event's callbacks at the current instant."""
        seq = self._seq
        self._seq = seq + 1
        self._immediate.append((seq, event, None))

    def _defer_resume(self, event: Event, process: "Process") -> None:
        """Queue a process resumption at the current instant.

        ``event`` must be a processed event (or the ``_BOOTSTRAP``
        sentinel); its value/exception is delivered when the entry is
        drained.
        """
        seq = self._seq
        self._seq = seq + 1
        self._immediate.append((seq, event, process))

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        immediate = self._immediate
        queue = self._queue
        if immediate and (
            not queue or queue[0][0] > self._now or queue[0][1] > immediate[0][0]
        ):
            _seq, event, process = immediate.popleft()
            if process is not None:
                process._resume(event)
            else:
                event._run_callbacks()
            return
        if not queue:
            raise SimulationError("step() on empty event queue")
        when, _seq, event = heapq.heappop(queue)
        if when < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = when
        event._run_callbacks()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``."""
        if until is not None and until < self._now:
            raise ValueError("run(until) lies in the past")
        queue = self._queue
        immediate = self._immediate
        pop = heapq.heappop
        bounded = until is not None
        while True:
            if immediate:
                head = immediate[0]
                # Equal-time heap entries with lower counters go first.
                if not (queue and queue[0][0] <= self._now and queue[0][1] < head[0]):
                    immediate.popleft()
                    _seq, event, process = head
                    if process is not None:
                        process._resume(event)
                    else:
                        event._run_callbacks()
                    continue
            if not queue:
                break
            if bounded and queue[0][0] > until:
                self._now = until
                return
            when, _seq, event = pop(queue)
            self._now = when
            # Inlined Event._run_callbacks — one frame per event saved.
            event._processed = True
            callbacks = event.callbacks
            event.callbacks = None
            if callbacks is not None:
                if callbacks.__class__ is list:
                    for callback in callbacks:
                        callback(event)
                else:
                    callbacks(event)
            if bounded or immediate:
                continue
            # Unbounded pure-heap stretch: tightest loop, no immediate
            # entries pending and no until check needed.
            while queue:
                when, _seq, event = pop(queue)
                self._now = when
                event._processed = True
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks is not None:
                    if callbacks.__class__ is list:
                        for callback in callbacks:
                            callback(event)
                    else:
                        callbacks(event)
                if immediate:
                    break
        if bounded:
            self._now = until


def _granted(env: Environment, value: Any) -> Event:
    """An immediate grant: an event already triggered and processed."""
    grant = Event(env)
    grant._value, grant._triggered, grant._processed = value, True, True
    return grant


class Resource:
    """A counted resource with a FIFO wait queue (e.g. trial slots)."""

    def __init__(self, env: Environment, capacity: int):
        if capacity < 1:
            raise ValueError("resource capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.in_use = 0
        self._waiters: "deque[Event]" = deque()

    def request(self) -> Event:
        """Return an event that fires once a unit is granted; yield it
        at once (see "Scheduling internals" on immediate grants)."""
        if self.in_use < self.capacity:
            self.in_use += 1
            return _granted(self.env, self)
        grant = self.env.event()
        self._waiters.append(grant)
        return grant

    def release(self) -> None:
        """Return one granted unit; wakes the oldest waiter if any."""
        if self.in_use <= 0:
            raise SimulationError("release() without matching request()")
        if self._waiters:
            grant = self._waiters.popleft()
            grant.succeed(self)
        else:
            self.in_use -= 1


class Container:
    """A divisible resource level (cores, GB of memory) with FIFO gets."""

    def __init__(self, env: Environment, capacity: float, init: Optional[float] = None):
        if capacity <= 0:
            raise ValueError("container capacity must be positive")
        self.env = env
        self.capacity = float(capacity)
        self.level = float(capacity if init is None else init)
        if not 0 <= self.level <= self.capacity:
            raise ValueError("initial level outside [0, capacity]")
        self._waiters: deque = deque()  # (amount, event), FIFO

    def get(self, amount: float) -> Event:
        """Return an event that fires once ``amount`` is available;
        yield it at once (see "Scheduling internals" on immediate grants)."""
        if amount <= 0:
            raise ValueError("get amount must be positive")
        if amount > self.capacity:
            raise ValueError(
                f"requested {amount} exceeds capacity {self.capacity}"
            )
        if not self._waiters and amount <= self.level:
            self.level -= amount
            return _granted(self.env, amount)
        grant = self.env.event()
        self._waiters.append((amount, grant))
        return grant

    def try_get(self, amount: float) -> bool:
        """Non-blocking get: take ``amount`` now or leave state untouched.

        Fails when waiters are queued (no overtaking) or the level is
        short. Used for best-effort resizes that must never introduce
        hold-and-wait deadlocks between concurrently-growing trials.
        """
        if amount <= 0:
            raise ValueError("get amount must be positive")
        if not self._waiters and amount <= self.level:
            self.level -= amount
            return True
        return False

    def put(self, amount: float) -> None:
        """Return ``amount`` to the container and serve FIFO waiters."""
        if amount <= 0:
            raise ValueError("put amount must be positive")
        if self.level + amount > self.capacity + 1e-9:
            raise SimulationError("container overfull on put()")
        self.level += amount
        # Serve strictly in FIFO order; head-of-line blocking is
        # deliberate (matches a FIFO cluster allocator).
        while self._waiters and self._waiters[0][0] <= self.level:
            need, grant = self._waiters.popleft()
            self.level -= need
            grant.succeed(need)
