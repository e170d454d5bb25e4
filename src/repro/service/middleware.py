"""Composable request middleware for the scenario service.

Every request the daemon serves flows through a
:class:`MiddlewareStack`: an ordered chain of :class:`Middleware`
objects, each seeing the request, deciding to pass it on
(``call_next``) or answer it directly (rate limiting answers with
429), and post-processing the response on the way back out. The chain
is *declared* in the server config as data — the same strict
``from_dict`` / ``problems()`` validation discipline as
:class:`~repro.scenarios.spec.Scenario` — so the serving policy
changes without touching a line of application logic, in the spirit of
the context-aware middleware literature the paper sits in.

Built-in kinds (:data:`MIDDLEWARE_KINDS`):

* ``request_id`` — tags every request with a process-unique id,
  echoed as the ``X-Request-Id`` response header;
* ``access_log`` — one structured JSON line per request (request id,
  tenant, method, path, status, elapsed);
* ``timing`` — measures the downstream chain, echoed as
  ``X-Elapsed-Ms``;
* ``rate_limit`` — per-tenant token bucket; an exhausted bucket
  answers ``429`` with a machine-readable envelope and ``Retry-After``;
* ``quota`` — caps *in-flight jobs* (queued + running) per tenant;
  submissions beyond the cap answer ``429`` without touching the
  queue.

Tenancy is declared by the ``X-Tenant`` request header (default
``"anonymous"``) — the per-request context the chain observes and
reacts to.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

from ..schema import decode, encode
from .envelope import error_envelope

DEFAULT_TENANT = "anonymous"


@dataclass
class Request:
    """One parsed HTTP request flowing through the chain."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)  # lower-cased keys
    body: Optional[Dict] = None
    query: Dict[str, str] = field(default_factory=dict)
    #: set by the request_id middleware.
    request_id: Optional[str] = None
    #: server-side context (the job manager, the config) handlers and
    #: middleware may consult; never serialised.
    context: Dict = field(default_factory=dict)

    @property
    def tenant(self) -> str:
        return self.headers.get("x-tenant", DEFAULT_TENANT) or DEFAULT_TENANT

    @property
    def is_submission(self) -> bool:
        """Whether this request creates a job (quota-relevant)."""
        return self.method == "POST" and self.path.endswith("/runs")


@dataclass
class Response:
    """Status + envelope payload + headers, middleware-annotatable."""

    status: int
    payload: Dict
    headers: Dict[str, str] = field(default_factory=dict)


Handler = Callable[[Request], Response]
CallNext = Callable[[Request], Response]


class Middleware:
    """One link of the chain; subclasses are config-declared dataclasses.

    ``handle`` sees the request and the rest of the chain
    (``call_next``); the default is a transparent passthrough.
    Config-facing subclasses carry only their declarative knobs as
    dataclass fields — runtime state (buckets, counters, locks) lives
    in underscore attributes set up in ``__post_init__`` and never
    serialises.
    """

    kind: ClassVar[str] = ""

    def handle(self, request: Request, call_next: CallNext) -> Response:
        return call_next(request)

    def problems(self, where: str = "") -> List[str]:
        return []

    def as_dict(self) -> Dict:
        return {"kind": self.kind, **encode(self)}


@dataclass
class RequestIdMiddleware(Middleware):
    """Tags requests with ``req-<n>``; echoes ``X-Request-Id``."""

    kind: ClassVar[str] = "request_id"

    def __post_init__(self):
        self._counter = itertools.count(1)

    def handle(self, request: Request, call_next: CallNext) -> Response:
        if request.request_id is None:
            request.request_id = f"req-{next(self._counter):06d}"
        response = call_next(request)
        response.headers.setdefault("X-Request-Id", request.request_id)
        return response


@dataclass
class AccessLogMiddleware(Middleware):
    """One structured JSON line per request, written to stderr.

    The line carries the request id (when the chain assigns one
    upstream), tenant, method, path, response status and elapsed
    milliseconds — grep-able, machine-parseable operational telemetry.
    ``stream`` is swappable for tests (not a config field).
    """

    kind: ClassVar[str] = "access_log"

    def __post_init__(self):
        self.stream = sys.stderr

    def handle(self, request: Request, call_next: CallNext) -> Response:
        started = time.perf_counter()
        response = call_next(request)
        record = {
            "request_id": request.request_id,
            "tenant": request.tenant,
            "method": request.method,
            "path": request.path,
            "status": response.status,
            "elapsed_ms": round(1000.0 * (time.perf_counter() - started), 3),
        }
        print(json.dumps(record, sort_keys=True), file=self.stream, flush=True)
        return response


@dataclass
class TimingMiddleware(Middleware):
    """Measures the downstream chain; echoes ``X-Elapsed-Ms``."""

    kind: ClassVar[str] = "timing"

    def handle(self, request: Request, call_next: CallNext) -> Response:
        started = time.perf_counter()
        response = call_next(request)
        elapsed_ms = 1000.0 * (time.perf_counter() - started)
        response.headers.setdefault("X-Elapsed-Ms", f"{elapsed_ms:.3f}")
        return response


@dataclass
class RateLimitMiddleware(Middleware):
    """Per-tenant token bucket over every request.

    Each tenant holds up to ``capacity`` tokens, refilled continuously
    at ``refill_per_s``; a request spends one. An empty bucket answers
    ``429`` with error type ``RateLimited`` and a ``Retry-After``
    header — the request never reaches the queue. ``clock`` is
    injectable (tests drive it manually).
    """

    kind: ClassVar[str] = "rate_limit"
    capacity: float = 20.0
    refill_per_s: float = 10.0

    def __post_init__(self):
        self.clock = time.monotonic
        self._lock = threading.Lock()
        self._buckets: Dict[str, List[float]] = {}  # tenant -> [tokens, last]

    def handle(self, request: Request, call_next: CallNext) -> Response:
        now = self.clock()
        with self._lock:
            bucket = self._buckets.setdefault(
                request.tenant, [float(self.capacity), now]
            )
            tokens, last = bucket
            tokens = min(
                float(self.capacity), tokens + (now - last) * self.refill_per_s
            )
            if tokens < 1.0:
                bucket[:] = [tokens, now]
                retry_after_s = (
                    (1.0 - tokens) / self.refill_per_s if self.refill_per_s else 60.0
                )
                return Response(
                    status=429,
                    payload=error_envelope(
                        "RateLimited",
                        f"tenant {request.tenant!r} is over its request "
                        f"budget ({self.capacity:g} burst, "
                        f"{self.refill_per_s:g}/s sustained)",
                        retry_after_s=round(retry_after_s, 3),
                    ),
                    headers={"Retry-After": f"{retry_after_s:.3f}"},
                )
            bucket[:] = [tokens - 1.0, now]
        return call_next(request)

    def problems(self, where: str = "") -> List[str]:
        issues = []
        if self.capacity < 1:
            issues.append(f"{where}: capacity must be >= 1")
        if self.refill_per_s < 0:
            issues.append(f"{where}: refill_per_s must be >= 0")
        return issues


@dataclass
class QuotaMiddleware(Middleware):
    """Caps in-flight (queued + running) jobs per tenant.

    Applies only to submission requests; reads the live count from the
    job manager the app placed in ``request.context``. A tenant at its
    cap gets ``429`` with error type ``QuotaExceeded`` and the request
    never reaches the queue — finished/cancelled jobs free the slots.
    One lock spans the count and the enqueue, so two concurrent
    submissions cannot both pass a cap that has room for one.
    """

    kind: ClassVar[str] = "quota"
    max_in_flight: int = 4

    def __post_init__(self):
        self._lock = threading.Lock()

    def handle(self, request: Request, call_next: CallNext) -> Response:
        if not request.is_submission:
            return call_next(request)
        manager = request.context.get("manager")
        with self._lock:
            in_flight = manager.in_flight_for(request.tenant) if manager else 0
            if in_flight < self.max_in_flight:
                return call_next(request)
        return Response(
            status=429,
            payload=error_envelope(
                "QuotaExceeded",
                f"tenant {request.tenant!r} has {in_flight} job(s) in "
                f"flight (cap {self.max_in_flight}); wait for one to "
                "finish or cancel it",
                in_flight=in_flight,
                max_in_flight=self.max_in_flight,
            ),
        )

    def problems(self, where: str = "") -> List[str]:
        if self.max_in_flight < 1:
            return [f"{where}: max_in_flight must be >= 1"]
        return []


#: declared middleware kinds, in no particular order.
MIDDLEWARE_KINDS = {
    cls.kind: cls
    for cls in (
        RequestIdMiddleware,
        AccessLogMiddleware,
        TimingMiddleware,
        RateLimitMiddleware,
        QuotaMiddleware,
    )
}


class MiddlewareStack:
    """An ordered middleware chain around one terminal handler.

    Declaration order is wrapping order: the first middleware sees the
    request first and the response last — request_id before access_log
    before rate_limit means a 429 still gets an id and a log line.
    """

    def __init__(self, middlewares: Sequence[Middleware] = ()):
        self.middlewares: Tuple[Middleware, ...] = tuple(middlewares)

    def handle(self, request: Request, handler: Handler) -> Response:
        chain = self.middlewares

        def call(index: int, req: Request) -> Response:
            if index == len(chain):
                return handler(req)
            return chain[index].handle(req, lambda r: call(index + 1, r))

        return call(0, request)

    def problems(self) -> List[str]:
        issues: List[str] = []
        for position, middleware in enumerate(self.middlewares):
            where = f"middleware[{position}] ({middleware.kind})"
            issues.extend(middleware.problems(where))
        return issues

    def as_config(self) -> List[Dict]:
        return [middleware.as_dict() for middleware in self.middlewares]

    @classmethod
    def from_config(cls, entries: Sequence[Dict]) -> "MiddlewareStack":
        if not isinstance(entries, (list, tuple)):
            raise ValueError(
                f"middleware: expected a list, got {type(entries).__name__}"
            )
        built: List[Middleware] = []
        for position, entry in enumerate(entries):
            if not isinstance(entry, Mapping):
                raise ValueError(
                    f"middleware[{position}]: expected an object, "
                    f"got {type(entry).__name__}"
                )
            entry = dict(entry)
            kind = entry.pop("kind", None)
            if kind not in MIDDLEWARE_KINDS:
                raise ValueError(
                    f"middleware[{position}]: unknown kind {kind!r}; "
                    f"known: {sorted(MIDDLEWARE_KINDS)}"
                )
            built.append(decode(MIDDLEWARE_KINDS[kind], entry, f"middleware {kind!r}"))
        return cls(built)

    def __repr__(self) -> str:
        kinds = " -> ".join(m.kind for m in self.middlewares) or "empty"
        return f"MiddlewareStack({kinds})"
