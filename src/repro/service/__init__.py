"""Scenario service: the runner promoted to a long-running daemon.

``repro serve`` exposes the declarative scenario API over HTTP/JSON —
submit scenarios and sweeps, poll job status, fetch results rendered
through the golden-trace serializer (byte-identical to ``repro
scenario run --check``) — behind a **composable middleware chain**
declared in the server config: request-id, structured access logging,
timing, per-tenant token-bucket rate limiting and concurrent-job
quotas (:mod:`repro.service.middleware`).

The separation mirrors RAFDA's application-logic-vs-distribution-
policy split that the backend layer already follows: scenario
declarations do not change when the serving topology does. A scenario
submitted over HTTP is exactly a ``Scenario.from_dict`` payload, jobs
execute on the same backends the CLI uses, and a failed chain becomes
a structured job error — never a dead server.

Quick start::

    repro serve --port 8765                 # the daemon
    repro client submit fig09 --wait        # submit + poll + result
    repro client scenarios                  # catalogue over HTTP

or in-process (tests, notebooks)::

    from repro.service import ServerConfig, ServiceApp, serve_background

    with serve_background(ServerConfig(port=0)) as (server, url):
        ...
"""

from .config import DEFAULT_MIDDLEWARE, QueueConfig, ServerConfig
from .envelope import error_envelope, ok_envelope
from .jobs import Job, JobManager, JobQueueFull, JobStates
from .middleware import (
    MIDDLEWARE_KINDS,
    AccessLogMiddleware,
    Middleware,
    MiddlewareStack,
    QuotaMiddleware,
    RateLimitMiddleware,
    Request,
    RequestIdMiddleware,
    Response,
    TimingMiddleware,
)
from .app import ServiceApp
from .client import ServiceClient, ServiceError
from .server import make_server, serve, serve_background

__all__ = [
    "AccessLogMiddleware",
    "DEFAULT_MIDDLEWARE",
    "Job",
    "JobManager",
    "JobQueueFull",
    "JobStates",
    "MIDDLEWARE_KINDS",
    "Middleware",
    "MiddlewareStack",
    "QueueConfig",
    "QuotaMiddleware",
    "RateLimitMiddleware",
    "Request",
    "RequestIdMiddleware",
    "Response",
    "ServerConfig",
    "ServiceApp",
    "ServiceClient",
    "ServiceError",
    "TimingMiddleware",
    "error_envelope",
    "make_server",
    "ok_envelope",
    "serve",
    "serve_background",
]
