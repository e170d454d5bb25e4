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

from .._lazy import lazy_exports

__all__ = lazy_exports(
    globals(),
    {
        ".config": ("DEFAULT_MIDDLEWARE", "QueueConfig", "ServerConfig"),
        ".envelope": ("error_envelope", "ok_envelope"),
        ".jobs": ("Job", "JobManager", "JobQueueFull", "JobStates"),
        ".middleware": (
            "MIDDLEWARE_KINDS",
            "AccessLogMiddleware",
            "Middleware",
            "MiddlewareStack",
            "QuotaMiddleware",
            "RateLimitMiddleware",
            "Request",
            "RequestIdMiddleware",
            "Response",
            "TimingMiddleware",
        ),
        ".app": ("ServiceApp",),
        ".client": ("ServiceClient", "ServiceError"),
        ".server": ("make_server", "serve", "serve_background"),
    },
)
