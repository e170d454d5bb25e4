"""Declarative server configuration.

A running daemon is fully described by a :class:`ServerConfig` —
bind address, job-queue shape, middleware chain — built from a plain
JSON/dict payload with the same strict ``from_dict`` / ``problems()``
validation discipline as :class:`~repro.scenarios.spec.Scenario`:
unknown keys are rejected loudly and *every* problem is reported at
once, not just the first. ``repro serve --config server.json`` and the
in-process test harness consume the same shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..schema import Spec
from .middleware import MiddlewareStack

#: the default chain, outermost first: every request gets an id, a log
#: line and a timing header; abusive tenants are shed by the bucket;
#: greedy ones by the in-flight quota.
DEFAULT_MIDDLEWARE: Tuple[Dict, ...] = (
    {"kind": "request_id"},
    {"kind": "access_log"},
    {"kind": "timing"},
    {"kind": "rate_limit"},
    {"kind": "quota"},
)

#: ``ServerConfig.middleware`` is the one polymorphic field (entries are
#: keyed by ``kind``), so it carries its own (encode, decode) codec hook.
_MIDDLEWARE_CODEC = (
    MiddlewareStack.as_config,
    lambda entries, path: MiddlewareStack.from_config(entries),
)


@dataclass
class QueueConfig(Spec):
    """Shape of the async job queue behind the API."""

    #: worker threads draining the queue; each runs one job at a time.
    workers: int = 2
    #: max queued-but-unstarted jobs before submissions answer 503.
    capacity: int = 64

    def problems(self, where: str = "queue") -> List[str]:
        issues = []
        if self.workers < 1:
            issues.append(f"{where}: workers must be >= 1")
        if self.capacity < 1:
            issues.append(f"{where}: capacity must be >= 1")
        return issues


@dataclass
class ServerConfig(Spec):
    """Everything ``repro serve`` needs to run, as validated data."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (the test harness relies on this).
    port: int = 8765
    queue: QueueConfig = field(default_factory=QueueConfig)
    middleware: MiddlewareStack = field(
        default_factory=lambda: MiddlewareStack.from_config(DEFAULT_MIDDLEWARE),
        metadata={"codec": _MIDDLEWARE_CODEC},
    )

    def problems(self) -> List[str]:
        issues: List[str] = []
        if not self.host:
            issues.append("server: host must be non-empty")
        if not (0 <= self.port <= 65535):
            issues.append(f"server: port {self.port} outside 0..65535")
        return issues + self.queue.problems() + self.middleware.problems()

    def validate(self) -> "ServerConfig":
        issues = self.problems()
        if issues:
            raise ValueError(
                "invalid server config:\n  - " + "\n  - ".join(issues)
            )
        return self
