"""HTTP plumbing for the scenario service — stdlib only.

A thin :class:`http.server.ThreadingHTTPServer` front end over
:class:`~repro.service.app.ServiceApp`: each HTTP request is parsed
into a :class:`~repro.service.middleware.Request`, handed to the app
(which runs the middleware chain), and the resulting envelope is
written back as JSON. No framework, no new dependency — the daemon is
``python -m`` / ``repro serve`` runnable anywhere the repo is.

Three entry points:

* :func:`make_server` — a bound, not-yet-serving server (port 0 gives
  an ephemeral port; read ``server.url``);
* :func:`serve` — bind and block (the CLI's ``repro serve``);
* :func:`serve_background` — context manager running the server on a
  daemon thread, yielding ``(server, url)``; tests and the bundled
  example use it for a hermetic in-process service.
"""

from __future__ import annotations

import contextlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from .app import ServiceApp
from .config import ServerConfig
from .envelope import error_envelope
from .middleware import Request


#: largest request body the daemon reads; larger declarations get 413.
MAX_BODY_BYTES = 1 << 20


class _PayloadTooLarge(ValueError):
    pass


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    """One HTTP exchange -> Request -> app -> JSON envelope."""

    protocol_version = "HTTP/1.1"
    # socket read timeout (seconds): a client that declares N body bytes
    # and sends fewer would otherwise hold a handler thread forever; on
    # expiry the stdlib handler drops the connection.
    timeout = 30
    # _write sends headers and body in separate writes; with Nagle's
    # algorithm on, a kept-alive connection holds each body until the
    # client's delayed ACK arrives (~40 ms per request).
    disable_nagle_algorithm = True
    server: "ServiceHTTPServer"

    # the access_log middleware is the logging surface; the default
    # per-request stderr lines here would double-log every hit.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _parse_request(self) -> Request:
        split = urlsplit(self.path)
        headers = {key.lower(): value for key, value in self.headers.items()}
        body = None
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0 or length > MAX_BODY_BYTES:
            # the body stays unread, so the connection cannot be reused
            # (and rfile.read(-1) would block until the client hangs up)
            self.close_connection = True
            if length < 0:
                raise ValueError(f"negative Content-Length {length}")
            raise _PayloadTooLarge(
                f"Content-Length {length} exceeds {MAX_BODY_BYTES} bytes"
            )
        if length:
            raw = self.rfile.read(length)
            body = json.loads(raw.decode("utf-8")) if raw.strip() else None
        return Request(
            method=self.command,
            path=split.path,
            headers=headers,
            body=body,
            query=dict(parse_qsl(split.query)),
        )

    def _respond(self) -> None:
        try:
            request = self._parse_request()
        except (ValueError, UnicodeDecodeError) as error:
            headers = {"Connection": "close"} if self.close_connection else {}
            if isinstance(error, _PayloadTooLarge):
                envelope = error_envelope("PayloadTooLarge", str(error))
                self._write(413, envelope, headers)
            else:
                envelope = error_envelope("BadRequest", f"unreadable body: {error}")
                self._write(400, envelope, headers)
            return
        response = self.server.app.handle(request)
        self._write(response.status, response.payload, response.headers)

    def _write(self, status: int, payload, headers) -> None:
        raw = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        for key, value in headers.items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(raw)

    do_GET = _respond
    do_POST = _respond


class ServiceHTTPServer(ThreadingHTTPServer):
    """The bound server; owns the app so shutdown can close the queue."""

    daemon_threads = True

    def __init__(self, config: ServerConfig, app: Optional[ServiceApp] = None):
        self.config = config
        self.app = app or ServiceApp(config)
        super().__init__((config.host, config.port), _ServiceRequestHandler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        self.app.close()
        self.server_close()


def make_server(
    config: Optional[ServerConfig] = None, app: Optional[ServiceApp] = None
) -> ServiceHTTPServer:
    """A bound server that is not serving yet (call ``serve_forever``)."""
    return ServiceHTTPServer(config or ServerConfig(), app=app)


def serve(config: Optional[ServerConfig] = None) -> None:
    """Bind and serve until interrupted — the ``repro serve`` loop."""
    server = make_server(config)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()


@contextlib.contextmanager
def serve_background(config: Optional[ServerConfig] = None):
    """A live server on a daemon thread: ``with serve_background(cfg)
    as (server, url): ...`` — hermetic setup/teardown for tests,
    notebooks and the bundled example."""
    server = make_server(config)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    try:
        yield server, server.url
    finally:
        server.shutdown()
        server.close()
        thread.join(timeout=5.0)


def parse_address(url: str) -> Tuple[str, int]:
    """(host, port) of a service URL (client-side convenience)."""
    split = urlsplit(url if "//" in url else f"//{url}")
    return split.hostname or "127.0.0.1", split.port or 8765
