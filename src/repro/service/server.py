"""HTTP plumbing for the scenario service — stdlib only.

A lean HTTP/1.1 front end over :class:`~repro.service.app.ServiceApp`,
built on stdlib sockets and :mod:`selectors`:

* **an accept loop that does all the waiting** — ``serve_forever``
  accepts each connection, reads its request without blocking until it
  is whole (all requests held share :data:`BUFFER_BUDGET_BYTES`), and
  only then queues it for a handler. It writes what a handler could
  not send at once, then half-closes and drains the client. An idle,
  slow or non-reading client holds bytes in the loop, never a thread;
* **a bounded handler pool** — :data:`HANDLER_THREADS` handler threads
  parse the body, hand the :class:`~repro.service.middleware.Request`
  to the app (which runs the middleware chain) and send the status
  line, headers and JSON body in one non-blocking ``send``, so no load
  starts another thread and no handler waits on a socket. Every answer
  carries ``Connection: close`` and every connection serves one
  request (``http.client`` and ``urllib`` reconnect on their own);
* **bounded connections** — the daemon holds at most
  :data:`MAX_CONNECTIONS` connections. A new one past that closes the
  one that has waited longest for its request, once that one has
  waited :data:`DISPLACE_AFTER_S`; until then, the loop stops
  accepting, and new clients wait in the listen backlog, as they do
  while the process has no free descriptor;
* **typed rejections** — malformed input is answered by the transport
  itself, before the chain, with the shared JSON envelope and a 4xx
  status (400, 411, 413, 414 or 431), never an HTML page. Within
  :data:`MAX_LINE_BYTES` lines, :data:`MAX_HEADERS` headers and a
  :data:`MAX_BODY_BYTES` body it accepts what the stdlib's server did.

A client gets :data:`REQUEST_TIMEOUT_S` from its connect to deliver its
whole request, and as long again to take the answer; one that runs out
is dropped without an answer; no socket ever blocks. No framework, no
new dependency — the daemon is ``python -m`` / ``repro serve`` runnable
anywhere the repo is.

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
import errno
import json
import queue
import re
import selectors
import socket
import threading
import time
import traceback
from email.utils import formatdate
from http import HTTPStatus
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from .app import ServiceApp
from .config import ServerConfig
from .envelope import error_envelope
from .middleware import Request

#: threads that run requests through the app; the daemon never starts
#: more. They only ever hold a request that has arrived whole, and
#: never wait on a client, so the pool bounds concurrent app work.
HANDLER_THREADS = 8
#: connections the daemon holds at once: reading, queued or served.
MAX_CONNECTIONS = 512
#: seconds a connection may wait for its request before one past
#: MAX_CONNECTIONS may displace it: a client sends its request within a
#: round trip of its connect, so a burst never displaces a live one.
DISPLACE_AFTER_S = 1.0
#: request bytes the daemon holds for all connections, reading or
#: queued; a connection is read only while the total is below it. One
#: request at every limit below (its head and body) fits alone. When
#: only requests still arriving hold it, the largest of them is dropped.
BUFFER_BUDGET_BYTES = 8 << 20
#: seconds a client gets from its connect to deliver its whole request,
#: and again to take the answer: a client that declares N body bytes
#: and sends fewer would otherwise hold its connection forever.
REQUEST_TIMEOUT_S = 30
#: connections the kernel completes before the loop accepts them.
LISTEN_BACKLOG = 128
#: longest request or header line, as the stdlib's HTTP server.
MAX_LINE_BYTES = 65536
#: most header lines in one request, as the stdlib's HTTP server.
MAX_HEADERS = 100
#: largest request body the daemon reads; larger declarations get 413.
MAX_BODY_BYTES = 1 << 20
#: seconds a client gets to stop sending once the loop has written its
#: answer: closing with unread input sends a reset, which can destroy
#: the answer still in flight.
LINGER_S = 1.0

_RECV_BYTES = 65536
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
_REASONS = {status.value: status.phrase for status in HTTPStatus}
#: ``name: value``, the value's leading whitespace outside its group;
#: a name is an RFC 9110 token.
_HEADER_LINE = re.compile(r"([!#$%&'*+\-.^_`|~0-9A-Za-z]+):[ \t]*(.*)")


class _Reject(Exception):
    """A request the transport answers itself, before the chain."""

    def __init__(self, status: int, error_type: str, message: str):
        super().__init__(message)
        self.status = status
        self.error_type = error_type

    def answer(self) -> bytes:
        envelope = error_envelope(self.error_type, str(self))
        return _response(self.status, envelope, {})


def _response(status: int, payload, headers: Dict[str, str]) -> bytes:
    """The whole answer — status line, headers, JSON body — as one buffer."""
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Date: {formatdate(usegmt=True)}\r\n"
        f"Connection: close\r\n"
    )
    for key, value in headers.items():
        head += f"{key}: {value}\r\n"
    return (head + "\r\n").encode("latin-1") + body


def _head_end(buffer: bytearray, start: int) -> int:
    """Where the blank line ending the head starts (after the last
    header's ``\\n``), searching from ``start``, or -1; lines may end
    in CRLF or a bare LF."""
    crlf, lf = buffer.find(b"\n\r\n", start), buffer.find(b"\n\n", start)
    if crlf < 0 or 0 <= lf < crlf:
        return lf
    return crlf


def _check_partial_head(buffer: bytearray, lines: int) -> None:
    """Reject a head of ``lines`` complete lines so far that already
    breaks a limit."""
    if len(buffer) - buffer.rfind(b"\n") - 1 > MAX_LINE_BYTES:
        if lines == 0:
            raise _Reject(414, "RequestLineTooLong", "request line too long")
        raise _Reject(431, "HeadersTooLarge", "header line too long")
    if lines > MAX_HEADERS + 1:
        raise _Reject(431, "HeadersTooLarge", f"more than {MAX_HEADERS} headers")


def _parse_head(head: str):
    """-> (method, target, version, lower-cased headers) of a complete head."""
    lines = head.split("\n")
    request_line = lines[0]
    if len(request_line) > MAX_LINE_BYTES:
        raise _Reject(414, "RequestLineTooLong", "request line too long")
    words = request_line.split()
    if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
        raise _Reject(400, "BadRequest", f"bad request line {request_line[:80]!r}")
    if len(lines) - 1 > MAX_HEADERS:
        raise _Reject(431, "HeadersTooLarge", f"more than {MAX_HEADERS} headers")
    headers = {}
    for line in lines[1:]:
        if len(line) > MAX_LINE_BYTES:
            raise _Reject(431, "HeadersTooLarge", "header line too long")
        match = _HEADER_LINE.fullmatch(line)
        if match is None:
            raise _Reject(400, "BadRequest", f"malformed header line {line[:80]!r}")
        name, value = match.groups()
        headers[name.lower()] = value.rstrip(" \t\r")
    return words[0], words[1], words[2], headers


def _body_length(headers: Dict[str, str]) -> int:
    if "transfer-encoding" in headers:
        raise _Reject(411, "LengthRequired", "send the body with a Content-Length")
    declared = headers.get("content-length") or "0"
    try:
        length = int(declared)
    except ValueError:
        raise _Reject(
            400, "BadRequest", f"unreadable body: bad Content-Length {declared!r}"
        ) from None
    if length < 0:
        raise _Reject(400, "BadRequest", f"negative Content-Length {length}")
    if length > MAX_BODY_BYTES:
        raise _Reject(
            413,
            "PayloadTooLarge",
            f"Content-Length {length} exceeds {MAX_BODY_BYTES} bytes",
        )
    return length


def _split_target(target: str) -> Tuple[str, str]:
    """-> (path, query) of a request target; an absolute-form target
    (``http://host/path``) routes by its path, and a fragment is dropped."""
    if not target.startswith("/"):
        try:
            parts = urlsplit(target)
        except ValueError:  # e.g. an unclosed IPv6 bracket in the host
            raise _Reject(
                400, "BadRequest", f"bad request target {target[:80]!r}"
            ) from None
        return parts.path, parts.query
    path, _, query = target.partition("#")[0].partition("?")
    return path, query


class _Incoming:
    """One connection and as much of its request as has arrived."""

    __slots__ = (
        "sock",
        "since",
        "deadline",
        "buffer",
        "lines",
        "head",
        "body_at",
        "length",
        "continued",
        "watched",
        "out",
    )

    def __init__(self, sock: socket.socket, since: float):
        self.sock = sock
        #: monotonic time of the accept.
        self.since = since
        #: monotonic time by which the whole request must have arrived
        #: (then: the answer be taken, then the client stop sending).
        self.deadline = since + REQUEST_TIMEOUT_S
        self.buffer = bytearray()
        #: complete lines in an incomplete head.
        self.lines = 0
        #: ``_parse_head``'s answer, once the head is whole.
        self.head = None
        self.body_at = 0
        self.length = 0
        #: whether ``100 Continue`` went out.
        self.continued = False
        #: the events the accept loop's selector watches for (0: none).
        self.watched = 0

    def feed(self, chunk: bytes) -> None:
        """Take the next received bytes; empty ones mean the client
        ended its sending side. Raises :class:`_Reject`."""
        buffer = self.buffer
        if not chunk:
            if self.head is None:
                raise _Reject(400, "BadRequest", "request ended in its headers")
            got = len(buffer) - self.body_at
            raise _Reject(
                400, "BadRequest", f"body ended after {got} of {self.length} bytes"
            )
        # each chunk is searched once, so a large head costs linear time
        start = max(len(buffer) - 2, 0)
        buffer += chunk
        if self.head is not None:
            return
        end = _head_end(buffer, start)
        if end < 0:
            self.lines += chunk.count(b"\n")
            _check_partial_head(buffer, self.lines)
            return
        self.head = _parse_head(buffer[:end].decode("latin-1"))
        self.length = _body_length(self.head[3])
        self.body_at = end + 2 if buffer[end + 1] == 10 else end + 3

    @property
    def complete(self) -> bool:
        return self.head is not None and len(self.buffer) - self.body_at >= self.length

    @property
    def wants_continue(self) -> bool:
        return (
            self.head is not None
            and not self.continued
            and not self.complete
            and self.head[2] == "HTTP/1.1"
            and self.head[3].get("expect", "").lower() == "100-continue"
        )

    def request(self) -> Request:
        """The whole request, parsed. Raises :class:`_Reject`."""
        method, target, _, headers = self.head
        raw = self.buffer[self.body_at : self.body_at + self.length]
        try:
            payload = json.loads(raw.decode("utf-8")) if raw.strip() else None
        except (ValueError, UnicodeDecodeError) as error:
            raise _Reject(400, "BadRequest", f"unreadable body: {error}") from None
        path, query = _split_target(target)
        return Request(
            method=method,
            path=path,
            headers=headers,
            body=payload,
            query=dict(parse_qsl(query)) if query else {},
        )


class ServiceHTTPServer:
    """The bound socket, its accept loop and its handler pool; owns the
    app so shutdown can close the queue."""

    def __init__(self, config: ServerConfig, app: Optional[ServiceApp] = None):
        self.config = config
        # bind first: a port in use must not leave the app's job threads
        self._listener = socket.create_server(
            (config.host, config.port), backlog=LISTEN_BACKLOG
        )
        self._listener.setblocking(False)
        self.server_address = self._listener.getsockname()
        self.app = app or ServiceApp(config)
        # the accept loop's wake-up call: shutdown, an answer handed
        # back, or room for more connections or request bytes
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        # whole requests for the handlers; None tells one to exit
        self._connections: queue.SimpleQueue = queue.SimpleQueue()
        # (connection, answer, bytes sent) a handler did not send whole
        self._handed: queue.SimpleQueue = queue.SimpleQueue()
        self._lock = threading.Lock()
        # guarded by _lock: the connections held, the request bytes held
        # (reading or queued), and whether the loop has stopped accepting
        self._open = 0
        self._buffered = 0
        self._paused = False
        # the loop's own state: the connections it reads, writes and
        # drains, each in deadline order; whether the budget stopped its
        # reading (handlers read it, to wake the loop); and the open
        # count and time at which an accept short of descriptors retries
        self._selector: Optional[selectors.BaseSelector] = None
        self._reading: Dict[_Incoming, None] = {}
        self._writing: Dict[_Incoming, None] = {}
        self._draining: Dict[_Incoming, None] = {}
        self._starved = False
        self._retry_accept = (0, 0.0)
        self._stop = False
        self._stopped = threading.Event()
        self._handlers = [
            threading.Thread(
                target=self._handle_connections, name=f"repro-http-{n}", daemon=True
            )
            for n in range(HANDLER_THREADS)
        ]
        for handler in self._handlers:
            handler.start()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    # -- the accept loop -----------------------------------------------------
    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Accept connections, read requests and finish answers until
        :meth:`shutdown`; ``poll_interval`` caps each wait, and any pause
        in accepting while no descriptor is free."""
        self._stopped.clear()
        try:  # a process short of descriptors raises here: still set _stopped
            self._selector = selectors.DefaultSelector()
            self._selector.register(self._listener, selectors.EVENT_READ)
            self._selector.register(self._wake_r, selectors.EVENT_READ)
            while not self._stop:
                events = self._selector.select(self._next_wait(poll_interval))
                for key, _ in events:
                    if key.fileobj is self._listener:
                        self._accept(poll_interval)
                    elif key.fileobj is self._wake_r:
                        with contextlib.suppress(OSError):
                            self._wake_r.recv(_RECV_BYTES)
                    elif key.data in self._reading:
                        self._receive(key.data)
                    elif key.data in self._writing:
                        self._write(key.data)
                    elif key.data in self._draining:
                        self._drain(key.data)
                self._expire()
                while not self._handed.empty():
                    self._answer(*self._handed.get())
                if self._starved and self._buffered < BUFFER_BUDGET_BYTES:
                    self._starved = False
                    for incoming in self._reading:
                        self._watch(incoming, selectors.EVENT_READ)
                self._resume_accepting()
        finally:
            for incoming in [*self._reading, *self._writing, *self._draining]:
                self._drop(incoming)
            if self._selector is not None:
                self._selector.close()
            with self._lock:
                self._paused = False
            self._stop = False
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop ``serve_forever`` (from another thread) and wait for it."""
        self._stop = True
        self._wake()
        self._stopped.wait()

    def _wake(self) -> None:
        with contextlib.suppress(OSError):
            self._wake_w.send(b"\0")

    def _next_wait(self, poll_interval: float) -> float:
        """Seconds until the earliest deadline the loop keeps (or, while
        it is not accepting, until a connection becomes displaceable),
        at most ``poll_interval``."""
        now = time.monotonic()
        wait = poll_interval
        for pending in (self._reading, self._writing, self._draining):
            if pending:
                wait = min(wait, next(iter(pending)).deadline - now)
        if self._paused and self._reading:
            oldest = next(iter(self._reading))
            wait = min(wait, oldest.since + DISPLACE_AFTER_S - now)
        return max(wait, 0.0)

    def _displaceable(self) -> Optional[_Incoming]:
        """The connection to drop for a new one past the limit: the one
        that has waited longest for its request, if it has waited
        :data:`DISPLACE_AFTER_S`, else one draining after its answer."""
        if self._reading:
            oldest = next(iter(self._reading))
            if time.monotonic() - oldest.since >= DISPLACE_AFTER_S:
                return oldest
        return next(iter(self._draining), None)

    def _accept(self, poll_interval: float) -> None:
        with self._lock:
            displaced = None
            if self._open >= MAX_CONNECTIONS:
                displaced = self._displaceable()
                if displaced is None:
                    # new clients wait in the listen backlog for room
                    self._paused = True
                    self._selector.unregister(self._listener)
                    return
        if displaced is not None:
            self._drop(displaced)
        try:
            sock, _ = self._listener.accept()
        except OSError as error:
            if error.errno in (errno.EMFILE, errno.ENFILE):
                # retry once a connection closes or a poll interval passes
                self._retry_accept = (self._open, time.monotonic() + poll_interval)
                with self._lock:
                    self._paused = True
                self._selector.unregister(self._listener)
            return  # else the client gave up first
        sock.setblocking(False)
        with self._lock:
            self._open += 1
        incoming = _Incoming(sock, time.monotonic())
        self._reading[incoming] = None
        # the request has often arrived with the connection: read it now
        self._receive(incoming)

    def _resume_accepting(self) -> None:
        with self._lock:
            if not self._paused:
                return
            if self._open >= MAX_CONNECTIONS and self._displaceable() is None:
                return
            held, retry_at = self._retry_accept
            if self._open >= held and time.monotonic() < retry_at:
                return
            self._paused = False
        self._selector.register(self._listener, selectors.EVENT_READ)

    def _receive(self, incoming: _Incoming) -> None:
        """Read what has arrived, unless the budget is spent; queue the
        request once it is whole."""
        while (buffered := self._buffered) >= BUFFER_BUDGET_BYTES:
            if sum(len(held.buffer) for held in self._reading) < buffered:
                self._starved = True  # read again once a handler frees bytes
                self._watch(incoming, 0)
                return
            # no handler holds bytes to free: the largest arriving gives way
            largest = max(self._reading, key=lambda held: len(held.buffer))
            self._drop(largest)
            if largest is incoming:
                return
        try:
            chunk = incoming.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            self._watch(incoming, selectors.EVENT_READ)
            return
        except OSError:
            self._drop(incoming)
            return
        if not chunk and not incoming.buffer:
            self._drop(incoming)  # the client left without a request
            return
        with self._lock:
            self._buffered += len(chunk)
        try:
            incoming.feed(chunk)
        except _Reject as reject:
            self._free(incoming)
            self._answer(incoming, reject.answer())
            return
        if incoming.complete:
            del self._reading[incoming]
            self._watch(incoming, 0)
            self._connections.put(incoming)
            return
        if incoming.wants_continue:
            incoming.continued = True
            with contextlib.suppress(OSError):
                incoming.sock.send(_CONTINUE)
        self._watch(incoming, selectors.EVENT_READ)

    def _answer(self, incoming: _Incoming, out: bytes, sent: int = 0) -> None:
        """Write ``out`` past its first ``sent`` bytes, half-close, and
        drain the client until it stops sending or :data:`LINGER_S` ends."""
        self._reading.pop(incoming, None)
        incoming.out = memoryview(out)[sent:]
        incoming.deadline = time.monotonic() + REQUEST_TIMEOUT_S
        self._writing[incoming] = None
        self._write(incoming)

    def _write(self, incoming: _Incoming) -> None:
        try:
            incoming.out = incoming.out[incoming.sock.send(incoming.out) :]
        except BlockingIOError:
            pass
        except OSError:
            self._drop(incoming)
            return
        if incoming.out:
            self._watch(incoming, selectors.EVENT_WRITE)
            return
        with contextlib.suppress(OSError):
            incoming.sock.shutdown(socket.SHUT_WR)
        del self._writing[incoming]
        incoming.deadline = time.monotonic() + LINGER_S
        self._draining[incoming] = None
        self._watch(incoming, selectors.EVENT_READ)

    def _drain(self, incoming: _Incoming) -> None:
        try:
            if incoming.sock.recv(_RECV_BYTES):
                return
        except BlockingIOError:
            return
        except OSError:
            pass
        self._drop(incoming)

    def _expire(self) -> None:
        """Drop the connections whose deadline passed: a request not
        whole, an answer not taken, a client still sending after it."""
        now = time.monotonic()
        for pending in (self._reading, self._writing, self._draining):
            while pending and next(iter(pending)).deadline <= now:
                self._drop(next(iter(pending)))

    def _watch(self, incoming: _Incoming, events: int) -> None:
        """Have the selector watch the socket for ``events`` (0: not at all)."""
        if incoming.watched == events:
            return
        if not events:
            self._selector.unregister(incoming.sock)
        elif incoming.watched:
            self._selector.modify(incoming.sock, events, incoming)
        else:
            self._selector.register(incoming.sock, events, incoming)
        incoming.watched = events

    def _drop(self, incoming: _Incoming) -> None:
        for pending in (self._reading, self._writing, self._draining):
            pending.pop(incoming, None)
        self._watch(incoming, 0)
        incoming.sock.close()
        self._free(incoming, closed=True)

    def _free(self, incoming: _Incoming, closed: bool = False) -> None:
        """Give back the request bytes a connection holds and, once it
        is ``closed``, its place; wake the loop if it waits for either."""
        with self._lock:
            self._buffered -= len(incoming.buffer)
            self._open -= closed
            wake = closed and self._paused or self._starved
        incoming.buffer = bytearray()
        if wake:
            self._wake()

    # -- the handler pool ----------------------------------------------------
    def _handle_connections(self) -> None:
        while (incoming := self._connections.get()) is not None:
            try:
                response = self.app.handle(incoming.request())
                out = _response(response.status, response.payload, response.headers)
            except _Reject as reject:  # an unreadable body
                out = reject.answer()
            except Exception:  # a handler bug answers nothing, never kills
                traceback.print_exc()
                out = b""
            try:
                sent = incoming.sock.send(out)
            except BlockingIOError:
                sent = 0
            except OSError:  # the client went away
                sent = len(out)
            if sent < len(out):
                self._free(incoming)
                self._handed.put((incoming, out, sent))
                self._wake()
            else:
                with contextlib.suppress(OSError):  # send the FIN now
                    incoming.sock.shutdown(socket.SHUT_WR)
                incoming.sock.close()
                self._free(incoming, closed=True)

    def close(self) -> None:
        """Stop listening, join every handler thread, close the
        connections they handed back, then close the job queue. Call it
        once ``serve_forever`` has returned, or if it never ran."""
        self._listener.close()
        for _ in self._handlers:
            self._connections.put(None)
        for handler in self._handlers:
            handler.join()
        while not self._handed.empty():
            self._handed.get()[0].sock.close()
        self._wake_r.close()
        self._wake_w.close()
        self.app.close()


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
