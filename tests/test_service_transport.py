"""The daemon's HTTP transport: the accept loop that reads requests
and finishes answers, the handler pool, the byte budget, the
connection bound, and what it answers to malformed or hostile input.

Requests go over raw sockets, so the bytes on the wire are exactly the
ones under test: nothing a client library would normalise first.
"""

import contextlib
import errno
import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import SCENARIO_REGISTRY, Scenario, register
from repro.scenarios.runner import AnalysisStep
from repro.service import ServerConfig, serve_background
from repro.service import server as transport
from repro.service.envelope import is_envelope

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEALTH = b"GET /v1/health HTTP/1.1\r\nHost: test\r\n\r\n"
#: request lines the health route answers 200.
HEALTH_LINES = (b"GET /v1/health HTTP/1.", b"GET http://test/v1/health HTTP/1.")


def config():
    return ServerConfig.from_dict({"port": 0, "middleware": [{"kind": "request_id"}]})


@pytest.fixture(scope="module")
def service():
    with serve_background(config()) as (server, _):
        yield server


def connect(address) -> socket.socket:
    return socket.create_connection(address, timeout=10)


def exchange(address, raw: bytes, half_close: bool = False) -> bytes:
    """Send ``raw`` on a fresh connection (then end the sending side,
    with ``half_close``) -> every byte sent back before the server
    closed it. A client timeout fails the test."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(raw)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass
    return b"".join(chunks)


def answer(raw: bytes):
    """-> (status, headers, envelope) of the final answer; interim
    ``100 Continue`` answers are skipped."""
    while raw.startswith(b"HTTP/1.1 100 "):
        raw = raw.partition(b"\r\n\r\n")[2]
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = dict(line.split(": ", 1) for line in lines[1:])
    assert int(headers["Content-Length"]) == len(body)
    assert headers["Connection"] == "close"
    envelope = json.loads(body)
    assert is_envelope(envelope)
    return status, headers, envelope


def handler_threads():
    return [t for t in threading.enumerate() if t.name.startswith("repro-http-")]


def wait_until(condition, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def head_with(*lines: bytes, request_line: bytes = b"GET /v1/health HTTP/1.1"):
    return b"\r\n".join((request_line, *lines)) + b"\r\n\r\n"


def one_line(raw: bytes) -> bytes:
    return raw.replace(b"\r", b"").replace(b"\n", b"")


@contextlib.contextmanager
def instant_scenario(name: str = "transport-instant"):
    """Register ``name`` as a scenario whose one step returns at once."""
    from repro.scenarios.result import ExperimentResult

    def instant(scale, seed):
        return ExperimentResult(exhibit="x", title="x", columns=["v"])

    register(
        Scenario.builder(name).kind("analysis").build(),
        plan_fn=lambda scenario, scale, seed: [AnalysisStep("i", instant)],
        replace=True,
    )
    try:
        yield name
    finally:
        SCENARIO_REGISTRY.pop(name, None)


LONG = b"x" * (transport.MAX_LINE_BYTES + 1)


class TestMalformedInput:
    @pytest.mark.parametrize(
        "raw, status, error_type",
        [
            (head_with(request_line=b"GET /" + LONG + b" HTTP/1.1"), 414, None),
            (head_with(b"X-Long: " + LONG), 431, "HeadersTooLarge"),
            (head_with(*[b"X-Many: 1"] * (transport.MAX_HEADERS + 1)), 431, None),
            (head_with(b"NoColon"), 400, "BadRequest"),
            (head_with(b" folded: x"), 400, "BadRequest"),
            (head_with(b"Content-Length: abc"), 400, "BadRequest"),
            (head_with(b"Content-Length: \xb2"), 400, "BadRequest"),
            (head_with(b"Content-Length: 99999999999999999999999"), 413, None),
            (head_with(b"Transfer-Encoding: chunked"), 411, "LengthRequired"),
            (head_with(request_line=b"GET /v1/health HTTP/2.0"), 400, None),
            (head_with(request_line=b"\xff\xfe\x00"), 400, "BadRequest"),
            (head_with(request_line=b"GET http://[x/v1 HTTP/1.1"), 400, "BadRequest"),
            (b"POST /v1/runs HTTP/1.1\r\nContent-Length: 4\r\n\r\n{no}", 400, None),
        ],
    )
    def test_answers_a_json_envelope(self, service, raw, status, error_type):
        got, headers, envelope = answer(exchange(service.server_address[:2], raw))
        assert got == status
        assert envelope["ok"] is False
        if error_type:
            assert envelope["error"]["type"] == error_type

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"GET /v1/health HTTP/1.1\r\nHost: te", "request ended in its headers"),
            (
                b"POST /v1/runs HTTP/1.1\r\nContent-Length: 9\r\n\r\n{",
                "body ended after 1 of 9 bytes",
            ),
        ],
    )
    def test_a_request_cut_short_is_400(self, service, raw, message):
        raw = exchange(service.server_address[:2], raw, half_close=True)
        status, _, envelope = answer(raw)
        assert status == 400
        assert envelope["error"]["message"] == message

    @pytest.mark.parametrize(
        "request_line",
        [
            b"GET http://test/v1/health HTTP/1.1",
            b"GET /v1/health#fragment HTTP/1.1",
            b"GET /v1/health?x=1#fragment HTTP/1.1",
        ],
    )
    def test_absolute_form_and_fragments_reach_the_route(self, service, request_line):
        raw = head_with(b"Host: test", request_line=request_line)
        assert answer(exchange(service.server_address[:2], raw))[0] == 200

    def test_non_ascii_header_value_reaches_the_route(self, service):
        raw = head_with(b"X-Tenant: \xe9t\xe9")
        status, headers, _ = answer(exchange(service.server_address[:2], raw))
        assert status == 200
        assert headers["X-Request-Id"].startswith("req-")

    def test_bare_lf_lines_are_read(self, service):
        raw = b"GET /v1/health HTTP/1.1\nHost: test\n\n"
        assert answer(exchange(service.server_address[:2], raw))[0] == 200

    def test_a_connection_closed_without_a_request_gets_nothing(self, service):
        with socket.create_connection(service.server_address[:2], timeout=10):
            pass
        assert answer(exchange(service.server_address[:2], HEALTH))[0] == 200


#: request lines: the health route, others, and bytes that are none.
REQUEST_LINES = st.one_of(
    st.sampled_from(
        [
            b"GET /v1/health HTTP/1.1",
            b"GET /v1/health HTTP/1.0",
            b"GET /v1/nope?x=%ff&y HTTP/1.1",
            b"POST /v1/runs HTTP/1.1",
            b"DELETE /v1/health HTTP/1.1",
            b"GET /v1/health HTTP/9.9",
            b"GET /v1/health",
            b"GET /v1/\xff\xfe HTTP/1.1",
            b"GET http://test/v1/health HTTP/1.1",
            b"GET http://[x/v1/health HTTP/1.1",
            b"",
            b"GET /" + LONG + b" HTTP/1.1",
        ]
    ),
    st.binary(max_size=48).map(one_line),
)
#: one header line, never empty (an empty line would end the head).
HEADER_LINES = st.one_of(
    st.sampled_from(
        [
            b"Host: test",
            b"X-Tenant: fuzz",
            b"NoColon",
            b" folded: x",
            b"X-Bin: \xff\xfe\x80",
            b"\xc3\xa9: v",
            b"Name With Space: v",
            b"Expect: 100-continue",
            b"Transfer-Encoding: chunked",
            b"X-Long: " + LONG,
        ]
    ),
    st.binary(min_size=1, max_size=40).map(one_line).filter(bool),
)
HEADER_BLOCKS = st.one_of(
    st.lists(HEADER_LINES, max_size=6),
    st.just([b"X-Many: 1"] * (transport.MAX_HEADERS + 1)),
)
#: Content-Length values that declare no body the server may wait for.
HOSTILE_LENGTHS = st.one_of(
    st.integers(max_value=-1).map(str),
    st.integers(min_value=transport.MAX_BODY_BYTES + 1).map(str),
    st.sampled_from(["abc", "1e3", "0x10", "-", "\xb2", "9" * 5000]),
)


class TestHostileInput:
    def test_every_answer_is_an_envelope_and_the_daemon_survives(self, service):
        address = service.server_address[:2]

        @settings(max_examples=120, deadline=None)
        @given(
            request_line=REQUEST_LINES,
            headers=HEADER_BLOCKS,
            length=st.one_of(st.none(), HOSTILE_LENGTHS),
            body=st.binary(max_size=64),
        )
        def exchange_is_answered(request_line, headers, length, body):
            # a body is sent only when the declared length matches it
            if length is None:
                length = str(len(body))
            else:
                body = b""
            lines = [*headers, b"Content-Length: " + length.encode("latin-1")]
            raw = exchange(address, head_with(*lines, request_line=request_line) + body)
            status, _, envelope = answer(raw)
            if status == 200:
                assert request_line.startswith(HEALTH_LINES)
                assert envelope["ok"] is True
            else:
                assert 400 <= status < 500, envelope
                assert envelope["ok"] is False

        exchange_is_answered()
        assert answer(exchange(address, HEALTH))[0] == 200


class TestHandlerPool:
    def test_idle_and_slow_clients_hold_no_handler(self):
        before = len(handler_threads())
        pool = transport.HANDLER_THREADS
        with serve_background(config()) as (server, _):
            address = server.server_address[:2]
            idle = [connect(address) for _ in range(pool + 4)]
            slow = [connect(address) for _ in range(pool)]
            try:
                for sock in slow:  # a head that never ends
                    sock.sendall(b"GET /v1/health HTTP/1.1\r\nHost")
                wait_until(lambda: len(server._reading) == len(idle) + len(slow))
                started = time.monotonic()
                assert answer(exchange(address, HEALTH))[0] == 200
                assert time.monotonic() - started < 1.0
                assert len(handler_threads()) == before + pool
            finally:
                for sock in idle + slow:
                    sock.close()
            wait_until(lambda: not server._reading)
            assert answer(exchange(address, HEALTH))[0] == 200
            assert len(handler_threads()) == before + pool
        assert len(handler_threads()) == before

    def test_close_with_idle_connections_is_prompt(self):
        before = len(handler_threads())
        server = transport.make_server(config())
        serving = threading.Thread(target=server.serve_forever, daemon=True)
        serving.start()
        address = server.server_address[:2]
        idle = [connect(address) for _ in range(3)]
        # a head past 16 KiB that never ends stays with the loop, read
        held = connect(address)
        held.sendall(b"GET /v1/health HTTP/1.1\r\nX-Big: " + b"x" * 16384)
        try:
            wait_until(lambda: len(server._reading) == 4 and server._buffered > 16384)
            server.shutdown()
            started = time.monotonic()
            server.close()
            assert time.monotonic() - started < 2.0
            assert len(handler_threads()) == before
            for sock in idle:
                assert sock.recv(1) == b""  # closed, not left hanging
            try:
                assert held.recv(65536) == b""
            except ConnectionResetError:
                pass
        finally:
            for sock in idle + [held]:
                sock.close()
            serving.join(timeout=5)
        assert not serving.is_alive()

    def test_a_connection_past_the_limit_displaces_the_idlest(self, monkeypatch):
        monkeypatch.setattr(transport, "MAX_CONNECTIONS", 4)
        monkeypatch.setattr(transport, "DISPLACE_AFTER_S", 0.3)
        with serve_background(config()) as (server, _):
            address = server.server_address[:2]
            idle = [connect(address) for _ in range(4)]
            try:
                wait_until(lambda: len(server._reading) == 4)
                started = time.monotonic()
                # not displaced before it waited DISPLACE_AFTER_S
                assert answer(exchange(address, HEALTH))[0] == 200
                assert time.monotonic() - started >= 0.2
                assert idle[0].recv(1) == b""  # the longest idle went
                assert len(server._reading) == 3
            finally:
                for sock in idle:
                    sock.close()

    def test_a_full_daemon_accepts_again_once_a_connection_closes(self, monkeypatch):
        monkeypatch.setattr(transport, "HANDLER_THREADS", 1)
        monkeypatch.setattr(transport, "MAX_CONNECTIONS", 2)
        before = len(handler_threads())
        with serve_background(config()) as (server, _):
            address = server.server_address[:2]
            release, holding = threading.Event(), threading.Event()
            handle = server.app.handle

            def held_handle(request):
                holding.set()
                release.wait(10)
                return handle(request)

            monkeypatch.setattr(server.app, "handle", held_handle)
            answers = []

            def ask():
                answers.append(answer(exchange(address, HEALTH))[0])

            askers = [threading.Thread(target=ask) for _ in range(3)]
            try:
                askers[0].start()
                wait_until(holding.is_set)
                askers[1].start()  # queued
                wait_until(lambda: server._open == 2 and not server._reading)
                askers[2].start()  # waits in the listen backlog
                wait_until(lambda: server._paused)
                time.sleep(0.2)
                assert not answers
                assert len(handler_threads()) == before + 1
            finally:
                release.set()
                for asker in askers:
                    if asker.ident is not None:
                        asker.join(timeout=10)
            assert answers == [200, 200, 200]

    def test_stalled_bodies_and_unread_answers_hold_no_handler(self):
        before = len(handler_threads())
        pool = transport.HANDLER_THREADS
        stalled = b"POST /v1/runs HTTP/1.1\r\nContent-Length: 100000\r\n\r\n"
        jobs = b"GET /v1/jobs HTTP/1.1\r\nHost: test\r\n\r\n"
        with serve_background(config()) as (server, _), instant_scenario() as name:
            manager = server.app.manager
            for _ in range(8):  # within the job queue's capacity
                for job in [manager.submit_scenario(name) for _ in range(50)]:
                    manager.wait(job.id, timeout_s=60)
            address = server.server_address[:2]
            clients = []
            try:
                for _ in range(pool + 1):  # past 16 KiB of a body, then silent
                    clients.append(connect(address))
                    clients[-1].sendall(stalled + b" " * 20000)
                for _ in range(pool + 1):  # never reads its answer
                    sock = socket.socket()
                    clients.append(sock)
                    # small segments, as on a network path and not loopback,
                    # keep the daemon's send buffer smaller than the job list
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_MAXSEG, 536)
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                    sock.settimeout(10)
                    sock.connect(address)
                    sock.sendall(jobs)
                wait_until(lambda: server._open == len(clients))
                started = time.monotonic()
                assert answer(exchange(address, HEALTH))[0] == 200
                assert time.monotonic() - started < 1.0
                assert len(handler_threads()) == before + pool
                # the loop holds every answer, unsent
                wait_until(lambda: len(server._writing) == pool + 1)
            finally:
                for sock in clients:
                    sock.close()

    def test_a_connection_past_the_budget_waits_for_freed_bytes(self, monkeypatch):
        monkeypatch.setattr(transport, "BUFFER_BUDGET_BYTES", 4096)
        with serve_background(config()) as (server, _):
            address = server.server_address[:2]
            release, holding = threading.Event(), threading.Event()
            handle = server.app.handle

            def held_handle(request):
                holding.set()
                release.wait(10)
                return handle(request)

            monkeypatch.setattr(server.app, "handle", held_handle)
            answers = []

            def ask(raw):
                answers.append(answer(exchange(address, raw))[0])

            big = head_with(b"X-Pad: " + b"x" * 4096)
            askers = [
                threading.Thread(target=ask, args=(raw,)) for raw in (big, HEALTH)
            ]
            try:
                askers[0].start()  # whole, past the budget, held by its handler
                wait_until(holding.is_set)
                askers[1].start()
                wait_until(lambda: server._starved)
                time.sleep(0.2)
                assert [len(held.buffer) for held in server._reading] == [0]
                assert not answers
            finally:
                release.set()
                for asker in askers:
                    if asker.ident is not None:
                        asker.join(timeout=10)
            assert answers == [200, 200]

    def test_bodies_still_arriving_past_the_budget_give_way(self):
        # nine bodies, each 1,000 bytes short, spend the whole budget and
        # no handler holds bytes to free: the largest is dropped
        before = len(handler_threads())
        pool = transport.HANDLER_THREADS
        size = 1_000_000
        short = f"POST /v1/runs HTTP/1.1\r\nContent-Length: {size}\r\n\r\n"
        short = short.encode("ascii") + b" " * (size - 1000)
        with serve_background(config()) as (server, _):
            address = server.server_address[:2]
            clients = [connect(address) for _ in range(9)]
            wait_until(lambda: len(server._reading) == 9)

            def send(sock):
                with contextlib.suppress(OSError):  # dropped, or timed out
                    sock.sendall(short)

            senders = [threading.Thread(target=send, args=(c,)) for c in clients]
            try:
                for sender in senders:
                    sender.start()
                for sender in senders:
                    sender.join(timeout=15)
                # until the budget is spent: reading stops, or one gives way
                wait_until(lambda: server._starved or len(server._reading) < 9)
                started = time.monotonic()
                assert answer(exchange(address, HEALTH))[0] == 200
                assert time.monotonic() - started < 2.0
                assert len(handler_threads()) == before + pool
            finally:
                for sock in clients:
                    sock.close()

    def test_many_clients_through_a_small_daemon_all_answer(self, monkeypatch):
        # more clients than connections, handlers and cores, with short
        # thread switches: a lost update to the open-connection or the
        # buffered-byte count would leave it nonzero, or leave the loop
        # waiting for room
        self.many_clients_all_answer(monkeypatch)

    def test_many_clients_on_a_small_byte_budget_all_answer(self, monkeypatch):
        # the loop stops reading, and must be woken to resume, on nearly
        # every request
        monkeypatch.setattr(transport, "BUFFER_BUDGET_BYTES", 2 * len(HEALTH))
        self.many_clients_all_answer(monkeypatch)

    @staticmethod
    def many_clients_all_answer(monkeypatch):
        monkeypatch.setattr(transport, "HANDLER_THREADS", 2)
        monkeypatch.setattr(transport, "MAX_CONNECTIONS", 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with serve_background(config()) as (server, _):
                address = server.server_address[:2]
                statuses = []

                def ask():
                    for _ in range(8):
                        statuses.append(answer(exchange(address, HEALTH))[0])

                askers = [threading.Thread(target=ask) for _ in range(12)]
                for asker in askers:
                    asker.start()
                for asker in askers:
                    asker.join(timeout=20)
                assert not any(asker.is_alive() for asker in askers)
                assert statuses == [200] * 96
                wait_until(lambda: server._open == 0)
                assert not server._paused
                assert server._buffered == 0
        finally:
            sys.setswitchinterval(interval)


#: a daemon in a process that runs out of descriptors while a connect
#: waits: prints the CPU seconds the process burns over the next second,
#: then the health answer's status line once descriptors are free.
NO_DESCRIPTOR = """
import os, resource, socket, time
from repro.service import ServerConfig, serve_background

with serve_background(ServerConfig.from_dict({"port": 0})) as (server, _):
    with socket.create_connection(server.server_address[:2]) as serving:
        serving.sendall(b"GET /v1/health HTTP/1.1\\r\\n\\r\\n")
        assert serving.recv(12) == b"HTTP/1.1 200"
    client = socket.socket()
    client.settimeout(10)
    highest = max(map(int, os.listdir("/proc/self/fd")))
    _, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    resource.setrlimit(resource.RLIMIT_NOFILE, (highest + 16, hard))
    spare = []
    try:
        while True:
            spare.append(os.open(os.devnull, os.O_RDONLY))
    except OSError:
        pass
    client.connect(server.server_address[:2])
    started = time.process_time()
    time.sleep(1.0)
    print(round(time.process_time() - started, 3))
    for fd in spare:
        os.close(fd)
    client.sendall(b"GET /v1/health HTTP/1.1\\r\\n\\r\\n")
    print(client.recv(12).decode())
"""


#: a daemon in a process with no descriptor free for its accept loop's
#: selector: prints the errno ``serve_forever`` raised, then whether
#: ``shutdown()`` returned within 2 s.
NO_SELECTOR = """
import os, resource, threading
from repro.service import ServerConfig
from repro.service import server as transport

server = transport.make_server(ServerConfig.from_dict({"port": 0}))
lowest_free = os.open(os.devnull, os.O_RDONLY)
os.close(lowest_free)
_, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
resource.setrlimit(resource.RLIMIT_NOFILE, (lowest_free, hard))
raised = []

def serve():
    try:
        server.serve_forever()
    except OSError as error:
        raised.append(error.errno)

loop = threading.Thread(target=serve)
loop.start()
loop.join(10)
stopping = threading.Thread(target=server.shutdown, daemon=True)
stopping.start()
stopping.join(2.0)
print(*raised, not stopping.is_alive(), flush=True)
os._exit(0)
"""


class TestLifecycle:
    def test_a_port_in_use_starts_no_thread(self, service):
        before = threading.active_count()
        taken = ServerConfig.from_dict({"port": service.server_address[1]})
        with pytest.raises(OSError):
            transport.make_server(taken)
        assert threading.active_count() == before

    def test_no_free_descriptor_pauses_accepting_without_spinning(self):
        out = subprocess.run(
            [sys.executable, "-c", NO_DESCRIPTOR],
            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == 0, out.stderr
        cpu_s, status = out.stdout.split("\n")[:2]
        assert float(cpu_s) < 0.1
        assert status == "HTTP/1.1 200"

    def test_a_loop_that_cannot_start_still_shuts_down(self):
        out = subprocess.run(
            [sys.executable, "-c", NO_SELECTOR],
            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == [str(errno.EMFILE), "True"]

    def test_shutdown_wakes_the_accept_loop(self):
        background = serve_background(config())
        background.__enter__()
        started = time.monotonic()
        background.__exit__(None, None, None)
        assert time.monotonic() - started < 0.2


class TestExpectContinue:
    def test_post_gets_100_continue_then_its_202(self, service):
        body = b'{"scale": 1.0}'
        with instant_scenario() as name:
            head = (
                f"POST /v1/scenarios/{name}/runs HTTP/1.1\r\nHost: test\r\n"
                f"Expect: 100-continue\r\nContent-Length: {len(body)}\r\n\r\n"
            ).encode("ascii")
            address = service.server_address[:2]
            with socket.create_connection(address, timeout=10) as sock:
                sock.sendall(head)
                assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
                sock.sendall(body)
                chunks = []
                while chunk := sock.recv(65536):
                    chunks.append(chunk)
            status, _, envelope = answer(b"".join(chunks))
            assert status == 202
            assert envelope["data"]["name"] == name
            service.app.manager.wait(envelope["data"]["id"], timeout_s=60)
