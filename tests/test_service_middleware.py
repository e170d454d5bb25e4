"""Unit tests for the service middleware chain and server config."""

import io
import json
import threading

import pytest

from repro.service import (
    DEFAULT_MIDDLEWARE,
    AccessLogMiddleware,
    Middleware,
    MiddlewareStack,
    QueueConfig,
    QuotaMiddleware,
    RateLimitMiddleware,
    Request,
    RequestIdMiddleware,
    Response,
    ServerConfig,
    TimingMiddleware,
    ok_envelope,
)
from repro.schema import Malformed
from repro.service.envelope import error_envelope, is_envelope


def make_request(method="GET", path="/v1/health", tenant=None, body=None):
    headers = {"x-tenant": tenant} if tenant else {}
    return Request(method=method, path=path, headers=headers, body=body)


def ok_handler(request):
    return Response(200, ok_envelope({"echo": request.path}))


class RecordingMiddleware(Middleware):
    kind = "recording"

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def handle(self, request, call_next):
        self.log.append(f"{self.name}:request")
        response = call_next(request)
        self.log.append(f"{self.name}:response")
        return response


class TestMiddlewareStack:
    def test_declaration_order_is_wrapping_order(self):
        log = []
        stack = MiddlewareStack(
            [RecordingMiddleware("outer", log), RecordingMiddleware("inner", log)]
        )
        response = stack.handle(make_request(), ok_handler)
        assert response.status == 200
        # first declared: request first, response last
        assert log == [
            "outer:request",
            "inner:request",
            "inner:response",
            "outer:response",
        ]

    def test_short_circuit_skips_downstream(self):
        log = []

        class Deny(Middleware):
            kind = "deny"

            def handle(self, request, call_next):
                return Response(429, error_envelope("Denied", "no"))

        stack = MiddlewareStack(
            [RecordingMiddleware("outer", log), Deny(), RecordingMiddleware("x", log)]
        )
        response = stack.handle(make_request(), ok_handler)
        assert response.status == 429
        assert log == ["outer:request", "outer:response"]

    def test_from_config_round_trip(self):
        stack = MiddlewareStack.from_config(DEFAULT_MIDDLEWARE)
        kinds = [m.kind for m in stack.middlewares]
        assert kinds == ["request_id", "access_log", "timing", "rate_limit", "quota"]
        assert stack.as_config()[3]["capacity"] == 20.0

    @pytest.mark.parametrize("kind", ["request_id", "access_log", "timing"])
    def test_option_less_kinds_dump_only_their_kind(self, kind):
        stack = MiddlewareStack.from_config([{"kind": kind}])
        assert stack.as_config() == [{"kind": kind}]

    def test_from_config_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind 'nope'"):
            MiddlewareStack.from_config([{"kind": "nope"}])

    def test_from_config_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="unknown middleware 'rate_limit'"):
            MiddlewareStack.from_config([{"kind": "rate_limit", "burst": 5}])

    def test_problems_name_position_and_kind(self):
        stack = MiddlewareStack(
            [RateLimitMiddleware(capacity=0), QuotaMiddleware(max_in_flight=0)]
        )
        problems = stack.problems()
        assert any("middleware[0] (rate_limit)" in p for p in problems)
        assert any("middleware[1] (quota)" in p for p in problems)


class TestRequestId:
    def test_assigns_sequential_ids_and_header(self):
        stack = MiddlewareStack([RequestIdMiddleware()])
        first = stack.handle(make_request(), ok_handler)
        request = make_request()
        second = stack.handle(request, ok_handler)
        assert first.headers["X-Request-Id"] == "req-000001"
        assert second.headers["X-Request-Id"] == "req-000002"
        assert request.request_id == "req-000002"

    def test_keeps_an_id_set_upstream(self):
        stack = MiddlewareStack([RequestIdMiddleware()])
        request = make_request()
        request.request_id = "upstream-7"
        assert stack.handle(request, ok_handler).headers["X-Request-Id"] == "upstream-7"
        # the counter is not spent on it
        response = stack.handle(make_request(), ok_handler)
        assert response.headers["X-Request-Id"] == "req-000001"


class TestTiming:
    def test_sets_elapsed_header(self):
        stack = MiddlewareStack([TimingMiddleware()])
        response = stack.handle(make_request(), ok_handler)
        assert float(response.headers["X-Elapsed-Ms"]) >= 0.0

    def test_keeps_a_header_the_handler_set(self):
        def handler(request):
            response = ok_handler(request)
            response.headers["X-Elapsed-Ms"] = "7.000"
            return response

        stack = MiddlewareStack([TimingMiddleware()])
        response = stack.handle(make_request(), handler)
        assert response.headers["X-Elapsed-Ms"] == "7.000"


class TestAccessLog:
    def test_writes_structured_json_line(self):
        middleware = AccessLogMiddleware()
        middleware.stream = io.StringIO()
        stack = MiddlewareStack([RequestIdMiddleware(), middleware])
        stack.handle(make_request(path="/v1/jobs", tenant="acme"), ok_handler)
        record = json.loads(middleware.stream.getvalue())
        assert record["path"] == "/v1/jobs"
        assert record["tenant"] == "acme"
        assert record["status"] == 200
        assert record["request_id"] == "req-000001"
        assert record["elapsed_ms"] >= 0.0


class TestRateLimit:
    def test_empty_bucket_answers_429_with_retry_after(self):
        limiter = RateLimitMiddleware(capacity=2, refill_per_s=1.0)
        clock = [100.0]
        limiter.clock = lambda: clock[0]
        stack = MiddlewareStack([limiter])
        assert stack.handle(make_request(tenant="a"), ok_handler).status == 200
        assert stack.handle(make_request(tenant="a"), ok_handler).status == 200
        denied = stack.handle(make_request(tenant="a"), ok_handler)
        assert denied.status == 429
        assert denied.payload["ok"] is False
        assert denied.payload["error"]["type"] == "RateLimited"
        assert float(denied.headers["Retry-After"]) > 0.0

    def test_bucket_refills_with_time(self):
        limiter = RateLimitMiddleware(capacity=1, refill_per_s=1.0)
        clock = [0.0]
        limiter.clock = lambda: clock[0]
        stack = MiddlewareStack([limiter])
        assert stack.handle(make_request(tenant="a"), ok_handler).status == 200
        assert stack.handle(make_request(tenant="a"), ok_handler).status == 429
        clock[0] += 1.5
        assert stack.handle(make_request(tenant="a"), ok_handler).status == 200

    def test_tenants_have_independent_buckets(self):
        limiter = RateLimitMiddleware(capacity=1, refill_per_s=0.0)
        clock = [0.0]
        limiter.clock = lambda: clock[0]
        stack = MiddlewareStack([limiter])
        assert stack.handle(make_request(tenant="a"), ok_handler).status == 200
        assert stack.handle(make_request(tenant="a"), ok_handler).status == 429
        assert stack.handle(make_request(tenant="b"), ok_handler).status == 200


class FakeManager:
    def __init__(self, counts):
        self.counts = counts

    def in_flight_for(self, tenant):
        return self.counts.get(tenant, 0)


class TestQuota:
    def _submission(self, tenant, manager):
        request = make_request(
            method="POST", path="/v1/scenarios/fig01/runs", tenant=tenant
        )
        request.context["manager"] = manager
        return request

    def test_blocks_submissions_over_cap(self):
        quota = QuotaMiddleware(max_in_flight=2)
        stack = MiddlewareStack([quota])
        manager = FakeManager({"acme": 2})
        denied = stack.handle(self._submission("acme", manager), ok_handler)
        assert denied.status == 429
        assert denied.payload["error"]["type"] == "QuotaExceeded"
        assert denied.payload["error"]["in_flight"] == 2

    def test_under_cap_passes(self):
        stack = MiddlewareStack([QuotaMiddleware(max_in_flight=2)])
        manager = FakeManager({"acme": 1})
        assert stack.handle(self._submission("acme", manager), ok_handler).status == 200

    def test_non_submissions_never_blocked(self):
        stack = MiddlewareStack([QuotaMiddleware(max_in_flight=1)])
        manager = FakeManager({"acme": 99})
        request = make_request(path="/v1/jobs/job-000001", tenant="acme")
        request.context["manager"] = manager
        assert stack.handle(request, ok_handler).status == 200

    def test_concurrent_submissions_cannot_both_pass_the_cap(self):
        """The count and the enqueue are one step: a submission that
        arrives while another is between them waits, then counts it."""
        stack = MiddlewareStack([QuotaMiddleware(max_in_flight=1)])
        manager = FakeManager({})
        arrived, both_arrived = [], threading.Event()

        def enqueue(request):
            arrived.append(request)
            if len(arrived) == 2:
                both_arrived.set()
            # hold this one between the count and the enqueue until the
            # other passed its count too, or 0.5 s
            both_arrived.wait(timeout=0.5)
            manager.counts["acme"] = manager.counts.get("acme", 0) + 1
            return Response(202, ok_envelope({}))

        statuses = []

        def submit():
            response = stack.handle(self._submission("acme", manager), enqueue)
            statuses.append(response.status)

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert sorted(statuses) == [202, 429]
        assert manager.counts == {"acme": 1}

    def test_a_raising_enqueue_frees_the_next_submission(self):
        stack = MiddlewareStack([QuotaMiddleware(max_in_flight=1)])
        manager = FakeManager({})

        def broken_enqueue(request):
            raise RuntimeError("queue gone")

        with pytest.raises(RuntimeError):
            stack.handle(self._submission("acme", manager), broken_enqueue)
        statuses = []
        later = threading.Thread(
            target=lambda: statuses.append(
                stack.handle(self._submission("acme", manager), ok_handler).status
            )
        )
        later.start()
        later.join(timeout=10)
        assert statuses == [200]

    def test_reads_do_not_wait_on_a_submission_being_enqueued(self):
        stack = MiddlewareStack([QuotaMiddleware(max_in_flight=1)])
        manager = FakeManager({})
        enqueuing, release = threading.Event(), threading.Event()

        def slow_enqueue(request):
            enqueuing.set()
            release.wait(timeout=10)
            return Response(202, ok_envelope({}))

        submission = threading.Thread(
            target=stack.handle, args=(self._submission("acme", manager), slow_enqueue)
        )
        submission.start()
        try:
            assert enqueuing.wait(timeout=10)
            read = make_request(path="/v1/jobs/job-000001", tenant="acme")
            read.context["manager"] = manager
            assert stack.handle(read, ok_handler).status == 200
        finally:
            release.set()
            submission.join(timeout=10)


class TestServerConfig:
    def test_defaults(self):
        config = ServerConfig()
        assert config.host == "127.0.0.1"
        assert config.port == 8765
        assert config.queue.workers == 2
        assert [m.kind for m in config.middleware.middlewares] == [
            entry["kind"] for entry in DEFAULT_MIDDLEWARE
        ]
        assert config.problems() == []

    def test_from_dict_round_trip(self):
        data = {
            "host": "0.0.0.0",
            "port": 9000,
            "queue": {"workers": 4, "capacity": 8},
            "middleware": [{"kind": "request_id"}, {"kind": "quota"}],
        }
        config = ServerConfig.from_dict(data)
        assert config.as_dict()["queue"] == {"workers": 4, "capacity": 8}
        assert [m.kind for m in config.middleware.middlewares] == [
            "request_id",
            "quota",
        ]

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown server field"):
            ServerConfig.from_dict({"prot": 9000})
        with pytest.raises(ValueError, match="unknown queue field"):
            ServerConfig.from_dict({"queue": {"worker": 4}})
        # request_id and timing take no options; an old one is refused
        # by name, never silently dropped
        for entry, field in (
            ({"kind": "request_id", "prefix": "x"}, "prefix"),
            ({"kind": "timing", "header": "X"}, "header"),
        ):
            with pytest.raises(Malformed, match=rf"field\(s\) \['{field}'\]"):
                ServerConfig.from_dict({"middleware": [entry]})

    def test_problems_collects_every_issue_at_once(self):
        config = ServerConfig(
            host="",
            port=70000,
            queue=QueueConfig(workers=0, capacity=0),
            middleware=MiddlewareStack([RateLimitMiddleware(capacity=0)]),
        )
        problems = config.problems()
        assert len(problems) == 5
        assert [problem.split(":")[0] for problem in problems] == [
            "server",
            "server",
            "queue",
            "queue",
            "middleware[0] (rate_limit)",
        ]
        with pytest.raises(ValueError, match="invalid server config"):
            config.validate()


class TestEnvelopeHelpers:
    def test_ok_and_error_shapes(self):
        assert ok_envelope(1) == {"ok": True, "data": 1, "error": None}
        failed = error_envelope("Boom", "it broke", retry_after_s=2)
        assert failed["ok"] is False
        assert failed["error"] == {
            "type": "Boom",
            "message": "it broke",
            "retry_after_s": 2,
        }

    def test_is_envelope(self):
        assert is_envelope(ok_envelope(None)) is True
        assert is_envelope({"ok": True}) is False
