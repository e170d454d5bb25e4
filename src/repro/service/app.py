"""The service application: routes -> envelopes, behind the chain.

:class:`ServiceApp` is transport-agnostic — it maps a parsed
:class:`~repro.service.middleware.Request` to a
:class:`~repro.service.middleware.Response` through the configured
:class:`~repro.service.middleware.MiddlewareStack`; the HTTP plumbing
lives in :mod:`repro.service.server` and tests drive the app directly
in-process. Every response body is the shared envelope
(:mod:`repro.service.envelope`). A handler calls the
:mod:`repro.scenarios.views` operation the CLI calls, and returns its
view as a 200's data, or a :class:`Response`; a typed error it raises
answers with the type and status :data:`~repro.scenarios.views.ERRORS`
gives it, any other exception with a 500.

The routes (all under ``/v1``) are the table :data:`ROUTES`;
:func:`routes` lists them for docs and the ``serve`` banner. A path
segment is percent-decoded after the path is split, so a scenario,
sweep or job name may hold any character.
"""

from __future__ import annotations

from typing import List, Optional
from urllib.parse import unquote

from ..scenarios import views
from ..scenarios.options import RunOptions
from ..schema import Malformed
from .config import ServerConfig
from .envelope import error_envelope, ok_envelope
from .jobs import JobManager, JobStates
from .middleware import Request, Response

#: query parameters a scenario describe reads:
#: name -> (parse, default, the expectation a 400 names).
_DESCRIBE_QUERY = {"scale": (float, 1.0, "a number"), "seed": (int, 0, "an integer")}


class ServiceApp:
    """Routes requests over one :class:`JobManager`; owns no sockets."""

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = (config or ServerConfig()).validate()
        self.manager = JobManager(self.config.queue)
        self.stack = self.config.middleware

    def close(self) -> None:
        self.manager.close()

    # -- entry point --------------------------------------------------------
    def handle(self, request: Request) -> Response:
        request.context.setdefault("manager", self.manager)
        request.context.setdefault("config", self.config)
        try:
            return self.stack.handle(request, self._route)
        except Exception as error:  # a broken handler answers, never kills
            return Response(
                500, error_envelope(type(error).__name__, str(error))
            )

    # -- routing ------------------------------------------------------------
    def _route(self, request: Request) -> Response:
        parts = [unquote(part) for part in request.path.split("/") if part]
        for method, segments, handler in _MATCHERS:
            if method != request.method or len(segments) != len(parts):
                continue
            params = []
            for segment, part in zip(segments, parts):
                if segment.startswith("{"):
                    params.append(part)
                elif segment != part:
                    break
            else:
                try:
                    answer = handler(self, request, *params)
                except Exception as error:
                    entry = views.error_entry(error)
                    if entry is None:
                        raise
                    error_type, status, _ = entry
                    return Response(status, error_envelope(error_type, str(error)))
                if isinstance(answer, Response):
                    return answer
                return Response(200, ok_envelope(answer))
        message = f"no route for {request.method} {request.path!r}"
        return Response(404, error_envelope("NotFound", message))

    # -- handlers -----------------------------------------------------------
    # The scenario layer loads on the first request that needs it, not at
    # start-up: each operation imports it when it runs.
    def _health(self, request: Request):
        """liveness + job counts (finished ones: every one ever served)"""
        return {
            "status": "ok",
            "jobs": self.manager.counts(),
            "queue": self.config.queue.as_dict(),
            "middleware": [m.kind for m in self.stack.middlewares],
        }

    def _list_scenarios(self, request: Request):
        """catalogue (scenario_summary)"""
        return views.scenario_catalogue()

    def _list_sweeps(self, request: Request):
        """sweep catalogue"""
        return views.sweep_catalogue()

    def _describe_scenario(self, request: Request, name: str):
        """declaration + resolved plan"""
        values = {}
        for key, (parse, default, expected) in _DESCRIBE_QUERY.items():
            raw = request.query.get(key, default)
            try:
                values[key] = parse(raw)
            except ValueError:
                raise Malformed(
                    f"bad query parameter: {key} must be {expected}, got {raw!r}"
                ) from None
        return views.describe_scenario(name, **values)

    def _describe_sweep(self, request: Request, name: str):
        """full sweep declaration"""
        return views.describe_sweep(name)

    def _submit(self, submit, request: Request, body, **target) -> Response:
        """Decode ``body`` as :class:`RunOptions` and enqueue ``target``
        with them; every bad field is a 400 that names it."""
        options = RunOptions.from_dict(body)
        job = submit(tenant=request.tenant, **target, **options.as_dict())
        return Response(202, ok_envelope(job.as_dict()))

    def _submit_scenario(self, request: Request, name: str) -> Response:
        """submit a registered scenario"""
        submit = self.manager.submit_scenario
        return self._submit(submit, request, request.body, name=name)

    def _submit_inline(self, request: Request) -> Response:
        """submit an inline Scenario dict"""
        body = request.body
        if not isinstance(body, dict) or "scenario" not in body:
            raise Malformed(
                'inline submission needs a "scenario" object '
                "(a Scenario.from_dict payload)"
            )
        body = dict(body)
        scenario = body.pop("scenario")
        return self._submit(
            self.manager.submit_scenario, request, body, scenario=scenario
        )

    def _submit_sweep(self, request: Request, name: str) -> Response:
        """submit a registered sweep"""
        submit = self.manager.submit_sweep
        return self._submit(submit, request, request.body, name=name)

    def _list_jobs(self, request: Request):
        """all jobs, submission order"""
        return [job.as_dict() for job in self.manager.jobs()]

    def _job_status(self, request: Request, job_id: str):
        """one job's status view"""
        return self.manager.get(job_id).as_dict()

    def _job_result(self, request: Request, job_id: str):
        """result + trace (409 until done)"""
        job = self.manager.get(job_id)
        if not job.finished:
            return Response(
                409,
                error_envelope(
                    "JobNotFinished",
                    f"job {job_id} is still {job.status}; poll "
                    f"/v1/jobs/{job_id} until it finishes",
                    status=job.status,
                ),
            )
        data = job.as_dict(include_result=True)
        if job.status == JobStates.FAILED:
            # structured job error; data still carries whatever survived.
            return Response(
                200,
                error_envelope(
                    job.error["type"], job.error["message"], data=data
                ),
            )
        return data

    def _job_cancel(self, request: Request, job_id: str) -> Response:
        """cooperative cancellation"""
        return Response(202, ok_envelope(self.manager.cancel(job_id).as_dict()))


#: The API: (method, path pattern, handler). A ``{...}`` segment matches
#: one decoded path segment, which is passed to the handler after the
#: request; a handler's docstring says what the route answers.
ROUTES = (
    ("GET", "/v1/health", ServiceApp._health),
    ("GET", "/v1/scenarios", ServiceApp._list_scenarios),
    ("GET", "/v1/scenarios/{name}", ServiceApp._describe_scenario),
    ("POST", "/v1/scenarios/{name}/runs", ServiceApp._submit_scenario),
    ("POST", "/v1/runs", ServiceApp._submit_inline),
    ("GET", "/v1/sweeps", ServiceApp._list_sweeps),
    ("GET", "/v1/sweeps/{name}", ServiceApp._describe_sweep),
    ("POST", "/v1/sweeps/{name}/runs", ServiceApp._submit_sweep),
    ("GET", "/v1/jobs", ServiceApp._list_jobs),
    ("GET", "/v1/jobs/{id}", ServiceApp._job_status),
    ("GET", "/v1/jobs/{id}/result", ServiceApp._job_result),
    ("POST", "/v1/jobs/{id}/cancel", ServiceApp._job_cancel),
)

#: ROUTES with each pattern split into its segments once.
_MATCHERS = [
    (method, pattern.split("/")[1:], handler) for method, pattern, handler in ROUTES
]


def routes() -> List[str]:
    """The route table as aligned lines, for docs and the CLI's
    ``serve`` banner."""
    return [
        f"{method:<4} {pattern:<32}{handler.__doc__}"
        for method, pattern, handler in ROUTES
    ]
