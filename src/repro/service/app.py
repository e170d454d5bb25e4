"""The service application: routes -> envelopes, behind the chain.

:class:`ServiceApp` is transport-agnostic — it maps a parsed
:class:`~repro.service.middleware.Request` to a
:class:`~repro.service.middleware.Response` through the configured
:class:`~repro.service.middleware.MiddlewareStack`; the HTTP plumbing
lives in :mod:`repro.service.server` and tests drive the app directly
in-process. Every response body is the shared envelope
(:mod:`repro.service.envelope`), list/describe payloads are the same
:mod:`repro.scenarios.views` renderings the CLI's ``--json`` emits,
and job results carry the golden-serializer trace.

Routes (all under ``/v1``)::

    GET  /v1/health                      liveness + job counts
    GET  /v1/scenarios                   catalogue (scenario_summary)
    GET  /v1/scenarios/{name}            declaration + resolved plan
    POST /v1/scenarios/{name}/runs       submit a registered scenario
    POST /v1/runs                        submit an inline Scenario dict
    GET  /v1/sweeps                      sweep catalogue
    GET  /v1/sweeps/{name}               full sweep declaration
    POST /v1/sweeps/{name}/runs          submit a registered sweep
    GET  /v1/jobs                        all jobs, submission order
    GET  /v1/jobs/{id}                   one job's status view
    GET  /v1/jobs/{id}/result            result + trace (409 until done)
    POST /v1/jobs/{id}/cancel            cooperative cancellation
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..scenarios.registry import SCENARIO_REGISTRY, get_definition
from ..scenarios.runner import MAX_SCALE, scale_problem
from ..scenarios.spec import ScenarioError
from ..scenarios.sweep import SWEEP_REGISTRY, get_sweep
from ..scenarios.views import (
    scenario_describe_payload,
    scenario_summary,
    sweep_summary,
)
from .config import ServerConfig
from .envelope import error_envelope, ok_envelope
from .jobs import JobManager, JobQueueFull, JobStates
from .middleware import Request, Response


def _bad_request(message: str, error_type: str = "BadRequest") -> Response:
    return Response(400, error_envelope(error_type, message))


def _not_found(message: str) -> Response:
    return Response(404, error_envelope("NotFound", message))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_scale(value) -> bool:
    number = _is_int(value) or isinstance(value, float)
    return number and not scale_problem(value)


#: body fields a run submission accepts (plus "scenario" on /v1/runs):
#: name -> (default, type check, the expectation a 400 names).
_RUN_FIELDS = {
    "scale": (1.0, _is_scale, f"a finite positive number at most {MAX_SCALE:g}"),
    "seed": (0, _is_int, "an integer"),
    "workers": (1, lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "cache": (False, lambda v: isinstance(v, bool), "a JSON bool"),
    "cache_dir": (None, lambda v: v is None or isinstance(v, str), "a string path"),
}


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
        parts = [part for part in request.path.split("/") if part]
        if not parts or parts[0] != "v1":
            return _not_found(f"no route {request.path!r}; the API lives under /v1")
        parts = parts[1:]
        method = request.method

        if parts == ["health"] and method == "GET":
            return self._health()
        if parts == ["scenarios"] and method == "GET":
            return Response(
                200,
                ok_envelope(
                    [
                        scenario_summary(runner)
                        for runner in SCENARIO_REGISTRY.values()
                    ]
                ),
            )
        if len(parts) == 2 and parts[0] == "scenarios" and method == "GET":
            return self._describe_scenario(parts[1], request)
        if (
            len(parts) == 3
            and parts[0] == "scenarios"
            and parts[2] == "runs"
            and method == "POST"
        ):
            return self._submit_scenario(parts[1], request)
        if parts == ["runs"] and method == "POST":
            return self._submit_inline(request)
        if parts == ["sweeps"] and method == "GET":
            return Response(
                200,
                ok_envelope(
                    [sweep_summary(sweep) for sweep in SWEEP_REGISTRY.values()]
                ),
            )
        if len(parts) == 2 and parts[0] == "sweeps" and method == "GET":
            return self._describe_sweep(parts[1])
        if (
            len(parts) == 3
            and parts[0] == "sweeps"
            and parts[2] == "runs"
            and method == "POST"
        ):
            return self._submit_sweep(parts[1], request)
        if parts == ["jobs"] and method == "GET":
            return Response(
                200,
                ok_envelope([job.as_dict() for job in self.manager.jobs()]),
            )
        if len(parts) == 2 and parts[0] == "jobs" and method == "GET":
            return self._job_status(parts[1])
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
            if method == "GET":
                return self._job_result(parts[1])
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
            if method == "POST":
                return self._job_cancel(parts[1])
        return _not_found(f"no route for {method} {request.path!r}")

    # -- handlers -----------------------------------------------------------
    def _health(self) -> Response:
        counts = {state: 0 for state in JobStates.ALL}
        for job in self.manager.jobs():
            counts[job.status] += 1
        return Response(
            200,
            ok_envelope(
                {
                    "status": "ok",
                    "jobs": counts,
                    "queue": self.config.queue.as_dict(),
                    "middleware": [m.kind for m in self.stack.middlewares],
                }
            ),
        )

    def _describe_scenario(self, name: str, request: Request) -> Response:
        try:
            runner = get_definition(name)
        except KeyError as error:
            return _not_found(str(error.args[0]))
        values = {}
        for key, (parse, default, expected) in _DESCRIBE_QUERY.items():
            raw = request.query.get(key, default)
            try:
                values[key] = parse(raw)
            except ValueError:
                return _bad_request(
                    f"bad query parameter: {key} must be {expected}, got {raw!r}"
                )
        try:
            payload = scenario_describe_payload(runner, **values)
        except ScenarioError as error:
            return _bad_request(str(error), error_type="ScenarioError")
        return Response(200, ok_envelope(payload))

    def _describe_sweep(self, name: str) -> Response:
        try:
            sweep = get_sweep(name)
        except KeyError as error:
            return _not_found(str(error.args[0]))
        payload = sweep_summary(sweep)
        payload["sweep"] = sweep.as_dict()
        return Response(200, ok_envelope(payload))

    def _run_params(self, request: Request, extra: tuple = ()) -> Dict:
        body = request.body or {}
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        allowed = tuple(_RUN_FIELDS) + extra
        unknown = [key for key in body if key not in allowed]
        if unknown:
            raise ValueError(
                f"unknown run field(s) {unknown}; known: {list(allowed)}"
            )
        params = {}
        for key, (default, check, expected) in _RUN_FIELDS.items():
            params[key] = body.get(key, default)
            if not check(params[key]):
                raise ValueError(f"{key} must be {expected}, got {params[key]!r}")
        params["scale"] = float(params["scale"])
        return params

    def _submit(self, submit, **kwargs) -> Response:
        try:
            job = submit(**kwargs)
        except JobQueueFull as error:
            return Response(503, error_envelope("JobQueueFull", str(error)))
        except KeyError as error:
            return _not_found(str(error.args[0]))
        except ScenarioError as error:
            return _bad_request(str(error), error_type="ScenarioError")
        except (TypeError, ValueError) as error:
            return _bad_request(str(error))
        return Response(202, ok_envelope(job.as_dict()))

    def _submit_scenario(self, name: str, request: Request) -> Response:
        try:
            params = self._run_params(request)
        except ValueError as error:
            return _bad_request(str(error))
        return self._submit(
            self.manager.submit_scenario,
            name=name,
            tenant=request.tenant,
            **params,
        )

    def _submit_inline(self, request: Request) -> Response:
        body = request.body or {}
        if not isinstance(body, dict) or "scenario" not in body:
            return _bad_request(
                'inline submission needs a "scenario" object '
                "(a Scenario.from_dict payload)"
            )
        try:
            params = self._run_params(request, extra=("scenario",))
        except ValueError as error:
            return _bad_request(str(error))
        return self._submit(
            self.manager.submit_scenario,
            scenario=body["scenario"],
            tenant=request.tenant,
            **params,
        )

    def _submit_sweep(self, name: str, request: Request) -> Response:
        try:
            params = self._run_params(request)
        except ValueError as error:
            return _bad_request(str(error))
        return self._submit(
            self.manager.submit_sweep,
            name=name,
            tenant=request.tenant,
            **params,
        )

    def _job_status(self, job_id: str) -> Response:
        try:
            job = self.manager.get(job_id)
        except KeyError as error:
            return _not_found(str(error.args[0]))
        return Response(200, ok_envelope(job.as_dict()))

    def _job_result(self, job_id: str) -> Response:
        try:
            job = self.manager.get(job_id)
        except KeyError as error:
            return _not_found(str(error.args[0]))
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
        return Response(200, ok_envelope(data))

    def _job_cancel(self, job_id: str) -> Response:
        try:
            job = self.manager.cancel(job_id)
        except KeyError as error:
            return _not_found(str(error.args[0]))
        return Response(202, ok_envelope(job.as_dict()))


def routes() -> List[str]:
    """The route table (parsed from the module docstring above), for
    docs and the CLI's ``serve`` banner."""
    lines = []
    for line in (__doc__ or "").splitlines():
        line = line.strip()
        if line.startswith(("GET", "POST")):
            lines.append(line)
    return lines
