"""A small stdlib client for the scenario service.

:class:`ServiceClient` speaks the envelope protocol over
``urllib.request`` — no dependency beyond the standard library, so the
same class backs ``repro client``, the tests and
``examples/service_client.py``. Methods return the envelope's ``data``
directly; a non-ok envelope, or a body that is no envelope, raises
:class:`ServiceError` carrying the HTTP status, the structured error
and any partial ``data`` that survived (a failed job's result still
holds its table fragments). Each name and job id is sent as one
percent-encoded path segment.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional
from urllib import error as urlerror
from urllib import parse as urlparse
from urllib import request as urlrequest

from ..scenarios.options import RunOptions
from .envelope import is_envelope
from .jobs import JobStates

#: the submit body a client leaves out: every option at its default.
_DEFAULT_OPTIONS = RunOptions().as_dict()


def _segment(name: str) -> str:
    """``name`` as one path segment: ``/``, ``?``, ``%`` and spaces quoted."""
    return urlparse.quote(name, safe="")


class ServiceError(RuntimeError):
    """A non-ok envelope (or transport failure) from the service."""

    def __init__(self, status: int, error: Optional[Dict], data=None):
        self.status = status
        self.error = error or {}
        self.data = data
        self.error_type = self.error.get("type", "ServiceError")
        super().__init__(
            f"[{status}] {self.error_type}: "
            f"{self.error.get('message', 'request failed')}"
        )


class ServiceClient:
    """One service endpoint, one tenant, envelope-native."""

    def __init__(
        self, base_url: str, tenant: Optional[str] = None, timeout_s: float = 30.0
    ):
        self.base_url = base_url.rstrip("/")
        self.tenant = tenant
        self.timeout_s = timeout_s

    # -- transport ----------------------------------------------------------
    def _call(
        self,
        method: str,
        path: str,
        body: Optional[Dict] = None,
        query: Optional[Dict] = None,
    ):
        url = f"{self.base_url}{path}"
        if query:
            url += "?" + urlparse.urlencode(query)
        headers = {"Content-Type": "application/json"}
        if self.tenant:
            headers["X-Tenant"] = self.tenant
        data = json.dumps(body).encode("utf-8") if body is not None else None
        req = urlrequest.Request(url, data=data, headers=headers, method=method)
        try:
            with urlrequest.urlopen(req, timeout=self.timeout_s) as response:
                status, raw = response.status, response.read()
        except urlerror.HTTPError as http_error:
            # 4xx/5xx still carry an envelope body; surface it.
            status, raw = http_error.code, http_error.read()
        except urlerror.URLError as net_error:
            raise ServiceError(
                0, {"type": "Unreachable", "message": str(net_error.reason)}
            ) from net_error
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            payload = None
        if not is_envelope(payload):
            raise ServiceError(
                status,
                {"type": "BadEnvelope", "message": f"non-envelope body: {payload!r}"},
            )
        if not payload["ok"]:
            raise ServiceError(status, payload["error"], data=payload["data"])
        return payload["data"]

    # -- catalogue ----------------------------------------------------------
    def health(self) -> Dict:
        return self._call("GET", "/v1/health")

    def scenarios(self) -> List[Dict]:
        return self._call("GET", "/v1/scenarios")

    def describe_scenario(
        self, name: str, scale: float = 1.0, seed: int = 0
    ) -> Dict:
        return self._call(
            "GET",
            f"/v1/scenarios/{_segment(name)}",
            query={"scale": scale, "seed": seed},
        )

    def sweeps(self) -> List[Dict]:
        return self._call("GET", "/v1/sweeps")

    def describe_sweep(self, name: str) -> Dict:
        return self._call("GET", f"/v1/sweeps/{_segment(name)}")

    # -- submission ---------------------------------------------------------
    # ``options`` are RunOptions fields; the body carries the ones that
    # differ from their defaults.
    def _submit(self, path: str, options: Dict, **extra) -> Dict:
        body = {
            key: value
            for key, value in RunOptions(**options).as_dict().items()
            if value != _DEFAULT_OPTIONS[key]
        }
        return self._call("POST", path, body=dict(extra, **body))

    def submit_scenario(self, name: str, **options) -> Dict:
        return self._submit(f"/v1/scenarios/{_segment(name)}/runs", options)

    def submit_inline(self, scenario: Dict, **options) -> Dict:
        """Submit an ad-hoc ``Scenario.from_dict`` payload."""
        return self._submit("/v1/runs", options, scenario=scenario)

    def submit_sweep(self, name: str, **options) -> Dict:
        return self._submit(f"/v1/sweeps/{_segment(name)}/runs", options)

    # -- job lifecycle ------------------------------------------------------
    def jobs(self) -> List[Dict]:
        return self._call("GET", "/v1/jobs")

    def job(self, job_id: str) -> Dict:
        return self._call("GET", f"/v1/jobs/{_segment(job_id)}")

    def result(self, job_id: str) -> Dict:
        """The finished job's full payload (result + trace + failures).

        Raises :class:`ServiceError` while the job is unfinished (409)
        and for a *failed* job — whose partial payload rides on the
        exception's ``data``.
        """
        return self._call("GET", f"/v1/jobs/{_segment(job_id)}/result")

    def cancel(self, job_id: str) -> Dict:
        return self._call("POST", f"/v1/jobs/{_segment(job_id)}/cancel")

    def wait(
        self, job_id: str, timeout_s: float = 300.0, poll_s: float = 0.2
    ) -> Dict:
        """Poll until the job reaches a terminal state; returns its
        status view (fetch :meth:`result` for the payload)."""
        deadline = time.monotonic() + timeout_s
        while True:
            job = self.job(job_id)
            if job["status"] in JobStates.TERMINAL:
                return job
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {job['status']} after {timeout_s:g}s"
                )
            time.sleep(poll_s)
