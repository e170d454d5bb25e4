"""The one JSON envelope every structured surface speaks.

Every CLI ``--json`` output and every service HTTP response is::

    {"ok": true,  "data": <payload>, "error": null}
    {"ok": false, "data": <partial or null>,
     "error": {"type": "...", "message": "...", ...}}

so clients branch on ``ok`` and read ``error.type`` machine-readably
instead of scraping stderr. ``data`` may be non-null on failure when a
partial result survived (a job cancelled mid-run still carries the
table of its completed steps).
"""

from __future__ import annotations

from typing import Dict


def ok_envelope(data) -> Dict:
    return {"ok": True, "data": data, "error": None}


def error_envelope(
    error_type: str, message: str, data=None, **extra
) -> Dict:
    error: Dict = {"type": error_type, "message": message}
    error.update(extra)
    return {"ok": False, "data": data, "error": error}


def is_envelope(payload) -> bool:
    return isinstance(payload, dict) and {"ok", "data", "error"} <= set(payload)

