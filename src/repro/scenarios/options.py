"""Run options every front end reads the same way, numpy-free.

The CLI, the service and the runner check a run's scale and resolve
its cache root through these, so the daemon answers a malformed
submission, and ``repro client`` resolves ``--cache``, without loading
the simulator.
"""

from __future__ import annotations

import os
from typing import Optional

#: the largest scale a plan is sized at. Every exhibit, sweep, example
#: and benchmark runs at scale 1.0 or below, and a plan's size grows
#: linearly with scale (fig09 plans in about 0.01 s at scale 100).
MAX_SCALE = 100.0


def scale_problem(scale: float) -> Optional[str]:
    """Why ``scale`` cannot size a plan, or None when it can."""
    if 0 < scale <= MAX_SCALE:  # false for nan too
        return None
    return f"scale must be finite and positive, at most {MAX_SCALE:g}, got {scale!r}"


def resolve_cache_dir(path: Optional[str] = None) -> str:
    """``path``, else ``$REPRO_CACHE_DIR``, else ``~/.cache/repro/outcomes``."""
    if path:
        return path
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "outcomes")
