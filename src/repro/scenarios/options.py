"""Run options every front end reads the same way, numpy-free.

A run is sized and executed by five options: its scale, seed, worker
count and cache. :class:`RunOptions` declares them once; the CLI
flags, the HTTP submit body, :class:`~repro.service.client.ServiceClient`
and the job queue all read it, so the daemon answers a malformed
submission, and ``repro client`` resolves ``--cache``, without loading
the simulator.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional

from ..schema import Malformed, Spec

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


@dataclass(frozen=True)
class RunOptions(Spec):
    """How one scenario or sweep run is sized and executed."""

    #: fidelity factor every plan is sized by.
    scale: float = 1.0
    #: base seed of every stream the run draws.
    seed: int = 0
    #: chains run on a process pool of this many workers; 1 is serial.
    workers: int = 1
    #: memoize chain outcomes in the outcome cache; None follows
    #: ``cache_dir`` (see :attr:`cache_root`).
    cache: Optional[bool] = None
    #: the outcome cache root; None is :func:`resolve_cache_dir`'s default.
    cache_dir: Optional[str] = None

    def __post_init__(self):
        # the codec passes an int scale through as it is; a run's cache
        # keys and reprs are those of a float scale.
        object.__setattr__(self, "scale", float(self.scale))

    def problems(self) -> List[str]:
        issues = [scale_problem(self.scale)]
        if self.workers < 1:
            issues.append(f"workers must be >= 1, got {self.workers!r}")
        return [issue for issue in issues if issue]

    def validate(self) -> "RunOptions":
        """``self``; a :class:`Malformed` names every bad option."""
        issues = self.problems()
        if issues:
            raise Malformed("; ".join(issues))
        return self

    @property
    def cache_root(self) -> Optional[str]:
        """The resolved cache directory, or None for an uncached run.

        An explicit ``cache`` wins; otherwise the cache is on exactly
        when ``cache_dir`` is set.
        """
        enabled = self.cache_dir is not None if self.cache is None else self.cache
        return resolve_cache_dir(self.cache_dir) if enabled else None
