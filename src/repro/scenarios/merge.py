"""Merge per-chain outcomes back into plan order; the one run path.

Backends execute :class:`~repro.scenarios.planner.ExecutionChain`\\ s
in whatever order and on whatever workers they like; this module puts
every outcome back at its plan position so the collect phase (and the
golden byte-diff behind it) cannot tell how execution was scheduled.
:func:`run_plans` runs many plans' chains through one backend, and
every front end formats the :class:`RunReport`\\ s of
:func:`run_reports`; a single scenario is the one-plan case.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .cache import CacheStats, CachingBackend
from .containment import ChainFailure, StepExecutionError, is_failure
from .planner import ExecutionChain, partition
from .result import ExperimentResult
from .runner import ScenarioPlan

#: placeholder distinguishing "not merged yet" from a legitimate None.
_MISSING = object()


def merge_outcomes(
    plan: ScenarioPlan,
    chains: Sequence[ExecutionChain],
    per_chain: Sequence[Tuple],
) -> List:
    """Outcomes in plan order from ``chains`` and their result lists.

    ``per_chain[i]`` must hold one outcome per step of ``chains[i]``,
    in chain order. Raises if the chains do not tile the plan exactly
    (a backend bug must fail loudly, never silently misattribute an
    outcome to the wrong step).
    """
    if len(chains) != len(per_chain):
        raise ValueError(
            f"got outcomes for {len(per_chain)} chains, expected {len(chains)}"
        )
    merged = [_MISSING] * len(plan.steps)
    for chain, outcomes in zip(chains, per_chain):
        if len(outcomes) != len(chain.indices):
            raise ValueError(
                f"{chain.label}: {len(outcomes)} outcomes for "
                f"{len(chain.indices)} steps"
            )
        for position, outcome in zip(chain.indices, outcomes):
            if not 0 <= position < len(merged):
                raise ValueError(
                    f"{chain.label}: step position {position} outside plan "
                    f"of {len(merged)} steps"
                )
            if merged[position] is not _MISSING:
                raise ValueError(
                    f"{chain.label}: step position {position} merged twice"
                )
            merged[position] = outcome
    holes = [i for i, outcome in enumerate(merged) if outcome is _MISSING]
    if holes:
        raise ValueError(f"chains left plan positions {holes} unexecuted")
    return merged


def run_plans(
    backend, plans: Sequence[ScenarioPlan]
) -> Iterator[Tuple[int, List, float]]:
    """Every plan's chains through one ``backend.run_chains`` call.

    Yields ``(k, outcomes in plan order, seconds waited on its chains)``
    as soon as the last chain of ``plans[k]`` is back. The serial
    backend runs a chain only when asked for the next result, so a
    caller that collects plan ``k`` first holds one plan's outcomes at
    a time and the seconds are that plan's execution. A pool hands back
    whole rounds: each wait is charged to the plan whose chain ended
    it, so only the sum over plans is the run's execution time.
    """
    chains_of = [partition(plan) for plan in plans]
    owner = [(k, c) for k, chains in enumerate(chains_of) for c in range(len(chains))]
    tasks = [(plans[k], chains_of[k][c]) for k, c in owner]
    per_chain = {k: [None] * len(chains) for k, chains in enumerate(chains_of)}
    left = [len(chains) for chains in chains_of]
    waited = [0.0] * len(plans)
    mark = time.perf_counter()
    for position, outcomes in backend.run_chains(tasks):
        k, c = owner[position]
        waited[k] += time.perf_counter() - mark
        per_chain[k][c] = outcomes
        left[k] -= 1
        del outcomes  # hold none while the next chain runs
        if not left[k]:
            yield k, merge_outcomes(plans[k], chains_of[k], per_chain.pop(k)), waited[k]
        mark = time.perf_counter()


@dataclass(frozen=True)
class RunReport:
    """What running one plan produced, for a front end to format.

    ``result`` is the collected table, partial when steps failed; it is
    None when collect raised, and ``error`` holds that exception.
    ``failures`` are the contained :class:`ChainFailure` outcomes in
    plan order, ``cache_stats`` the plan's chain-cache hits and misses
    (None when the run is uncached) and ``elapsed_s`` the wait on the
    plan's chains plus its collect. No raw outcome is kept.
    """

    result: Optional[ExperimentResult]
    failures: Tuple[ChainFailure, ...]
    cache_stats: Optional[CacheStats]
    elapsed_s: float
    error: Optional[Exception] = None

    def unwrap(self) -> ExperimentResult:
        """The whole collected table, the same at any worker count.

        Raises :class:`StepExecutionError` for the first step that
        raised (not one skipped after it or by a cancel), otherwise
        re-raises the exception collect raised."""
        for failure in self.failures:
            if not failure.skipped:
                raise StepExecutionError(failure)
        if self.error is not None:
            raise self.error
        return self.result


def run_reports(backend, pairs: Sequence[Tuple]) -> Iterator[RunReport]:
    """One :class:`RunReport` per ``(runner, plan)`` pair, in pair order.

    Each plan is collected as soon as :func:`run_plans` hands back its
    outcomes. Every backend returns a raising step as failures beside
    the surviving rows; a caller that wants the whole table or an error
    calls :meth:`RunReport.unwrap`, one that shows a partial table reads
    ``result``, ``failures`` and ``error``.
    """
    cached = isinstance(backend, CachingBackend)
    done: Dict[int, RunReport] = {}
    ready = 0  # the next pair to yield a report for
    for k, outcomes, waited in run_plans(backend, [plan for _, plan in pairs]):
        started = time.perf_counter()
        runner, plan = pairs[k]
        result = error = None
        try:
            result = runner.collect(plan, outcomes)
        except Exception as raised:
            traceback.clear_frames(raised.__traceback__)  # keep no outcomes
            error = raised
        failures = tuple(filter(is_failure, outcomes))
        del outcomes  # collected: hold none while the next plan runs
        done[k] = RunReport(
            result=result,
            failures=failures,
            cache_stats=backend.stats_for(plan) if cached else None,
            elapsed_s=waited + time.perf_counter() - started,
            error=error,
        )
        while ready in done:
            yield done.pop(ready)
            ready += 1
