"""Structured failure containment for scenario execution.

The execution backends promise that one bad step cannot take the
whole run down with an anonymous traceback: every backend turns a step
that raises into :class:`ChainFailure` *outcomes* — plain picklable
records carrying the execution context (scenario, plan position,
chain) that flow through :func:`~repro.scenarios.merge.merge_outcomes`
in plan order like any result, so collectors and sweeps can degrade
gracefully instead of aborting. A caller that wants the whole table
gets a :class:`StepExecutionError` from ``RunReport.unwrap()`` instead,
at any worker count.

This module is imported by both :mod:`~repro.scenarios.runner`
(collectors skip failed positions) and
:mod:`~repro.scenarios.backends` (which produces the failures), so it
depends on neither.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ChainFailure:
    """One failed (or skipped) plan position, as a picklable outcome.

    A backend emits one per step of the failed chain: the step that
    raised carries the error, every later step of the same chain is
    marked skipped (its session state is suspect once an earlier step
    died). ``merge_outcomes`` slots these into plan order exactly like
    results.
    """

    scenario: str
    chain_index: int
    step_index: int
    step_label: str
    error_type: str
    error: str
    traceback: str = ""
    skipped: bool = False


class StepExecutionError(RuntimeError):
    """A plan step raised; the message carries the step's context.

    Raised by ``RunReport.unwrap()`` for the first step of a run that
    failed, so an error escaping a scenario run always names the
    scenario, the plan position, the step label and the chain it ran
    in — instead of a bare exception from somewhere deep in the
    simulator. The :class:`ChainFailure` it reports, with the step's
    traceback, is kept on ``failure``.
    """

    def __init__(self, failure: ChainFailure):
        super().__init__(failure)
        self.failure = failure

    def __str__(self) -> str:
        failure = self.failure
        return (
            f"scenario {failure.scenario!r}: step {failure.step_index} "
            f"({failure.step_label}) in chain {failure.chain_index} failed: "
            f"{failure.error_type}: {failure.error}"
        )


def is_failure(outcome: object) -> bool:
    """Whether one merged outcome is a contained failure."""
    return isinstance(outcome, ChainFailure)
