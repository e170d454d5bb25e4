"""Merge per-chain outcomes back into plan order.

Backends execute :class:`~repro.scenarios.planner.ExecutionChain`\\ s
in whatever order and on whatever workers they like; this module puts
every outcome back at its plan position so the collect phase (and the
golden byte-diff behind it) cannot tell how execution was scheduled:
:func:`run_plan` for one plan (``backend.run``), :func:`run_plans` for
many through one ``backend.run_chains`` call (sweeps, exhibits).
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Sequence, Tuple

from .planner import ExecutionChain, partition
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


def run_plan(backend, plan: ScenarioPlan) -> Tuple[List, Dict]:
    """One plan's outcomes in plan order, plus the backend's sessions."""
    chains = partition(plan)
    per_chain: List = [None] * len(chains)
    for position, outcomes in backend.run_chains([(plan, c) for c in chains]):
        per_chain[position] = outcomes
    return merge_outcomes(plan, chains, per_chain), backend.sessions


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
