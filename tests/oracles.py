"""Per-call definitions the simulator's batched paths are held to.

``run_trial`` computes one watts figure per system segment, and the
fault schedule draws its per-epoch faults through a re-keyed generator;
these spell out the same numbers one call at a time, on freshly built
streams, so tests can check the fast paths bit for bit.
"""

from typing import Optional, Tuple

from repro.simulation.cluster import Allocation
from repro.tune.faults import FAULT_KINDS, FaultModel
from repro.workloads.spec import BASE_CPU_FREQ_GHZ, SystemParams, rng_for


def trial_energy_j(
    system: SystemParams, allocation: Allocation, busy_cores: float, duration_s: float
) -> float:
    """Energy attributable to one epoch of one trial.

    Active cores draw the node's per-core power; the trial is also
    billed its proportional share of the node's idle draw (the paper
    reports whole-cluster energy, so idle attribution keeps per-trial
    sums consistent with the cluster meter).
    """
    spec = allocation.node.spec
    idle_share = spec.idle_watts * (allocation.cores / spec.cores)
    # DVFS: dynamic power scales ~quadratically with clock (P ~ f V^2
    # with V roughly linear in f over the usable range).
    dvfs = (system.cpu_freq_ghz / BASE_CPU_FREQ_GHZ) ** 2
    return (busy_cores * spec.core_watts * dvfs + idle_share) * duration_s


def draw_event(
    model: FaultModel, trial_id: str, attempt: int, epoch: int
) -> Optional[Tuple[str, float]]:
    """The fault (kind, mid-epoch fraction) firing this epoch, if any:
    the first kind in :data:`FAULT_KINDS` order whose hit draw falls
    under its rate, each draw on its own fresh stream."""
    for kind in FAULT_KINDS:
        spec = model.spec_for(kind)
        if spec is None or spec.rate_per_epoch <= 0.0:
            continue
        stream = rng_for("fault", kind, repr(spec), trial_id, attempt, epoch)
        hit, fraction = stream.random(2)
        if hit < spec.rate_per_epoch:
            return kind, float(fraction)
    return None


def scanned_schedule(model: FaultModel, trial_id: str, attempt: int, first, last):
    """``FaultModel.schedule`` spelled out as the per-epoch draws."""
    slowdown = model.straggler_slowdown(trial_id, attempt)
    for epoch in range(first, last + 1):
        event = draw_event(model, trial_id, attempt, epoch)
        if event is not None:
            return slowdown, (epoch, *event)
    return slowdown, None
