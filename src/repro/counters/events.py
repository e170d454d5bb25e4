"""The 58 hardware performance events profiled by the paper (Fig 2).

The list is transcribed from Figure 2 of the paper; most are
Performance Monitoring Unit (PMU) events exposed by Linux ``perf``
(v4.15.18) on x86.

Each workload gets a deterministic *signature*: a per-event base rate
(events per second of single-core compute) derived from stable hashes
of the model and the dataset names separately. Workloads sharing a
model therefore produce correlated compute-side events, and workloads
sharing a dataset produce correlated memory/IO-side events — exactly
the structure the paper's ground-truth clustering exploits (Fig 4,
Fig 8, §5.5).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from ..workloads.spec import WorkloadSpec, rng_for

#: the 58 events of paper Figure 2, in its display order.
EVENT_NAMES: Tuple[str, ...] = (
    "L1-dcache-load-misses",
    "L1-dcache-loads",
    "L1-dcache-stores",
    "L1-icache-load-misses",
    "LLC-load-misses",
    "LLC-loads",
    "LLC-store-misses",
    "LLC-stores",
    "branch-load-misses",
    "branch-loads",
    "branch-misses",
    "branches",
    "bus-cycles",
    "cache-misses",
    "cache-references",
    "cpu-cycles",
    "cpu/branch-instructions/",
    "cpu/branch-misses/",
    "cpu/bus-cycles/",
    "cpu/cache-misses/",
    "cpu/cache-references/",
    "cpu/cpu-cycles/",
    "cpu/cycles-ct/",
    "cpu/cycles-t/",
    "cpu/el-abort/",
    "cpu/el-capacity/",
    "cpu/el-commit/",
    "cpu/el-conflict/",
    "cpu/el-start/",
    "cpu/instructions/",
    "cpu/mem-loads/",
    "cpu/mem-stores/",
    "cpu/topdown-fetch-bubbles/",
    "cpu/topdown-recovery-bubbles/",
    "cpu/topdown-slots-issued/",
    "cpu/topdown-slots-retired/",
    "cpu/topdown-total-slots/",
    "cpu/tx-abort/",
    "cpu/tx-capacity/",
    "cpu/tx-commit/",
    "cpu/tx-conflict/",
    "cpu/tx-start/",
    "dTLB-load-misses",
    "dTLB-loads",
    "dTLB-store-misses",
    "dTLB-stores",
    "iTLB-load-misses",
    "iTLB-loads",
    "instructions",
    "msr/aperf/",
    "msr/mperf/",
    "msr/pperf/",
    "msr/smi/",
    "msr/tsc/",
    "node-load-misses",
    "node-loads",
    "node-store-misses",
    "node-stores",
)

NUM_EVENTS = len(EVENT_NAMES)
assert NUM_EVENTS == 58, "paper Figure 2 lists 58 events"

#: events tied to the fixed counters of common Intel PMUs (§5.3: "2
#: generic and 3 fixed counters"; fixed counters measure one event each).
FIXED_COUNTER_EVENTS: Tuple[str, ...] = (
    "instructions",
    "cpu-cycles",
    "bus-cycles",
)

#: events whose rates follow the *model* (compute-side behaviour).
_COMPUTE_SIDE = frozenset(
    name
    for name in EVENT_NAMES
    if "branch" in name
    or "instructions" in name
    or "cycles" in name
    or "topdown" in name
    or "tx-" in name
    or "el-" in name
    or name.startswith("msr/")
)

#: events whose rates follow the *dataset* (memory/IO-side behaviour).
_MEMORY_SIDE = frozenset(EVENT_NAMES) - _COMPUTE_SIDE


#: boolean mask over :data:`EVENT_NAMES`: True where the event is
#: compute-side (model-driven); the complement is memory/IO-side.
COMPUTE_SIDE_MASK: np.ndarray = np.array(
    [name in _COMPUTE_SIDE for name in EVENT_NAMES]
)
COMPUTE_SIDE_MASK.setflags(write=False)

#: mask of the "missy" events whose rates react to memory pressure and
#: batch-size locality (cache/TLB misses and pipeline bubbles).
MISSY_MASK: np.ndarray = np.array(
    ["miss" in name.lower() or "bubbles" in name.lower() for name in EVENT_NAMES]
)
MISSY_MASK.setflags(write=False)


#: order-of-magnitude anchors per event family, events/second on one
#: busy core (Fig 2's colour scale spans < 1e2 .. > 1e8 per epoch).
_FAMILY_SCALE: Dict[str, float] = {
    "instructions": 2.0e9,
    "cycles": 2.5e9,
    "branch": 3.0e8,
    "L1": 6.0e8,
    "LLC": 5.0e6,
    "cache": 8.0e6,
    "TLB": 2.0e7,
    "topdown": 1.0e9,
    "mem": 4.0e8,
    "node": 1.0e6,
    "msr": 2.0e9,
    "tx": 2.0e3,
    "el": 1.5e3,
    "bus": 1.0e8,
}


def _family_scale(event: str) -> float:
    lowered = event.lower()
    for key, scale in _FAMILY_SCALE.items():
        if key.lower() in lowered:
            return scale
    return 1.0e7


#: per-event family anchors in :data:`EVENT_NAMES` order.
FAMILY_SCALE_VECTOR: np.ndarray = np.array(
    [_family_scale(name) for name in EVENT_NAMES]
)
FAMILY_SCALE_VECTOR.setflags(write=False)

def workload_signature(workload: WorkloadSpec) -> np.ndarray:
    """Per-event base rates (events per busy-core-second) for a workload.

    Compute-side event rates are drawn from an RNG seeded by the
    *model* name; memory-side rates from one seeded by the *dataset*
    name. A small workload-specific wobble is layered on top so the two
    workloads of a pair are similar but not identical.

    Returns a cached, read-only array shared between calls.
    """
    return _signature(workload.name, workload.model, workload.dataset)


# Memoized without a bound: a signature depends only on the workload's
# identifying names (one key per workload), and every PMU read needs
# it, so recomputing the sha256-seeded draws per read would dominate
# profiling time. The arrays are frozen (non-writeable) — callers
# receive the shared instance and must copy before mutating.
@lru_cache(maxsize=None)
def _signature(name: str, model: str, dataset: str) -> np.ndarray:
    model_rng = rng_for("pmu-signature", "model", model)
    dataset_rng = rng_for("pmu-signature", "dataset", dataset)
    wobble_rng = rng_for("pmu-signature", "workload", name)
    compute = COMPUTE_SIDE_MASK
    memory = ~compute
    rates = np.empty(NUM_EVENTS)
    # log-normal spread of half a decade around the family anchor; the
    # nth compute-side event consumes the nth model draw (and likewise
    # for memory-side/dataset), matching the original per-event loop.
    rates[compute] = FAMILY_SCALE_VECTOR[compute] * 10.0 ** model_rng.normal(
        0.0, 0.5, size=int(compute.sum())
    )
    rates[memory] = FAMILY_SCALE_VECTOR[memory] * 10.0 ** dataset_rng.normal(
        0.0, 0.5, size=int(memory.sum())
    )
    rates *= 10.0 ** wobble_rng.normal(0.0, 0.05, size=NUM_EVENTS)
    rates.setflags(write=False)
    return rates


_EVENT_INDEX: Dict[str, int] = {name: i for i, name in enumerate(EVENT_NAMES)}


def event_index(event: str) -> int:
    """Index of an event name in :data:`EVENT_NAMES`."""
    try:
        return _EVENT_INDEX[event]
    except KeyError:
        raise KeyError(f"unknown perf event {event!r}") from None
