"""Pinned spec dict forms: what every declarative spec serialises to.

``json.dumps(spec.as_dict())`` (key order kept, no ``sort_keys``) and
``repr(spec)`` are compared against ``tests/data/spec_dicts.json`` for
every built-in scenario, every built-in sweep and each of its variants,
the default ``ServerConfig`` and a ``FailureSpec`` with all six axes
set. Reprs key every RNG stream and cache entry, so a moved repr is a
changed experiment, not a cosmetic diff. Every pinned spec must also
decode back to itself: ``repr(type(x).from_dict(x.as_dict()))``
equals ``repr(x)``.

A change that alters a dict form on purpose rewrites the pinned file
with ``REPRO_UPDATE_PINS=1 python -m pytest tests/test_spec_dicts.py``.
"""

import json
import os

import pytest

from repro.scenarios import (
    SCENARIO_REGISTRY,
    SWEEP_REGISTRY,
    FailureSpec,
    scenario_names,
)
from repro.service import ServerConfig
from repro.tune.faults import (
    ChurnSpec,
    CrashSpec,
    PreemptionSpec,
    RetryPolicy,
    StragglerSpec,
)

PINS = os.path.join(os.path.dirname(__file__), "data", "spec_dicts.json")
SWEEPS = ("arrival-rate", "cluster-size", "algorithm-matrix", "fault-intensity")

FULL_FAILURES = FailureSpec(
    oom_threshold=1.8,
    preemption=PreemptionSpec(
        rate_per_epoch=0.1, checkpoint_every_epochs=2, restore_cost_s=15.0
    ),
    churn=ChurnSpec(rate_per_epoch=0.05, reschedule_delay_s=60.0),
    crash=CrashSpec(rate_per_epoch=0.02),
    straggler=StragglerSpec(fraction=0.2, slowdown=3.0),
    retry=RetryPolicy(max_retries=3, backoff_factor=1.5),
)


def _specs():
    """(pin key, spec) for every pinned spec, in a stable order."""
    specs = []
    for name in scenario_names("paper") + scenario_names("novel"):
        specs.append((f"scenario/{name}", SCENARIO_REGISTRY[name].scenario))
    for name in SWEEPS:
        sweep = SWEEP_REGISTRY[name]
        specs.append((f"sweep/{name}", sweep))
        for variant in sweep.variants():
            specs.append((f"variant/{variant.name}", variant.scenario))
    specs.append(("server/default", ServerConfig()))
    specs.append(("failures/all-axes", FULL_FAILURES))
    return specs


SPECS = _specs()


def _observed(spec):
    return {"dict": json.dumps(spec.as_dict()), "repr": repr(spec)}


def test_every_pin_present():
    observed = {key: _observed(spec) for key, spec in SPECS}
    if os.environ.get("REPRO_UPDATE_PINS"):
        with open(PINS, "w", encoding="utf-8") as handle:
            json.dump(observed, handle, indent=1)
            handle.write("\n")
        return
    with open(PINS, encoding="utf-8") as handle:
        pins = json.load(handle)
    assert sorted(observed) == sorted(pins)


@pytest.mark.parametrize("key, spec", SPECS, ids=[key for key, _ in SPECS])
def test_dict_form_and_repr_pinned(key, spec):
    with open(PINS, encoding="utf-8") as handle:
        pins = json.load(handle)
    assert key in pins, f"no pinned spec {key!r}; see the module docstring"
    observed = _observed(spec)
    assert observed["dict"] == pins[key]["dict"]
    assert observed["repr"] == pins[key]["repr"]


@pytest.mark.parametrize("key, spec", SPECS, ids=[key for key, _ in SPECS])
def test_round_trip_keeps_repr(key, spec):
    assert repr(type(spec).from_dict(spec.as_dict())) == repr(spec)
