"""How outcome records pickle: one constructor call on their fields.

Outcome records cross two boundaries as pickles: the outcome cache's
entries and the process pool's chain results. ``positional_pickle``
makes each record load as ``cls(*field_values)`` instead of an empty
instance filled from a dict of its fields. The contract under test:
outcomes round-trip to byte-identical tables, every outcome dataclass
reduces positionally (a new outcome class must opt in), and an entry
written in the old dict-state format is a clean cache miss.
"""

import copyreg
import dataclasses
import hashlib
import io
import os
import pickle
from dataclasses import dataclass, field

import pytest

from repro.experiments.golden import render_result
from repro.scenarios import SCENARIO_REGISTRY, OutcomeCache
from repro.scenarios.cache import _MAGIC
from repro.scenarios.runner import ScenarioRunner
from repro.schema import positional_pickle
from repro.tune.trial import EpochRecord, TrialResult
from repro.workloads.spec import HyperParams, SystemParams, WorkloadSpec

#: frozen spec values inside the records, not records: they keep the
#: default dict state, minus their memoized repr. Loading
#: them positionally re-runs their validating ``__init__`` per
#: instance, and it measured no faster on the sweep warm pass.
DICT_STATE = {HyperParams, SystemParams, WorkloadSpec}


@positional_pickle
@dataclass(slots=True)
class OneField:
    value: int


@pytest.fixture(scope="module")
def outcomes():
    """(runner, plan, outcomes) of fig11 and hostile-storm at small scale."""
    runs = {}
    for name in ("fig11", "hostile-storm"):
        runner = ScenarioRunner(SCENARIO_REGISTRY[name])
        plan = runner.plan(scale=0.3, seed=0)
        runs[name] = (runner, plan, runner.execute(plan))
    return runs


def _dataclass_instances(root):
    """Every dataclass instance reachable from ``root``, once each."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            found.append(obj)
            stack.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
    return found


class DictStatePickler(pickle.Pickler):
    """Pickles every dataclass the way all of them pickled before
    ``positional_pickle``: an empty instance plus a dict of its fields."""

    def reducer_override(self, obj):
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            state = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
            return copyreg.__newobj__, (type(obj),), state
        return NotImplemented


def _dict_state_payload(outcomes) -> bytes:
    buffer = io.BytesIO()
    DictStatePickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(outcomes)
    return buffer.getvalue()


def _write_entry(cache: OutcomeCache, digest: str, payload: bytes) -> None:
    """One entry in the cache's file format around a given payload."""
    path = cache._path(digest)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(
            _MAGIC
            + hashlib.sha256(payload).digest()
            + len(payload).to_bytes(8, "big")
            + payload
        )


@pytest.mark.parametrize("name", ["fig11", "hostile-storm"])
def test_round_trip_renders_byte_identically(outcomes, name):
    runner, plan, live = outcomes[name]
    loaded = pickle.loads(pickle.dumps(live, protocol=pickle.HIGHEST_PROTOCOL))
    expected = render_result(runner.collect(plan, live))
    assert render_result(runner.collect(plan, loaded)) == expected


@pytest.mark.parametrize("name", ["fig11", "hostile-storm"])
def test_every_outcome_dataclass_reduces_positionally(outcomes, name):
    instances = _dataclass_instances(outcomes[name][2])
    kinds = {type(obj) for obj in instances}
    assert {EpochRecord, TrialResult} <= kinds
    for obj in instances:
        cls = type(obj)
        if cls in DICT_STATE:
            continue
        values = tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))
        reduced = obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
        assert reduced[0] is cls, cls
        assert len(reduced[1]) == len(values), cls
        assert all(a is b for a, b in zip(reduced[1], values)), cls


def test_dict_state_entry_is_a_clean_miss(outcomes, tmp_path):
    _, _, live = outcomes["fig11"]
    cache = OutcomeCache(str(tmp_path))
    digest = "5a" * 32
    _write_entry(cache, digest, _dict_state_payload(live))
    assert cache.load(digest) is None
    # the recompute's store overwrites it, and the next load hits
    assert cache.store(digest, live)
    assert len(cache.load(digest)) == len(live)


def test_slotted_records_have_no_instance_dict():
    record = EpochRecord(
        epoch=1, duration_s=1.0, accuracy=0.5, system=SystemParams(), energy_j=2.0
    )
    assert not hasattr(record, "__dict__")
    assert pickle.loads(pickle.dumps(record)) == record


class TestPositionalPickle:
    def test_rejects_an_init_false_field(self):
        derived = ("derived", int, field(init=False, default=0))
        cls = dataclasses.make_dataclass("Derived", [("base", int), derived])
        with pytest.raises(TypeError, match="Derived.derived"):
            positional_pickle(cls)

    def test_rejects_a_kw_only_field(self):
        flag = ("flag", bool, field(default=False, kw_only=True))
        cls = dataclasses.make_dataclass("KeywordOnly", [("base", int), flag])
        with pytest.raises(TypeError, match="KeywordOnly.flag"):
            positional_pickle(cls)

    def test_rejects_a_plain_class(self):
        with pytest.raises(TypeError):
            positional_pickle(object)

    def test_one_field_round_trips(self):
        assert pickle.loads(pickle.dumps(OneField(3))) == OneField(3)
