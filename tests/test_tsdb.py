"""Tests for the embedded time-series store."""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tsdb.point import Point
from repro.tsdb.store import TimeSeriesStore


def pt(measurement="power", time=0.0, tags=None, **fields):
    return Point(
        measurement=measurement,
        time=time,
        tags=tags or {},
        fields=fields or {"value": 1.0},
    )


class TestPoint:
    def test_requires_fields(self):
        with pytest.raises(ValueError):
            Point(measurement="m", time=0.0, fields={})

    def test_measurement_validation(self):
        with pytest.raises(ValueError):
            Point(measurement="", time=0.0, fields={"v": 1.0})
        with pytest.raises(ValueError):
            Point(measurement="m", time=0.0, tags={"": "x"}, fields={"v": 1.0})

    def test_tag_values_must_be_strings(self):
        with pytest.raises(TypeError):
            Point(measurement="m", time=0.0, tags={"k": 5}, fields={"v": 1.0})

    def test_field_values_must_be_numeric(self):
        with pytest.raises(TypeError):
            Point(measurement="m", time=0.0, fields={"v": "str"})
        with pytest.raises(TypeError):
            Point(measurement="m", time=0.0, fields={"v": True})

    def test_matches_tags(self):
        point = pt(tags={"node": "n0", "job": "j1"}, value=1.0)
        assert point.matches({"node": "n0"})
        assert point.matches({"node": "n0", "job": "j1"})
        assert not point.matches({"node": "n1"})
        assert not point.matches({"missing": "x"})

class TestStore:
    def test_write_and_count(self):
        store = TimeSeriesStore()
        store.write(pt(time=1.0))
        store.write(pt(time=2.0))
        assert len(store) == 2
        assert store.measurements() == ["power"]

    def test_query_time_window_half_open(self):
        store = TimeSeriesStore()
        for t in (0.0, 1.0, 2.0, 3.0):
            store.write(pt(time=t, value=t))
        window = store.query("power", start=1.0, end=3.0)
        assert [p.time for p in window] == [1.0, 2.0]

    def test_query_by_tags(self):
        store = TimeSeriesStore()
        store.write(pt(time=0.0, tags={"node": "a"}))
        store.write(pt(time=1.0, tags={"node": "b"}))
        assert len(store.query("power", tags={"node": "a"})) == 1

    def test_out_of_order_writes_are_sorted(self):
        store = TimeSeriesStore()
        for t in (5.0, 1.0, 3.0):
            store.write(pt(time=t))
        assert [p.time for p in store.query("power")] == [1.0, 3.0, 5.0]

    def test_field_values(self):
        store = TimeSeriesStore()
        for t, v in ((0.0, 10.0), (1.0, 20.0)):
            store.write(pt(time=t, value=v))
        assert store.field_values("power", "value") == [10.0, 20.0]
        assert store.field_values("power", "missing") == []

    def test_aggregate_mean_windows(self):
        store = TimeSeriesStore()
        for t in range(10):
            store.write(pt(time=float(t), value=float(t)))
        buckets = store.aggregate_windows("power", "value", window_s=5.0)
        assert buckets == [(0.0, 2.0), (5.0, 7.0)]

    def test_aggregate_other_functions(self):
        store = TimeSeriesStore()
        for t, v in ((0.0, 1.0), (1.0, 5.0), (2.0, 3.0)):
            store.write(pt(time=t, value=v))
        assert store.aggregate_windows("power", "value", 10.0, agg="max") == [
            (0.0, 5.0)
        ]
        assert store.aggregate_windows("power", "value", 10.0, agg="min") == [
            (0.0, 1.0)
        ]
        assert store.aggregate_windows("power", "value", 10.0, agg="sum") == [
            (0.0, 9.0)
        ]
        assert store.aggregate_windows("power", "value", 10.0, agg="count") == [
            (0.0, 3)
        ]

    def test_aggregate_validation(self):
        store = TimeSeriesStore()
        store.write(pt())
        with pytest.raises(ValueError):
            store.aggregate_windows("power", "value", 0.0)
        with pytest.raises(ValueError):
            store.aggregate_windows("power", "value", 5.0, agg="median?")

    def test_aggregate_empty(self):
        assert TimeSeriesStore().aggregate_windows("power", "value", 5.0) == []

    def test_dump_load_roundtrip(self):
        store = TimeSeriesStore()
        store.write(pt(time=1.0, tags={"node": "a"}, value=10.0))
        store.write(pt(measurement="acc", time=2.0, value=0.5))
        buffer = io.StringIO()
        count = store.dump(buffer)
        assert count == 2
        buffer.seek(0)
        loaded = TimeSeriesStore.load_stream(buffer)
        assert len(loaded) == 2
        assert loaded.query("acc")[0].fields["value"] == 0.5

    def test_save_load_file(self, tmp_path):
        store = TimeSeriesStore()
        for t in range(5):
            store.write(pt(time=float(t), value=float(t * 2)))
        path = str(tmp_path / "db.jsonl")
        assert store.save(path) == 5
        loaded = TimeSeriesStore.load(path)
        assert store.field_values("power", "value") == loaded.field_values(
            "power", "value"
        )

    def test_dump_writes_one_json_object_per_line(self):
        store = TimeSeriesStore()
        store.write(pt(time=2.0, tags={"node": "n1"}, value=3.5))
        store.write(pt(measurement="acc", time=1.0, value=0.25))
        buffer = io.StringIO()
        store.dump(buffer)
        lines = buffer.getvalue().splitlines()
        assert [json.loads(line) for line in lines] == [
            {"measurement": "acc", "time": 1.0, "tags": {}, "fields": {"value": 0.25}},
            {
                "measurement": "power",
                "time": 2.0,
                "tags": {"node": "n1"},
                "fields": {"value": 3.5},
            },
        ]

    def test_names_with_separators_roundtrip(self):
        # JSON lines quote every name, so spaces, commas, equals signs
        # and newlines are plain characters.
        point = Point(
            measurement="node power",
            time=1.0,
            tags={"host a": "x=1,y", "line\nbreak": "v"},
            fields={"watts, avg": 2.5},
        )
        store = TimeSeriesStore()
        store.write(point)
        buffer = io.StringIO()
        assert store.dump(buffer) == 1
        buffer.seek(0)
        assert TimeSeriesStore.load_stream(buffer).query("node power") == [point]

    def test_load_skips_blank_lines(self):
        line = json.dumps(
            {"measurement": "power", "time": 1.0, "fields": {"value": 2.0}}
        )
        loaded = TimeSeriesStore.load_stream(io.StringIO(f"\n{line}\n  \n"))
        assert loaded.query("power") == [pt(time=1.0, value=2.0)]

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            TimeSeriesStore.load_stream(io.StringIO("garbage\n"))
        no_fields = json.dumps({"measurement": "power", "time": 1.0})
        with pytest.raises(ValueError):
            TimeSeriesStore.load_stream(io.StringIO(no_fields))

    @given(
        samples=st.lists(
            st.tuples(
                st.sampled_from(["power", "acc"]),
                st.floats(min_value=0, max_value=1e9),
                st.sampled_from(["n0", "n1"]),
                st.floats(min_value=-1e6, max_value=1e6),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_dump_load_roundtrip_property(self, samples):
        store = TimeSeriesStore()
        for measurement, time, node, value in samples:
            store.write(
                pt(measurement=measurement, time=time, tags={"node": node}, value=value)
            )
        buffer = io.StringIO()
        assert store.dump(buffer) == len(samples)
        buffer.seek(0)
        loaded = TimeSeriesStore.load_stream(buffer)
        assert loaded.measurements() == store.measurements()
        for measurement in store.measurements():
            assert loaded.query(measurement) == store.query(measurement)

    @given(
        times=st.lists(
            st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_query_returns_sorted_subset(self, times):
        store = TimeSeriesStore()
        for t in times:
            store.write(pt(time=t))
        result = [p.time for p in store.query("power")]
        assert result == sorted(times)
        mid = sorted(times)[len(times) // 2]
        windowed = [p.time for p in store.query("power", start=mid)]
        assert windowed == [t for t in sorted(times) if t >= mid]


class TestLazySortFastPath:
    """In-order appends are O(1); out-of-order writes re-sort lazily
    without changing any query result."""

    def test_mixed_order_writes_match_sorted_writes(self):
        times = [0.0, 2.0, 4.0, 1.0, 8.0, 3.0, 3.0, 16.0, 0.5]
        mixed = TimeSeriesStore()
        for i, t in enumerate(times):
            mixed.write(pt(time=t, value=float(i)))
        ordered = TimeSeriesStore()
        for i, t in sorted(enumerate(times), key=lambda it: it[1]):
            ordered.write(pt(time=t, value=float(i)))
        assert [
            (p.time, p.fields["value"]) for p in mixed.query("power")
        ] == [(p.time, p.fields["value"]) for p in ordered.query("power")]

    def test_interleaved_writes_and_queries(self):
        store = TimeSeriesStore()
        store.write(pt(time=5.0, value=1.0))
        store.write(pt(time=1.0, value=2.0))
        assert [p.time for p in store.query("power")] == [1.0, 5.0]
        # appends after a lazy re-sort stay on the fast path
        store.write(pt(time=9.0, value=3.0))
        assert [p.time for p in store.query("power")] == [1.0, 5.0, 9.0]
        assert store.field_values("power", "value", start=2.0) == [1.0, 3.0]

    def test_equal_times_keep_write_order(self):
        store = TimeSeriesStore()
        store.write(pt(time=2.0, value=1.0))
        store.write(pt(time=1.0, value=2.0))  # out of order
        store.write(pt(time=2.0, value=3.0))  # tie with first point
        assert [p.fields["value"] for p in store.query("power")] == [2.0, 1.0, 3.0]

    def test_dump_after_out_of_order_writes_is_sorted(self):
        store = TimeSeriesStore()
        for t in (4.0, 2.0, 6.0):
            store.write(pt(time=t))
        stream = io.StringIO()
        store.dump(stream)
        stream.seek(0)
        reloaded = TimeSeriesStore.load_stream(stream)
        assert [p.time for p in reloaded.query("power")] == [2.0, 4.0, 6.0]


# ---------------------------------------------------------------------------
# Columnar fast path: property tests against the point-by-point reference
# ---------------------------------------------------------------------------

def _reference_aggregate(
    store, measurement, field, window_s, agg, start, end, tags=None
):
    """The historical point-by-point aggregation, kept as an oracle."""
    from collections import defaultdict

    from repro.tsdb.store import _AGGREGATORS

    aggregator = _AGGREGATORS[agg]
    points = store.query(measurement, tags=tags, start=start, end=end)
    if not points:
        return []
    origin = start if start is not None else points[0].time
    buckets = defaultdict(list)
    for p in points:
        if field not in p.fields:
            continue
        buckets[int((p.time - origin) // window_s)].append(p.fields[field])
    return [
        (origin + index * window_s, aggregator(values))
        for index, values in sorted(buckets.items())
    ]


_point_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        st.one_of(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            st.integers(min_value=-1000, max_value=1000),
        ),
        st.booleans(),  # whether the point carries the queried field
    ),
    min_size=0,
    max_size=60,
)


class TestColumnarAggregationProperties:
    @given(
        raw=_point_strategy,
        window=st.floats(min_value=1e-3, max_value=5e3, allow_nan=False),
        agg=st.sampled_from(["mean", "sum", "min", "max", "count", "first", "last"]),
        bounds=st.tuples(
            st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e4)),
            st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e4)),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_columnar_matches_point_by_point(self, raw, window, agg, bounds):
        """The vectorised window aggregation is bit- and type-identical
        to the reference implementation, for every aggregator, over
        unordered writes, missing fields and int-valued fields."""
        store = TimeSeriesStore()
        for time, value, has_field in raw:
            fields = {"v": value} if has_field else {"other": 1.0}
            store.write(Point(measurement="m", time=time, fields=fields))
        start, end = bounds
        if start is not None and end is not None and end < start:
            start, end = end, start
        expected = _reference_aggregate(store, "m", "v", window, agg, start, end)
        got = store.aggregate_windows(
            "m", "v", window_s=window, agg=agg, start=start, end=end
        )
        assert got == expected
        # bit-exact: equal floats AND identical types (ints stay ints)
        for (t_got, v_got), (t_exp, v_exp) in zip(got, expected):
            assert repr(t_got) == repr(t_exp)
            assert repr(v_got) == repr(v_exp)
            assert type(v_got) is type(v_exp)

    @given(raw=_point_strategy)
    @settings(max_examples=100, deadline=None)
    def test_field_values_match_query_projection(self, raw):
        store = TimeSeriesStore()
        for time, value, has_field in raw:
            fields = {"v": value} if has_field else {"other": 1.0}
            store.write(Point(measurement="m", time=time, fields=fields))
        expected = [
            p.fields["v"] for p in store.query("m") if "v" in p.fields
        ]
        assert store.field_values("m", "v") == expected

    def test_write_invalidates_column_cache(self):
        store = TimeSeriesStore()
        store.write(pt(time=0.0, v=1.0))
        store.write(pt(time=60.0, v=3.0))
        assert store.aggregate_windows("power", "v", 60.0) == [(0.0, 1.0), (60.0, 3.0)]
        # append out of order: cache must drop and results re-sort
        store.write(pt(time=30.0, v=2.0))
        assert store.aggregate_windows("power", "v", 60.0) == [
            (0.0, (1.0 + 2.0) / 2),
            (60.0, 3.0),
        ]
        assert store.field_values("power", "v") == [1.0, 2.0, 3.0]

    def test_tagged_queries_served_from_sub_columns(self):
        store = TimeSeriesStore()
        store.write(pt(time=0.0, tags={"node": "a"}, v=1.0))
        store.write(pt(time=1.0, tags={"node": "b"}, v=5.0))
        assert store.field_values("power", "v", tags={"node": "b"}) == [5.0]
        assert store.aggregate_windows(
            "power", "v", 60.0, tags={"node": "a"}
        ) == [(0.0, 1.0)]
        # the sub-column is cached per (field, tag signature) ...
        assert ("v", (("node", "a"),)) in store._columns["power"]
        # ... keyed independently of the tag dict's iteration order ...
        store.write(pt(time=2.0, tags={"node": "a", "rack": "r1"}, v=7.0))
        first = store.field_values("power", "v", tags={"node": "a", "rack": "r1"})
        second = store.field_values("power", "v", tags={"rack": "r1", "node": "a"})
        assert first == second == [7.0]
        # ... and a write drops it (fresh points become visible).
        store.write(pt(time=3.0, tags={"node": "b"}, v=9.0))
        assert store.field_values("power", "v", tags={"node": "b"}) == [5.0, 9.0]


class TestTaggedColumnarProperties:
    """Tagged sub-columns are bit-identical to the point-by-point path
    (the ROADMAP per-node power query pattern)."""

    @given(
        raw=_point_strategy,
        nodes=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=60),
        window=st.floats(min_value=1e-3, max_value=5e3, allow_nan=False),
        agg=st.sampled_from(["mean", "sum", "min", "max", "count", "first", "last"]),
        query_node=st.sampled_from(["a", "b", "c"]),
        bounds=st.tuples(
            st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e4)),
            st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e4)),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_tagged_aggregation_matches_point_by_point(
        self, raw, nodes, window, agg, query_node, bounds
    ):
        store = TimeSeriesStore()
        for (time, value, has_field), node in zip(raw, nodes):
            fields = {"v": value} if has_field else {"other": 1.0}
            store.write(
                Point(
                    measurement="m", time=time, tags={"node": node}, fields=fields
                )
            )
        start, end = bounds
        if start is not None and end is not None and end < start:
            start, end = end, start
        tags = {"node": query_node}
        expected = _reference_aggregate(
            store, "m", "v", window, agg, start, end, tags=tags
        )
        got = store.aggregate_windows(
            "m", "v", window_s=window, agg=agg, tags=tags, start=start, end=end
        )
        assert got == expected
        for (t_got, v_got), (t_exp, v_exp) in zip(got, expected):
            assert repr(t_got) == repr(t_exp)
            assert repr(v_got) == repr(v_exp)
            assert type(v_got) is type(v_exp)

    @given(
        raw=_point_strategy,
        nodes=st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=60),
        query_node=st.sampled_from(["a", "b"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_tagged_field_values_match_query_projection(
        self, raw, nodes, query_node
    ):
        store = TimeSeriesStore()
        for (time, value, has_field), node in zip(raw, nodes):
            fields = {"v": value} if has_field else {"other": 1.0}
            store.write(
                Point(
                    measurement="m", time=time, tags={"node": node}, fields=fields
                )
            )
        tags = {"node": query_node}
        expected = [
            p.fields["v"] for p in store.query("m", tags=tags) if "v" in p.fields
        ]
        assert store.field_values("m", "v", tags=tags) == expected
