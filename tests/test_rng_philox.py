"""Property and golden-trace tests for the counter-keyed Philox adapter.

``rng_for`` / ``philox_generator`` promise streams bit-identical to the
defining construction ``np.random.Generator(np.random.Philox(key=
stable_seed(...)))`` while building generators through a cheaper keyed
path. These tests hold the adapter to that contract:

* hypothesis properties — same key means bit-identical streams,
  distinct keys mean distinct streams, and the adapter bit-matches the
  reference constructor across ``normal``/``uniform``/``integers``/
  ``choice``/``shuffle``;
* independence — simultaneously-live same-key generators never share
  a Philox core, and the import-time self-check accepts this numpy;
* golden traces — pinned sha256 digests of reference streams, so a
  numpy upgrade or platform change that silently re-keys every exhibit
  fails here first, with a clear re-baseline instruction.
"""

import hashlib
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import spec
from repro.workloads.spec import philox_generator, rng_for, stable_seed

#: full Philox key domain accepted by the adapter.
keys = st.integers(min_value=0, max_value=(1 << 128) - 1)
#: arbitrary stable_seed part tuples.
parts = st.lists(
    st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=8)),
    min_size=1,
    max_size=4,
)


def reference(key):
    return np.random.Generator(np.random.Philox(key=key))


def draw_trace(generator, n=32):
    """A deterministic mixed-method draw sequence, as raw bytes."""
    out = [
        generator.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).tobytes(),
        np.asarray(generator.normal(size=n)).tobytes(),
        np.asarray(generator.uniform(size=n)).tobytes(),
    ]
    return b"".join(out)


class TestAdapterMatchesReference:
    @given(key=keys)
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_mixed_trace(self, key):
        assert draw_trace(philox_generator(key)) == draw_trace(reference(key))

    @given(key=keys)
    @settings(max_examples=40, deadline=None)
    def test_normal_uniform_integers(self, key):
        ours, ref = philox_generator(key), reference(key)
        np.testing.assert_array_equal(ours.normal(size=17), ref.normal(size=17))
        np.testing.assert_array_equal(ours.uniform(size=17), ref.uniform(size=17))
        np.testing.assert_array_equal(
            ours.integers(0, 1_000_000, size=17), ref.integers(0, 1_000_000, size=17)
        )

    @given(key=keys)
    @settings(max_examples=40, deadline=None)
    def test_choice_and_shuffle(self, key):
        ours, ref = philox_generator(key), reference(key)
        pool = np.arange(100)
        np.testing.assert_array_equal(
            ours.choice(pool, size=10, replace=False),
            ref.choice(pool, size=10, replace=False),
        )
        a, b = np.arange(50), np.arange(50)
        ours.shuffle(a)
        ref.shuffle(b)
        np.testing.assert_array_equal(a, b)

    @given(parts=parts)
    @settings(max_examples=60, deadline=None)
    def test_rng_for_is_keyed_on_stable_seed(self, parts):
        key = stable_seed(*parts)
        assert draw_trace(rng_for(*parts), n=8) == draw_trace(reference(key), n=8)


class TestStreamInvariants:
    @given(parts=parts)
    @settings(max_examples=60, deadline=None)
    def test_same_key_bit_identical(self, parts):
        assert draw_trace(rng_for(*parts), n=8) == draw_trace(rng_for(*parts), n=8)

    @given(key_a=keys, key_b=keys)
    @settings(max_examples=60, deadline=None)
    def test_distinct_keys_distinct_streams(self, key_a, key_b):
        a = draw_trace(philox_generator(key_a), n=8)
        b = draw_trace(philox_generator(key_b), n=8)
        assert (a == b) == (key_a == key_b)

    def test_key_domain_enforced(self):
        with pytest.raises(ValueError):
            philox_generator(-1)
        with pytest.raises(ValueError):
            philox_generator(1 << 128)


class TestPoolSemantics:
    def test_live_same_key_generators_are_independent(self):
        """Two live generators for one key never share a Philox core."""
        first = rng_for("alias-test")
        second = rng_for("alias-test")
        assert first.bit_generator is not second.bit_generator
        ref_a, ref_b = (
            reference(stable_seed("alias-test")),
            reference(stable_seed("alias-test")),
        )
        for _ in range(16):  # interleaved draws stay on separate streams
            assert first.normal() == ref_a.normal()
            assert second.normal() == ref_b.normal()

    def test_fast_construction_active(self):
        """The import-time self-check must accept this numpy: a silent
        fallback would keep streams correct but forfeit the speedup the
        swap exists for — fail loudly so it gets re-examined."""
        assert spec._FAST_CONSTRUCTION


def warm_up(other_key, method):
    """Leave this thread's re-keyed generator mid-stream on another key,
    with a half-used 32-bit buffer after ``integers``."""
    args = {
        "integers": (0, 7, 5, np.uint32),
        "random": (3,),
        "normal": (0.0, 2.0, (3, 2)),
    }[method]
    spec._keyed_draw(other_key, method, *args)


class TestKeyedDraw:
    """``_keyed_draw`` re-keys one generator per thread; every draw must
    equal the same draw from a freshly built stream on the key."""

    @given(
        key=keys,
        other=keys,
        method=st.sampled_from(["integers", "random", "normal"]),
        rows=st.integers(1, 40),
        width=st.integers(1, 6),
        sigma=st.floats(1e-3, 10.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_normal_matches_a_fresh_stream(
        self, key, other, method, rows, width, sigma
    ):
        warm_up(other, method)
        ours = spec._keyed_draw(key, "normal", 0.0, sigma, (rows, width))
        ref = reference(key).normal(0.0, sigma, (rows, width))
        assert ours.tobytes() == ref.tobytes()

    @given(
        key=keys,
        other=keys,
        method=st.sampled_from(["integers", "random", "normal"]),
        count=st.integers(1, 9),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_matches_a_fresh_stream(self, key, other, method, count):
        warm_up(other, method)
        ours = spec._keyed_draw(key, "random", count)
        assert ours.tobytes() == reference(key).random(count).tobytes()
        assert spec._keyed_draw(key, "random") == reference(key).random()

    def test_threads_re_keying_alternately_keep_their_streams(self):
        """Two threads take turns re-keying; each draw is its own key's
        stream, so neither thread ever drew from the other's state."""
        turns = [threading.Event(), threading.Event()]
        results = {0: [], 1: []}
        generators = {}

        def worker(me):
            for step in range(6):
                turns[me].wait()
                turns[me].clear()
                key = stable_seed("thread", me, step)
                results[me].append(spec._keyed_draw(key, "random", 4).tobytes())
                generators[me] = spec._THREAD.generator
                turns[1 - me].set()

        threads = [threading.Thread(target=worker, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        turns[0].set()
        for thread in threads:
            thread.join(timeout=30)
        for me in (0, 1):
            expected = [
                reference(stable_seed("thread", me, step)).random(4).tobytes()
                for step in range(6)
            ]
            assert results[me] == expected
        assert generators[0] is not generators[1]

    def test_concurrent_draws_stay_on_their_keys(self):
        mismatches = []

        def worker(me):
            for step in range(1500):
                key = stable_seed("race", me, step)
                ours = spec._keyed_draw(key, "normal", 0.0, 1.0, (4, 3))
                if ours.tobytes() != reference(key).normal(0.0, 1.0, (4, 3)).tobytes():
                    mismatches.append((me, step))

        threads = [threading.Thread(target=worker, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert mismatches == []

    def test_failing_self_check_falls_back_to_construction(self, monkeypatch):
        """A re-key that misses one state word fails the import-time
        check, and the fallback builds each stream instead."""

        def stale_buffer_rekey(generator, key):
            state = generator.bit_generator.state
            state["state"]["key"] = np.array(
                (key & ((1 << 64) - 1), key >> 64), dtype=np.uint64
            )
            state["state"]["counter"] = np.zeros(4, dtype=np.uint64)
            generator.bit_generator.state = state  # buffer left as drawn

        monkeypatch.setattr(spec, "_rekey", stale_buffer_rekey)
        assert not spec._philox_fast_path_ok()
        monkeypatch.setattr(spec, "_FAST_CONSTRUCTION", spec._philox_fast_path_ok())
        built = spec.philox_construction_count()
        key = (1 << 100) + 3
        spec._keyed_draw(stable_seed("other"), "integers", 0, 7, 5, np.uint32)
        ours = spec._keyed_draw(key, "random", 5)
        assert ours.tobytes() == reference(key).random(5).tobytes()
        assert spec.philox_construction_count() == built + 2

    def test_a_re_key_counts_as_one_stream_started(self):
        built = spec.philox_construction_count()
        spec._keyed_draw(5, "random")
        spec._keyed_draw(5, "normal", 0.0, 1.0, 3)
        assert spec.philox_construction_count() == built + 2

    def test_key_domain_enforced(self):
        for key in (-1, 1 << 128):
            with pytest.raises(ValueError):
                spec._keyed_draw(key, "random")


#: sha256 of draw_trace(reference(key), n=...) as pinned below. These
#: pin the *reference* Philox streams themselves: if numpy or the
#: platform ever changes them, every committed exhibit silently
#: re-keys, and this test is the tripwire. Legitimate changes
#: re-baseline via scripts/regenerate_exhibits.py --update and repin.
GOLDEN_STREAM_DIGESTS = {
    0: "3dca698be05c2ff2015719d73622da63a7db31a3b0f36384512c11b2afe19579",
    1: "96bb4937b399acfe0c153f6c4366fdf18251be2ed7d4baf18996728406988786",
    (1 << 63) - 1: "9ba7605df91e49925b8b7048825902cadf312b67fa0a3d43659f80e9db45bc82",
    (1 << 127)
    + 12345: "1f7c175a29947961ae16d1886f7fe97ef752c3e523ec68b817e6d73cebfc8280",
}


class TestGoldenStreamTraces:
    @pytest.mark.parametrize("key", sorted(GOLDEN_STREAM_DIGESTS))
    def test_pinned_digest(self, key):
        trace = hashlib.sha256()
        generator = philox_generator(key)
        trace.update(
            generator.integers(0, 2**64, 16, dtype=np.uint64, endpoint=False).tobytes()
        )
        trace.update(np.asarray(generator.normal(size=8)).tobytes())
        trace.update(np.asarray(generator.uniform(size=8)).tobytes())
        assert trace.hexdigest() == GOLDEN_STREAM_DIGESTS[key], (
            "Philox reference streams changed; all committed exhibits are "
            "stale. Re-baseline (scripts/regenerate_exhibits.py --update) "
            "and repin these digests in the same commit."
        )
