"""Tests for the ground-truth profile database and similarity lookup."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.clustering import KMeans, pairwise_sq_distances
from repro.core.groundtruth import (
    DISTANCE_FLOOR,
    MIN_ENTRIES,
    THRESHOLD_SCALE,
    GroundTruth,
    GroundTruthEntry,
)
from repro.counters.events import NUM_EVENTS
from repro.workloads.spec import SystemParams


def entry(center, system_cores=4, name="w", jitter=0.0, seed=0, dim=NUM_EVENTS):
    rng = np.random.default_rng(seed)
    features = np.full(dim, float(center)) + rng.normal(0.0, jitter, dim)
    return GroundTruthEntry(
        features=features,
        best_system=SystemParams(cores=system_cores, memory_gb=8.0),
        workload_name=name,
    )


def populated(jitter=0.05):
    gt = GroundTruth()
    for i in range(4):
        gt.add(entry(0.0, system_cores=4, name="low", jitter=jitter, seed=i))
    for i in range(4):
        gt.add(entry(5.0, system_cores=16, name="high", jitter=jitter, seed=10 + i))
    gt.refit()
    return gt


class TestEntries:
    def test_entry_requires_vector(self):
        with pytest.raises(ValueError):
            GroundTruthEntry(
                features=np.zeros((2, 2)), best_system=SystemParams(4, 8.0)
            )

    def test_refit_does_not_import_numpy_ma(self):
        # np.unique imports numpy.ma on its first call, which a cold
        # run would pay for; refit groups its labels without it.
        code = """
import sys
import numpy as np
from repro.core.groundtruth import GroundTruth, GroundTruthEntry
from repro.workloads.spec import SystemParams
gt = GroundTruth()
for center in (0.0, 0.0, 5.0, 5.0):
    gt.add(GroundTruthEntry(np.full(4, center), SystemParams(4, 8.0)))
gt.refit()
assert sorted(gt._cluster_idx) == [0, 1], gt._cluster_idx
print("numpy.ma" in sys.modules)
"""
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"


class TestQueries:
    def test_empty_database_misses(self):
        gt = GroundTruth()
        assert gt.query(np.zeros(NUM_EVENTS)) is None

    def test_below_min_entries_misses(self):
        gt = GroundTruth()
        for i in range(MIN_ENTRIES - 1):
            gt.add(entry(5.0 * (i % 2)))
        assert gt.model is None
        assert gt.query(np.zeros(NUM_EVENTS)) is None

    def test_model_fits_at_min_entries(self):
        gt = GroundTruth()
        for i in range(MIN_ENTRIES):
            gt.add(entry(5.0 * (i % 2), system_cores=4 + 12 * (i % 2), seed=i))
        assert gt.model is not None
        match = gt.query(np.full(NUM_EVENTS, 5.0))
        assert match is not None and match.system.cores == 16

    def test_similar_profile_hits_with_right_config(self):
        gt = populated()
        match = gt.query(entry(0.0, jitter=0.05, seed=99).features)
        assert match is not None
        assert match.system.cores == 4
        match_high = gt.query(entry(5.0, jitter=0.05, seed=98).features)
        assert match_high is not None
        assert match_high.system.cores == 16

    def test_dissimilar_profile_misses(self):
        gt = populated()
        assert gt.query(np.full(NUM_EVENTS, 50.0)) is None

    def test_match_metadata(self):
        gt = populated()
        match = gt.query(entry(0.0, jitter=0.02, seed=42).features)
        assert match.distance <= match.threshold
        assert match.source_workload == "low"

    def test_threshold_scales_with_inertia(self):
        tight = populated(jitter=0.01)
        loose = populated(jitter=0.5)
        assert loose.threshold > tight.threshold

    def test_refit_on_add_is_lazy(self):
        gt = populated()
        model_before = gt.model
        gt.add(entry(0.0, seed=123))
        assert gt._dirty
        _ = gt.model  # triggers refit
        assert not gt._dirty

    def test_len(self):
        assert len(populated()) == 8


def two_exact_points():
    """Two identical profiles at each of two points: zero inertia."""
    gt = GroundTruth()
    for center, cores in ((0.0, 4), (0.0, 4), (5.0, 16), (5.0, 16)):
        gt.add(entry(center, system_cores=cores))
    return gt


class TestFixedSimilarity:
    """k-means is the one model; the distance floor is a constant."""

    def test_zero_inertia_threshold_is_the_floor(self):
        gt = two_exact_points()
        assert gt.model.inertia == 0.0
        assert gt.threshold == pytest.approx(2.5 * DISTANCE_FLOOR)

    @pytest.mark.parametrize("offset, hits", [(0.29, True), (0.31, False)])
    def test_floor_decides_a_near_profile(self, offset, hits):
        features = np.zeros(NUM_EVENTS)
        features[0] = offset
        assert (two_exact_points().query(features) is not None) is hits

    def test_model_is_kmeans_of_k_seeded_by_the_ground_truth(self):
        gt = GroundTruth(seed=7)
        for i in range(MIN_ENTRIES):
            gt.add(entry(5.0 * (i % 2), jitter=0.05, seed=i))
        assert isinstance(gt.model, KMeans)
        assert (gt.model.k, gt.model.seed) == (2, 7)


#: one tight and one loose database: the distance floor sets the first
#: one's threshold, the model's inertia the second one's.
DATABASES = {jitter: populated(jitter) for jitter in (0.05, 0.5)}


def three_pass_lookup(gt, features):
    """The lookup as three passes: the label of one centroid distance
    matrix, the distance from a second one, and a threshold recomputed
    from the inertia on every lookup."""
    model = gt.model
    x = np.asarray(features, dtype=float)[None, :]
    cluster = int(pairwise_sq_distances(x, model.centroids).argmin(axis=1)[0])
    distance = float(np.sqrt(pairwise_sq_distances(x, model.centroids).min(axis=1))[0])
    rms = np.sqrt(model.inertia / max(1, len(gt.entries)))
    return cluster, distance, THRESHOLD_SCALE * max(rms, DISTANCE_FLOOR)


def bits(value):
    return type(value), np.float64(value).tobytes()


class TestOneDistanceRow:
    @settings(max_examples=150, deadline=None)
    @given(
        jitter=st.sampled_from(sorted(DATABASES)),
        center=st.sampled_from([0.0, 2.5, 5.0]),
        scale=st.sampled_from([0.0, 0.01, 0.05, 0.2, 1.0]),
        noise=arrays(np.float64, NUM_EVENTS, elements=st.floats(-1.0, 1.0)),
    )
    def test_query_matches_the_three_pass_lookup(self, jitter, center, scale, noise):
        gt = DATABASES[jitter]
        features = center + scale * noise
        cluster, distance, threshold = three_pass_lookup(gt, features)
        match = gt.query(features)
        assert (match is not None) == bool(distance <= threshold)
        assert bits(gt.threshold) == bits(threshold)
        if match is not None:
            assert match.cluster == cluster
            assert bits(match.distance) == bits(distance)
            assert bits(match.threshold) == bits(threshold)
