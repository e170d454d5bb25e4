"""Ground truth: reuse of system configurations across similar jobs.

New HPT jobs exploit the profiles of previously completed jobs (§5.4):
a k-means model over the stored profile feature vectors partitions the
history; a new profile whose distance to its nearest centroid is
within the model's reliability threshold *hits* and reuses the best
system configuration known for the closest stored profile. Otherwise
the trial *misses* and PipeTune launches a probing phase (§5.6).

Privacy (§5.5): entries are matched purely on performance-counter
features. Workload names are stored for evaluation/reporting only and
never used in the lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..workloads.spec import SystemParams
from .clustering import KMeans, pairwise_sq_distances

#: lower bound on the per-cluster RMS scale: stored profiles of one
#: workload can be near-identical (zero inertia), but a new profile of
#: the same workload still carries measurement noise of roughly this
#: magnitude in feature space.
DISTANCE_FLOOR = 0.12
#: clusters of the similarity model (the paper evaluates k = 2, §5.4).
K = 2
#: a query hits within this multiple of the model's per-cluster RMS
#: distance (floored at :data:`DISTANCE_FLOOR`).
THRESHOLD_SCALE = 2.5
#: entries stored before the model is fitted; fewer always miss.
MIN_ENTRIES = 4


@dataclass
class GroundTruthEntry:
    """One historical profile with its known-best system configuration."""

    features: np.ndarray
    best_system: SystemParams
    objective_value: float = 0.0
    workload_name: str = ""  # reporting only; never used for matching
    created_at: float = 0.0

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        if self.features.ndim != 1:
            raise ValueError("entry features must be a vector")


@dataclass
class GroundTruthMatch:
    """Result of a similarity query that crossed the confidence level."""

    system: SystemParams
    distance: float
    threshold: float
    cluster: int
    source_workload: str


class GroundTruth:
    """The profile database plus its k-means similarity model."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.entries: List[GroundTruthEntry] = []
        self._model: Optional[KMeans] = None
        self._dirty = False
        #: cached (n, d) stack of entry features; rebuilt only when
        #: entries were added since the last refit/lookup.
        self._matrix: Optional[np.ndarray] = None
        #: per-cluster entry indices and feature matrices of the fitted
        #: model, so query() stops rebuilding them per lookup.
        self._cluster_idx: Dict[int, np.ndarray] = {}
        self._cluster_features: Dict[int, np.ndarray] = {}
        self._threshold = 0.0  # of the fitted model; set per refit

    # -- maintenance ----------------------------------------------------------
    def add(self, entry: GroundTruthEntry) -> None:
        self.entries.append(entry)
        self._dirty = True
        self._matrix = None

    def __len__(self) -> int:
        return len(self.entries)

    def _feature_matrix(self) -> np.ndarray:
        if self._matrix is None or len(self._matrix) != len(self.entries):
            self._matrix = np.array([e.features for e in self.entries])
        return self._matrix

    def refit(self) -> None:
        """(Re-)cluster the stored profiles (paper's re-clustering, §5.6)."""
        if len(self.entries) < MIN_ENTRIES:
            self._model = None
            self._dirty = False
            self._cluster_idx = {}
            self._cluster_features = {}
            return
        model = KMeans(k=K, seed=self.seed)
        matrix = self._feature_matrix()
        model.fit(matrix)
        self._model = model
        self._dirty = False
        rms = np.sqrt(model.inertia / len(self.entries))
        self._threshold = THRESHOLD_SCALE * max(rms, DISTANCE_FLOOR)
        labels = np.asarray(model.labels)
        self._cluster_idx = {}
        self._cluster_features = {}
        # Not np.unique: its first call imports numpy.ma.
        for cluster in sorted(set(labels.tolist())):
            idx = np.flatnonzero(labels == cluster)
            self._cluster_idx[int(cluster)] = idx
            self._cluster_features[int(cluster)] = matrix[idx]

    @property
    def model(self) -> Optional[KMeans]:
        if self._dirty:
            self.refit()
        return self._model

    # -- lookup -----------------------------------------------------------------
    @property
    def threshold(self) -> float:
        """Hit distance from the model's inertia (§5.6), set per refit."""
        return 0.0 if self.model is None else self._threshold

    def query(self, features: np.ndarray) -> Optional[GroundTruthMatch]:
        """Similarity lookup; None means "launch a probing phase".

        One centroid distance row gives both the cluster and distance.
        """
        model = self.model
        if model is None:
            return None
        features = np.asarray(features, dtype=float)
        labels, distances = model.nearest(features)
        cluster = int(labels[0])
        distance = float(distances[0])
        threshold = self.threshold
        if distance > threshold:
            return None
        # Nearest stored entry within the matched cluster decides the
        # configuration (batch-size regimes of one workload land on
        # different entries even inside one cluster).
        member_idx = self._cluster_idx.get(cluster)
        if member_idx is None or len(member_idx) == 0:
            return None
        members = self._cluster_features[cluster]
        nearest = int(
            member_idx[int(pairwise_sq_distances(features[None, :], members).argmin())]
        )
        entry = self.entries[nearest]
        return GroundTruthMatch(
            system=entry.best_system,
            distance=distance,
            threshold=threshold,
            cluster=cluster,
            source_workload=entry.workload_name,
        )
