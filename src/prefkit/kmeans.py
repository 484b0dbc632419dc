"""Shuffle-initialized Lloyd iteration with damped centroid updates.

The update rule for a non-empty cluster j is

    m_j <- (1 - damping) * m_j + damping * mean(rows assigned to j)

so ``damping = 1`` recovers textbook Lloyd.  Clusters left empty by an
assignment pass are reseeded to the row currently farthest from its own
(freshly updated) centroid; a row donated this way is excluded from further
reseeding within the same iteration, so k never shrinks.

All ties break toward the lowest index: assignment prefers the lowest
centroid, kit extraction the lowest item id, reseeding the lowest row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .kits import Kit, select_items
from .model import ItemCatalog, PreferenceMatrix, SelectionConstraint
from .seeding import derive_seed, generator


@dataclass(frozen=True)
class KMeansConfig:
    k: int
    damping: float = 0.3
    max_iters: int = 100
    seed: int = 0
    tol: float = 1e-6

    def __post_init__(self) -> None:
        if not 0 < self.damping <= 1:
            raise ValueError("damping must lie in (0, 1]")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True, eq=False)
class KMeansRun:
    """Result of one clustering run; idx[i] is user i's nearest centroid."""

    centroids: np.ndarray
    idx: np.ndarray
    iterations_used: int
    converged: bool
    wcss_trace: tuple[float, ...]
    config: KMeansConfig

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


@dataclass(frozen=True, eq=False)
class SilhouetteReport:
    """Per-user widths s(i), per-cluster means, and their macro average.

    Empty clusters carry NaN in ``per_cluster`` and are excluded from the
    macro average (the mean of per-cluster means over non-empty clusters).
    """

    per_user: np.ndarray
    per_cluster: np.ndarray
    macro_average: float


def init_centroids(prefs: PreferenceMatrix, k: int, seed: int) -> np.ndarray:
    """First k rows of a seeded uniform permutation of the user rows."""
    if k > prefs.n:
        raise ValueError(f"k={k} exceeds number of users {prefs.n}")
    order = generator(seed).permutation(prefs.n)
    return prefs.data[order[:k]].astype(np.float64)


def find_closest_centroids(prefs: PreferenceMatrix, centroids: np.ndarray) -> np.ndarray:
    """Assign each user to its nearest centroid under Euclidean distance."""
    centroids = np.asarray(centroids, dtype=np.float64)
    if centroids.ndim != 2 or centroids.shape[0] < 1:
        raise ValueError("at least one centroid is required")
    if centroids.shape[1] != prefs.m:
        raise ValueError("centroid width must match item count")
    d2 = _sq_distances(prefs.data.astype(np.float64), centroids)
    return np.argmin(d2, axis=1)


def _sq_distances(rows: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # Full differences (not the expanded dot-product form) so exact
    # equidistant cases tie exactly and break toward the lowest index.
    diff = rows[:, None, :] - centroids[None, :, :]
    return np.einsum("ikj,ikj->ik", diff, diff)


def compute_centroids(
    prefs: PreferenceMatrix,
    idx: np.ndarray,
    centroids_prev: np.ndarray,
    damping: float,
) -> np.ndarray:
    """One damped update; empty clusters are reseeded from the farthest rows."""
    k = centroids_prev.shape[0]
    rows = prefs.data.astype(np.float64)
    centroids = np.array(centroids_prev, dtype=np.float64, copy=True)
    empties = []
    for j in range(k):
        members = idx == j
        if members.any():
            mean = rows[members].mean(axis=0)
            centroids[j] = (1.0 - damping) * centroids[j] + damping * mean
        else:
            empties.append(j)
    if empties:
        dist_own = np.linalg.norm(rows - centroids[idx], axis=1)
        donated = np.zeros(prefs.n, dtype=bool)
        for j in empties:
            masked = np.where(donated, -np.inf, dist_own)
            donor = int(np.argmax(masked))
            centroids[j] = rows[donor]
            donated[donor] = True
    return centroids


def run_kmeans(prefs: PreferenceMatrix, config: KMeansConfig) -> KMeansRun:
    """Alternate assignment and damped updates until the centroids settle.

    Stops when the largest per-centroid shift drops below ``config.tol`` or
    after ``config.max_iters`` iterations; a final assignment pass keeps idx
    consistent with the returned centroids.  ``wcss_trace`` records, per
    iteration, the within-cluster sum of squared distances measured right
    after the assignment step.
    """
    if config.k > prefs.n:
        raise ValueError(f"k={config.k} exceeds number of users {prefs.n}")
    rows = prefs.data.astype(np.float64)
    centroids = init_centroids(prefs, config.k, config.seed)
    trace: list[float] = []
    converged = False
    iterations = 0
    for _ in range(config.max_iters):
        iterations += 1
        d2 = _sq_distances(rows, centroids)
        idx = np.argmin(d2, axis=1)
        trace.append(float(d2[np.arange(prefs.n), idx].sum()))
        new_centroids = compute_centroids(prefs, idx, centroids, config.damping)
        shift = float(np.linalg.norm(new_centroids - centroids, axis=1).max())
        centroids = new_centroids
        if shift < config.tol:
            converged = True
            break
    idx = find_closest_centroids(prefs, centroids)
    centroids.flags.writeable = False
    idx.flags.writeable = False
    return KMeansRun(
        centroids=centroids,
        idx=idx,
        iterations_used=iterations,
        converged=converged,
        wcss_trace=tuple(trace),
        config=config,
    )


def kits_from_centroids(
    run: KMeansRun,
    catalog: ItemCatalog,
    constraint: SelectionConstraint,
    constrained: bool = False,
) -> list[Kit]:
    """Extract one kit per centroid from its largest coordinates."""
    return [
        Kit(kit_id=j, items=frozenset(select_items(run.centroids[j], catalog, constraint, constrained)))
        for j in range(run.k)
    ]


def silhouette_from_labels(data: np.ndarray, labels: np.ndarray, k: int) -> SilhouetteReport:
    """Silhouette widths for an arbitrary labeling of ``data`` rows.

    s(i) = (b - a) / max(a, b) with a the mean distance to the rest of i's
    cluster and b the smallest mean distance to another non-empty cluster.
    Singletons score 0, as does the 0/0 case of coincident points.
    """
    data = np.asarray(data, dtype=np.float64)
    labels = np.asarray(labels)
    n = data.shape[0]
    sizes = np.bincount(labels, minlength=k)
    if int((sizes > 0).sum()) < 2:
        raise ValueError("silhouette needs at least 2 non-empty clusters")
    diff = data[:, None, :] - data[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    per_user = np.zeros(n, dtype=np.float64)
    for i in range(n):
        own = labels[i]
        if sizes[own] == 1:
            continue
        a = dist[i, labels == own].sum() / (sizes[own] - 1)
        b = min(
            dist[i, labels == j].mean()
            for j in range(k)
            if j != own and sizes[j] > 0
        )
        denom = max(a, b)
        per_user[i] = 0.0 if denom == 0.0 else (b - a) / denom
    per_cluster = np.full(k, np.nan)
    for j in range(k):
        if sizes[j] > 0:
            per_cluster[j] = per_user[labels == j].mean()
    macro = float(per_cluster[sizes > 0].mean())
    for arr in (per_user, per_cluster):
        arr.flags.writeable = False
    return SilhouetteReport(per_user=per_user, per_cluster=per_cluster, macro_average=macro)


def silhouette(prefs: PreferenceMatrix, run: KMeansRun) -> SilhouetteReport:
    return silhouette_from_labels(prefs.data, run.idx, run.k)


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Macro-averaged silhouette per (k, trial); one row per k."""

    k_values: tuple[int, ...]
    scores: np.ndarray

    @property
    def trials(self) -> int:
        return self.scores.shape[1]


def sweep(
    prefs: PreferenceMatrix,
    config: KMeansConfig,
    k_min: int = 4,
    k_max: int = 15,
    trials: int = 3,
) -> SweepTable:
    """Run independent seeded trials for every k in [k_min, k_max].

    Cell (k, t) uses the seed ``derive_seed(config.seed, "sweep", k, t)`` so
    the whole table is a pure function of the config seed.
    """
    if not 2 <= k_min <= k_max <= prefs.n:
        raise ValueError(f"need 2 <= k_min <= k_max <= n, got {k_min}..{k_max} with n={prefs.n}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    k_values = tuple(range(k_min, k_max + 1))
    scores = np.zeros((len(k_values), trials))
    for row, k in enumerate(k_values):
        for t in range(trials):
            cell = replace(config, k=k, seed=derive_seed(config.seed, "sweep", k, t))
            run = run_kmeans(prefs, cell)
            scores[row, t] = silhouette(prefs, run).macro_average
    scores.flags.writeable = False
    return SweepTable(k_values=k_values, scores=scores)
