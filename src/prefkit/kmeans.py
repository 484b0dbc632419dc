"""Shuffle-initialized Lloyd iteration with damped centroid updates.

The update rule for a non-empty cluster j is

    m_j <- (1 - damping) * m_j + damping * mean(rows assigned to j)

so ``damping = 1`` recovers textbook Lloyd.  Clusters left empty by an
assignment pass are reseeded to the row currently farthest from its own
(freshly updated) centroid; a row donated this way is excluded from further
reseeding within the same iteration, so k never shrinks.

All ties break toward the lowest index: assignment prefers the lowest
centroid, reseeding the lowest row.

Assignment keeps, per row, a lower bound on its distance to every centroid
other than its own (Hamerly 2010): after each update the bound drops by the
largest shift among those centroids, the second largest for rows whose own
centroid moved most.  Every iteration measures each row's own-centroid
distance exactly, and only a row whose ``sqrt(own) * (1 + eps) < lower *
(1 - eps)`` fails gets all k distances.  A row that skips has no other
centroid within its bound, so no tie is possible and its label is what the
full pass would give; near-ties go through the full pass and its lowest-index
``argmin``.  The shifts are widened by the same eps, so rounding in the
decay never leaves a positive bound where the exact one is zero.

Silhouette reads an n x n distance matrix built in row blocks, so its memory
is O(n^2), not O(n^2 * m); a sweep builds it once for all its cells.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import PreferenceMatrix
from .seeding import derive_seed, generator

_BLOCK_FLOATS = 2**20  # row differences per block (8 MB), never all n x n x m
_EPS = 1e-9  # relative slack of the assignment bounds
_TOL = 1e-6  # convergence: the largest centroid shift falls below this


@dataclass(frozen=True)
class KMeansConfig:
    k: int
    damping: float = 0.3
    max_iters: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.damping <= 1:
            raise ValueError("damping must lie in (0, 1]")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


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


def _sq_distances(rows: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # Full differences (not the expanded dot-product form) so exact
    # equidistant cases tie exactly and break toward the lowest index.
    diff = rows[:, None, :] - centroids[None, :, :]
    return np.einsum("ikj,ikj->ik", diff, diff)


def _update(rows: np.ndarray, idx: np.ndarray, centroids_prev: np.ndarray, damping: float) -> np.ndarray:
    k = centroids_prev.shape[0]
    counts = np.bincount(idx, minlength=k)
    filled = counts > 0
    # 0/1 rows sum exactly, so this is bit for bit each cluster's mean row.
    means = ((idx == np.arange(k)[:, None]) @ rows)[filled] / counts[filled, None]
    centroids = np.array(centroids_prev, dtype=np.float64, copy=True)
    centroids[filled] = (1.0 - damping) * centroids[filled] + damping * means
    empties = np.flatnonzero(~filled)
    if empties.size:
        dist_own = np.linalg.norm(rows - centroids[idx], axis=1)
        donated = np.zeros(len(rows), dtype=bool)
        for j in empties:
            masked = np.where(donated, -np.inf, dist_own)
            donor = int(np.argmax(masked))
            centroids[j] = rows[donor]
            donated[donor] = True
    return centroids


def _assign(rows: np.ndarray, centroids: np.ndarray, idx: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Relabel rows in idx and refresh their bounds in place; return each row's own squared distance."""
    diff = rows[:, None, :] - centroids[idx][:, None, :]
    own = np.einsum("ikj,ikj->ik", diff, diff)[:, 0]
    full = np.flatnonzero(~(np.sqrt(own) * (1 + _EPS) < lower * (1 - _EPS)))
    d2 = _sq_distances(rows[full], centroids)
    idx[full] = np.argmin(d2, axis=1)
    own[full] = d2[np.arange(full.size), idx[full]]
    lower[full] = np.sqrt(np.partition(d2, 1, axis=1)[:, 1]) if len(centroids) > 1 else np.inf
    return own


def run_kmeans(prefs: PreferenceMatrix, config: KMeansConfig) -> KMeansRun:
    """Alternate assignment and damped updates until the centroids settle.

    Stops when the largest per-centroid shift drops below ``_TOL`` or
    after ``config.max_iters`` iterations; a final assignment pass keeps idx
    consistent with the returned centroids.  ``wcss_trace`` records, per
    iteration, the within-cluster sum of squared distances measured right
    after the assignment step.
    """
    if config.k > prefs.n:
        raise ValueError(f"k={config.k} exceeds number of users {prefs.n}")
    rows = prefs.data.astype(np.float64)
    centroids = init_centroids(prefs, config.k, config.seed)
    idx = np.zeros(prefs.n, dtype=np.intp)
    lower = np.zeros(prefs.n)  # a zero bound sends every row through the first full pass
    trace: list[float] = []
    converged = False
    iterations = 0
    for _ in range(config.max_iters):
        iterations += 1
        trace.append(float(_assign(rows, centroids, idx, lower).sum()))
        new_centroids = _update(rows, idx, centroids, config.damping)
        shifts = np.linalg.norm(new_centroids - centroids, axis=1)
        centroids = new_centroids
        top = int(np.argmax(shifts))
        runner_up = np.partition(shifts, -2)[-2] if config.k > 1 else 0.0
        lower -= np.where(idx == top, runner_up, shifts[top]) * (1 + _EPS)
        if shifts[top] < _TOL:
            converged = True
            break
    _assign(rows, centroids, idx, lower)
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


def _pairwise_distances(data: np.ndarray) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    dist = np.empty((len(data), len(data)))
    step = max(1, _BLOCK_FLOATS // max(1, data.size))
    for lo in range(0, len(data), step):
        dist[lo : lo + step] = np.sqrt(_sq_distances(data[lo : lo + step], data))
    return dist


def _silhouette(dist: np.ndarray, labels: np.ndarray, k: int) -> SilhouetteReport:
    labels = np.asarray(labels)
    sizes = np.bincount(labels, minlength=k)
    if int((sizes > 0).sum()) < 2:
        raise ValueError("silhouette needs at least 2 non-empty clusters")
    onehot = labels[:, None] == np.arange(k)
    sums = dist @ onehot  # sums[i, j]: total distance from user i to cluster j
    own = sizes[labels]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = sums[onehot] / np.maximum(own - 1, 1)
        b = np.where(onehot | (sizes == 0), np.inf, sums / sizes).min(axis=1)
        denom = np.maximum(a, b)
        per_user = np.where((own == 1) | (denom == 0.0), 0.0, (b - a) / denom)
        per_cluster = np.bincount(labels, weights=per_user, minlength=k) / sizes
    for arr in (per_user, per_cluster):
        arr.flags.writeable = False
    return SilhouetteReport(per_user, per_cluster, float(per_cluster[sizes > 0].mean()))


def silhouette_from_labels(data: np.ndarray, labels: np.ndarray, k: int) -> SilhouetteReport:
    """Silhouette widths for an arbitrary labeling of ``data`` rows.

    s(i) = (b - a) / max(a, b) with a the mean distance to the rest of i's
    cluster and b the smallest mean distance to another non-empty cluster.
    Singletons score 0, as does the 0/0 case of coincident points.
    """
    labels, n = np.asarray(labels), len(data)
    if labels.shape != (n,) or labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be {n} integer cluster ids, got {labels.dtype} of shape {labels.shape}")
    if labels.size and not 0 <= labels.min() <= labels.max() < k:
        raise ValueError(f"labels must lie in 0..{k - 1}, got {labels.min()}..{labels.max()}")
    return _silhouette(_pairwise_distances(data), labels, k)


def silhouette(prefs: PreferenceMatrix, run: KMeansRun) -> SilhouetteReport:
    return silhouette_from_labels(prefs.data, run.idx, run.k)


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Per (k, trial) cell, one row per k: macro silhouette and k-means diagnostics."""

    k_values: tuple[int, ...]
    scores: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    wcss: np.ndarray

    @property
    def trials(self) -> int:
        return self.scores.shape[1]


def sweep(
    prefs: PreferenceMatrix,
    config: KMeansConfig,
    k_max: int = 15,
    trials: int = 3,
) -> SweepTable:
    """Run independent seeded trials for every k from ``config.k`` to ``k_max``.

    Cell (k, t) uses the seed ``derive_seed(config.seed, "sweep", k, t)`` so
    the whole table is a pure function of the config seed.
    """
    if not 2 <= config.k <= k_max <= prefs.n:
        raise ValueError(f"need 2 <= config.k <= k_max <= n, got {config.k}..{k_max} with n={prefs.n}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    k_values = tuple(range(config.k, k_max + 1))
    dist = _pairwise_distances(prefs.data)
    cells = []
    for k in k_values:
        for t in range(trials):
            run = run_kmeans(prefs, replace(config, k=k, seed=derive_seed(config.seed, "sweep", k, t)))
            score = _silhouette(dist, run.idx, k).macro_average
            cells.append((score, run.iterations_used, run.converged, run.wcss_trace[-1]))
    columns = [np.array(column).reshape(len(k_values), trials) for column in zip(*cells)]
    for arr in columns:
        arr.flags.writeable = False
    return SweepTable(k_values, *columns)
