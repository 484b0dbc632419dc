"""Shuffle-initialized Lloyd iteration with damped centroid updates.

The update rule for a non-empty cluster j is

    m_j <- (1 - damping) * m_j + damping * mean(rows assigned to j)

so ``damping = 1`` recovers textbook Lloyd.  Clusters left empty by an
assignment pass are reseeded to the row of the user currently farthest from
its own (freshly updated) centroid; a user donated this way is excluded from
further reseeding within the same iteration, so k never shrinks.

All ties break toward the lowest index: assignment prefers the lowest
centroid, reseeding the lowest user.

A run works on the survey's d distinct rows, since users with one row share
every distance.  Each row carries one label for all its users, and each
cluster keeps the weighted sums of its rows and its user count as exact
integers, changed only for rows whose label moved, so the mean is bit for
bit the mean of the cluster's user rows.  Reseeding donates the users a
run over all n user rows would, reading user order only on ties, and each
WCSS entry weighs the rows' distances by their users.

Assignment keeps, per row, a lower bound on its distance to every centroid
other than its own (Hamerly 2010): after each update the bound drops by the
largest shift among those centroids, the second largest for rows whose own
centroid moved most.  Every iteration measures each row's own-centroid
distance exactly, and only a row whose
``sqrt(own) * (1 + eps) < lower * (1 - eps)`` fails goes through the full
pass.  A row that skips has no other centroid within its bound, so no tie is
possible and its label is what the full pass would give.  The shifts are
widened by the same eps, so rounding in the decay never leaves a positive
bound where the exact one is zero.  The full pass screens all k centroids
with one GEMM of ``|c|^2 - 2 x.c``, the row with a 1 appended against
``-2 c`` with ``|c|^2`` appended; with rows and centroids in the unit cube
its rounding is far below a slack of ``eps * (m + 1)``, so every centroid
more than 2 slack above a row's screened minimum is farther than its
nearest.  A row with one centroid left takes it; a near-tie takes the
lowest-index minimum of the exact distances of the centroids left.  So labels
are the exact argmin, and the smallest screened distance of the other
centroids, less the slack, bounds the row's distance to them.

Silhouette scores 0/1 survey rows on their d distinct rows.  A sweep takes
one d x d Hamming matrix from ``model._hamming``, in bytes while m <= 255
(0.4 MB at d = 642), and each cell totals a distinct row's distances to
every cluster as ``sqrt(hamming) @ members``, where ``members[j, c]``
counts the users of row j in cluster c.  Between 0/1 rows sqrt(hamming) is
exactly the Euclidean distance, so a cell is within 1e-12 of the dense
n x n sums; only the order of the additions differs.  Labels may split
identical rows, so each (distinct row, label) pair is scored and weighed
by its users.  ``_silhouettes`` scores cells together, in the block shape
of one cell scored alone.

The sweep deals its (k, trial) cells into batches (``sweep``), which
``pool.map_cells`` scores across the CPUs once the matrix is built.  A
batch advances the k-means runs of all its cells together (``_run_batch``).
The cluster sums are exact integers, so each cell moves them by one GEMM of
its moved rows in any order, and each WCSS is summed over its own cell's
distances alone.  Each pass builds the screen terms of every cell once,
takes the own distances of as many cells together as fit one block, and
relabels the failing pairs in chunks of one cell's rows or of about two
blocks, each cell's pairs by one GEMM, so a batch holds O(cells * d) state
plus about two blocks.  A cell is thus computed exactly as ``run_kmeans``
and ``silhouette`` compute it alone, and the table is byte-identical
whatever the number of workers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np

from . import pool
from .model import _BLOCK_FLOATS, PreferenceMatrix, _block_rows, _hamming
from .seeding import derive_seed, generator

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
    return prefs.distinct.rows[prefs.distinct.inverse[order[:k]]].astype(np.float64)


def _spans(cells: np.ndarray) -> Iterator[tuple[int, int]]:
    """The start and end of each cell's pairs, given the cell of every pair sorted by cell."""
    starts = [] if cells[0] == cells[-1] else (np.flatnonzero(cells[1:] != cells[:-1]) + 1).tolist()
    edges = [0, *starts, len(cells)]
    return zip(edges, edges[1:])


def _nearest(
    lifted: np.ndarray,
    sq_norms: np.ndarray,
    centroids: np.ndarray,
    screen: np.ndarray,
    cells: np.ndarray,
    at: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Each (cell, row) pair's nearest centroid, lowest index on ties, and a lower bound on its distance to the others.

    Pair p is row ``at[p]`` of ``lifted``, each 0/1 row with a 1 appended,
    against ``centroids[cells[p]]``; the pairs come sorted by cell.
    ``sq_norms`` holds each row's ``|x|^2``, which only the bound needs, and
    ``screen`` each cell's terms from ``_screen``, built once per pass.  The
    pairs are screened into one (centroid, pair) array of ``|c|^2 - 2 x.c``,
    one GEMM per cell against its own terms, so the centroids past its k
    screen as +inf.  The screen's rounding is far below ``slack``, so only
    the centroids within 2 slack of a pair's screened minimum can be
    nearest; a pair with one takes it, and exact distances decide among
    several.  The bound is the smallest screened value of the centroids
    other than the lowest of those, less the slack.  Where the exact
    distances pick another one, that value is at most the lowest one's, or
    within rounding of it, so it bounds the lowest one too.
    """
    slack, x = _EPS * lifted.shape[1], lifted.take(at, axis=0)
    approx = np.empty((screen.shape[1], len(at)))
    for a, b in _spans(cells):  # each cell's pairs against its own centroids
        np.matmul(screen[cells[a]], x[a:b].T, out=approx[:, a:b])
    limit = approx.min(axis=0) + 2 * slack
    near = approx <= limit  # the only centroids that can be nearest
    labels = near.argmax(axis=0)  # the lowest of them
    approx[labels, np.arange(len(at))] = np.inf
    second = approx.min(axis=0)  # inf where k = 1
    tied = (second <= limit).nonzero()[0]
    if tied.size:  # the exact distances of the centroids within 2 slack of the minimum decide
        j, r = np.nonzero(near[:, tied])
        diff = x[tied[r], :-1]
        diff -= centroids[cells[tied[r]], j]
        exact = np.full((len(approx), tied.size), np.inf)
        exact[j, r] = np.einsum("ij,ij->i", diff, diff)
        labels[tied] = exact.argmin(axis=0)
    return labels, np.sqrt(np.maximum(second + sq_norms[at] - slack, 0.0))


def _update(
    centroids: np.ndarray, sums: np.ndarray, damping: np.ndarray, valid: np.ndarray, rows: np.ndarray,
    slots: np.ndarray, weights: np.ndarray, users: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Each cell's damped step from its clusters' row sums, weighted by users, whose last column counts the users.

    ``damping`` holds one value per cell, and only the clusters marked
    ``valid`` are a cell's own: the others stay zero.  Row j of cell c holds
    ``weights[j]`` users and is in the cluster at ``slots[c, j]`` of the
    cells' concatenated clusters.  Reseeding reads ``users(tied)``, the row
    of each user of the tied rows in user order, only to break a tie.
    """
    counts = sums[:, :, -1:]
    # The sums are exact integers, so a filled cluster's mean is bit for bit its mean user row.
    new = (1.0 - damping) * centroids + damping * (sums[:, :, :-1] / np.maximum(counts, 1.0))
    empty = (counts[:, :, 0] == 0) & valid
    for c in empty.any(axis=1).nonzero()[0]:
        dist_own = np.linalg.norm(rows - new.reshape(-1, rows.shape[1])[slots[c]], axis=1)
        donated = np.zeros(len(rows), dtype=np.int64)  # each row donates its users lowest first
        for j in empty[c].nonzero()[0]:
            far = np.where(donated < weights, dist_own, -np.inf)  # the rows with a user left to donate
            tied = np.flatnonzero(far == far.max())
            donor = tied[0]  # row 0, user 0's, once every user has donated, as only k > n leaves
            if len(tied) > 1 and far[donor] > -np.inf:  # the tied row whose lowest undonated user comes first
                order = users(tied)
                donor = min(tied, key=lambda r: np.flatnonzero(order == r)[donated[r]])
            new[c, j] = rows[donor]
            donated[donor] += 1
    return new


def _screen(centroids: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Each cell's ``_nearest`` screen terms: centroid j as ``-2 c_j``, then ``|c_j|^2``, or +inf if not ``valid``."""
    screen = np.empty((*centroids.shape[:2], centroids.shape[2] + 1))
    np.multiply(centroids, -2.0, out=screen[:, :, :-1])
    screen[:, :, -1] = np.einsum("cij,cij->ci", centroids, centroids)
    screen[:, :, -1][~valid] = np.inf
    return screen


def _run_batch(prefs: PreferenceMatrix, configs: list[KMeansConfig]) -> list[tuple]:
    """``run_kmeans`` for every config, advancing all the runs together one iteration at a time.

    Each run comes back as its centroids, one label per distinct row, its
    iteration count, whether it converged, and its WCSS trace, whose entries
    weigh its own distances alone by the users, whatever runs are beside it.

    Each live (run, distinct row) pair keeps its own label, Hamerly bound
    and own-centroid distance; the centroids of every run are padded to the
    largest k, and a pair's label is kept as its slot in the runs'
    concatenated centroids.  A run that settles or reaches its
    ``max_iters`` takes its final assignment with the next pass of the
    others and drops out.
    """
    rows, weights = prefs.distinct.rows.astype(np.float64), prefs.distinct.weights.astype(np.float64)
    (d, m), cells = rows.shape, len(configs)
    ids, ks = np.arange(cells), np.array([config.k for config in configs])
    damping = np.array([config.damping for config in configs])[:, None, None]
    max_iters = np.array([config.max_iters for config in configs])
    centroids = np.zeros((cells, ks.max(), m))
    for c, config in enumerate(configs):
        centroids[c, : config.k] = init_centroids(prefs, config.k, config.seed)
    slots = np.repeat(np.arange(cells) * ks.max(), d).reshape(cells, d)  # every row starts in cluster 0
    lower = np.zeros((cells, d))  # a zero bound sends every row through the first full pass
    own = np.empty((cells, d))
    sq_norms = rows.sum(axis=1)  # |x|^2 of a 0/1 row
    lifted = np.column_stack([rows, np.ones(d)])  # a 1 after each row meets the |c|^2 of the screen
    sums = np.zeros((cells, ks.max(), m + 1))
    sums[:, 0] = (lifted * weights[:, None]).sum(axis=0)
    stopped = converged = np.zeros(cells, dtype=bool)  # the runs whose next assignment is their last
    valid = np.arange(ks.max()) < ks[:, None]  # each run's own clusters
    traces: list[list[float]] = [[] for _ in configs]
    runs: list[tuple] = [()] * cells
    iteration = 0

    def assign() -> None:
        """Measure every pair's own distance and relabel, in chunks, the pairs failing the bound test."""
        flat, group = centroids.reshape(-1, m), _block_rows(d * m)
        for lo in range(0, len(ids), group):  # the differences of as many cells as fit one block
            diff = np.take(flat, slots[lo : lo + group], axis=0, mode="clip")
            np.subtract(rows, diff, out=diff)
            np.einsum("cij,cij->ci", diff, diff, out=own[lo : lo + group])
            del diff
        test = np.sqrt(own)
        test *= 1 + _EPS
        full = (test >= lower * (1 - _EPS)).reshape(-1).nonzero()[0]
        del test
        screen = _screen(centroids, valid)
        chunk = max(d, 2 * _block_rows(2 * centroids.shape[1] + 4 * m))  # two blocks of screens, rows, ties and sums
        for lo in range(0, len(full), chunk):
            relabel(full[lo : lo + chunk], screen)

    def relabel(pairs: np.ndarray, screen: np.ndarray) -> None:
        """Relabel the pairs, refresh their ``lower`` and ``own``, and move their users' sums."""
        flat, width = centroids.reshape(-1, m), centroids.shape[1]
        cell, at = np.divmod(pairs, d) if len(ids) > 1 else (np.zeros_like(pairs), pairs)
        label, lower.reshape(-1)[pairs] = _nearest(lifted, sq_norms, centroids, screen, cell, at)
        base = cell * width
        changed = (label + base != slots.reshape(-1)[pairs]).nonzero()[0]
        if not changed.size:
            return
        pairs, at, label, base, cell = pairs[changed], at[changed], label[changed], base[changed], cell[changed]
        old, slots.reshape(-1)[pairs] = slots.reshape(-1)[pairs] - base, label + base
        diff = rows[at] - flat[label + base]
        own.reshape(-1)[pairs] = np.einsum("ij,ij->i", diff, diff)
        # In at its new cluster, out at its old, by one GEMM per cell: the sums are exact integers.
        clusters = np.arange(width)[:, None]
        step = (label == clusters).astype(np.float64)
        step -= old == clusters
        moved = lifted[at] * weights[at, None]
        for a, b in _spans(cell):
            sums[cell[a]] += step[:, a:b] @ moved[a:b]

    while len(ids):
        assign()
        if stopped.any():
            width = centroids.shape[1]
            for c in np.flatnonzero(stopped):
                final = centroids[c, : ks[c]].copy(), slots[c] - c * width  # copies, so the batch's state can be freed
                runs[ids[c]] = (*final, iteration, bool(converged[c]), traces[ids[c]])
            keep = ~stopped
            ids, ks, damping, max_iters, slots, lower, own = (
                a[keep] for a in (ids, ks, damping, max_iters, slots, lower, own))
            if not len(ids):
                break
            centroids, sums = centroids[keep, : ks.max()], sums[keep, : ks.max()]
            slots += (np.arange(len(ids)) * ks.max() - np.flatnonzero(keep) * width)[:, None]
            valid = np.arange(ks.max()) < ks[:, None]
        iteration += 1
        new = _update(centroids, sums, damping, valid, rows, slots, weights, prefs.distinct.user_rows)
        step = new - centroids
        shifts = np.sqrt((step * step).sum(axis=2))  # bit for bit np.linalg.norm(step, axis=1) of each run
        centroids = new
        top, largest = shifts.argmax(axis=1), shifts.max(axis=1)
        decay = np.repeat(largest, shifts.shape[1])  # each row's bound falls by its run's largest shift,
        if shifts.shape[1] > 1:  # or by the runner-up where its own centroid moved most
            decay[np.arange(len(ids)) * shifts.shape[1] + top] = np.partition(shifts, -2, axis=1)[:, -2]
        decay *= 1 + _EPS
        lower -= decay[slots]
        converged = largest < _TOL
        stopped = converged | (max_iters == iteration)
        for c in range(len(ids)):  # not BLAS's dot, which splits a long row across its threads
            traces[ids[c]].append(float(np.einsum("i,i->", own[c], weights)))
    return runs


def run_kmeans(prefs: PreferenceMatrix, config: KMeansConfig) -> KMeansRun:
    """Alternate assignment and damped updates until the centroids settle.

    Stops when the largest per-centroid shift drops below ``_TOL`` or
    after ``config.max_iters`` iterations; a final assignment pass keeps idx
    consistent with the returned centroids.  ``wcss_trace`` records, per
    iteration, the within-cluster sum of squared distances measured right
    after the assignment step, against the centroids it assigned to.
    """
    centroids, labels, iterations, converged, trace = _run_batch(prefs, [config])[0]
    idx = labels[prefs.distinct.inverse]
    centroids.flags.writeable = idx.flags.writeable = False
    return KMeansRun(centroids, idx, iterations, converged, tuple(trace), config)


def _widths(
    sums: np.ndarray, labels: np.ndarray, users: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Silhouette widths of p groups of coincident users, and each cluster's mean width.

    Group g holds ``users[g]`` users of cluster ``labels[g]``, and ``sums[g, c]``
    totals the distances from one of them to every user of cluster c.
    """
    onehot = labels[:, None] == np.arange(len(sizes))
    own = sizes[labels]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = sums[onehot] / np.maximum(own - 1, 1)
        b = np.where(onehot | (sizes == 0), np.inf, sums / sizes).min(axis=1)
        denom = np.maximum(a, b)
        width = np.where((own == 1) | (denom == 0.0), 0.0, (b - a) / denom)
        per_cluster = np.bincount(labels, weights=width * users, minlength=len(sizes)) / sizes
    return width, per_cluster


def _silhouettes(
    ham: np.ndarray, cells: list[tuple[np.ndarray, np.ndarray | None, int]]
) -> Iterator[tuple[np.ndarray, np.ndarray, float]]:
    """Silhouette widths of clusterings scored on the d distinct rows, given their d x d Hamming matrix.

    Cell ``(keys, weights, k)`` puts ``weights[i]`` users (one where
    ``weights`` is None) of distinct row ``keys[i] // k`` in cluster
    ``keys[i] % k``.  Labels may split identical rows, so each (distinct row,
    label) pair is scored once and weighs as many users as it holds.  The
    distance between rows h items apart is sqrt(h), exactly what the dense
    sums read.  Per cell this yields every pair's width by key (0 where the
    pair holds no user), each cluster's mean width and their macro average.

    The cells are scored in groups whose member counts and sums fit in half
    a block or in half the matrix's bytes.  Each block of rows takes its
    distances once per group, and each cell multiplies them by its own
    member counts in the same block shape, so a cell's sums do not depend on
    the cells scored beside it.
    """
    d, step = len(ham), _block_rows(len(ham))
    budget = max(_BLOCK_FLOATS // 2, ham.nbytes // 16) // 2  # a group's counts, which its sums double
    start = 0
    while start < len(cells):
        end, held = start + 1, d * cells[start][2]
        while end < len(cells) and held + d * cells[end][2] <= budget:
            held, end = held + d * cells[end][2], end + 1
        members = []  # members[j, c]: users of row j in cluster c
        for keys, weights, k in cells[start:end]:
            counts = np.bincount(keys, weights, minlength=d * k).reshape(d, k).astype(np.float64, copy=False)
            if int((counts.sum(axis=0) > 0).sum()) < 2:
                raise ValueError("silhouette needs at least 2 non-empty clusters")
            members.append(counts)
        sums = [np.empty_like(counts) for counts in members]
        for lo in range(0, d, step):
            block = np.sqrt(ham[lo : lo + step], dtype=np.float64)  # correctly rounded: sqrt(h) of a float h
            for counts, total in zip(members, sums):
                total[lo : lo + step] = block @ counts
            del block  # else the next block is made while this one is alive
        while members:  # each group's arrays are freed before the next group's are made
            counts, total = members.pop(0), sums.pop(0)
            k, sizes = counts.shape[1], counts.sum(axis=0)  # exact: every count is an integer
            pairs = np.flatnonzero(counts)
            row, label = np.divmod(pairs, k)
            width, per_cluster = _widths(total[row], label, counts.ravel()[pairs], sizes)
            by_key = np.zeros(d * k)
            by_key[pairs] = width
            del counts, total
            yield by_key, per_cluster, float(per_cluster[sizes > 0].mean())
        start = end


def silhouette(prefs: PreferenceMatrix, run: KMeansRun) -> SilhouetteReport:
    """Silhouette widths of a run's labels on the 0/1 survey rows.

    s(i) = (b - a) / max(a, b) with a the mean Euclidean distance to the rest
    of i's cluster and b the smallest mean distance to another non-empty
    cluster.  Singletons score 0, as does the 0/0 case of coincident rows.
    Each width is within 1e-12 of an O(n^2) brute force over the user rows.
    It scores the distinct rows with the same core and blocks as ``sweep``,
    so a sweep cell equals this run's macro average exactly.
    """
    labels, n, k = np.asarray(run.idx), prefs.n, run.k
    if labels.shape != (n,) or labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be {n} integer cluster ids, got {labels.dtype} of shape {labels.shape}")
    if labels.size and not 0 <= labels.min() <= labels.max() < k:
        raise ValueError(f"labels must lie in 0..{k - 1}, got {labels.min()}..{labels.max()}")
    labels = labels.astype(np.intp, copy=False)  # uint64 plus int64 would be float64
    rows, keys = prefs.distinct.rows, prefs.distinct.inverse * k + labels
    ham = _hamming(rows, rows, np.min_scalar_type(prefs.m))
    by_key, per_cluster, macro = next(_silhouettes(ham, [(keys, None, k)]))
    per_user = by_key[keys]
    per_user.flags.writeable = per_cluster.flags.writeable = False
    return SilhouetteReport(per_user, per_cluster, macro)


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
    the whole table is a pure function of the config seed.  The cells are
    dealt round-robin, largest k first, into one batch per usable CPU, since
    a run's cost grows with k.  A batch holds at most one block of (cell,
    distinct row) pairs, so a large sweep is dealt into more batches, as
    many for each worker.
    """
    if not 2 <= config.k <= k_max <= prefs.n:
        raise ValueError(f"need 2 <= config.k <= k_max <= n, got {config.k}..{k_max} with n={prefs.n}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    k_values = tuple(range(config.k, k_max + 1))
    ham = _hamming(prefs.distinct.rows, prefs.distinct.rows, np.min_scalar_type(prefs.m))

    def score(batch: list[tuple[int, int]]) -> list[tuple[float, int, bool, float]]:
        runs = _run_batch(prefs, [replace(config, k=k, seed=seed) for k, seed in batch])
        rows = np.arange(len(ham))
        cells = [(rows * k + labels, prefs.distinct.weights, k) for (k, _), (_, labels, *_) in zip(batch, runs)]
        scores = _silhouettes(ham, cells)
        return [(macro, iters, done, trace[-1]) for (*_, macro), (_, _, iters, done, trace) in zip(scores, runs)]

    cells = [(k, derive_seed(config.seed, "sweep", k, t)) for k in k_values for t in range(trials)][::-1]
    # As many batches for each worker, and as few, as keep each within a block of (cell, distinct row) pairs.
    workers = pool.workers(len(cells))
    count = min(len(cells), workers * -(-len(cells) // (workers * _block_rows(len(ham)))))
    batches = pool.map_cells(score, [cells[b::count] for b in range(count)])
    results = [batches[i % count][i // count] for i in range(len(cells))][::-1]  # back from largest k first
    columns = [np.array(column).reshape(len(k_values), trials) for column in zip(*results)]
    for arr in columns:
        arr.flags.writeable = False
    return SweepTable(k_values, *columns)
