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
bit the mean of the cluster's user rows.  Each WCSS entry gathers the rows'
distances to the users and sums them in user order, and reseeding picks its
donor users the same way, so both read exactly what a run over all n user
rows would.

Assignment keeps, per row, a lower bound on its distance to every centroid
other than its own (Hamerly 2010): after each update the bound drops by the
largest shift among those centroids, the second largest for rows whose own
centroid moved most.  Every iteration measures each row's own-centroid
distance exactly, into one preallocated buffer, and only a row whose
``sqrt(own) * (1 + eps) < lower * (1 - eps)`` fails goes through the full
pass.  A row that skips has no other centroid within its bound, so no tie is
possible and its label is what the full pass would give.  The shifts are
widened by the same eps, so rounding in the decay never leaves a positive
bound where the exact one is zero.  The full pass screens all k centroids
with one GEMM of ``|c|^2 - 2 x.c``; with rows and centroids in the unit cube
its rounding is far below a slack of ``eps * (m + 1)``, so every centroid
more than 2 slack above a row's screened minimum is farther than its
nearest.  A row with one centroid left takes it; a near-tie takes the
lowest-index minimum of the exact distances of the centroids left.  So labels
are the exact argmin, and the screened second distance, less the slack,
bounds the row's distance to the others.

Silhouette scores 0/1 survey rows on their d distinct rows.  A sweep builds
one d x d Hamming matrix in row blocks, in bytes while m <= 255 (0.4 MB at
d = 642), and each cell totals a distinct row's distances to every cluster as
``sqrt(hamming) @ members``, where ``members[j, c]`` counts the users of row j
in cluster c.  Between 0/1 rows sqrt(hamming) is exactly the Euclidean
distance, so a cell is within 1e-12 of the dense n x n sums; only the order
of the additions differs.  Labels may split identical rows, so each
(distinct row, label) pair is scored and weighed by its users.  The sweep
then scores its (k, trial) cells in up to one process per usable CPU, forked
after the matrix is built: each worker holds only its own k-means and
silhouette temporaries and shares the matrix copy-on-write.  The cells wait
in one queue, largest k first since a run's cost grows with k, and each
worker pulls the next one when it is free, so a faster CPU scores more of
them.  Every cell runs the same code on the same inputs, so the table is
byte-identical to a one-process sweep.  Where ``os.fork`` or the CPU affinity
is missing, the sweep runs in-process.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
from dataclasses import dataclass, replace
from typing import Callable, NoReturn

import numpy as np

from .errors import PrefkitError
from .model import PreferenceMatrix
from .seeding import derive_seed, generator

_BLOCK_FLOATS = 2**16  # float64 entries per block (512 KB) of d x d rows
_EPS = 1e-9  # relative slack of the assignment bounds
_TOL = 1e-6  # convergence: the largest centroid shift falls below this
_RECORD = struct.Struct("=I")  # one record of the sweep's cell queue
_QUEUE_RECORDS = 1024  # records in the queue at most: 4 KiB, within the capacity of any pipe


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
    rows, _, inverse, _ = prefs.distinct
    return rows[inverse[order[:k]]].astype(np.float64)


def _nearest(rows: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nearest centroid, lowest index on ties, and a lower bound on its distance to the others.

    ``sq_norms`` holds each row's ``|x|^2``, which only the bound needs.  The
    screen's rounding is far below ``slack``, so where the exact distances
    pick another centroid than the screen does, the two screened values lie
    within rounding of each other, and the screened second value, less the
    slack, still bounds the distance to every centroid but the label.
    """
    slack = _EPS * (rows.shape[1] + 1)
    approx = centroids @ rows.T
    approx *= -2.0
    approx += np.einsum("ij,ij->i", centroids, centroids)[:, None]
    labels = approx.argmin(axis=0)
    cols = np.arange(len(rows))
    best = approx[labels, cols]
    approx[labels, cols] = np.inf
    second = approx.min(axis=0)  # inf where k = 1
    tied = np.flatnonzero(second <= best + 2 * slack)
    if tied.size:  # the exact distances of the centroids within 2 slack of the minimum decide
        approx[labels[tied], tied] = best[tied]
        c, r = np.nonzero(approx[:, tied] <= best[tied] + 2 * slack)
        diff = rows[tied[r]] - centroids[c]
        exact = np.full((len(centroids), tied.size), np.inf)
        exact[c, r] = np.einsum("ij,ij->i", diff, diff)
        labels[tied] = exact.argmin(axis=0)
    return labels, np.sqrt(np.maximum(second + sq_norms - slack, 0.0))


def _update(
    centroids: np.ndarray, sums: np.ndarray, damping: float, rows: np.ndarray, labels: np.ndarray, inverse: np.ndarray
) -> np.ndarray:
    """The damped step from each cluster's row sums, weighted by users, whose last column counts its users."""
    counts = sums[:, -1:]
    # The sums are exact integers, so a filled cluster's mean is bit for bit its mean user row.
    new = (1.0 - damping) * centroids + damping * (sums[:, :-1] / np.maximum(counts, 1.0))
    empties = np.flatnonzero(counts == 0)
    if empties.size:
        dist_own = np.linalg.norm(rows - new[labels], axis=1)[inverse]
        donated = np.zeros(len(inverse), dtype=bool)
        for j in empties:
            donor = int(np.argmax(np.where(donated, -np.inf, dist_own)))
            new[j] = rows[inverse[donor]]
            donated[donor] = True
    return new


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
    distinct = prefs.distinct
    rows = distinct.rows.astype(np.float64)
    d, k = len(rows), config.k
    centroids = init_centroids(prefs, k, config.seed)
    labels = np.zeros(d, dtype=np.intp)
    lower = np.zeros(d)  # a zero bound sends every row through the first full pass
    own, diff = np.empty(d), np.empty_like(rows)
    sq_norms = rows.sum(axis=1)  # |x|^2 of a 0/1 row
    weighted = np.column_stack([rows, np.ones(d)]) * distinct.weights[:, None]
    sums = np.zeros((k, weighted.shape[1]))
    sums[0] = weighted.sum(axis=0)  # every row starts in cluster 0
    clusters = np.arange(k)[:, None]

    def assign() -> tuple[np.ndarray, np.ndarray]:
        """Relabel the rows failing the bound test, refresh ``lower`` and ``own``; return the moved rows, old labels."""
        np.take(centroids, labels, axis=0, out=diff, mode="clip")
        np.subtract(rows, diff, out=diff)
        np.einsum("ij,ij->i", diff, diff, out=own)
        full = np.flatnonzero(np.sqrt(own) * (1 + _EPS) >= lower * (1 - _EPS))
        if not full.size:
            return full, full
        near, lower[full] = _nearest(rows[full], sq_norms[full], centroids)
        changed = near != labels[full]
        moved, old = full[changed], labels[full[changed]]
        labels[moved] = near[changed]
        moved_diff = rows[moved] - centroids[near[changed]]
        own[moved] = np.einsum("ij,ij->i", moved_diff, moved_diff)
        return moved, old

    trace: list[float] = []
    converged = False
    iterations = 0
    for _ in range(config.max_iters):
        iterations += 1
        moved, old = assign()
        trace.append(float(own[distinct.inverse].sum()))
        if moved.size:
            sums += ((labels[moved] == clusters).astype(np.float64) - (old == clusters)) @ weighted[moved]
        new_centroids = _update(centroids, sums, config.damping, rows, labels, distinct.inverse)
        step = new_centroids - centroids
        shifts = np.sqrt((step * step).sum(axis=1))  # bit for bit np.linalg.norm(step, axis=1)
        centroids = new_centroids
        top = int(np.argmax(shifts))
        runner_up = np.partition(shifts, -2)[-2] if k > 1 else 0.0
        lower -= np.where(labels == top, runner_up, shifts[top]) * (1 + _EPS)
        if shifts[top] < _TOL:
            converged = True
            break
    assign()
    idx = labels[distinct.inverse]
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


def _block_rows(row_floats: int) -> int:
    """Rows per block, so that a block of rows ``row_floats`` float64 wide stays within ``_BLOCK_FLOATS``."""
    return max(1, _BLOCK_FLOATS // max(1, row_floats))


def _hamming(rows: np.ndarray) -> np.ndarray:
    """d x d Hamming distances between 0/1 rows, in the smallest unsigned type that holds m: uint8 while m <= 255."""
    x = rows.astype(np.float64)
    ones = x.sum(axis=1)
    ham = np.empty((len(x), len(x)), dtype=np.min_scalar_type(x.shape[1]))
    step = _block_rows(len(x))
    for lo in range(0, len(x), step):
        # |x| + |y| - 2 x.y, exact in float64 for 0/1 rows
        block = x[lo : lo + step] @ x.T
        block *= -2.0
        block += ones
        block += ones[lo : lo + step, None]
        ham[lo : lo + step] = block
    return ham


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


def _distinct_silhouette(prefs: PreferenceMatrix, ham: np.ndarray, labels: np.ndarray, k: int) -> SilhouetteReport:
    """Silhouette of the users scored on their d distinct rows, given the rows' d x d Hamming matrix.

    Labels may split identical rows, so each (distinct row, label) pair is
    scored once and weighs as many users as it holds.  The distance between
    rows h items apart is sqrt(h), exactly what the dense sums read.
    """
    d, sizes = len(ham), np.bincount(labels, minlength=k)
    if int((sizes > 0).sum()) < 2:
        raise ValueError("silhouette needs at least 2 non-empty clusters")
    keys = prefs.distinct.inverse * k + labels
    counts = np.bincount(keys, minlength=d * k)
    members = counts.reshape(d, k).astype(np.float64)  # members[j, c]: users of row j in cluster c
    roots = np.sqrt(np.arange(prefs.m + 1))
    sums = np.empty((d, k))
    step = _block_rows(d)
    for lo in range(0, d, step):
        sums[lo : lo + step] = roots[ham[lo : lo + step]] @ members
    pairs = np.flatnonzero(counts)
    row, label = np.divmod(pairs, k)
    width, per_cluster = _widths(sums[row], label, counts[pairs], sizes)
    by_key = np.zeros(d * k)
    by_key[pairs] = width
    per_user = by_key[keys]
    for arr in (per_user, per_cluster):
        arr.flags.writeable = False
    return SilhouetteReport(per_user, per_cluster, float(per_cluster[sizes > 0].mean()))


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
    return _distinct_silhouette(prefs, _hamming(prefs.distinct.rows), labels, k)


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


def _pulled(queue: int, score: Callable, cells: list, parent: int | None = None) -> list:
    """``(i, score(cells[i]))`` for every cell i named by the records this process reads from the queue.

    Of a queue of s records, record j names cells j, j + s, j + 2s, ...  A
    forked worker, given its ``parent``, exits before a record once that
    parent is gone.
    """
    stride, results = min(len(cells), _QUEUE_RECORDS), []
    while record := os.read(queue, _RECORD.size):
        if parent is not None and os.getppid() != parent:
            os._exit(1)
        (first,) = _RECORD.unpack(record)
        results += [(i, score(cells[i])) for i in range(first, len(cells), stride)]
    return results


def _worker(parent: int, queue: int, read: int, write: int, score: Callable, cells: list) -> NoReturn:
    """A forked worker: pickle the results of the cells it pulls, or its exception, into its pipe and exit.

    It never returns into its caller, so no atexit handler, inherited output
    buffer or caller's code runs twice.
    """
    code = 1
    try:
        os.close(read)  # so a write fails, not blocks, once the parent is gone
        try:
            message = (True, _pulled(queue, score, cells, parent))
        except BaseException as exc:
            try:  # the parent must be able to rebuild the exception it raises
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = PrefkitError(f"{type(exc).__name__}: {exc}")
            message = (False, exc)
        with os.fdopen(write, "wb") as fh:
            pickle.dump(message, fh)
        code = 0
    finally:
        os._exit(code)


def _received(data: bytes, status: int) -> list:
    """A reaped worker's results, or its failure raised."""
    if os.WIFSIGNALED(status):
        raise PrefkitError(f"a sweep worker was killed by {signal.Signals(os.WTERMSIG(status)).name}")
    if not data:
        raise PrefkitError(f"a sweep worker exited with code {os.waitstatus_to_exitcode(status)} and sent no result")
    ok, payload = pickle.loads(data)
    if not ok:
        raise payload
    return payload


def _in_workers(score: Callable, cells: list) -> list:
    """``[score(cell) for cell in cells]`` in w workers, one per usable CPU and at most one per cell.

    The cells are queued in list order, as fixed-size records in one pipe
    whose write end is closed before any fork, and every worker pulls the
    next record until the queue is empty, so a fast worker scores more
    cells than a slow one.  The caller is one worker and the other w - 1
    are forked children, so where the platform cannot fork, w is 1.  Every
    child is reaped on every path: on any failure the ones still running
    are killed and waited for before the failure is raised.
    """
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    w = min(len(os.sched_getaffinity(0)), len(cells)) if can_fork else 1
    parent, running = os.getpid(), {}  # child pid -> the read end of its pipe
    queue, write = os.pipe()
    try:
        try:  # at most 4 KiB, which an empty pipe takes without blocking
            os.write(write, b"".join(map(_RECORD.pack, range(min(len(cells), _QUEUE_RECORDS)))))
        finally:
            os.close(write)  # so a read meets the end of the queue once it is empty
        for _ in range(1, w):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _worker(parent, queue, read, write, score, cells)
            os.close(write)
            running[pid] = os.fdopen(read, "rb")
        pairs = _pulled(queue, score, cells)
        for pid, pipe in list(running.items()):
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del running[pid]
            pairs += _received(data, status)
    except BaseException:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(queue)
        for pid, pipe in running.items():
            pipe.close()
            os.waitpid(pid, 0)
    results = [None] * len(cells)
    for i, result in pairs:
        results[i] = result
    return results


def sweep(
    prefs: PreferenceMatrix,
    config: KMeansConfig,
    k_max: int = 15,
    trials: int = 3,
) -> SweepTable:
    """Run independent seeded trials for every k from ``config.k`` to ``k_max``.

    Cell (k, t) uses the seed ``derive_seed(config.seed, "sweep", k, t)`` so
    the whole table is a pure function of the config seed.  One worker per
    usable CPU pulls the cells from a shared queue, largest k first, since a
    run's cost grows with k: the slowest cells start first and the fast ones
    fill in around them.
    """
    if not 2 <= config.k <= k_max <= prefs.n:
        raise ValueError(f"need 2 <= config.k <= k_max <= n, got {config.k}..{k_max} with n={prefs.n}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    k_values = tuple(range(config.k, k_max + 1))
    ham = _hamming(prefs.distinct.rows)

    def score(cell: tuple[int, int]) -> tuple[float, int, bool, float]:
        k, seed = cell
        run = run_kmeans(prefs, replace(config, k=k, seed=seed))
        macro = _distinct_silhouette(prefs, ham, run.idx, k).macro_average
        return macro, run.iterations_used, run.converged, run.wcss_trace[-1]

    cells = [(k, derive_seed(config.seed, "sweep", k, t)) for k in k_values for t in range(trials)]
    results = _in_workers(score, cells[::-1])[::-1]  # queued largest k first
    columns = [np.array(column).reshape(len(k_values), trials) for column in zip(*results)]
    for arr in columns:
        arr.flags.writeable = False
    return SweepTable(k_values, *columns)
