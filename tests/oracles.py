"""Independent reference implementations used only to check the library.

Everything here deliberately avoids the code paths under test: silhouette is
recomputed from raw pairwise distances in pure Python, eigenvalues come from
characteristic-polynomial root finding rather than LAPACK, and the adjusted
Rand index is the plain contingency-table formula, and ``user_loss`` scores
one row against one kit by comparing every position, as the brute-force
reference for ``reassign``.  The per-user silhouette
loop, the masked-mean k-means update, the bounded k-means on every user
row, the per-user synthetic generator, the
scanning kit sampler, the broadcast mismatch count, the row-at-a-time CSV
writer, the cluster-by-cluster kit design, the stable-sort distinct values,
and the per-user SVD, kit counts, mismatch count and per-kit loss loop that
the distinct-row route replaced are kept here too, so the replacements are
checked against what they replaced.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np

from prefkit.assignment import Assignment, LossReport
from prefkit.kits import Kit
from prefkit.kmeans import _EPS, _TOL, KMeansRun, init_centroids
from prefkit.model import Category, PreferenceMatrix
from prefkit.seeding import generator
from prefkit.svd import SvdFactors


# ---------------------------------------------------------------------------
# brute-force silhouette


def silhouette_bruteforce(points, labels, k):
    """O(n^2) silhouette from scratch.

    Returns (per_user, per_cluster, macro); per_cluster holds None for empty
    clusters, which the macro average skips.
    """
    n = len(points)
    pts = [tuple(float(v) for v in p) for p in points]
    members = {c: [i for i in range(n) if labels[i] == c] for c in range(k)}
    per_user = []
    for i in range(n):
        own = labels[i]
        own_others = [j for j in members[own] if j != i]
        if not own_others:
            per_user.append(0.0)
            continue
        a = sum(math.dist(pts[i], pts[j]) for j in own_others) / len(own_others)
        b = min(
            sum(math.dist(pts[i], pts[j]) for j in members[c]) / len(members[c])
            for c in range(k)
            if c != own and members[c]
        )
        denom = max(a, b)
        per_user.append(0.0 if denom == 0.0 else (b - a) / denom)
    per_cluster = [
        sum(per_user[i] for i in members[c]) / len(members[c]) if members[c] else None
        for c in range(k)
    ]
    filled = [v for v in per_cluster if v is not None]
    macro = sum(filled) / len(filled)
    return per_user, per_cluster, macro


# ---------------------------------------------------------------------------
# per-user loop silhouette and masked-mean k-means (the replaced library code)


def silhouette_loop(data, labels, k):
    """Returns (per_user, per_cluster, macro); NaN marks empty clusters."""
    data = np.asarray(data, dtype=np.float64)
    labels = np.asarray(labels)
    n = data.shape[0]
    sizes = np.bincount(labels, minlength=k)
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
    return per_user, per_cluster, float(per_cluster[sizes > 0].mean())


def compute_centroids_loop(prefs, idx, centroids_prev, damping):
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


def _sq_distances_loop(rows, centroids):
    diff = rows[:, None, :] - centroids[None, :, :]
    return np.einsum("ikj,ikj->ik", diff, diff)


def run_kmeans_loop(prefs, config):
    """Returns (idx, centroids, wcss_trace) of damped Lloyd on the loop update."""
    rows = prefs.data.astype(np.float64)
    centroids = init_centroids(prefs, config.k, config.seed)
    trace = []
    for _ in range(config.max_iters):
        d2 = _sq_distances_loop(rows, centroids)
        idx = np.argmin(d2, axis=1)
        trace.append(float(d2[np.arange(prefs.n), idx].sum()))
        new_centroids = compute_centroids_loop(prefs, idx, centroids, config.damping)
        shift = float(np.linalg.norm(new_centroids - centroids, axis=1).max())
        centroids = new_centroids
        if shift < _TOL:
            break
    return np.argmin(_sq_distances_loop(rows, centroids), axis=1), centroids, tuple(trace)


def _update_rows(rows, idx, centroids_prev, damping):
    k = centroids_prev.shape[0]
    counts = np.bincount(idx, minlength=k)
    filled = counts > 0
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


def _assign_rows(rows, centroids, idx, lower):
    diff = rows[:, None, :] - centroids[idx][:, None, :]
    own = np.einsum("ikj,ikj->ik", diff, diff)[:, 0]
    full = np.flatnonzero(~(np.sqrt(own) * (1 + _EPS) < lower * (1 - _EPS)))
    d2 = _sq_distances_loop(rows[full], centroids)
    idx[full] = np.argmin(d2, axis=1)
    own[full] = d2[np.arange(full.size), idx[full]]
    lower[full] = np.sqrt(np.partition(d2, 1, axis=1)[:, 1]) if len(centroids) > 1 else np.inf
    return own


def run_kmeans_rows(prefs, config):
    """A ``KMeansRun`` of damped Lloyd with Hamerly bounds on every user row, one-hot sums and k-wide passes."""
    rows = prefs.data.astype(np.float64)
    centroids = init_centroids(prefs, config.k, config.seed)
    idx = np.zeros(prefs.n, dtype=np.intp)
    lower = np.zeros(prefs.n)
    trace = []
    converged = False
    for _ in range(config.max_iters):
        trace.append(float(_assign_rows(rows, centroids, idx, lower).sum()))
        new_centroids = _update_rows(rows, idx, centroids, config.damping)
        shifts = np.linalg.norm(new_centroids - centroids, axis=1)
        centroids = new_centroids
        top = int(np.argmax(shifts))
        runner_up = np.partition(shifts, -2)[-2] if config.k > 1 else 0.0
        lower -= np.where(idx == top, runner_up, shifts[top]) * (1 + _EPS)
        if shifts[top] < _TOL:
            converged = True
            break
    _assign_rows(rows, centroids, idx, lower)
    return KMeansRun(centroids, idx, len(trace), converged, tuple(trace), config)


# ---------------------------------------------------------------------------
# per-user synthetic generator and scanning kit sampler (the replaced library code)


def _swap_in_category(row, category_ids, rng):
    selected = [q for q in category_ids if row[q] == 1]
    unselected = [q for q in category_ids if row[q] == 0]
    out = selected[int(rng.integers(len(selected)))]
    if not unselected:
        return
    into = unselected[int(rng.integers(len(unselected)))]
    row[out] = 0
    row[into] = 1


def generate_synthetic_loop(spec, catalog):
    """Returns (prefs, planted), drawing one scalar at a time, user by user."""
    rng = generator(spec.seed)
    category_ids = (catalog.ids_in(Category.EXPENSIVE), catalog.ids_in(Category.CHEAP))
    data = np.zeros((spec.n_users, catalog.m), dtype=np.int8)
    planted = np.zeros(spec.n_users, dtype=np.int64)
    for i in range(spec.n_users):
        g = int(rng.integers(len(spec.planted_kits)))
        planted[i] = g
        row = spec.planted_kits[g].indicator(catalog.m)
        for ids in category_ids:
            for _ in range(spec.noise_swaps):
                _swap_in_category(row, ids, rng)
        data[i] = row
    user_ids = tuple(f"u{i:04d}" for i in range(spec.n_users))
    return PreferenceMatrix(user_ids, data, catalog.names), planted


def random_kits_scan(catalog, constraint, count, seed, min_separation=1):
    """Kits drawn as ``random_kits`` draws them, each checked against every accepted kit."""
    rng = generator(seed)
    expensive = np.array(catalog.ids_in(Category.EXPENSIVE))
    cheap = np.array(catalog.ids_in(Category.CHEAP))
    kits = []
    while len(kits) < count:
        picked = frozenset(
            int(q)
            for q in np.concatenate(
                [
                    rng.choice(expensive, size=constraint.expensive_quota, replace=False),
                    rng.choice(cheap, size=constraint.cheap_quota, replace=False),
                ]
            )
        )
        if any(len(picked ^ kit.items) < min_separation for kit in kits):
            continue
        kits.append(Kit(kit_id=len(kits), items=picked))
    return tuple(kits)


# ---------------------------------------------------------------------------
# one user's loss against one kit


def user_loss(row, kit):
    """Hamming distance between one selection row and a kit."""
    row = np.asarray(row)
    return int((row != kit.indicator(row.shape[0])).sum())


# ---------------------------------------------------------------------------
# broadcast mismatch count and row-at-a-time CSV writer (the replaced library code)


def mismatches_broadcast(prefs, kits):
    """n x K Hamming distances from one n x K x m comparison tensor."""
    indicators = np.stack([kit.indicator(prefs.m) for kit in kits])
    return (prefs.data[:, None, :] != indicators[None, :, :]).sum(axis=2)


def write_csv_rows(path, header, rows):
    """``csv.writer`` with CR LF records, each cut back to LF as it is written.

    The CR LF terminator makes the writer quote a field holding a CR too.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = SimpleNamespace(write=lambda record: fh.write(record[:-2] + "\n"))
        writer = csv.writer(out, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# cluster-by-cluster kit design (the replaced library code)


def _top_items_argsort(values, ids, count):
    order = np.argsort(-np.asarray(values, dtype=np.float64)[ids], kind="stable")
    return [int(q) for q in ids[order[:count]]]


def _kit_items_argsort(counts, catalog, constraint, constrained):
    """The kit's item ids ranked from one cluster's ``counts``: per category when constrained, else flat."""
    if constrained:
        items = _top_items_argsort(counts, np.array(catalog.ids_in(Category.EXPENSIVE)), constraint.expensive_quota)
        return items + _top_items_argsort(counts, np.array(catalog.ids_in(Category.CHEAP)), constraint.cheap_quota)
    return _top_items_argsort(counts, np.arange(len(counts)), constraint.total)


def design_all_loop(prefs, labels, catalog, constraint, constrained=False):
    """One kit per cluster id in use, each counted from its own member rows.

    The counts of each cluster come from one row gather and sum, and the
    ranking is a stable argsort per category (or over all items when flat).
    """
    labels = np.asarray(labels)
    order = np.argsort(labels, kind="stable")
    kits = []
    for j, members in enumerate(np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)):
        counts = prefs.data[members].sum(axis=0, dtype=np.int64)
        kits.append(Kit(kit_id=j, items=frozenset(_kit_items_argsort(counts, catalog, constraint, constrained))))
    return kits


# ---------------------------------------------------------------------------
# the SVD route on every user row (the replaced library code)


def svd_rows(a):
    """Thin SVD of every row with the sign convention of ``prefkit.svd``."""
    a = np.asarray(a, dtype=np.float64)
    u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    u = np.ascontiguousarray(u)
    vt = np.ascontiguousarray(vt)
    for j in range(u.shape[1]):
        anchor = int(np.argmax(np.abs(u[:, j])))
        if u[anchor, j] < 0:
            u[:, j] = -u[:, j]
            vt[j, :] = -vt[j, :]
    return SvdFactors(u=u, sigma=sigma, vt=vt)


def design_all_rows(prefs, labels, catalog, constraint, constrained=False):
    """One kit per label in use, each counted from its users' rows in one pass."""
    labels = np.asarray(labels)
    order = np.argsort(labels, kind="stable")
    starts = np.r_[0, np.flatnonzero(np.diff(labels[order])) + 1]
    counts = np.add.reduceat(prefs.data[order], starts, axis=0, dtype=np.int64)
    return [
        Kit(kit_id=j, items=frozenset(_kit_items_argsort(row, catalog, constraint, constrained)))
        for j, row in enumerate(counts)
    ]


def mismatches_rows(prefs, kits):
    """n x K losses of every user against every kit from one float32 matmul."""
    indicators = np.stack([kit.indicator(prefs.m) for kit in kits])
    overlap = prefs.data.astype(np.float32) @ indicators.T.astype(np.float32)
    sizes = prefs.data.sum(axis=1, dtype=np.int64)[:, None] + indicators.sum(axis=1, dtype=np.int64)
    return sizes - 2 * overlap.astype(np.int64)


def cluster_losses_loop(per_user_loss, assignment, k):
    """Per-kit normal and exponential means, one boolean mask over the users per kit."""
    losses = np.asarray(per_user_loss, dtype=np.float64)
    normal = np.zeros(k)
    exponential = np.zeros(k)
    populations = np.zeros(k, dtype=np.int64)
    for j in range(k):
        members = assignment.kit_index == j
        populations[j] = int(members.sum())
        if populations[j]:
            normal[j] = losses[members].mean()
            exponential[j] = np.exp(losses[members]).mean()
    return normal, exponential, populations


def _report_rows(mismatches, assignment):
    per_user = mismatches[np.arange(mismatches.shape[0]), assignment.kit_index].astype(np.int64)
    normal, exponential, populations = cluster_losses_loop(per_user, assignment, mismatches.shape[1])
    return LossReport(per_user, normal, exponential, populations, int(per_user.sum()))


def loss_report_rows(prefs, kits, assignment):
    return _report_rows(mismatches_rows(prefs, kits), assignment)


def reassign_rows(prefs, kits, initial):
    """Every user's argmin over its own row of the n x K mismatch matrix."""
    mismatches = mismatches_rows(prefs, kits)
    reassigned = Assignment(kit_index=np.argmin(mismatches, axis=1))
    return reassigned, _report_rows(mismatches, initial), _report_rows(mismatches, reassigned)


def unique_by_first_np(keys):
    """First occurrences, value numbers and counts by first occurrence, from
    one stable ``np.unique`` (the replaced ``_unique_by_first``)."""
    _, first, inverse, counts = np.unique(keys, return_index=True, return_inverse=True, return_counts=True)
    order = np.argsort(first)
    by_first = np.empty(order.size, dtype=np.int64)
    by_first[order] = np.arange(order.size)
    return first[order], by_first[inverse], counts[order]


# ---------------------------------------------------------------------------
# symmetric eigenvalues via the characteristic polynomial


def charpoly(mat):
    """Monic characteristic polynomial coefficients by Faddeev-LeVerrier.

    Returns [1, c1, ..., cn] so p(x) = x^n + c1 x^(n-1) + ... + cn.
    """
    n = len(mat)
    a = [[float(v) for v in row] for row in mat]
    m = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    coeffs = [1.0]
    for step in range(1, n + 1):
        if step > 1:
            for i in range(n):
                m[i][i] += coeffs[-1]
            m = _matmul(a, m)
        else:
            m = [row[:] for row in a]
        c = -sum(m[i][i] for i in range(n)) / step
        coeffs.append(c)
    return coeffs


def _matmul(a, b):
    n = len(a)
    return [
        [sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)]
        for i in range(n)
    ]


def _poly_eval(coeffs, x):
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _roots_quadratic(coeffs):
    _, b, c = coeffs
    disc = max(b * b - 4.0 * c, 0.0)
    r = math.sqrt(disc)
    return sorted([(-b - r) / 2.0, (-b + r) / 2.0])


def _roots_cubic(coeffs):
    # Depressed-cubic trigonometric solution; valid because characteristic
    # polynomials of symmetric matrices have only real roots (so p <= 0).
    _, a, b, c = coeffs
    p = b - a * a / 3.0
    q = 2.0 * a**3 / 27.0 - a * b / 3.0 + c
    shift = -a / 3.0
    scale = max(1.0, a * a, abs(b))
    if -p <= 1e-12 * scale:
        return [shift, shift, shift]
    m = 2.0 * math.sqrt(-p / 3.0)
    arg = 3.0 * q / (2.0 * p) * math.sqrt(-3.0 / p)
    theta = math.acos(min(1.0, max(-1.0, arg)))
    roots = [m * math.cos((theta - 2.0 * math.pi * kk) / 3.0) + shift for kk in range(3)]
    return sorted(roots)


def _bisect(coeffs, lo, hi):
    flo = _poly_eval(coeffs, lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = _poly_eval(coeffs, mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def roots_real_monic(coeffs):
    """All real roots (with multiplicity, ascending) of a monic polynomial.

    Assumes every root is real, as holds for characteristic polynomials of
    symmetric matrices.  Exactly-zero trailing coefficients are deflated
    first: for integer Gram matrices the Faddeev-LeVerrier coefficients are
    exact in float64, so singular matrices carry an exact 0.0 constant term
    and the deflation sidesteps the ill-conditioned repeated root at zero.
    Degree <= 3 then uses closed forms; higher degrees locate simple roots by
    bisection between critical points and recover multiple roots at critical
    points where the polynomial (nearly) vanishes.
    """
    zeros = 0
    while len(coeffs) > 1 and coeffs[-1] == 0.0:
        coeffs = coeffs[:-1]
        zeros += 1
    if zeros:
        return sorted(_roots_nonzero_tail(coeffs) + [0.0] * zeros)
    return _roots_nonzero_tail(coeffs)


def _roots_nonzero_tail(coeffs):
    degree = len(coeffs) - 1
    if degree == 0:
        return []
    if degree == 1:
        return [-coeffs[1]]
    if degree == 2:
        return _roots_quadratic(coeffs)
    if degree == 3:
        return _roots_cubic(coeffs)

    deriv = [coeffs[i] * (degree - i) / degree for i in range(degree)]
    crit = roots_real_monic(deriv)
    bound = 1.0 + max(abs(c) for c in coeffs[1:])
    group_eps = 1e-9 * bound
    distinct = []
    for c in crit:
        if distinct and abs(c - distinct[-1][0]) <= group_eps:
            distinct[-1][1] += 1
        else:
            distinct.append([c, 1])

    def near_zero(x):
        scale = sum(abs(co) * max(1.0, abs(x)) ** (degree - i) for i, co in enumerate(coeffs))
        return abs(_poly_eval(coeffs, x)) <= 1e-8 * scale

    roots = []
    root_flags = []
    for value, mult in distinct:
        if near_zero(value):
            roots.extend([value] * (mult + 1))
            root_flags.append(True)
        else:
            root_flags.append(False)

    pts = [-bound] + [v for v, _ in distinct] + [bound]
    flags = [False] + root_flags + [False]
    for left in range(len(pts) - 1):
        if flags[left] or flags[left + 1]:
            continue
        v0 = _poly_eval(coeffs, pts[left])
        v1 = _poly_eval(coeffs, pts[left + 1])
        if (v0 < 0.0) != (v1 < 0.0):
            roots.append(_bisect(coeffs, pts[left], pts[left + 1]))
    roots.sort()
    if len(roots) != degree:
        raise ArithmeticError(f"found {len(roots)} of {degree} real roots")
    return roots


def singular_values_charpoly(mat):
    """Singular values of a small matrix from the eigenvalues of A^T A.

    Independent route: build A^T A in pure Python, take its characteristic
    polynomial, find the (real, non-negative) roots, return their square
    roots in descending order.
    """
    rows = len(mat)
    cols = len(mat[0])
    gram = [
        [sum(float(mat[t][i]) * float(mat[t][j]) for t in range(rows)) for j in range(cols)]
        for i in range(cols)
    ]
    eigs = roots_real_monic(charpoly(gram))
    return sorted((math.sqrt(max(v, 0.0)) for v in eigs), reverse=True)


# ---------------------------------------------------------------------------
# adjusted Rand index


def adjusted_rand_index(labels_a, labels_b):
    """Plain contingency-table ARI."""
    n = len(labels_a)
    assert len(labels_b) == n
    pair_counts = Counter(zip(labels_a, labels_b))
    a_counts = Counter(labels_a)
    b_counts = Counter(labels_b)
    sum_pairs = sum(math.comb(c, 2) for c in pair_counts.values())
    sum_a = sum(math.comb(c, 2) for c in a_counts.values())
    sum_b = sum(math.comb(c, 2) for c in b_counts.values())
    total = math.comb(n, 2)
    expected = sum_a * sum_b / total
    maximum = (sum_a + sum_b) / 2.0
    if maximum == expected:
        return 1.0
    return (sum_pairs - expected) / (maximum - expected)
