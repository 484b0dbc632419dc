import os
import select
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import prefkit as pk
from oracles import (
    _sq_distances_loop,
    compute_centroids_loop,
    design_all_loop,
    run_kmeans_loop,
    run_kmeans_rows,
    silhouette_bruteforce,
    silhouette_loop,
)


def prefs_from(rows):
    return pk.PreferenceMatrix(
        tuple(f"u{i}" for i in range(len(rows))), np.array(rows, dtype=np.int8)
    )


def silhouette_of(rows, labels, k):
    """``silhouette`` of a hand-built run that puts user i, with 0/1 row ``rows[i]``, in cluster ``labels[i]``."""
    prefs = prefs_from(rows)
    run = pk.KMeansRun(np.zeros((k, prefs.m)), np.asarray(labels), 1, True, (0.0,), pk.KMeansConfig(k=k))
    return pk.silhouette(prefs, run)


def two_clouds():
    """Six noisy copies of each of two disjoint half-selections over m=10."""
    rows = []
    for base in ([1] * 5 + [0] * 5, [0] * 5 + [1] * 5):
        for flip in range(6):
            row = list(base)
            if flip < 5:
                row[flip if base[0] else 5 + flip] ^= 1
            rows.append(row)
    labels = [0] * 6 + [1] * 6
    return prefs_from(rows), np.array(labels)


@pytest.fixture(scope="module")
def survey700(catalog20, constraint):
    """The 700-user seed-0 survey that ``synth`` writes, and the config ``kmeans-sweep --seed 0`` sweeps it with."""
    kits = pk.random_kits(catalog20, constraint, 8, pk.derive_seed(0, "synth", "kits"))
    spec = pk.SyntheticSpec(700, kits, 1, pk.derive_seed(0, "synth", "population"))
    prefs, _ = pk.generate_synthetic(spec, catalog20, constraint)
    return prefs, pk.KMeansConfig(k=4, seed=pk.derive_seed(0, "kmeans-sweep"))


class TestInitCentroids:
    def test_k_equals_n_is_a_permutation(self):
        prefs = prefs_from([[1, 0], [0, 1], [1, 1], [0, 0]])
        centroids = pk.init_centroids(prefs, 4, seed=7)
        got = sorted(map(tuple, centroids.astype(int).tolist()))
        want = sorted(map(tuple, prefs.data.tolist()))
        assert got == want

    def test_k_one_picks_a_row(self):
        prefs = prefs_from([[1, 0], [0, 1]])
        centroid = pk.init_centroids(prefs, 1, seed=3)
        assert centroid.shape == (1, 2)
        assert tuple(centroid[0].astype(int)) in {(1, 0), (0, 1)}

    def test_deterministic_per_seed(self):
        prefs = prefs_from([[1, 0], [0, 1], [1, 1], [0, 0], [1, 0]][:5])
        a = pk.init_centroids(prefs, 2, seed=42)
        b = pk.init_centroids(prefs, 2, seed=42)
        assert (a == b).all()

    def test_k_above_n_rejected(self):
        prefs = prefs_from([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            pk.init_centroids(prefs, 3, seed=0)


def closest(prefs, centroids):
    """Nearest centroid per row from ``_nearest``, the screened full pass of ``_assign``."""
    rows = prefs.data.astype(float)
    return pk.kmeans._nearest(rows, rows.sum(axis=1), np.asarray(centroids, dtype=float))[0]


def update(rows, idx, prev, damping):
    """``_update`` with each user row its own distinct row of weight 1, and sums from ``idx``."""
    rows = np.asarray(rows, dtype=float)
    sums = np.zeros((len(prev), rows.shape[1] + 1))
    np.add.at(sums, idx, np.column_stack([rows, np.ones(len(rows))]))
    return pk.kmeans._update(np.asarray(prev, dtype=float), sums, damping, rows, idx, np.arange(len(rows)))


class TestFindClosestCentroids:
    """Nearest-centroid assignment, as ``run_kmeans`` does it in ``_nearest``."""

    def test_exact_match_wins(self):
        prefs = prefs_from([[1, 1, 0]])
        centroids = np.array([[0.0, 0.0, 0.0], [9.0, 9.0, 9.0], [0.5, 0.5, 0.5], [1.0, 1.0, 0.0]])
        assert closest(prefs, centroids).tolist() == [3]

    def test_equidistant_breaks_to_lowest_index(self):
        prefs = prefs_from([[0, 0]])
        centroids = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert closest(prefs, centroids).tolist() == [0]

    def test_one_hot_users_match_hand_distance_table(self):
        # Users e0..e3; centroids at e0 and e1.  Squared distances:
        # e0 -> (0, 2); e1 -> (2, 0); e2 -> (2, 2) tie; e3 -> (2, 2) tie.
        prefs = prefs_from(np.eye(4, dtype=int).tolist())
        centroids = np.eye(4)[:2]
        assert closest(prefs, centroids).tolist() == [0, 1, 0, 0]

    def test_near_ties_go_to_the_exact_lowest_index(self):
        # Before the shuffle, the even centroids are all ``base`` and centroid 2s + 1 is
        # ``base`` with items 2s and 2s + 1 swapped: a row that agrees on those two items
        # is exactly as far from both, up to rounding that the screen and the exact
        # distances take differently.
        rng = np.random.default_rng(5)
        rows, screen_wrong = rng.integers(0, 2, size=(3000, 20)).astype(float), 0
        for _ in range(5):
            base = rng.random(20)
            centroids = np.repeat(base[None], 10, axis=0)
            for s in range(5):
                centroids[2 * s + 1, [2 * s, 2 * s + 1]] = base[[2 * s + 1, 2 * s]]
            centroids = centroids[rng.permutation(10)]
            d2 = _sq_distances_loop(rows, centroids)
            labels, lower = pk.kmeans._nearest(rows, rows.sum(axis=1), centroids)
            assert labels.tolist() == np.argmin(d2, axis=1).tolist()
            others = np.arange(10) != labels[:, None]
            assert (lower[:, None] <= np.sqrt(d2))[others].all()  # a bound on every other centroid
            screen = np.einsum("ij,ij->i", centroids, centroids)[:, None] - 2.0 * (centroids @ rows.T)
            screen_wrong += int((screen.argmin(axis=0) != labels).sum())
        assert screen_wrong  # the screen alone would have mislabelled some rows


class TestComputeCentroids:
    """The damped centroid update ``run_kmeans`` applies each iteration."""

    def test_undamped_update_is_plain_mean(self):
        prefs = prefs_from([[0, 0], [1, 1]])
        # Both rows in cluster 0 with damping 1: centroid becomes the mean.
        out = update(prefs.data, np.array([0, 0]), np.array([[5.0, 5.0]]), 1.0)
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_damped_update_blends_with_previous(self):
        prefs = prefs_from([[1, 1]])
        out = update(prefs.data, np.array([0]), np.array([[0.0, 0.0]]), 0.3)
        np.testing.assert_allclose(out, [[0.3, 0.3]])

    def test_empty_cluster_reseeded_to_farthest_row(self):
        prefs = prefs_from([[0, 0], [0, 1], [1, 1]])
        idx = np.array([0, 0, 0])
        out = update(prefs.data, idx, np.array([[0.0, 0.0], [9.0, 9.0]]), 1.0)
        # Cluster 0 moves to the mean; row (1,1) is farthest from it.
        np.testing.assert_allclose(out[0], [1 / 3, 2 / 3])
        np.testing.assert_allclose(out[1], [1.0, 1.0])

    def test_two_empty_clusters_take_distinct_donors(self):
        prefs = prefs_from([[0, 0], [0, 1], [1, 1]])
        idx = np.array([0, 0, 0])
        prev = np.array([[0.0, 0.0], [9.0, 9.0], [8.0, 8.0]])
        out = update(prefs.data, idx, prev, 1.0)
        donors = {tuple(out[1]), tuple(out[2])}
        assert len(donors) == 2
        assert donors <= {(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)}

    def test_matches_masked_mean_loop_bit_for_bit(self):
        rng = np.random.default_rng(41)
        most_empties = 0
        for trial in range(30):
            n, k = int(rng.integers(5, 60)), int(rng.integers(2, 12))
            prefs = prefs_from(rng.integers(0, 2, size=(n, 10)))
            # Odd trials use only the first third of the clusters, leaving the rest to reseed.
            idx = rng.integers(0, max(1, k // 3) if trial % 2 else k, size=n)
            prev = rng.random((k, 10))
            damping = float(rng.uniform(0.05, 1.0))
            out = update(prefs.data, idx, prev, damping)
            assert np.array_equal(out, compute_centroids_loop(prefs, idx, prev, damping))
            most_empties = max(most_empties, k - len(np.unique(idx)))
        assert most_empties >= 5


class TestRunKmeans:
    def test_recovers_two_planted_clouds(self):
        prefs, truth = two_clouds()
        run = pk.run_kmeans(prefs, pk.KMeansConfig(k=2, damping=1.0, seed=1))
        assert run.converged
        same = (run.idx == truth).all()
        flipped = (run.idx == 1 - truth).all()
        assert same or flipped

    def test_k_one_converges_to_global_mean(self):
        prefs = prefs_from([[0, 0], [1, 1], [1, 0], [0, 1]])
        run = pk.run_kmeans(prefs, pk.KMeansConfig(k=1, damping=0.3, seed=0))
        assert run.converged
        np.testing.assert_allclose(run.centroids[0], [0.5, 0.5], atol=1e-5)

    def test_single_iteration_budget(self):
        prefs, _ = two_clouds()
        run = pk.run_kmeans(prefs, pk.KMeansConfig(k=2, damping=0.3, max_iters=1, seed=0))
        assert run.iterations_used == 1
        assert not run.converged

    def test_final_assignment_is_nearest_centroid(self):
        prefs, _ = two_clouds()
        for seed in range(5):
            run = pk.run_kmeans(prefs, pk.KMeansConfig(k=3, damping=0.3, seed=seed))
            d2 = ((prefs.data[:, None, :] - run.centroids[None, :, :]) ** 2).sum(axis=2)
            assert (run.idx == np.argmin(d2, axis=1)).all()

    def test_undamped_wcss_never_increases(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            data = rng.integers(0, 2, size=(40, 8))
            prefs = pk.PreferenceMatrix(tuple(f"u{i}" for i in range(40)), data)
            run = pk.run_kmeans(prefs, pk.KMeansConfig(k=int(rng.integers(2, 7)), damping=1.0, seed=trial))
            trace = run.wcss_trace
            assert all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_bit_identical_to_masked_mean_loop(self, survey):
        prefs, _, _ = survey
        for k, damping, seed in [(4, 0.3, 0), (8, 0.3, 1), (15, 0.3, 2), (8, 1.0, 3), (60, 0.5, 4)]:
            run = pk.run_kmeans(prefs, pk.KMeansConfig(k=k, damping=damping, seed=seed))
            idx, centroids, trace = run_kmeans_loop(prefs, run.config)
            assert np.array_equal(run.idx, idx)
            assert np.array_equal(run.centroids, centroids)
            assert run.wcss_trace == trace

    def test_config_validation(self):
        with pytest.raises(ValueError):
            pk.KMeansConfig(k=2, damping=0.0)
        with pytest.raises(ValueError):
            pk.KMeansConfig(k=2, damping=1.5)
        with pytest.raises(ValueError):
            pk.KMeansConfig(k=0)
        with pytest.raises(ValueError):
            pk.KMeansConfig(k=2, max_iters=0)


def assert_matches_loop(prefs, config):
    """run_kmeans equals the full-pass reference loop bit for bit; returns the run."""
    run = pk.run_kmeans(prefs, config)
    idx, centroids, trace = run_kmeans_loop(prefs, config)
    assert np.array_equal(run.idx, idx)
    assert np.array_equal(run.centroids, centroids)
    assert run.wcss_trace == trace
    assert run.iterations_used == len(trace)
    return run


class TestBoundedAssignment:
    """The per-row bounds skip distance passes; they must never change a result."""

    @pytest.mark.parametrize("damping", [0.3, 1.0])
    def test_coincident_rows_with_k_above_distinct_rows(self, damping):
        rng = np.random.default_rng(23)
        for distinct, copies, k in [(3, 6, 5), (5, 4, 12), (4, 10, 20), (2, 3, 6)]:
            base = rng.integers(0, 2, size=(distinct, 10))
            while len(np.unique(base, axis=0)) < distinct:
                base = rng.integers(0, 2, size=(distinct, 10))
            prefs = prefs_from(base[rng.permutation(np.repeat(np.arange(distinct), copies))])
            for seed in range(4):
                config = pk.KMeansConfig(k=k, damping=damping, max_iters=30, seed=seed)
                run = assert_matches_loop(prefs, config)
                assert len(np.unique(run.idx)) <= distinct < k  # empties reseeded each iteration

    @pytest.mark.parametrize("damping", [0.3, 1.0])
    def test_edge_sizes_and_single_iteration(self, survey, damping):
        prefs, _, _ = survey
        small, _ = two_clouds()
        cases = [(prefs, 1, 100), (prefs, 2, 1), (prefs, 15, 1), (small, small.n, 100), (small, small.n, 1),
                 (small, 1, 1)]
        for seed, (p, k, max_iters) in enumerate(cases):
            assert_matches_loop(p, pk.KMeansConfig(k=k, damping=damping, max_iters=max_iters, seed=seed))

    def test_default_sweep_cells_on_seven_hundred_users(self, survey700):
        prefs, config = survey700
        for k in range(4, 16):
            for t in range(3):
                assert_matches_loop(prefs, pk.KMeansConfig(k=k, seed=pk.derive_seed(config.seed, "sweep", k, t)))

    def test_bounds_skip_most_distance_passes(self, survey, monkeypatch):
        prefs, _, _ = survey
        full_rows = []
        nearest = pk.kmeans._nearest

        def counted(rows, sq_norms, centroids):
            full_rows.append(len(rows))
            return nearest(rows, sq_norms, centroids)

        monkeypatch.setattr(pk.kmeans, "_nearest", counted)
        row_iterations = 0
        for k in (4, 8, 15):
            run = pk.run_kmeans(prefs, pk.KMeansConfig(k=k, seed=k))
            row_iterations += len(prefs.distinct.rows) * (run.iterations_used + 1)  # + the final assignment
        assert sum(full_rows) < 0.4 * row_iterations


def assert_same_run(run, want):
    """Two ``KMeansRun``s agree bit for bit on every field."""
    for name in ("centroids", "idx"):
        got, expected = getattr(run, name), getattr(want, name)
        assert got.dtype == expected.dtype and np.array_equal(got, expected), name
    for name in ("iterations_used", "converged", "wcss_trace", "config"):
        assert getattr(run, name) == getattr(want, name), name


class TestDistinctRowRun:
    """``run_kmeans`` works on the distinct rows and their weights; it must equal the run on every user row."""

    @pytest.mark.parametrize("m", [10, 100])  # past 64 items the distinct rows are keyed as void bytes
    @pytest.mark.parametrize("damping", [0.3, 1.0])
    def test_matches_the_user_row_run_on_every_field(self, m, damping):
        rng = np.random.default_rng(53 + m)
        reseeded = 0
        for distinct, k in [(3, 5), (5, 12), (9, 6), (30, 15)]:
            base = rng.integers(0, 2, size=(distinct, m))
            while len(np.unique(base, axis=0)) < distinct:
                base = rng.integers(0, 2, size=(distinct, m))
            copies = rng.integers(1, 40, size=distinct)
            copies[rng.integers(distinct)] = 150  # one heavy row, the farthest donor for many reseeds
            prefs = prefs_from(base[rng.permutation(np.repeat(np.arange(distinct), copies))])
            assert len(prefs.distinct.rows) == distinct
            for seed in range(3):
                config = pk.KMeansConfig(k=k, damping=damping, max_iters=40, seed=seed)
                run = pk.run_kmeans(prefs, config)
                assert_same_run(run, run_kmeans_rows(prefs, config))
                reseeded += k > distinct
        assert reseeded

    def test_matches_the_user_row_run_on_the_sweep_survey(self, survey700):
        prefs, config = survey700
        for k in (4, 9, 15):
            cell = pk.KMeansConfig(k=k, seed=pk.derive_seed(config.seed, "sweep", k, 0))
            assert_same_run(pk.run_kmeans(prefs, cell), run_kmeans_rows(prefs, cell))


class TestKmeansPartition:
    def test_kits_and_assignment_follow_the_label_array(self, survey, catalog20, constraint):
        # Planted kit g goes to centroid 2g, so every odd centroid is left empty.
        prefs, planted, kits = survey
        run = pk.KMeansRun(
            centroids=np.zeros((2 * len(kits), 20)),
            idx=2 * planted,
            iterations_used=1,
            converged=True,
            wcss_trace=(0.0,),
            config=pk.KMeansConfig(k=2 * len(kits)),
        )
        used = np.unique(run.idx).tolist()
        by_row = run.idx[prefs.distinct.first]
        assert np.array_equal(by_row[prefs.distinct.inverse], run.idx)  # no two planted kits share a row
        designed = pk.design_all(prefs, by_row, catalog20, constraint)
        assert len(designed) == len(used) < run.k
        assert designed == design_all_loop(prefs, run.idx, catalog20, constraint)
        assignment = pk.assignment_from_clusters(run.idx)
        for i in range(len(designed)):
            members = np.flatnonzero(assignment.kit_index == i)
            assert np.unique(run.idx[members]).tolist() == [used[i]]


class TestSilhouette:
    def test_two_tight_separated_clusters_score_one(self):
        report = silhouette_of([[0, 0, 0, 0]] * 3 + [[1, 1, 1, 1]] * 3, [0, 0, 0, 1, 1, 1], 2)
        np.testing.assert_allclose(report.per_user, np.ones(6))
        assert report.macro_average == 1.0

    def test_coincident_points_score_zero(self):
        report = silhouette_of(np.zeros((4, 3)), [0, 0, 1, 1], 2)
        assert (report.per_user == 0).all()
        assert report.macro_average == 0.0

    def test_singletons_score_zero(self):
        report = silhouette_of([[0, 0], [1, 1], [1, 0]], [0, 1, 1], 2)
        assert report.per_user[0] == 0.0

    def test_six_point_instance_matches_bruteforce(self):
        data = [[0, 0, 0, 0, 0], [0, 0, 0, 0, 1], [0, 0, 0, 1, 1], [1, 1, 1, 1, 1], [1, 1, 1, 0, 1], [1, 0, 1, 1, 0]]
        report = self.assert_distinct_core_matches_bruteforce(data, np.array([0, 0, 0, 1, 1, 1]), 2)
        # Values frozen from the brute-force oracle.
        assert abs(report.macro_average - 0.33694571009325197) <= 1e-12
        np.testing.assert_allclose(
            report.per_user[[1, 5]], [0.47662710943897163, 0.13629048518454778], atol=1e-12
        )

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(6, 30))
            k = int(rng.integers(2, 5))
            data = rng.integers(0, 2, size=(n, 6))
            labels = rng.integers(0, k, size=n)
            labels[0], labels[1] = 0, 1
            report = silhouette_of(data, labels, k)
            _, _, macro = silhouette_bruteforce(data, labels, k)
            assert abs(report.macro_average - macro) <= 1e-9

    def test_matches_loop_reference_on_seeded_cases(self):
        rng = np.random.default_rng(31)
        seen_empty = seen_singleton = False
        for trial in range(40):
            n, m, k = int(rng.integers(4, 60)), int(rng.integers(1, 12)), int(rng.integers(2, 9))
            data = rng.integers(0, 2, size=(n, m))
            data[: n // 4] = data[-1]  # coincident rows
            used = rng.choice(k, size=int(rng.integers(2, k + 1)), replace=False)
            labels = used[rng.integers(0, len(used), size=n)]
            labels[0], labels[1] = used[0], used[1]
            if len(used) < k and trial % 3 == 0:
                labels[-1] = np.setdiff1d(np.arange(k), used)[0]
            sizes = np.bincount(labels, minlength=k)
            seen_empty |= bool((sizes == 0).any())
            seen_singleton |= bool((sizes == 1).any())
            report = silhouette_of(data, labels, k)
            per_user, per_cluster, macro = silhouette_loop(data, labels, k)
            np.testing.assert_allclose(report.per_user, per_user, rtol=0, atol=1e-12)
            np.testing.assert_allclose(report.per_cluster, per_cluster, rtol=0, atol=1e-12)
            assert abs(report.macro_average - macro) <= 1e-12
        assert seen_empty and seen_singleton

    @staticmethod
    def assert_distinct_core_matches_bruteforce(data, labels, k):
        report = silhouette_of(data, labels, k)
        per_user, per_cluster, macro = silhouette_bruteforce(np.asarray(data), labels, k)
        np.testing.assert_allclose(report.per_user, per_user, rtol=0, atol=1e-12)
        per_cluster = [np.nan if v is None else v for v in per_cluster]
        np.testing.assert_allclose(report.per_cluster, per_cluster, rtol=0, atol=1e-12)
        assert abs(report.macro_average - macro) <= 1e-12
        return report

    def test_distinct_row_core_matches_bruteforce(self):
        rng = np.random.default_rng(37)
        seen_split = seen_empty = seen_singleton = False
        for trial in range(40):
            n, k = int(rng.integers(4, 40)), int(rng.integers(2, 7))
            m = 300 if trial == 0 else int(rng.integers(1, 12))  # past 255 items the Hamming matrix is uint16
            base = rng.integers(0, 2, size=(int(rng.integers(2, n // 2 + 2)), m))
            data = base[rng.integers(0, len(base), size=n)]  # few distinct rows, each held by several users
            used = k - 1 if trial % 3 == 0 and k > 2 else k  # cluster k - 1 left empty
            labels = rng.integers(0, used, size=n)
            labels[0], labels[1] = 0, 1
            if trial % 4 == 1:
                labels[labels == used - 1] = 0
                labels[-1] = used - 1  # a singleton
            rows = np.unique(data, axis=0, return_inverse=True)[1].ravel()
            seen_split |= len(np.unique(rows * k + labels)) > len(np.unique(rows))
            sizes = np.bincount(labels, minlength=k)
            seen_empty |= bool((sizes == 0).any())
            seen_singleton |= bool((sizes == 1).any())
            if trial % 5 == 2:
                labels = labels.astype(np.uint64)  # the pair keys must stay integers
            self.assert_distinct_core_matches_bruteforce(data, labels, k)
        assert seen_split and seen_empty and seen_singleton

    def test_distinct_row_core_scores_coincident_rows_in_two_clusters_zero(self):
        # Clusters 0 and 1 hold copies of one row, so their users have a = b = 0.
        data = [[1, 0, 1]] * 4 + [[0, 1, 0], [0, 1, 1]]
        report = self.assert_distinct_core_matches_bruteforce(data, np.array([0, 0, 1, 1, 2, 2]), 4)
        assert report.per_user[:4].tolist() == [0.0] * 4
        assert np.isnan(report.per_cluster[3])

    def test_peak_memory_is_quadratic_not_cubic(self):
        # The d x d Hamming bytes take 4 MB; n x n float distances would take 32 MB and an
        # n x n x m difference tensor 640 MB.
        n = 2000
        rng = np.random.default_rng(3)
        data = rng.integers(0, 2, size=(n, 20))
        labels = rng.integers(0, 8, size=n)
        prefs = prefs_from(data)
        run = pk.KMeansRun(np.zeros((8, prefs.m)), labels, 1, True, (0.0,), pk.KMeansConfig(k=8))
        d = len(prefs.distinct.rows)
        tracemalloc.start()
        try:
            pk.silhouette(prefs, run)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * d * d

    @pytest.mark.parametrize(
        "labels, message",
        [
            ([0, 1, 2, 1], r"labels must lie in 0\.\.1, got 0\.\.2"),
            ([0, 1, -1, 1], r"labels must lie in 0\.\.1, got -1\.\.1"),
            ([0, 1, 1], r"labels must be 4 integer cluster ids, got int64 of shape \(3,\)"),
            ([0.0, 1.0, 0.0, 1.0], r"labels must be 4 integer cluster ids, got float64 of shape \(4,\)"),
        ],
        ids=["label_equal_to_k", "negative_label", "short_array", "float_labels"],
    )
    def test_bad_labels_rejected_by_name(self, labels, message):
        with pytest.raises(ValueError, match=message):
            silhouette_of([[0, 0], [0, 1], [1, 0], [1, 1]], labels, 2)

    def test_fewer_than_two_nonempty_clusters_rejected(self):
        with pytest.raises(ValueError, match="at least 2 non-empty clusters"):
            silhouette_of(np.zeros((3, 2)), [0, 0, 0], 2)

    def test_macro_skips_empty_clusters(self):
        report = silhouette_of([[0, 0, 0, 0], [0, 0, 0, 1], [1, 1, 1, 1], [1, 1, 1, 0]], [0, 0, 2, 2], 3)
        assert np.isnan(report.per_cluster[1])
        assert report.macro_average == pytest.approx(
            np.nanmean([report.per_cluster[0], report.per_cluster[2]])
        )


class TestSweep:
    def test_single_cell_table(self, survey):
        prefs, _, _ = survey
        table = pk.sweep(prefs, pk.KMeansConfig(k=4, seed=0), k_max=4, trials=1)
        assert table.k_values == (4,)
        assert table.scores.shape == (1, 1)

    def test_default_layout_matches_twelve_by_three(self, survey):
        # k_max defaults to 15.
        prefs, _, _ = survey
        table = pk.sweep(prefs, pk.KMeansConfig(k=4, seed=1))
        assert table.k_values == tuple(range(4, 16))
        assert table.scores.shape == (12, 3)
        assert (np.abs(table.scores) <= 1.0).all()

    def test_identical_seeds_identical_tables(self, survey):
        prefs, _, _ = survey
        a = pk.sweep(prefs, pk.KMeansConfig(k=4, seed=9), k_max=6, trials=2)
        b = pk.sweep(prefs, pk.KMeansConfig(k=4, seed=9), k_max=6, trials=2)
        assert (a.scores == b.scores).all()

    def test_shared_distances_match_per_cell_silhouette(self, survey):
        prefs, _, _ = survey
        config = pk.KMeansConfig(k=4, seed=5)
        table = pk.sweep(prefs, config, k_max=7, trials=2)
        for row, k in enumerate(table.k_values):
            for t in range(table.trials):
                run = pk.run_kmeans(prefs, replace(config, k=k, seed=pk.derive_seed(config.seed, "sweep", k, t)))
                assert table.scores[row, t] == pk.silhouette(prefs, run).macro_average
                assert abs(table.scores[row, t] - silhouette_loop(prefs.data, run.idx, k)[2]) <= 1e-12
                assert table.iterations[row, t] == run.iterations_used
                assert table.converged[row, t] == run.converged
                assert table.wcss[row, t] == run.wcss_trace[-1]

    def test_worker_count_never_changes_the_table(self, survey700, monkeypatch):
        prefs, config = survey700
        fork, forks = getattr(os, "fork", None), []

        def counted_fork():
            forks.append(1)
            return fork()

        tables = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)), raising=False)
            if fork is not None:
                monkeypatch.setattr(os, "fork", counted_fork)
            forks.clear()
            tables.append(pk.sweep(prefs, config))
            assert len(forks) == (cpus - 1 if fork is not None else 0)
        for table in tables[1:]:
            for name in ("scores", "iterations", "converged", "wcss"):
                assert np.array_equal(getattr(table, name), getattr(tables[0], name))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork: the sweep runs in-process")
    def test_a_worker_that_pulls_no_cell_leaves_the_table_complete(self, survey700, monkeypatch):
        prefs, config = survey700
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        want = pk.sweep(prefs, config, k_max=6)
        cells = want.scores.size
        fork, run_kmeans, forks, runs = os.fork, pk.kmeans.run_kmeans, [], []
        gate, opener = os.pipe()

        def gated_fork():
            pid = fork()
            if pid == 0:  # a worker waits until the parent has pulled every cell
                os.close(opener)
                select.select([gate], [], [], 30)  # a sweep that never opens the gate fails, not hangs
            forks.append(pid)
            return pid

        def counted_run(*args, **kwargs):
            runs.append(1)
            if len(runs) == cells:  # the parent pulled the last record before this call
                os.write(opener, b"xx")
            return run_kmeans(*args, **kwargs)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(os, "fork", gated_fork)
        monkeypatch.setattr(pk.kmeans, "run_kmeans", counted_run)
        try:
            table = pk.sweep(prefs, config, k_max=6)
        finally:
            os.close(gate)
            os.close(opener)
        assert len(forks) == 2 and len(runs) == cells  # every cell scored in the parent
        for name in ("scores", "iterations", "converged", "wcss"):
            assert np.array_equal(getattr(table, name), getattr(want, name))

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_more_cells_than_queue_records(self, monkeypatch, cpus):
        # Past 1,024 cells a queue record names every 1,024th cell from its first.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        cells = list(range(2500))
        results = pk.kmeans._in_workers(lambda cell: cell * cell, cells)
        assert results == [cell * cell for cell in cells]

    def test_fewer_cells_than_cpus_forks_nothing(self, survey700, monkeypatch):
        prefs, config = survey700

        def no_fork():
            raise AssertionError("a one-cell sweep forked")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(os, "fork", no_fork, raising=False)
        table = pk.sweep(prefs, config, k_max=config.k, trials=1)
        run = pk.run_kmeans(prefs, replace(config, seed=pk.derive_seed(config.seed, "sweep", config.k, 0)))
        assert table.scores[0, 0] == pk.silhouette(prefs, run).macro_average
        assert (table.iterations[0, 0], table.converged[0, 0]) == (run.iterations_used, run.converged)
        assert table.wcss[0, 0] == run.wcss_trace[-1]

    def test_builds_no_n_by_n_array(self, catalog20, constraint):
        kits = pk.random_kits(catalog20, constraint, 8, pk.derive_seed(0, "synth", "kits"))
        spec = pk.SyntheticSpec(3000, kits, 1, pk.derive_seed(0, "synth", "population"))
        prefs, _ = pk.generate_synthetic(spec, catalog20, constraint)
        d = len(prefs.distinct.rows)
        tracemalloc.start()
        try:
            pk.sweep(prefs, pk.KMeansConfig(k=4, seed=0), k_max=4, trials=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The d x d uint8 Hamming matrix, plus 4 MB for the k-means temporaries
        # and the 512 KB blocks; less than even an n x n uint8 matrix would take.
        assert peak < d * d + 4 * 2**20 < prefs.n**2

    def test_bounds_validation(self, survey):
        prefs, _, _ = survey
        with pytest.raises(ValueError):
            pk.sweep(prefs, pk.KMeansConfig(k=5, seed=0), k_max=4)
        with pytest.raises(ValueError):
            pk.sweep(prefs, pk.KMeansConfig(k=4, seed=0), k_max=999)
