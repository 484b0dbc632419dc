import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import prefkit as pk
from oracles import compute_centroids_loop, design_all_loop, run_kmeans_loop, silhouette_bruteforce, silhouette_loop


def prefs_from(rows):
    return pk.PreferenceMatrix(
        tuple(f"u{i}" for i in range(len(rows))), np.array(rows, dtype=np.int8)
    )


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
    """Nearest centroid per row from ``_assign``'s full pass, which a zero bound forces."""
    idx = np.zeros(prefs.n, dtype=np.intp)
    pk.kmeans._assign(prefs.data.astype(float), np.asarray(centroids, dtype=float), idx, np.zeros(prefs.n))
    return idx


class TestFindClosestCentroids:
    """Nearest-centroid assignment, as ``run_kmeans`` does it in ``_assign``."""

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


class TestComputeCentroids:
    """The damped centroid update ``run_kmeans`` applies each iteration."""

    def test_undamped_update_is_plain_mean(self):
        prefs = prefs_from([[0, 0], [1, 1]])
        # Both rows in cluster 0 with damping 1: centroid becomes the mean.
        out = pk.kmeans._update(prefs.data.astype(float), np.array([0, 0]), np.array([[5.0, 5.0]]), 1.0)
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_damped_update_blends_with_previous(self):
        prefs = prefs_from([[1, 1]])
        out = pk.kmeans._update(prefs.data.astype(float), np.array([0]), np.array([[0.0, 0.0]]), 0.3)
        np.testing.assert_allclose(out, [[0.3, 0.3]])

    def test_empty_cluster_reseeded_to_farthest_row(self):
        prefs = prefs_from([[0, 0], [0, 1], [1, 1]])
        idx = np.array([0, 0, 0])
        out = pk.kmeans._update(prefs.data.astype(float), idx, np.array([[0.0, 0.0], [9.0, 9.0]]), 1.0)
        # Cluster 0 moves to the mean; row (1,1) is farthest from it.
        np.testing.assert_allclose(out[0], [1 / 3, 2 / 3])
        np.testing.assert_allclose(out[1], [1.0, 1.0])

    def test_two_empty_clusters_take_distinct_donors(self):
        prefs = prefs_from([[0, 0], [0, 1], [1, 1]])
        idx = np.array([0, 0, 0])
        prev = np.array([[0.0, 0.0], [9.0, 9.0], [8.0, 8.0]])
        out = pk.kmeans._update(prefs.data.astype(float), idx, prev, 1.0)
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
            out = pk.kmeans._update(prefs.data.astype(float), idx, prev, damping)
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
        sq_distances = pk.kmeans._sq_distances

        def counted(rows, centroids):
            full_rows.append(len(rows))
            return sq_distances(rows, centroids)

        monkeypatch.setattr(pk.kmeans, "_sq_distances", counted)
        row_iterations = 0
        for k in (4, 8, 15):
            run = pk.run_kmeans(prefs, pk.KMeansConfig(k=k, seed=k))
            row_iterations += prefs.n * (run.iterations_used + 1)  # + the final assignment
        assert sum(full_rows) < 0.4 * row_iterations


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
        designed = pk.design_all(prefs, run.idx, catalog20, constraint)
        assert len(designed) == len(used) < run.k
        assert designed == design_all_loop(prefs, run.idx, catalog20, constraint)
        assignment = pk.assignment_from_clusters(run.idx)
        for i in range(len(designed)):
            members = np.flatnonzero(assignment.kit_index == i)
            assert np.unique(run.idx[members]).tolist() == [used[i]]


class TestSilhouette:
    def test_two_tight_separated_clusters_score_one(self):
        data = np.array([[0.0, 0.0]] * 3 + [[9.0, 9.0]] * 3)
        labels = np.array([0, 0, 0, 1, 1, 1])
        report = pk.silhouette_from_labels(data, labels, 2)
        np.testing.assert_allclose(report.per_user, np.ones(6))
        assert report.macro_average == 1.0

    def test_coincident_points_score_zero(self):
        data = np.zeros((4, 3))
        labels = np.array([0, 0, 1, 1])
        report = pk.silhouette_from_labels(data, labels, 2)
        assert (report.per_user == 0).all()
        assert report.macro_average == 0.0

    def test_singletons_score_zero(self):
        data = np.array([[0.0, 0.0], [5.0, 5.0], [5.0, 6.0]])
        labels = np.array([0, 1, 1])
        report = pk.silhouette_from_labels(data, labels, 2)
        assert report.per_user[0] == 0.0

    def test_six_point_instance_matches_bruteforce(self):
        data = np.array([[0, 0], [0, 1], [1, 0], [4, 4], [4, 5], [5, 4]], dtype=float)
        labels = np.array([0, 0, 0, 1, 1, 1])
        report = pk.silhouette_from_labels(data, labels, 2)
        oracle_user, oracle_cluster, oracle_macro = silhouette_bruteforce(data, labels, 2)
        np.testing.assert_allclose(report.per_user, oracle_user, atol=1e-12)
        np.testing.assert_allclose(report.per_cluster, oracle_cluster, atol=1e-12)
        assert abs(report.macro_average - oracle_macro) <= 1e-12
        # Values frozen from the brute-force oracle.
        assert abs(report.macro_average - 0.8003016549277946) <= 1e-12
        np.testing.assert_allclose(
            report.per_user[:2], [0.8375137676051518, 0.7803637238418593], atol=1e-12
        )

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(6, 30))
            k = int(rng.integers(2, 5))
            data = rng.integers(0, 2, size=(n, 6)).astype(float)
            labels = rng.integers(0, k, size=n)
            labels[0], labels[1] = 0, 1
            report = pk.silhouette_from_labels(data, labels, k)
            _, _, macro = silhouette_bruteforce(data, labels, k)
            assert abs(report.macro_average - macro) <= 1e-9

    def test_matches_loop_reference_on_seeded_cases(self):
        rng = np.random.default_rng(31)
        seen_empty = seen_singleton = False
        for trial in range(40):
            n, m, k = int(rng.integers(4, 60)), int(rng.integers(1, 12)), int(rng.integers(2, 9))
            if trial % 2:
                data = rng.normal(size=(n, m))
            else:
                data = rng.integers(0, 2, size=(n, m)).astype(float)
            data[: n // 4] = data[-1]  # coincident rows
            used = rng.choice(k, size=int(rng.integers(2, k + 1)), replace=False)
            labels = used[rng.integers(0, len(used), size=n)]
            labels[0], labels[1] = used[0], used[1]
            if len(used) < k and trial % 3 == 0:
                labels[-1] = np.setdiff1d(np.arange(k), used)[0]
            sizes = np.bincount(labels, minlength=k)
            seen_empty |= bool((sizes == 0).any())
            seen_singleton |= bool((sizes == 1).any())
            report = pk.silhouette_from_labels(data, labels, k)
            per_user, per_cluster, macro = silhouette_loop(data, labels, k)
            np.testing.assert_allclose(report.per_user, per_user, rtol=0, atol=1e-12)
            np.testing.assert_allclose(report.per_cluster, per_cluster, rtol=0, atol=1e-12)
            assert abs(report.macro_average - macro) <= 1e-12
        assert seen_empty and seen_singleton

    def test_peak_memory_is_quadratic_not_cubic(self):
        # The n x n distances take 32 MB; an n x n x m difference tensor would take 640 MB.
        n = 2000
        rng = np.random.default_rng(3)
        data = rng.integers(0, 2, size=(n, 20)).astype(float)
        labels = rng.integers(0, 8, size=n)
        tracemalloc.start()
        try:
            pk.silhouette_from_labels(data, labels, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * n * 8

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
        prefs = prefs_from([[0, 0], [0, 1], [1, 0], [1, 1]])
        run = pk.KMeansRun(np.zeros((2, 2)), np.array(labels), 1, True, (0.0,), pk.KMeansConfig(k=2))
        with pytest.raises(ValueError, match=message):
            pk.silhouette_from_labels(prefs.data, run.idx, 2)
        with pytest.raises(ValueError, match=message):
            pk.silhouette(prefs, run)

    def test_fewer_than_two_nonempty_clusters_rejected(self):
        data = np.zeros((3, 2))
        with pytest.raises(ValueError):
            pk.silhouette_from_labels(data, np.array([0, 0, 0]), 2)

    def test_macro_skips_empty_clusters(self):
        data = np.array([[0.0, 0.0], [0.1, 0.0], [9.0, 9.0], [9.1, 9.0]])
        labels = np.array([0, 0, 2, 2])
        report = pk.silhouette_from_labels(data, labels, 3)
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

    def test_bounds_validation(self, survey):
        prefs, _, _ = survey
        with pytest.raises(ValueError):
            pk.sweep(prefs, pk.KMeansConfig(k=5, seed=0), k_max=4)
        with pytest.raises(ValueError):
            pk.sweep(prefs, pk.KMeansConfig(k=4, seed=0), k_max=999)
