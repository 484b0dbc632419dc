import numpy as np
import pytest

import prefkit as pk
from oracles import silhouette_bruteforce


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


class TestFindClosestCentroids:
    def test_exact_match_wins(self):
        prefs = prefs_from([[1, 1, 0]])
        centroids = np.array([[0.0, 0.0, 0.0], [9.0, 9.0, 9.0], [0.5, 0.5, 0.5], [1.0, 1.0, 0.0]])
        assert pk.find_closest_centroids(prefs, centroids).tolist() == [3]

    def test_equidistant_breaks_to_lowest_index(self):
        prefs = prefs_from([[0, 0]])
        centroids = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert pk.find_closest_centroids(prefs, centroids).tolist() == [0]

    def test_one_hot_users_match_hand_distance_table(self):
        # Users e0..e3; centroids at e0 and e1.  Squared distances:
        # e0 -> (0, 2); e1 -> (2, 0); e2 -> (2, 2) tie; e3 -> (2, 2) tie.
        prefs = prefs_from(np.eye(4, dtype=int).tolist())
        centroids = np.eye(4)[:2]
        assert pk.find_closest_centroids(prefs, centroids).tolist() == [0, 1, 0, 0]

    def test_empty_centroids_rejected(self):
        prefs = prefs_from([[1, 0]])
        with pytest.raises(ValueError):
            pk.find_closest_centroids(prefs, np.zeros((0, 2)))

    def test_width_mismatch_rejected(self):
        prefs = prefs_from([[1, 0]])
        with pytest.raises(ValueError):
            pk.find_closest_centroids(prefs, np.zeros((1, 3)))


class TestComputeCentroids:
    def test_undamped_update_is_plain_mean(self):
        prefs = prefs_from([[0, 0], [1, 1]])
        # Both rows in cluster 0 with damping 1: centroid becomes the mean.
        out = pk.compute_centroids(prefs, np.array([0, 0]), np.array([[5.0, 5.0]]), 1.0)
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_damped_update_blends_with_previous(self):
        prefs = prefs_from([[1, 1]])
        out = pk.compute_centroids(prefs, np.array([0]), np.array([[0.0, 0.0]]), 0.3)
        np.testing.assert_allclose(out, [[0.3, 0.3]])

    def test_empty_cluster_reseeded_to_farthest_row(self):
        prefs = prefs_from([[0, 0], [0, 1], [1, 1]])
        idx = np.array([0, 0, 0])
        out = pk.compute_centroids(prefs, idx, np.array([[0.0, 0.0], [9.0, 9.0]]), 1.0)
        # Cluster 0 moves to the mean; row (1,1) is farthest from it.
        np.testing.assert_allclose(out[0], [1 / 3, 2 / 3])
        np.testing.assert_allclose(out[1], [1.0, 1.0])

    def test_two_empty_clusters_take_distinct_donors(self):
        prefs = prefs_from([[0, 0], [0, 1], [1, 1]])
        idx = np.array([0, 0, 0])
        prev = np.array([[0.0, 0.0], [9.0, 9.0], [8.0, 8.0]])
        out = pk.compute_centroids(prefs, idx, prev, 1.0)
        donors = {tuple(out[1]), tuple(out[2])}
        assert len(donors) == 2
        assert donors <= {(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)}


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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            pk.KMeansConfig(k=2, damping=0.0)
        with pytest.raises(ValueError):
            pk.KMeansConfig(k=2, damping=1.5)
        with pytest.raises(ValueError):
            pk.KMeansConfig(k=0)
        with pytest.raises(ValueError):
            pk.KMeansConfig(k=2, max_iters=0)


class TestKitsFromCentroids:
    def test_indicator_centroid_returns_its_kit(self, catalog20, constraint):
        kit = pk.Kit(kit_id=0, items=frozenset([0, 1, 2, 3, 4, 5, 10, 11, 12, 13]))
        run = _run_with_centroids(kit.indicator(20)[None, :].astype(float))
        kits = pk.kits_from_centroids(run, catalog20, constraint)
        assert kits[0].items == kit.items

    def test_top_coordinates_win(self, catalog_factory):
        catalog = catalog_factory(2, 2)
        c = pk.SelectionConstraint(total=2, expensive_quota=1, cheap_quota=1)
        run = _run_with_centroids(np.array([[0.9, 0.9, 0.1, 0.1]]))
        kits = pk.kits_from_centroids(run, catalog, c)
        assert kits[0].items == frozenset({0, 1})

    def test_all_equal_coordinates_take_lowest_ids(self, catalog20, constraint):
        run = _run_with_centroids(np.full((1, 20), 0.5))
        kits = pk.kits_from_centroids(run, catalog20, constraint)
        assert kits[0].items == frozenset(range(10))

    def test_constrained_mode_respects_quotas(self, catalog20, constraint):
        coords = np.zeros((1, 20))
        coords[0, :10] = np.linspace(1.0, 0.1, 10)   # expensive block
        coords[0, 10:] = np.linspace(0.09, 0.01, 10)  # cheap block, all smaller
        run = _run_with_centroids(coords)
        flat = pk.kits_from_centroids(run, catalog20, constraint)[0]
        quota = pk.kits_from_centroids(run, catalog20, constraint, constrained=True)[0]
        assert flat.items == frozenset(range(10))
        assert quota.items == frozenset([0, 1, 2, 3, 4, 5, 10, 11, 12, 13])


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
        assignment = pk.assignment_from_clusters(run.idx)
        for i, kit in enumerate(designed):
            members = np.flatnonzero(assignment.kit_index == i)
            assert np.unique(run.idx[members]).tolist() == [used[i]]
            profile = pk.frequency_profile(prefs, members, cluster_id=i)
            assert kit == pk.design_kit(profile, catalog20, constraint)


def _run_with_centroids(centroids):
    n, m = centroids.shape[0], centroids.shape[1]
    return pk.KMeansRun(
        centroids=np.asarray(centroids, dtype=float),
        idx=np.zeros(n, dtype=np.int64),
        iterations_used=1,
        converged=True,
        wcss_trace=(0.0,),
        config=pk.KMeansConfig(k=n),
    )


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
        table = pk.sweep(prefs, pk.KMeansConfig(k=4, seed=0), k_min=4, k_max=4, trials=1)
        assert table.k_values == (4,)
        assert table.scores.shape == (1, 1)

    def test_default_layout_matches_twelve_by_three(self, survey):
        # k_max defaults to 15, k_min to 4.
        prefs, _, _ = survey
        table = pk.sweep(prefs, pk.KMeansConfig(k=4, seed=1))
        assert table.k_values == tuple(range(4, 16))
        assert table.scores.shape == (12, 3)
        assert (np.abs(table.scores) <= 1.0).all()

    def test_identical_seeds_identical_tables(self, survey):
        prefs, _, _ = survey
        a = pk.sweep(prefs, pk.KMeansConfig(k=4, seed=9), k_min=4, k_max=6, trials=2)
        b = pk.sweep(prefs, pk.KMeansConfig(k=4, seed=9), k_min=4, k_max=6, trials=2)
        assert (a.scores == b.scores).all()

    def test_bounds_validation(self, survey):
        prefs, _, _ = survey
        with pytest.raises(ValueError):
            pk.sweep(prefs, pk.KMeansConfig(k=4, seed=0), k_min=5, k_max=4)
        with pytest.raises(ValueError):
            pk.sweep(prefs, pk.KMeansConfig(k=4, seed=0), k_min=4, k_max=999)
