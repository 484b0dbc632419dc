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
    dense,
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
        want = sorted(map(tuple, dense(prefs).tolist()))
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


def nearest(rows, centroids):
    """``_nearest`` of a one-cell batch: every row against all the centroids."""
    rows, centroids = np.asarray(rows, dtype=float), np.asarray(centroids, dtype=float)
    cells, at = np.zeros(len(rows), dtype=np.intp), np.arange(len(rows))
    return nearest_in_batch(rows, centroids[None], np.array([len(centroids)]), cells, at)


def nearest_in_batch(rows, centroids, ks, cells, at):
    """``_nearest`` of the pairs ``(cells[p], at[p])`` of a batch whose cell c has the first ``ks[c]`` centroids."""
    screen = pk.kmeans._screen(centroids, np.arange(centroids.shape[1]) < ks[:, None])
    lifted = np.column_stack([rows, np.ones(len(rows))])
    return pk.kmeans._nearest(lifted, rows.sum(axis=1), centroids, screen, cells, at)


def closest(prefs, centroids):
    """Nearest centroid per row from ``_nearest``, the screened full pass of the batch's assignment."""
    return nearest(dense(prefs), centroids)[0]


def update(rows, idx, prev, damping):
    """``_update`` of a one-cell batch with each user row its own distinct row of weight 1, and sums from ``idx``."""
    rows, prev = np.asarray(rows, dtype=float), np.asarray(prev, dtype=float)
    sums = np.zeros((len(prev), rows.shape[1] + 1))
    np.add.at(sums, idx, np.column_stack([rows, np.ones(len(rows))]))
    damping, valid = np.array([damping])[:, None, None], np.ones((1, len(prev)), dtype=bool)
    slots = np.asarray(idx)[None]  # one run, so a cluster's slot is its index
    return pk.kmeans._update(prev[None], sums[None], damping, valid, rows, slots, np.arange(len(rows)))[0]


class TestFindClosestCentroids:
    """Nearest-centroid assignment, as the k-means batch does it in ``_nearest``."""

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
            labels, lower = nearest(rows, centroids)
            assert labels.tolist() == np.argmin(d2, axis=1).tolist()
            others = np.arange(10) != labels[:, None]
            assert (lower[:, None] <= np.sqrt(d2))[others].all()  # a bound on every other centroid
            # The same pairs as the second cell of a batch padded to 13 centroids, screened in one call with
            # the first cell's pairs against the batch's prebuilt terms: the padding screens as +inf, never nearest.
            padded = np.stack([rng.random((13, 20)), np.vstack([centroids, np.zeros((3, 20))])])
            terms = pk.kmeans._screen(padded, np.arange(13) < np.array([[13], [10]]))
            assert np.isinf(terms[1, 10:, -1]).all() and np.isfinite(terms[0]).all()
            assert np.isfinite(terms[1, :10]).all()
            cells, at = np.repeat([0, 1], len(rows)), np.tile(np.arange(len(rows)), 2)
            got = nearest_in_batch(rows, padded, np.array([13, 10]), cells, at)
            assert np.array_equal(got[0][len(rows):], labels) and np.array_equal(got[1][len(rows):], lower)
            screen = np.einsum("ij,ij->i", centroids, centroids)[:, None] - 2.0 * (centroids @ rows.T)
            screen_wrong += int((screen.argmin(axis=0) != labels).sum())
        assert screen_wrong  # the screen alone would have mislabelled some rows


class TestComputeCentroids:
    """The damped centroid update ``run_kmeans`` applies each iteration."""

    def test_undamped_update_is_plain_mean(self):
        prefs = prefs_from([[0, 0], [1, 1]])
        # Both rows in cluster 0 with damping 1: centroid becomes the mean.
        out = update(dense(prefs), np.array([0, 0]), np.array([[5.0, 5.0]]), 1.0)
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_damped_update_blends_with_previous(self):
        prefs = prefs_from([[1, 1]])
        out = update(dense(prefs), np.array([0]), np.array([[0.0, 0.0]]), 0.3)
        np.testing.assert_allclose(out, [[0.3, 0.3]])

    def test_empty_cluster_reseeded_to_farthest_row(self):
        prefs = prefs_from([[0, 0], [0, 1], [1, 1]])
        idx = np.array([0, 0, 0])
        out = update(dense(prefs), idx, np.array([[0.0, 0.0], [9.0, 9.0]]), 1.0)
        # Cluster 0 moves to the mean; row (1,1) is farthest from it.
        np.testing.assert_allclose(out[0], [1 / 3, 2 / 3])
        np.testing.assert_allclose(out[1], [1.0, 1.0])

    def test_two_empty_clusters_take_distinct_donors(self):
        prefs = prefs_from([[0, 0], [0, 1], [1, 1]])
        idx = np.array([0, 0, 0])
        prev = np.array([[0.0, 0.0], [9.0, 9.0], [8.0, 8.0]])
        out = update(dense(prefs), idx, prev, 1.0)
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
            out = update(dense(prefs), idx, prev, damping)
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
            d2 = ((dense(prefs)[:, None, :] - run.centroids[None, :, :]) ** 2).sum(axis=2)
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

        def counted(lifted, sq_norms, centroids, screen, cells, at):
            full_rows.append(len(at))
            return nearest(lifted, sq_norms, centroids, screen, cells, at)

        monkeypatch.setattr(pk.kmeans, "_nearest", counted)
        runs = pk.kmeans._run_batch(prefs, [pk.KMeansConfig(k=k, seed=k) for k in (4, 8, 15)])
        row_iterations = sum(len(prefs.distinct.rows) * (iters + 1) for _, _, iters, _, _ in runs)  # + the final pass
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


def run_of(prefs, config, result):
    """The ``KMeansRun`` that ``run_kmeans`` builds from one ``_run_batch`` result."""
    centroids, labels, iterations, converged, trace = result
    return pk.KMeansRun(centroids, labels[prefs.distinct.inverse], iterations, converged, tuple(trace), config)


def sweep_configs(config, k_values, trials=3):
    """The (k, trial) cells of a sweep, largest k first, as ``sweep`` queues them."""
    cells = [(k, pk.derive_seed(config.seed, "sweep", k, t)) for k in k_values for t in range(trials)][::-1]
    return [replace(config, k=k, seed=seed) for k, seed in cells]


class TestBatch:
    """``_run_batch`` advances several runs together and ``_silhouettes`` scores them together; each cell must
    come out as it would alone."""

    @staticmethod
    def mixed_batch(m):
        """A survey of 9 distinct rows of m items, and 16 configs: k 1 to 12, both dampings, max_iters 1 or 40."""
        rng = np.random.default_rng(71 + m)
        base = rng.integers(0, 2, size=(9, m))
        while len(np.unique(base, axis=0)) < 9:
            base = rng.integers(0, 2, size=(9, m))
        prefs = prefs_from(base[rng.permutation(np.repeat(np.arange(9), rng.integers(1, 40, size=9)))])
        # k = 12 exceeds the 9 distinct rows, so its empty clusters are reseeded every iteration.
        grid = [(k, damping, max_iters) for k in (1, 2, 5, 12) for damping in (0.3, 1.0) for max_iters in (1, 40)]
        configs = [pk.KMeansConfig(k=k, damping=damping, max_iters=max_iters, seed=seed)
                   for seed, (k, damping, max_iters) in enumerate(grid)]
        return prefs, configs

    @pytest.mark.parametrize("m", [10, 100])
    def test_mixed_batch_matches_the_user_row_run_on_every_field(self, m):
        prefs, configs = self.mixed_batch(m)
        results = pk.kmeans._run_batch(prefs, configs)
        for config, result in zip(configs, results):
            assert_same_run(run_of(prefs, config, result), run_kmeans_rows(prefs, config))
        iterations = [result[2] for result in results]
        assert len(set(iterations)) >= 4  # the runs left the batch at different iterations
        assert any(result[3] for result in results) and not all(result[3] for result in results)

    @pytest.mark.parametrize("m", [10, 100])
    def test_final_wcss_alone_is_the_last_entry_of_the_full_trace(self, m):
        # The sweep reads only each run's final WCSS, so its batch sums each run's users once, when it stops.
        prefs, configs = self.mixed_batch(m)
        full = pk.kmeans._run_batch(prefs, configs)
        final = pk.kmeans._run_batch(prefs, configs, full_trace=False)
        for config, whole, last in zip(configs, full, final):
            assert last[4] == [whole[4][-1]] == [run_kmeans_rows(prefs, config).wcss_trace[-1]]
            assert_same_run(run_of(prefs, config, last), run_of(prefs, config, (*whole[:4], whole[4][-1:])))
        iterations = [result[2] for result in full]
        assert len(set(iterations)) >= 4  # the runs left the batch at different iterations,
        assert max(iterations.count(i) for i in set(iterations)) >= 3  # and some of them together
        assert {1, 40} <= {config.max_iters for config in configs} and min(config.k for config in configs) == 1

    def test_runs_of_many_users_sum_their_wcss_alone(self):
        # Each run's WCSS sums its own users' distances in user order, also where n is far above d.
        rng = np.random.default_rng(83)
        base = rng.integers(0, 2, size=(12, 10))
        while len(np.unique(base, axis=0)) < 12:
            base = rng.integers(0, 2, size=(12, 10))
        prefs = prefs_from(base[rng.integers(0, 12, size=40000)])
        configs = [pk.KMeansConfig(k=k, max_iters=6, seed=k) for k in (2, 3, 5)]
        for config, result in zip(configs, pk.kmeans._run_batch(prefs, configs)):
            assert_same_run(run_of(prefs, config, result), run_kmeans_rows(prefs, config))

    def test_update_leaves_the_padding_past_a_runs_k_alone(self):
        # Run 0 has k = 1, so its clusters 1 and 2 are padding: empty, but never reseeded.
        rows = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        labels = [np.array([0, 0, 0]), np.array([0, 0, 2])]
        prev = np.array([[[0.5, 0.5], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [9.0, 9.0], [8.0, 8.0]]])
        sums = np.zeros((2, 3, 3))
        for c in range(2):
            np.add.at(sums[c], labels[c], np.column_stack([rows, np.ones(3)]))
        slots = np.stack(labels) + np.array([[0], [3]])
        valid = np.array([[True, False, False], [True, True, True]])
        new = pk.kmeans._update(prev, sums, np.full((2, 1, 1), 0.3), valid, rows, slots, np.arange(3))
        assert (new[0, 1:] == 0).all()
        assert np.array_equal(new[0, :1], update(rows, labels[0], prev[0, :1], 0.3))
        assert np.array_equal(new[1], update(rows, labels[1], prev[1], 0.3))

    def test_a_cell_gives_the_same_run_in_any_batch(self, survey700):
        prefs, config = survey700
        configs = sweep_configs(config, range(4, 16))
        cell = configs[len(configs) // 2]
        alone = pk.kmeans._run_batch(prefs, [cell])[0]
        # Before larger-k cells (padded to k = 15) and after smaller-k ones, in two batch sizes.
        for batch in (configs[: len(configs) // 2 + 1], [cell, *configs[-5:]]):
            got = pk.kmeans._run_batch(prefs, batch)[batch.index(cell)]
            assert_same_run(run_of(prefs, cell, got), run_of(prefs, cell, alone))
        assert_same_run(run_of(prefs, cell, alone), pk.run_kmeans(prefs, cell))

    def test_batched_silhouettes_equal_each_run_scored_alone(self, survey700):
        prefs, config = survey700
        configs = sweep_configs(config, range(4, 16))[::3]
        runs = [pk.run_kmeans(prefs, cell) for cell in configs]
        rng = np.random.default_rng(5)
        split = rng.integers(0, 6, size=prefs.n)  # labels that split identical rows, scored as user keys
        distinct, d = prefs.distinct, len(prefs.distinct.rows)
        cells = [(np.arange(d) * run.k + run.idx[distinct.first], distinct.weights, run.k) for run in runs]
        cells.append((distinct.inverse * 6 + split, None, 6))
        ham = pk.kmeans._hamming(distinct.rows, distinct.rows, np.uint8)
        macros = [macro for _, _, macro in pk.kmeans._silhouettes(ham, cells)]
        split_run = pk.KMeansRun(np.zeros((6, prefs.m)), split, 1, True, (0.0,), pk.KMeansConfig(k=6))
        assert macros == [pk.silhouette(prefs, run).macro_average for run in [*runs, split_run]]

    def test_one_batch_holds_its_state_and_blocks(self, survey700):
        # One worker's 18 cells of the default sweep on two CPUs.  Their state is a few arrays of one
        # float per (cell, distinct row); every temporary beyond it is cut into blocks of _BLOCK_FLOATS.
        prefs, config = survey700
        configs = sweep_configs(config, range(4, 16))[::2]
        distinct, d = prefs.distinct, len(prefs.distinct.rows)
        ham = pk.kmeans._hamming(distinct.rows, distinct.rows, np.uint8)
        pk.kmeans._run_batch(prefs, configs[:2])  # numpy's lazily imported modules load outside the trace
        bound = 10 * len(configs) * d * 8 + 2 * 512 * 1024  # ten (cell, row) arrays and two blocks of 2**16 floats
        tracemalloc.start()
        try:
            runs = pk.kmeans._run_batch(prefs, configs)
            batch_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            cells = [(np.arange(d) * cell.k + labels, distinct.weights, cell.k) for cell, (_, labels, *_) in
                     zip(configs, runs)]
            for _ in pk.kmeans._silhouettes(ham, cells):
                pass
            silhouette_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch_peak < bound and silhouette_peak < bound, (batch_peak, silhouette_peak, bound)


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
                assert abs(table.scores[row, t] - silhouette_loop(dense(prefs), run.idx, k)[2]) <= 1e-12
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
        fork, run_batch, forks, batches = os.fork, pk.kmeans._run_batch, [], []
        gate, opener = os.pipe()

        def gated_fork():
            pid = fork()
            if pid == 0:  # a worker waits until the parent has pulled every cell
                os.close(opener)
                select.select([gate], [], [], 30)  # a sweep that never opens the gate fails, not hangs
            forks.append(pid)
            return pid

        def counted_batch(prefs, configs, full_trace=True):
            batches.append(len(configs))
            if len(batches) == 3:  # the parent pulled the last record before this call
                os.write(opener, b"xx")
            return run_batch(prefs, configs, full_trace)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(os, "fork", gated_fork)
        monkeypatch.setattr(pk.kmeans, "_run_batch", counted_batch)
        try:
            table = pk.sweep(prefs, config, k_max=6)
        finally:
            os.close(gate)
            os.close(opener)
        assert len(forks) == 2 and sum(batches) == cells  # every batch scored in the parent
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
