import numpy as np
import pytest

import prefkit as pk


def fake_truncated(u=None, vt=None, rank=None):
    """Hand-built factors for sign-reading tests; orthonormality irrelevant."""
    if u is None:
        u = np.zeros((1, rank))
    if vt is None:
        vt = np.zeros((rank or u.shape[1], 1))
    rank = rank or u.shape[1]
    return pk.SvdFactors(u=np.asarray(u, float), sigma=np.ones(rank), vt=np.asarray(vt, float))


class TestUserSignClusters:
    def test_reads_sign_patterns(self):
        u = np.array([[0.5, 0.5], [0.5, -0.5], [0.4, -0.1]])
        clustering = pk.user_sign_clusters(fake_truncated(u=u))
        assert clustering.patterns == ("11", "10", "10")
        assert clustering.labels.tolist() == [0, 1, 1]

    def test_zero_maps_to_bit_one(self):
        u = np.array([[0.5, 0.0], [0.5, -0.0]])
        clustering = pk.user_sign_clusters(fake_truncated(u=u))
        # IEEE -0.0 >= 0 holds, so both rows share pattern "11".
        assert clustering.patterns == ("11", "11")
        assert clustering.n_clusters == 1

    def test_non_negative_matrix_rank_one_single_cluster(self, survey):
        prefs, _, _ = survey
        t = pk.truncate(pk.svd(prefs.data.astype(float)), 1)
        assert pk.user_sign_clusters(t).n_clusters == 1

    def test_survey_scale_rank_four_at_most_eight(self, survey):
        prefs, _, _ = survey
        t = pk.truncate(pk.svd(prefs.data.astype(float)), 4)
        assert pk.user_sign_clusters(t).n_clusters <= 8

    def test_cluster_ids_by_first_occurrence(self):
        u = np.array([[0.1, -0.2], [0.3, 0.4], [0.2, -0.9], [0.5, 0.5]])
        clustering = pk.user_sign_clusters(fake_truncated(u=u))
        assert clustering.labels.tolist() == [0, 1, 0, 1]
        assert clustering.codes.tolist() == [0b10, 0b11, 0b10, 0b11]


    def test_matches_per_element_string_coding(self):
        # Reference: one bit string per element, clusters numbered by first occurrence.
        rng = np.random.default_rng(47)
        for rank in (1, 3, 63, 64, 70):
            u = rng.normal(size=(40, rank))
            u[rng.random(u.shape) < 0.1] = 0.0
            clustering = pk.user_sign_clusters(fake_truncated(u=u))
            patterns = ["".join("1" if v >= 0 else "0" for v in row) for row in u]
            first = {}
            for p in patterns:
                first.setdefault(p, len(first))
            assert clustering.patterns == tuple(patterns)
            assert clustering.codes.tolist() == [int(p, 2) for p in patterns]
            assert clustering.labels.tolist() == [first[p] for p in patterns]
            assert clustering.n_clusters == len(first)


class TestItemSignClusters:
    def test_leading_row_splits_items(self):
        vt = np.array([[0.7, -0.7]])
        clustering = pk.item_sign_clusters(fake_truncated(vt=vt, rank=1))
        assert clustering.patterns == ("1", "0")
        assert clustering.n_clusters == 2

    def test_non_negative_matrix_rank_one_single_cluster(self, survey):
        prefs, _, _ = survey
        t = pk.truncate(pk.svd(prefs.data.astype(float)), 1)
        assert pk.item_sign_clusters(t).n_clusters == 1

    def test_high_rank_fragments_towards_singletons(self, survey):
        # Item clustering degrades as rank grows: most clusters end up tiny.
        prefs, _, _ = survey
        f = pk.svd(prefs.data.astype(float))
        counts = dict(pk.cluster_count_table(f, pk.ITEMS, 1, 12))
        assert counts[12] >= counts[4]
        assert counts[12] > prefs.m // 2


def refines(fine: pk.SignClustering, coarse: pk.SignClustering) -> bool:
    # Each fine cluster lies inside one coarse cluster: one coarse label per fine label.
    pairs = set(zip(fine.labels.tolist(), coarse.labels.tolist()))
    return len(pairs) == len(set(fine.labels.tolist()))


class TestClusterCountTable:
    def test_non_negative_matrices_obey_halved_bound(self, survey):
        prefs, _, _ = survey
        f = pk.svd(prefs.data.astype(float))
        table = pk.cluster_count_table(f, pk.USERS, 1, 8)
        assert table[0] == (1, 1)
        for r, count in table[1:]:
            assert count <= 2 ** (r - 1)
        counts = [c for _, c in table]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_rank_one_positive_matrix_counts_one(self):
        a = np.outer(np.arange(1, 7), np.arange(1, 5)).astype(float)
        f = pk.svd(a)
        assert pk.cluster_count_table(f, pk.USERS, 1, 1) == [(1, 1)]
        assert pk.cluster_count_table(f, pk.ITEMS, 1, 1) == [(1, 1)]

    def test_counts_non_decreasing_for_general_matrices(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = rng.normal(size=(int(rng.integers(8, 60)), int(rng.integers(3, 12))))
            f = pk.svd(a)
            for axis in (pk.USERS, pk.ITEMS):
                counts = [c for _, c in pk.cluster_count_table(f, axis, 1, f.p)]
                assert all(x <= y for x, y in zip(counts, counts[1:]))

    def test_counts_match_coding_at_each_rank(self, survey):
        # Reference: code the elements afresh at every rank.
        rng = np.random.default_rng(43)
        matrices = [survey[0].data.astype(float)] + [
            rng.integers(0, 2, size=(40, 10)).astype(float) for _ in range(5)
        ]
        for a in matrices:
            f = pk.svd(a)
            for axis, build in ((pk.USERS, pk.user_sign_clusters), (pk.ITEMS, pk.item_sign_clusters)):
                for r_min in (1, 3):
                    expected = [
                        (r, build(pk.truncate(f, r)).n_clusters) for r in range(r_min, f.p + 1)
                    ]
                    assert pk.cluster_count_table(f, axis, r_min, f.p) == expected

    def test_refinement_each_added_bit_only_splits(self):
        rng = np.random.default_rng(37)
        for _ in range(8):
            a = rng.integers(0, 2, size=(30, 10)).astype(float)
            f = pk.svd(a)
            for r in range(1, f.p):
                coarse = pk.user_sign_clusters(pk.truncate(f, r))
                fine = pk.user_sign_clusters(pk.truncate(f, r + 1))
                assert refines(fine, coarse)

    def test_cluster_bound_min_of_power_and_elements(self):
        rng = np.random.default_rng(41)
        a = rng.normal(size=(5, 5))
        f = pk.svd(a)
        for r, count in pk.cluster_count_table(f, pk.USERS, 1, 5):
            assert count <= min(2**r, 5)

    def test_row_permutation_permutes_membership(self):
        rng = np.random.default_rng(43)
        a = rng.integers(0, 2, size=(25, 8)).astype(float)
        perm = rng.permutation(25)
        f = pk.svd(a)
        g = pk.svd(a[perm])
        for r in (1, 2, 3):
            base = pk.user_sign_clusters(pk.truncate(f, r)).patterns
            moved = pk.user_sign_clusters(pk.truncate(g, r)).patterns
            assert tuple(base[perm[i]] for i in range(25)) == moved

    def test_invalid_axis_and_range(self, survey):
        prefs, _, _ = survey
        f = pk.svd(prefs.data.astype(float))
        with pytest.raises(ValueError):
            pk.cluster_count_table(f, "rows", 1, 4)
        with pytest.raises(ValueError):
            pk.cluster_count_table(f, pk.USERS, 0, 4)
        with pytest.raises(ValueError):
            pk.cluster_count_table(f, pk.USERS, 3, 2)
        with pytest.raises(ValueError):
            pk.cluster_count_table(f, pk.USERS, 1, f.p + 1)

    def test_every_element_in_exactly_one_cluster(self, survey):
        prefs, _, _ = survey
        t = pk.truncate(pk.svd(prefs.data.astype(float)), 4)
        clustering = pk.user_sign_clusters(t)
        assert clustering.labels.shape == (prefs.n,)
        assert sorted(set(clustering.labels.tolist())) == list(range(clustering.n_clusters))
