import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import prefkit as pk
from oracles import dense


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
        t = pk.truncate(pk.svd(dense(prefs).astype(float)), 1)
        assert pk.user_sign_clusters(t).n_clusters == 1

    def test_survey_scale_rank_four_at_most_eight(self, survey):
        prefs, _, _ = survey
        t = pk.truncate(pk.svd(dense(prefs).astype(float)), 4)
        assert pk.user_sign_clusters(t).n_clusters <= 8

    def test_cluster_ids_by_first_occurrence(self):
        u = np.array([[0.1, -0.2], [0.3, 0.4], [0.2, -0.9], [0.5, 0.5]])
        clustering = pk.user_sign_clusters(fake_truncated(u=u))
        assert clustering.labels.tolist() == [0, 1, 0, 1]
        assert clustering.cluster_codes[clustering.labels].tolist() == [0b10, 0b11, 0b10, 0b11]


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
            assert clustering.cluster_codes[clustering.labels].tolist() == [int(p, 2) for p in patterns]
            assert clustering.labels.tolist() == [first[p] for p in patterns]
            assert clustering.n_clusters == len(first)


NOISE = 1e-12


class TestSignStability:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_noise_below_the_sign_margin_keeps_codes_and_labels(self, data):
        # The margin is the smallest |coordinate| over the kept directions of
        # a 0/1 survey; every kept coordinate then moves by at most NOISE.
        n, m = data.draw(st.integers(2, 12)), data.draw(st.integers(2, 8))
        survey = data.draw(hnp.arrays(np.int8, (n, m), elements=st.integers(0, 1)))
        # A zero row or column has zero coordinates, so the margin check below
        # would discard it; ones instead keep hypothesis from rejecting most draws.
        survey[survey.sum(axis=1) == 0] = 1
        survey[:, survey.sum(axis=0) == 0] = 1
        t = pk.truncate(pk.svd(survey), data.draw(st.integers(1, min(n, m))))
        assume(min(np.abs(t.u).min(), np.abs(t.vt).min()) > NOISE)
        u, vt = (
            factor + data.draw(hnp.arrays(np.float64, factor.shape, elements=st.floats(-NOISE, NOISE)))
            for factor in (t.u, t.vt)
        )
        noisy = pk.SvdFactors(u=u, sigma=t.sigma, vt=vt)
        for build in (pk.user_sign_clusters, pk.item_sign_clusters):
            clean, moved = build(t), build(noisy)
            assert clean.cluster_codes[clean.labels].tolist() == moved.cluster_codes[moved.labels].tolist()
            assert clean.labels.tolist() == moved.labels.tolist()


class TestItemSignClusters:
    def test_leading_row_splits_items(self):
        vt = np.array([[0.7, -0.7]])
        clustering = pk.item_sign_clusters(fake_truncated(vt=vt, rank=1))
        assert clustering.patterns == ("1", "0")
        assert clustering.n_clusters == 2

    def test_non_negative_matrix_rank_one_single_cluster(self, survey):
        prefs, _, _ = survey
        t = pk.truncate(pk.svd(dense(prefs).astype(float)), 1)
        assert pk.item_sign_clusters(t).n_clusters == 1

    def test_high_rank_fragments_towards_singletons(self, survey):
        # Item clustering degrades as rank grows: most clusters end up tiny.
        prefs, _, _ = survey
        f = pk.svd(dense(prefs).astype(float))
        counts = dict(pk.cluster_count_table(pk.item_sign_clusters(pk.truncate(f, 12))))
        assert counts[12] >= counts[4]
        assert counts[12] > prefs.m // 2


def refines(fine: pk.SignClustering, coarse: pk.SignClustering) -> bool:
    # Each fine cluster lies inside one coarse cluster: one coarse label per fine label.
    pairs = set(zip(fine.labels.tolist(), coarse.labels.tolist()))
    return len(pairs) == len(set(fine.labels.tolist()))


class TestClusterCountTable:
    def test_non_negative_matrices_obey_halved_bound(self, survey):
        prefs, _, _ = survey
        f = pk.svd(dense(prefs).astype(float))
        table = pk.cluster_count_table(pk.user_sign_clusters(pk.truncate(f, 8)))
        assert table[0] == (1, 1)
        for r, count in table[1:]:
            assert count <= 2 ** (r - 1)
        counts = [c for _, c in table]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_rank_one_positive_matrix_counts_one(self):
        a = np.outer(np.arange(1, 7), np.arange(1, 5)).astype(float)
        f = pk.svd(a)
        assert pk.cluster_count_table(pk.user_sign_clusters(pk.truncate(f, 1))) == [(1, 1)]
        assert pk.cluster_count_table(pk.item_sign_clusters(pk.truncate(f, 1))) == [(1, 1)]

    def test_counts_non_decreasing_for_general_matrices(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = rng.normal(size=(int(rng.integers(8, 60)), int(rng.integers(3, 12))))
            f = pk.svd(a)
            for build in (pk.user_sign_clusters, pk.item_sign_clusters):
                counts = [c for _, c in pk.cluster_count_table(build(f))]
                assert all(x <= y for x, y in zip(counts, counts[1:]))

    def test_counts_match_coding_at_each_rank(self, survey):
        # Reference: code the elements afresh at every rank.  The 80 x 70
        # matrix reaches rank 70, where the codes are Python integers.
        rng = np.random.default_rng(43)
        matrices = [dense(survey[0]).astype(float)] + [
            rng.integers(0, 2, size=(40, 10)).astype(float) for _ in range(5)
        ] + [rng.normal(size=(80, 70))]
        for a in matrices:
            f = pk.svd(a)
            for build in (pk.user_sign_clusters, pk.item_sign_clusters):
                expected = [(r, build(pk.truncate(f, r)).n_clusters) for r in range(1, f.p + 1)]
                assert pk.cluster_count_table(build(f)) == expected

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
        for r, count in pk.cluster_count_table(pk.user_sign_clusters(pk.truncate(f, 5))):
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

    def test_every_element_in_exactly_one_cluster(self, survey):
        prefs, _, _ = survey
        t = pk.truncate(pk.svd(dense(prefs).astype(float)), 4)
        clustering = pk.user_sign_clusters(t)
        assert clustering.labels.shape == (prefs.n,)
        assert sorted(set(clustering.labels.tolist())) == list(range(clustering.n_clusters))
