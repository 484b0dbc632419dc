import numpy as np
import pytest

import prefkit as pk
from oracles import _top_items_argsort, design_all_loop, design_all_rows


def prefs_from(rows):
    return pk.PreferenceMatrix(
        tuple(f"u{i}" for i in range(len(rows))), np.array(rows, dtype=np.int8)
    )


def toy_selection(m, items):
    row = [0] * m
    for q in items:
        row[q] = 1
    return row


def one_cluster(prefs):
    """Row labels that put every distinct row, and so every user, in cluster 0."""
    return np.zeros(len(prefs.distinct.rows), dtype=np.int64)


def one_kit(prefs, catalog, constraint, constrained=False):
    """The kit ``design_all`` designs for a single cluster holding every user."""
    (kit,) = pk.design_all(prefs, one_cluster(prefs), catalog, constraint, constrained)
    return kit.items


def kit_for_counts(counts, catalog, constraint, constrained=False):
    """The sorted ``one_kit`` of a one-cluster survey whose item counts are ``counts``."""
    counts = np.asarray(counts)
    return sorted(one_kit(prefs_from(np.arange(counts.max())[:, None] < counts), catalog, constraint, constrained))


class TestFrequencyProfile:
    """A cluster's item counts, seen through the kit ``design_all`` ranks from them."""

    def test_single_user_counts_equal_row(self, catalog_factory):
        prefs = prefs_from([toy_selection(6, [0, 3, 5])])
        c = pk.SelectionConstraint(expensive_quota=2, cheap_quota=1)
        assert one_kit(prefs, catalog_factory(3, 3), c) == frozenset({0, 3, 5})

    def test_hand_counted_toy_cluster(self, catalog_factory):
        prefs = prefs_from(
            [
                toy_selection(6, [0, 1]),
                toy_selection(6, [0, 2]),
                toy_selection(6, [0, 5]),
            ]
        )
        # Counts [3, 1, 1, 0, 0, 1]: item 0 leads, then the ones, lowest ids first.
        catalog = catalog_factory(3, 3)
        for total, want in [(1, {0}), (3, {0, 1, 2}), (4, {0, 1, 2, 5})]:
            c = pk.SelectionConstraint(expensive_quota=total - 1, cheap_quota=1)
            assert one_kit(prefs, catalog, c) == frozenset(want)

    def test_full_column_counts_population(self, catalog_factory):
        # Seven users outvote six on item 3, though item 1's column is the lower id.
        prefs = prefs_from([toy_selection(4, [3])] * 7 + [toy_selection(4, [1])] * 6)
        c = pk.SelectionConstraint(expensive_quota=1, cheap_quota=0)
        assert one_kit(prefs, catalog_factory(2, 2), c) == frozenset({3})


class TestDesignKit:
    def test_ranks_by_count_with_low_id_ties(self, catalog_factory):
        catalog = catalog_factory(3, 3)
        c = pk.SelectionConstraint(expensive_quota=2, cheap_quota=1)
        assert kit_for_counts(np.array([3, 2, 2, 1, 0, 1]), catalog, c) == [0, 1, 2]

    def test_all_equal_counts_take_lowest_ids(self, catalog20, constraint):
        assert kit_for_counts(np.full(20, 5), catalog20, constraint) == list(range(10))

    def test_unanimous_cluster_reproduces_its_selection(self, catalog20, constraint):
        selection = [0, 2, 4, 6, 8, 9, 11, 13, 15, 17]
        prefs = prefs_from([toy_selection(20, selection)] * 5)
        for constrained in (False, True):
            assert one_kit(prefs, catalog20, constraint, constrained) == frozenset(selection)

    def test_constrained_mode_fills_quotas(self, catalog20, constraint):
        # Cheap items dominate the raw counts; flat ranking would take all ten.
        counts = np.array([1] * 10 + [9] * 10)
        flat = kit_for_counts(counts, catalog20, constraint)
        quota = kit_for_counts(counts, catalog20, constraint, constrained=True)
        assert flat == list(range(10, 20))
        assert quota == [0, 1, 2, 3, 4, 5, 10, 11, 12, 13]
        pk.validate_kit(pk.Kit(0, frozenset(quota)), catalog20, constraint)

    def test_catalog_smaller_than_kit_rejected(self, catalog_factory):
        prefs = prefs_from([[1, 1]])
        with pytest.raises(ValueError, match="catalog smaller than kit size"):
            pk.design_all(prefs, np.array([0]), catalog_factory(1, 1), pk.SelectionConstraint())

    def test_raising_a_kit_items_count_never_evicts_it(self, catalog20, constraint):
        rng = np.random.default_rng(53)
        for _ in range(50):
            counts = rng.integers(0, 12, size=20)
            items = kit_for_counts(counts, catalog20, constraint)
            q = int(rng.choice(items))
            bumped = counts.copy()
            bumped[q] += 1
            assert q in kit_for_counts(bumped, catalog20, constraint)


class TestDesignAll:
    def test_one_kit_per_nonempty_cluster(self, survey, catalog20, constraint):
        prefs, _, _ = survey
        t = pk.truncate(pk.svd(prefs.distinct.rows, prefs.distinct.weights), 4)
        clustering = pk.user_sign_clusters(t)
        kits = pk.design_all(prefs, clustering.labels, catalog20, constraint)
        assert len(kits) == clustering.n_clusters
        assert [kit.kit_id for kit in kits] == list(range(len(kits)))
        for kit in kits:
            assert len(kit.items) == constraint.total

    def test_single_cluster_gives_global_top_ten(self, survey, catalog20, constraint):
        prefs, _, _ = survey
        kits = pk.design_all(prefs, one_cluster(prefs), catalog20, constraint)
        expected = _top_items_argsort(prefs.data.sum(axis=0), np.arange(prefs.m), constraint.total)
        assert len(kits) == 1
        assert kits[0].items == frozenset(expected)

    def test_noise_free_clusters_reproduce_planted_kits(self, catalog20, constraint):
        planted = pk.random_kits(catalog20, constraint, 4, seed=61)
        spec = pk.SyntheticSpec(n_users=40, planted_kits=planted, noise_swaps=0, seed=61)
        prefs, truth = pk.generate_synthetic(spec, catalog20, constraint)
        kits = pk.design_all(prefs, truth[prefs.distinct.first], catalog20, constraint)
        for g in range(4):
            assert kits[g].items == planted[g].items

    def test_empty_clusters_are_skipped_and_renumbered(self, catalog20, constraint):
        prefs = prefs_from([toy_selection(20, range(6)), toy_selection(20, range(6, 12)), toy_selection(20, range(6))])
        kits = pk.design_all(prefs, np.array([0, 2]), catalog20, constraint)
        assert [kit.kit_id for kit in kits] == [0, 1]

    def test_empty_partition_rejected(self, survey, catalog20, constraint):
        # An empty label array is the wrong length for a non-empty survey.
        prefs, _, _ = survey
        d = len(prefs.distinct.rows)
        for labels in (np.array([], dtype=np.int64), np.zeros(d - 1, dtype=np.int64)):
            with pytest.raises(ValueError):
                pk.design_all(prefs, labels, catalog20, constraint)

    def test_per_user_labels_rejected_naming_both_sizes(self, repeated_survey, catalog20, constraint):
        prefs = repeated_survey
        d = len(prefs.distinct.rows)
        assert prefs.n != d
        with pytest.raises(ValueError, match=f"^got {prefs.n} labels for {d} distinct rows: "):
            pk.design_all(prefs, np.zeros(prefs.n, dtype=np.int64), catalog20, constraint)

    def test_matches_cluster_by_cluster_loop(self, survey, catalog20, catalog20_interleaved, constraint):
        prefs, _, _ = survey
        rng = np.random.default_rng(67)
        for trial in range(60):
            n = int(rng.integers(1, prefs.n + 1))
            rows = prefs.data[:n] if trial % 2 else rng.integers(0, 2, size=(n, 20))  # survey or random rows
            sub = prefs_from(rows)
            d = len(sub.distinct.rows)
            ids = rng.choice(10**6, size=int(rng.integers(1, 12)), replace=False)  # sparse cluster ids
            labels = ids[rng.integers(0, len(ids), size=d)].astype(np.uint32 if trial % 3 == 0 else np.int64)
            labels[-1] = ids.max() + 1  # a one-row cluster
            users = labels[sub.distinct.inverse]
            for catalog, constrained in ((catalog20, False), (catalog20, True), (catalog20_interleaved, True)):
                got = pk.design_all(sub, labels, catalog, constraint, constrained)
                assert got == design_all_loop(sub, users, catalog, constraint, constrained)

    def test_negative_label_rejected(self, catalog20, constraint):
        prefs = prefs_from([toy_selection(20, range(6)), toy_selection(20, range(6, 12)), toy_selection(20, range(6))])
        with pytest.raises(ValueError):
            pk.design_all(prefs, np.array([0, -1]), catalog20, constraint)


class TestValidateKit:
    def test_wrong_size_rejected(self, catalog20, constraint):
        with pytest.raises(ValueError):
            pk.validate_kit(pk.Kit(0, frozenset(range(9))), catalog20, constraint)

    def test_out_of_range_item_rejected(self, catalog20, constraint):
        with pytest.raises(ValueError):
            pk.validate_kit(pk.Kit(0, frozenset([0, 1, 2, 3, 4, 5, 10, 11, 12, 99])), catalog20, constraint)

    def test_quota_mismatch_rejected(self, catalog20, constraint):
        five_five = pk.Kit(0, frozenset([0, 1, 2, 3, 4, 10, 11, 12, 13, 14]))
        with pytest.raises(ValueError, match="^kit 0: 5 expensive items, expected 6$"):
            pk.validate_kit(five_five, catalog20, constraint)


class TestDesignOnDistinctRows:
    """Kits counted from distinct rows times their users, against counts over every user row."""

    @pytest.mark.parametrize("constrained", [False, True])
    def test_equal_to_per_user_counts_for_any_labels(self, repeated_survey, catalog20, constraint, constrained):
        prefs = repeated_survey
        d = len(prefs.distinct.rows)
        rng = np.random.default_rng(3)
        for labels in (
            pk.user_sign_clusters(pk.truncate(pk.svd(prefs.distinct.rows, prefs.distinct.weights), 4)).labels,
            rng.integers(0, 9, size=d),
            3 * rng.integers(0, 5, size=d) + 7,  # ids no row carries in between
            np.zeros(d, dtype=np.int64),
            np.arange(d),
        ):
            got = pk.design_all(prefs, labels, catalog20, constraint, constrained)
            assert got == design_all_rows(prefs, labels[prefs.distinct.inverse], catalog20, constraint, constrained)
