import numpy as np
import pytest

import prefkit as pk


def prefs_from(rows):
    return pk.PreferenceMatrix(
        tuple(f"u{i}" for i in range(len(rows))), np.array(rows, dtype=np.int8)
    )


def toy_selection(m, items):
    row = [0] * m
    for q in items:
        row[q] = 1
    return row


class TestFrequencyProfile:
    def test_single_user_counts_equal_row(self):
        prefs = prefs_from([toy_selection(6, [0, 3, 5])])
        profile = pk.frequency_profile(prefs, [0])
        assert profile.counts.tolist() == [1, 0, 0, 1, 0, 1]
        assert profile.cluster_size == 1

    def test_hand_counted_toy_cluster(self):
        prefs = prefs_from(
            [
                toy_selection(6, [0, 1]),
                toy_selection(6, [0, 2]),
                toy_selection(6, [0, 5]),
            ]
        )
        profile = pk.frequency_profile(prefs, [0, 1, 2])
        assert profile.counts.tolist() == [3, 1, 1, 0, 0, 1]

    def test_full_column_counts_population(self):
        rows = [toy_selection(4, [1]) for _ in range(7)]
        prefs = prefs_from(rows)
        profile = pk.frequency_profile(prefs, range(7))
        assert profile.counts.tolist() == [0, 7, 0, 0]

    def test_empty_cluster_rejected(self):
        prefs = prefs_from([toy_selection(4, [1])])
        with pytest.raises(ValueError):
            pk.frequency_profile(prefs, [])


class TestDesignKit:
    def make_profile(self, counts):
        return pk.FrequencyProfile(cluster_id=0, counts=np.array(counts), cluster_size=max(counts))

    def test_ranks_by_count_with_low_id_ties(self, catalog_factory):
        catalog = catalog_factory(3, 3)
        c = pk.SelectionConstraint(total=3, expensive_quota=2, cheap_quota=1)
        kit = pk.design_kit(self.make_profile([3, 2, 2, 1, 0, 1]), catalog, c)
        assert kit.items == frozenset({0, 1, 2})

    def test_all_equal_counts_take_lowest_ids(self, catalog20, constraint):
        kit = pk.design_kit(self.make_profile([5] * 20), catalog20, constraint)
        assert kit.items == frozenset(range(10))

    def test_unanimous_cluster_reproduces_its_selection(self, catalog20, constraint):
        selection = [0, 2, 4, 6, 8, 9, 11, 13, 15, 17]
        prefs = prefs_from([toy_selection(20, selection)] * 5)
        profile = pk.frequency_profile(prefs, range(5))
        for constrained in (False, True):
            kit = pk.design_kit(profile, catalog20, constraint, constrained)
            assert kit.items == frozenset(selection)

    def test_constrained_mode_fills_quotas(self, catalog20, constraint):
        # Cheap items dominate the raw counts; flat ranking would take all ten.
        counts = [1] * 10 + [9] * 10
        flat = pk.design_kit(self.make_profile(counts), catalog20, constraint)
        quota = pk.design_kit(self.make_profile(counts), catalog20, constraint, constrained=True)
        assert flat.items == frozenset(range(10, 20))
        assert quota.items == frozenset([0, 1, 2, 3, 4, 5, 10, 11, 12, 13])
        pk.validate_kit(quota, catalog20, constraint, constrained=True)

    def test_catalog_smaller_than_kit_rejected(self, catalog_factory):
        catalog = catalog_factory(1, 1)
        with pytest.raises(ValueError):
            pk.design_kit(self.make_profile([1, 1]), catalog, pk.SelectionConstraint())

    def test_raising_a_kit_items_count_never_evicts_it(self, catalog20, constraint):
        rng = np.random.default_rng(53)
        for _ in range(50):
            counts = rng.integers(0, 12, size=20)
            kit = pk.design_kit(self.make_profile(counts.tolist()), catalog20, constraint)
            q = int(rng.choice(sorted(kit.items)))
            bumped = counts.copy()
            bumped[q] += 1
            kit2 = pk.design_kit(self.make_profile(bumped.tolist()), catalog20, constraint)
            assert q in kit2.items


class TestDesignAll:
    def test_one_kit_per_nonempty_cluster(self, survey, catalog20, constraint):
        prefs, _, _ = survey
        t = pk.truncate(pk.svd(prefs.data.astype(float)), 4)
        clustering = pk.user_sign_clusters(t)
        kits = pk.design_all(prefs, clustering.labels, catalog20, constraint)
        assert len(kits) == clustering.n_clusters
        assert [kit.kit_id for kit in kits] == list(range(len(kits)))
        for kit in kits:
            assert len(kit.items) == constraint.total

    def test_single_cluster_gives_global_top_ten(self, survey, catalog20, constraint):
        prefs, _, _ = survey
        kits = pk.design_all(prefs, np.zeros(prefs.n, dtype=np.int64), catalog20, constraint)
        expected = pk.top_items(prefs.data.sum(axis=0), constraint.total)
        assert len(kits) == 1
        assert kits[0].items == frozenset(expected)

    def test_noise_free_clusters_reproduce_planted_kits(self, catalog20, constraint):
        planted = pk.random_kits(catalog20, constraint, 4, seed=61)
        spec = pk.SyntheticSpec(n_users=40, planted_kits=planted, noise_swaps=0, seed=61)
        prefs, truth = pk.generate_synthetic(spec, catalog20, constraint)
        kits = pk.design_all(prefs, truth, catalog20, constraint)
        for g in range(4):
            assert kits[g].items == planted[g].items

    def test_empty_clusters_are_skipped_and_renumbered(self, catalog20, constraint):
        prefs = prefs_from([toy_selection(20, range(6)) ] * 3)
        kits = pk.design_all(prefs, np.array([0, 0, 2]), catalog20, constraint)
        assert [kit.kit_id for kit in kits] == [0, 1]

    def test_empty_partition_rejected(self, survey, catalog20, constraint):
        # An empty label array is the wrong length for a non-empty survey.
        prefs, _, _ = survey
        for labels in (np.array([], dtype=np.int64), np.zeros(prefs.n - 1, dtype=np.int64)):
            with pytest.raises(ValueError):
                pk.design_all(prefs, labels, catalog20, constraint)

    def test_negative_label_rejected(self, catalog20, constraint):
        prefs = prefs_from([toy_selection(20, range(6))] * 3)
        with pytest.raises(ValueError):
            pk.design_all(prefs, np.array([0, -1, 1]), catalog20, constraint)


class TestValidateKit:
    def test_wrong_size_rejected(self, catalog20, constraint):
        with pytest.raises(ValueError):
            pk.validate_kit(pk.Kit(0, frozenset(range(9))), catalog20, constraint)

    def test_out_of_range_item_rejected(self, catalog20, constraint):
        with pytest.raises(ValueError):
            pk.validate_kit(pk.Kit(0, frozenset([0, 1, 2, 3, 4, 5, 10, 11, 12, 99])), catalog20, constraint)

    def test_quota_mismatch_rejected_only_when_constrained(self, catalog20, constraint):
        five_five = pk.Kit(0, frozenset([0, 1, 2, 3, 4, 10, 11, 12, 13, 14]))
        pk.validate_kit(five_five, catalog20, constraint, constrained=False)
        with pytest.raises(ValueError):
            pk.validate_kit(five_five, catalog20, constraint, constrained=True)
