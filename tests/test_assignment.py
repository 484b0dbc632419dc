import math

import numpy as np
import pytest

import prefkit as pk


def prefs_from(rows):
    return pk.PreferenceMatrix(
        tuple(f"u{i}" for i in range(len(rows))), np.array(rows, dtype=np.int8)
    )


def kit_of(kit_id, items):
    return pk.Kit(kit_id=kit_id, items=frozenset(items))


class TestUserLoss:
    def test_identical_selection_scores_zero(self):
        kit = kit_of(0, [1, 2, 3])
        row = kit.indicator(5)
        assert pk.user_loss(row, kit) == 0

    def test_one_missing_one_extra_scores_two(self):
        row = np.array([0, 1, 1, 1, 0], dtype=np.int8)
        assert pk.user_loss(row, kit_of(0, [1, 2, 4])) == 2

    def test_equals_twice_total_minus_overlap(self):
        # Brute-force check over all positions for equal-cardinality rows/kits.
        rng = np.random.default_rng(67)
        for _ in range(50):
            m, total = 12, 5
            row_items = set(rng.choice(m, size=total, replace=False).tolist())
            kit_items = set(rng.choice(m, size=total, replace=False).tolist())
            row = np.zeros(m, dtype=np.int8)
            row[list(row_items)] = 1
            kit = kit_of(0, kit_items)
            explicit = sum(
                1 for q in range(m) if (q in row_items) != (q in kit_items)
            )
            loss = pk.user_loss(row, kit)
            assert loss == explicit
            assert loss == 2 * (total - len(row_items & kit_items))
            assert loss % 2 == 0


class TestClusterLosses:
    def test_zero_losses_give_unit_exponential(self):
        assignment = pk.Assignment(np.array([0, 0]), pk.INITIAL)
        normal, exponential, populations = pk.cluster_losses(np.array([0, 0]), assignment, 1)
        assert normal.tolist() == [0.0]
        assert exponential.tolist() == [1.0]
        assert populations.tolist() == [2]

    def test_zero_and_two_frozen_values(self):
        assignment = pk.Assignment(np.array([0, 0]), pk.INITIAL)
        normal, exponential, _ = pk.cluster_losses(np.array([0, 2]), assignment, 1)
        assert normal[0] == pytest.approx(1.0, abs=1e-12)
        assert exponential[0] == pytest.approx(4.194528049465325, abs=1e-9)
        assert exponential[0] == pytest.approx((1 + math.e**2) / 2, abs=1e-12)

    def test_jensen_strict_when_losses_differ(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            losses = rng.integers(0, 9, size=10)
            assignment = pk.Assignment(np.zeros(10, dtype=int), pk.INITIAL)
            normal, exponential, _ = pk.cluster_losses(losses, assignment, 1)
            assert exponential[0] >= math.exp(normal[0]) - 1e-12
            if len(set(losses.tolist())) > 1:
                assert exponential[0] > math.exp(normal[0])

    def test_empty_population_reports_zero_with_marker(self):
        assignment = pk.Assignment(np.array([0, 0]), pk.INITIAL)
        normal, exponential, populations = pk.cluster_losses(np.array([1, 1]), assignment, 2)
        assert populations.tolist() == [2, 0]
        assert normal[1] == 0.0 and exponential[1] == 0.0


class TestReassign:
    def setup_method(self):
        self.kits = [
            kit_of(0, [0, 1, 2]),
            kit_of(1, [3, 4, 5]),
            kit_of(2, [0, 4, 5]),
        ]

    def test_exact_kit_match_gets_that_kit(self):
        prefs = prefs_from([self.kits[2].indicator(6).tolist()])
        initial = pk.Assignment(np.array([0]), pk.INITIAL)
        final, before, after = pk.reassign(prefs, self.kits, initial)
        assert final.kit_index.tolist() == [2]
        assert after.per_user_loss.tolist() == [0]
        assert before.per_user_loss[0] > 0

    def test_tie_breaks_to_lowest_kit_index(self):
        # Equidistant from kits 0 and 1 (loss 4 against both, 6 against kit 2).
        prefs = prefs_from([[1, 0, 0, 1, 0, 0]])
        initial = pk.Assignment(np.array([2]), pk.INITIAL)
        final, _, _ = pk.reassign(prefs, self.kits, initial)
        assert final.kit_index.tolist() == [0]

    def test_losses_never_increase_and_idempotent(self, survey, catalog20, constraint):
        prefs, _, _ = survey
        clustering = pk.user_sign_clusters(pk.truncate(pk.svd(prefs.data.astype(float)), 4))
        kits = pk.design_all(prefs, clustering.labels, catalog20, constraint)
        initial = pk.assignment_from_clusters(clustering.labels)
        final, before, after = pk.reassign(prefs, kits, initial)
        assert (after.per_user_loss <= before.per_user_loss).all()
        assert after.total_loss <= before.total_loss
        again, before2, after2 = pk.reassign(prefs, kits, final)
        assert (again.kit_index == final.kit_index).all()
        assert before2.total_loss == after.total_loss == after2.total_loss

    def test_no_improving_move_exists(self, survey, catalog20, constraint):
        prefs, _, _ = survey
        clustering = pk.user_sign_clusters(pk.truncate(pk.svd(prefs.data.astype(float)), 4))
        kits = pk.design_all(prefs, clustering.labels, catalog20, constraint)
        initial = pk.assignment_from_clusters(clustering.labels)
        final, _, after = pk.reassign(prefs, kits, initial)
        for i in range(prefs.n):
            for kit in kits:
                assert pk.user_loss(prefs.data[i], kit) >= after.per_user_loss[i]

    def test_empty_kit_list_rejected(self):
        prefs = prefs_from([[1, 0]])
        with pytest.raises(ValueError):
            pk.reassign(prefs, [], pk.Assignment(np.array([0]), pk.INITIAL))

    def test_provenance_labels(self):
        prefs = prefs_from([self.kits[0].indicator(6).tolist()])
        initial = pk.Assignment(np.array([0]), pk.INITIAL)
        final, _, _ = pk.reassign(prefs, self.kits, initial)
        assert initial.provenance == pk.INITIAL
        assert final.provenance == pk.REASSIGNED


class TestLossReport:
    def test_total_is_sum_of_per_user(self, survey, catalog20, constraint):
        prefs, _, _ = survey
        kits = pk.random_kits(catalog20, constraint, 3, seed=5)
        assignment = pk.Assignment(np.zeros(prefs.n, dtype=int), pk.INITIAL)
        report = pk.loss_report(prefs, list(kits), assignment)
        assert report.total_loss == int(report.per_user_loss.sum())
        assert report.populations.tolist() == [prefs.n, 0, 0]

    def test_out_of_range_assignment_rejected(self):
        prefs = prefs_from([[1, 0, 1]])
        with pytest.raises(ValueError):
            pk.loss_report(prefs, [kit_of(0, [0, 2])], pk.Assignment(np.array([1]), pk.INITIAL))


class TestAssignmentFromClusters:
    def test_kit_positions_follow_sorted_cluster_ids(self):
        assignment = pk.assignment_from_clusters(np.array([2, 0, 0]))
        assert assignment.kit_index.tolist() == [1, 0, 0]
        assert assignment.provenance == pk.INITIAL

    def test_empty_clusters_skipped_in_numbering(self):
        assignment = pk.assignment_from_clusters(np.array([0, 2]))
        assert assignment.kit_index.tolist() == [0, 1]

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError):
            pk.assignment_from_clusters(np.array([0, -1, 1]))

    def test_negative_kit_index_rejected(self):
        with pytest.raises(ValueError):
            pk.Assignment(np.array([-1]), pk.INITIAL)
