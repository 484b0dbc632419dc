import math
import tracemalloc

import numpy as np
import pytest

import prefkit as pk
from oracles import cluster_losses_loop, loss_report_rows, mismatches_broadcast, reassign_rows, user_loss
from prefkit.assignment import _mismatches, _report


def prefs_from(rows):
    return pk.PreferenceMatrix(
        tuple(f"u{i}" for i in range(len(rows))), np.array(rows, dtype=np.int8)
    )


def kit_of(kit_id, items):
    return pk.Kit(kit_id=kit_id, items=frozenset(items))


def report_of(losses, assignment, k):
    """``_report`` on 21 distinct rows whose losses against all k kits are 0..20; user i has row ``losses[i]``."""
    mismatches = np.repeat(np.arange(21, dtype=np.int64)[:, None], k, axis=1)
    return _report(mismatches, np.asarray(losses), assignment)


class TestUserLoss:
    def test_identical_selection_scores_zero(self):
        kit = kit_of(0, [1, 2, 3])
        row = kit.indicator(5)
        assert user_loss(row, kit) == 0

    def test_one_missing_one_extra_scores_two(self):
        row = np.array([0, 1, 1, 1, 0], dtype=np.int8)
        assert user_loss(row, kit_of(0, [1, 2, 4])) == 2

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
            loss = user_loss(row, kit)
            assert loss == explicit
            assert loss == 2 * (total - len(row_items & kit_items))
            assert loss % 2 == 0


class TestClusterLosses:
    def test_zero_losses_give_unit_exponential(self):
        assignment = pk.Assignment(np.array([0, 0]))
        report = report_of([0, 0], assignment, 1)
        assert report.per_cluster_normal.tolist() == [0.0]
        assert report.per_cluster_exponential.tolist() == [1.0]
        assert report.populations.tolist() == [2]

    def test_zero_and_two_frozen_values(self):
        assignment = pk.Assignment(np.array([0, 0]))
        report = report_of([0, 2], assignment, 1)
        assert report.per_cluster_normal[0] == pytest.approx(1.0, abs=1e-12)
        assert report.per_cluster_exponential[0] == pytest.approx(4.194528049465325, abs=1e-9)
        assert report.per_cluster_exponential[0] == pytest.approx((1 + math.e**2) / 2, abs=1e-12)

    def test_jensen_strict_when_losses_differ(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            losses = rng.integers(0, 9, size=10)
            assignment = pk.Assignment(np.zeros(10, dtype=int))
            report = report_of(losses, assignment, 1)
            normal, exponential = report.per_cluster_normal[0], report.per_cluster_exponential[0]
            assert exponential >= math.exp(normal) - 1e-12
            if len(set(losses.tolist())) > 1:
                assert exponential > math.exp(normal)

    def test_empty_population_reports_zero_with_marker(self):
        assignment = pk.Assignment(np.array([0, 0]))
        report = report_of([1, 1], assignment, 2)
        assert report.populations.tolist() == [2, 0]
        assert report.per_cluster_normal[1] == 0.0 and report.per_cluster_exponential[1] == 0.0


class TestReassign:
    def setup_method(self):
        self.kits = [
            kit_of(0, [0, 1, 2]),
            kit_of(1, [3, 4, 5]),
            kit_of(2, [0, 4, 5]),
        ]

    def test_exact_kit_match_gets_that_kit(self):
        prefs = prefs_from([self.kits[2].indicator(6).tolist()])
        initial = pk.Assignment(np.array([0]))
        final, before, after = pk.reassign(prefs, self.kits, initial)
        assert final.kit_index.tolist() == [2]
        assert after.per_user_loss.tolist() == [0]
        assert before.per_user_loss[0] > 0

    def test_tie_breaks_to_lowest_kit_index(self):
        # Equidistant from kits 0 and 1 (loss 4 against both, 6 against kit 2).
        prefs = prefs_from([[1, 0, 0, 1, 0, 0]])
        initial = pk.Assignment(np.array([2]))
        final, _, _ = pk.reassign(prefs, self.kits, initial)
        assert final.kit_index.tolist() == [0]

    def test_losses_never_increase_and_idempotent(self, survey, catalog20, constraint):
        prefs, _, _ = survey
        clustering = pk.user_sign_clusters(pk.truncate(pk.svd(prefs.data.astype(float)), 4))
        kits = pk.design_all(prefs, clustering.labels[prefs.distinct.first], catalog20, constraint)
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
        kits = pk.design_all(prefs, clustering.labels[prefs.distinct.first], catalog20, constraint)
        initial = pk.assignment_from_clusters(clustering.labels)
        final, _, after = pk.reassign(prefs, kits, initial)
        for i in range(prefs.n):
            for kit in kits:
                assert user_loss(prefs.data[i], kit) >= after.per_user_loss[i]

    def test_empty_kit_list_rejected(self):
        prefs = prefs_from([[1, 0]])
        with pytest.raises(ValueError):
            pk.reassign(prefs, [], pk.Assignment(np.array([0])))


class TestMismatches:
    """The distinct-row matmul count, gathered to every user, against the n x K x m comparison."""

    @pytest.mark.parametrize("n_kits", [1, 2, 16])
    def test_matches_broadcast_count_on_rows_off_quota(self, catalog20, constraint, n_kits):
        data = np.random.default_rng(n_kits).integers(0, 2, size=(500, 20))
        data[0], data[1] = 0, 1  # no item and every item: both break the 6/4 quota
        prefs = pk.PreferenceMatrix(tuple(map(str, range(500))), data)
        kits = pk.random_kits(catalog20, constraint, n_kits, seed=n_kits)
        got, want = _mismatches(prefs, kits)[prefs.distinct.inverse], mismatches_broadcast(prefs, kits)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)

    def test_matches_broadcast_count_for_kits_of_any_size(self, survey):
        prefs, _, planted = survey
        kits = [kit_of(0, []), kit_of(1, [7]), kit_of(2, range(20)), *planted]
        for chosen in ([kits[0]], [kits[2]], kits):
            got = _mismatches(prefs, chosen)[prefs.distinct.inverse]
            assert np.array_equal(got, mismatches_broadcast(prefs, chosen))


def assert_same_report(got, want):
    for name in ("per_user_loss", "per_cluster_normal", "per_cluster_exponential", "populations"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert got.total_loss == want.total_loss


class TestDistinctRowScoring:
    """Scoring the distinct rows and gathering to users, against scoring every user row."""

    def test_reassign_and_loss_report_equal_per_user_oracles(self, repeated_survey, catalog20, constraint):
        prefs = repeated_survey
        kits = [*pk.random_kits(catalog20, constraint, 12, seed=4), kit_of(12, range(20)), kit_of(13, [])]
        rng = np.random.default_rng(8)
        for initial in (
            pk.Assignment(rng.integers(0, len(kits), size=prefs.n)),  # splits identical rows
            pk.Assignment(np.zeros(prefs.n, dtype=np.int64)),
        ):
            got, want = pk.reassign(prefs, kits, initial), reassign_rows(prefs, kits, initial)
            assert np.array_equal(got[0].kit_index, want[0].kit_index)
            assert_same_report(got[1], want[1])
            assert_same_report(got[2], want[2])
            assert_same_report(pk.loss_report(prefs, kits, initial), loss_report_rows(prefs, kits, initial))

    @pytest.mark.parametrize(
        "n, k", [(1, 1), (500, 3), (30_000, 2), (20_000, 700), (4_000, 254), (4_000, 255), (5_000, 65_535)]
    )
    def test_cluster_losses_equal_the_mask_loop(self, n, k):
        # 30,000 users in 2 kits gives segments past numpy's 8,192-element summation blocks.
        # Users hold kits 2..k + 1 of k + 2, the top one always, so kits 0 and 1
        # are empty and the largest kit index is k + 1.  The kit indices sort
        # as uint8 up to 256 kits, as uint16 from 257, and past 65,536 as
        # uint32, which numpy sorts by comparison rather than by radix.
        rng = np.random.default_rng(n + k)
        kit_index = rng.integers(2, k + 2, size=n)
        kit_index[0] = k + 1
        assignment = pk.Assignment(kit_index)
        losses = rng.integers(0, 21, size=n)
        report = report_of(losses, assignment, k + 2)
        assert np.array_equal(report.per_user_loss, losses)
        got = (report.per_cluster_normal, report.per_cluster_exponential, report.populations)
        for x, y in zip(got, cluster_losses_loop(losses, assignment, k + 2)):
            assert x.dtype == y.dtype and np.array_equal(x, y)

    def test_reassign_peak_memory_stays_off_the_user_by_kit_matrix(self):
        # 20,000 users of 50 distinct rows and 50 kits: an n x K int64 matrix alone is 8 MB.
        rng = np.random.default_rng(400)
        m, n = 400, 20_000
        base = np.zeros((50, m), dtype=np.int8)
        for row in base:
            row[rng.choice(m, size=10, replace=False)] = 1
        prefs = pk.PreferenceMatrix(tuple(map(str, range(n))), base[rng.permutation(np.repeat(np.arange(50), n // 50))])
        kits = [kit_of(j, rng.choice(m, size=10, replace=False).tolist()) for j in range(50)]
        initial = pk.Assignment(rng.integers(0, 50, size=n))
        assert len(prefs.distinct.rows) == 50  # found once, before the measurement
        tracemalloc.start()
        try:
            pk.reassign(prefs, kits, initial)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestLossReport:
    def test_total_is_sum_of_per_user(self, survey, catalog20, constraint):
        prefs, _, _ = survey
        kits = pk.random_kits(catalog20, constraint, 3, seed=5)
        assignment = pk.Assignment(np.zeros(prefs.n, dtype=int))
        report = pk.loss_report(prefs, list(kits), assignment)
        assert report.total_loss == int(report.per_user_loss.sum())
        assert report.populations.tolist() == [prefs.n, 0, 0]

    def test_out_of_range_assignment_rejected(self):
        prefs = prefs_from([[1, 0, 1], [0, 1, 1]])
        kits = [kit_of(0, [0, 2])]
        for call in (pk.reassign, pk.loss_report):
            with pytest.raises(ValueError, match="assignment refers to kit 5, but there are 1 kits"):
                call(prefs, kits, pk.Assignment(np.array([0, 5])))

    def test_assignment_of_wrong_length_rejected_by_name(self):
        prefs = prefs_from([[1, 0, 1], [0, 1, 1]])
        kits = [kit_of(0, [0, 2])]
        for call in (pk.reassign, pk.loss_report):
            with pytest.raises(ValueError, match="assignment has 1 kit indices for 2 users"):
                call(prefs, kits, pk.Assignment(np.array([0])))

    @pytest.mark.parametrize("items", [[0, 5], [-1, 2]])
    def test_kit_item_outside_catalog_rejected_by_name(self, items):
        prefs = prefs_from([[1, 0, 1]])
        assignment = pk.Assignment(np.array([0]))
        for call in (pk.reassign, pk.loss_report):
            with pytest.raises(ValueError, match=r"kit 0: item ids must lie in 0\.\.2"):
                call(prefs, [kit_of(0, items)], assignment)


class TestAssignmentFromClusters:
    def test_kit_positions_follow_sorted_cluster_ids(self):
        assignment = pk.assignment_from_clusters(np.array([2, 0, 0]))
        assert assignment.kit_index.tolist() == [1, 0, 0]

    def test_empty_clusters_skipped_in_numbering(self):
        assignment = pk.assignment_from_clusters(np.array([0, 2]))
        assert assignment.kit_index.tolist() == [0, 1]

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError):
            pk.assignment_from_clusters(np.array([0, -1, 1]))

    def test_negative_kit_index_rejected(self):
        with pytest.raises(ValueError):
            pk.Assignment(np.array([-1]))

    @pytest.mark.parametrize("kit_index", [
        np.array([0.7, 1.9]), np.array([True, False]), np.array(["0", "1"]),
    ], ids=["float", "bool", "str"])
    def test_non_integer_kit_indices_rejected_by_dtype(self, kit_index):
        # A cast would silently score other kits: 0.7 -> 0, True -> 1, "1" -> 1.
        with pytest.raises(ValueError, match=str(kit_index.dtype)):
            pk.Assignment(kit_index)
