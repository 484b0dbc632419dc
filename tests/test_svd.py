import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import prefkit as pk
from oracles import dense, singular_values_charpoly, svd_rows


def random_binary(rng, n, m):
    return rng.integers(0, 2, size=(n, m)).astype(np.float64)


class TestSvdExamples:
    def test_identity(self):
        f = pk.svd(np.eye(3))
        np.testing.assert_allclose(f.sigma, [1.0, 1.0, 1.0], atol=1e-12)

    def test_diagonal(self):
        f = pk.svd(np.diag([3.0, 2.0]))
        np.testing.assert_allclose(f.sigma, [3.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(f.u), np.eye(2), atol=1e-12)
        np.testing.assert_allclose(np.abs(f.vt), np.eye(2), atol=1e-12)

    def test_all_ones_two_by_two(self):
        # Gram matrix [[2,2],[2,2]] has eigenvalues 4 and 0.
        f = pk.svd(np.ones((2, 2)))
        np.testing.assert_allclose(f.sigma, [2.0, 0.0], atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            pk.svd(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError):
            pk.svd(np.array([[np.inf, 1.0]]))


class TestSvdContract:
    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(1234)
        for _ in range(25):
            n = int(rng.integers(5, 201))
            m = int(rng.integers(2, 21))
            a = random_binary(rng, n, m)
            f = pk.svd(a)
            scale = max(1.0, np.linalg.norm(a))
            assert np.linalg.norm(a - f.reconstruct()) <= 1e-8 * scale
            p = f.p
            assert np.abs(f.u.T @ f.u - np.eye(p)).max() <= 1e-8
            assert np.abs(f.vt @ f.vt.T - np.eye(p)).max() <= 1e-8
            assert (np.diff(f.sigma) <= 1e-12).all()
            assert (f.sigma >= 0).all()

    def test_sigma_matches_charpoly_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(m, 9))
            a = rng.integers(0, 3, size=(n, m)).astype(np.float64)
            f = pk.svd(a)
            expected = singular_values_charpoly(a.tolist())
            np.testing.assert_allclose(f.sigma, expected, atol=1e-6)

    def test_repeated_calls_are_bit_identical(self):
        rng = np.random.default_rng(5)
        a = random_binary(rng, 40, 12)
        f1, f2 = pk.svd(a), pk.svd(a)
        assert (f1.u == f2.u).all() and (f1.sigma == f2.sigma).all() and (f1.vt == f2.vt).all()

    def test_sign_convention_largest_entry_non_negative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.normal(size=(rng.integers(3, 30), rng.integers(2, 10)))
            f = pk.svd(a)
            for j in range(f.p):
                anchor = int(np.argmax(np.abs(f.u[:, j])))
                assert f.u[anchor, j] >= 0

    def test_perron_column_non_negative_for_non_negative_input(self, survey):
        prefs, _, _ = survey
        f = pk.svd(dense(prefs).astype(float))
        assert (f.u[:, 0] >= 0).all()
        rng = np.random.default_rng(21)
        for _ in range(10):
            a = rng.uniform(0.0, 1.0, size=(rng.integers(4, 40), rng.integers(2, 12)))
            assert (pk.svd(a).u[:, 0] >= 0).all()

    def test_factors_are_read_only(self):
        f = pk.svd(np.eye(3))
        with pytest.raises(ValueError):
            f.u[0, 0] = 5.0


class TestTruncate:
    def test_full_rank_round_trip(self):
        rng = np.random.default_rng(3)
        a = random_binary(rng, 15, 6)
        f = pk.svd(a)
        t = pk.truncate(f, f.p)
        assert np.linalg.norm(a - t.reconstruct()) <= 1e-8 * max(1.0, np.linalg.norm(a))

    def test_rank_one_of_diagonal(self):
        t = pk.truncate(pk.svd(np.diag([3.0, 2.0])), 1)
        np.testing.assert_allclose(t.reconstruct(), np.diag([3.0, 0.0]), atol=1e-12)

    def test_prefix_slices(self):
        f = pk.svd(np.random.default_rng(4).normal(size=(10, 5)))
        t = pk.truncate(f, 3)
        assert (t.u == f.u[:, :3]).all()
        assert (t.sigma == f.sigma[:3]).all()
        assert (t.vt == f.vt[:3, :]).all()

    def test_rank_out_of_range(self):
        f = pk.svd(np.eye(3))
        with pytest.raises(pk.RankOutOfRangeError):
            pk.truncate(f, 0)
        with pytest.raises(pk.RankOutOfRangeError):
            pk.truncate(f, 4)

    def test_best_rank_r_approximation(self):
        # Eckart-Young: the truncation residual equals the tail sigma energy.
        rng = np.random.default_rng(8)
        a = random_binary(rng, 30, 10)
        f = pk.svd(a)
        for r in (1, 3, 7):
            residual = np.linalg.norm(a - pk.truncate(f, r).reconstruct())
            expected = float(np.sqrt((f.sigma[r:] ** 2).sum()))
            assert abs(residual - expected) <= 1e-8 * max(1.0, expected)


class TestWeightedSvd:
    """``svd(rows, weights)`` against the SVD of the matrix with each row repeated."""

    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (3, 7), (20, 20), (300, 20)])
    def test_unweighted_is_bit_identical_to_the_oracle(self, shape):
        rng = np.random.default_rng(sum(shape))
        for a in (rng.normal(size=shape), rng.integers(0, 2, size=shape).astype(np.float64)):
            got, want = pk.svd(a), svd_rows(a)
            for x, y in ((got.u, want.u), (got.sigma, want.sigma), (got.vt, want.vt)):
                assert x.shape == y.shape and np.array_equal(x, y)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_weighted_equals_repeated_rows(self, data):
        d, m = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
        rows = data.draw(hnp.arrays(np.int8, (d, m), elements=st.integers(0, 1)))
        weights = data.draw(hnp.arrays(np.int64, d, elements=st.integers(1, 5)))
        got, full = pk.svd(rows, weights), pk.svd(np.repeat(rows, weights, axis=0))
        inverse = np.repeat(np.arange(d), weights)
        assert got.u.shape == (d, full.p) and got.vt.shape == full.vt.shape
        scale = max(float(full.sigma[0]), 1.0)
        assert np.abs(got.sigma - full.sigma).max() <= 1e-12 * scale
        sigma = np.r_[np.inf, full.sigma, 0.0]
        for j in range(full.p):
            # A direction is only defined where its singular value is separated.
            if min(sigma[j] - sigma[j + 1], sigma[j + 1] - sigma[j + 2]) <= 1e-3 * scale:
                continue
            column = full.u[:, j]
            near_top = column[np.abs(column) >= np.abs(column).max() - 1e-9]
            sign = 1.0
            if near_top.min() < 0 < near_top.max():  # the anchor itself is a rounding tie
                sign = float(np.sign(got.u[inverse, j] @ column))
            np.testing.assert_allclose(sign * got.u[inverse, j], column, atol=1e-9)
            np.testing.assert_allclose(sign * got.vt[j], full.vt[j], atol=1e-9)

    def test_fewer_rows_than_triplets_give_zero_null_directions(self):
        rows = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0]])
        weights = np.array([3, 2])
        f = pk.svd(rows, weights)
        assert f.p == 4 and f.u.shape == (2, 4)
        assert (f.sigma[2:] == 0).all() and (f.u[:, 2:] == 0).all()
        np.testing.assert_allclose(f.vt @ f.vt.T, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(f.reconstruct(), rows, atol=1e-12)
        np.testing.assert_allclose(f.u.T @ (weights[:, None] * f.u), np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-12)

    @pytest.mark.parametrize("weights, cause", [
        (np.array([1, 1]), "one multiplicity per row: got shape \\(2,\\) for 3 rows"),
        (np.ones((3, 1), dtype=np.int64), "one multiplicity per row"),
        (np.array([1, 0, 2]), "positive integers"),
        (np.array([1, -1, 2]), "positive integers"),
        (np.array([1.0, 2.0, 1.0]), "positive integers"),
    ], ids=["short", "2-d", "zero", "negative", "float"])
    def test_bad_weights_rejected_by_cause(self, weights, cause):
        with pytest.raises(ValueError, match=cause):
            pk.svd(np.eye(3), weights)
