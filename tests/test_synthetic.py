import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prefkit as pk
from prefkit import model, synthetic
from oracles import dense, generate_synthetic_loop, random_kits_scan


def planted_fixture(catalog, constraint, n_users=40, noise=0, seed=11, n_kits=4):
    kits = pk.random_kits(catalog, constraint, n_kits, seed=pk.derive_seed(seed, "kits"))
    spec = pk.SyntheticSpec(n_users=n_users, planted_kits=kits, noise_swaps=noise, seed=seed)
    prefs, planted = pk.generate_synthetic(spec, catalog, constraint)
    return prefs, planted, kits


def assert_same_population(got, expected):
    (prefs, planted), (ref_prefs, ref_planted) = got, expected
    assert prefs.user_ids == ref_prefs.user_ids
    assert prefs.column_labels == ref_prefs.column_labels
    assert np.array_equal(dense(prefs), dense(ref_prefs))
    assert planted.dtype == ref_planted.dtype and np.array_equal(planted, ref_planted)


class TestRandomKits:
    def test_kits_are_distinct_and_valid(self, catalog20, constraint):
        kits = pk.random_kits(catalog20, constraint, 8, seed=5)
        assert len({kit.items for kit in kits}) == 8
        for kit in kits:
            pk.validate_kit(kit, catalog20, constraint)

    def test_deterministic(self, catalog20, constraint):
        a = pk.random_kits(catalog20, constraint, 8, seed=5)
        b = pk.random_kits(catalog20, constraint, 8, seed=5)
        assert [k.items for k in a] == [k.items for k in b]

    def test_impossible_count_raises(self, catalog_factory):
        catalog = catalog_factory(1, 1)
        constraint = pk.SelectionConstraint(expensive_quota=1, cheap_quota=1)
        with pytest.raises(ValueError):
            pk.random_kits(catalog, constraint, 2, seed=0)

    def test_count_above_distinct_kits_fails_fast(self, catalog20, constraint):
        limit = pk.kit_count(catalog20, constraint)
        assert limit == 44100  # C(10, 6) * C(10, 4)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="holds only 44100"):
            pk.random_kits(catalog20, constraint, limit + 1, seed=0)
        assert time.perf_counter() - start < 1.0


    @pytest.mark.parametrize("count", [1, 50, 400])
    def test_matches_scan_over_accepted_kits(self, catalog20, catalog20_interleaved, constraint, count):
        for catalog in (catalog20, catalog20_interleaved):
            kits = pk.random_kits(catalog, constraint, count, seed=3)
            assert kits == random_kits_scan(catalog, constraint, count, 3)

    def test_draws_every_kit_of_a_small_catalog(self, catalog_factory):
        catalog = catalog_factory(3, 3)
        constraint = pk.SelectionConstraint(expensive_quota=1, cheap_quota=1)
        assert pk.kit_count(catalog, constraint) == 9
        kits = pk.random_kits(catalog, constraint, 9, seed=3)
        assert len({kit.items for kit in kits}) == 9
        for kit in kits:
            pk.validate_kit(kit, catalog, constraint)
        assert kits == random_kits_scan(catalog, constraint, 9, 3)

    def test_sixteen_thousand_kits_take_linear_time(self, catalog20, constraint):
        # The scan over accepted kits took about two minutes for this count.
        start = time.perf_counter()
        kits = pk.random_kits(catalog20, constraint, 16000, seed=3)
        assert time.perf_counter() - start < 10.0
        assert len({kit.items for kit in kits}) == 16000


def peak_per_user(catalog, constraint, noise):
    kits = pk.random_kits(catalog, constraint, 8, seed=1)
    spec = pk.SyntheticSpec(n_users=50_000, planted_kits=kits, noise_swaps=noise, seed=2)
    tracemalloc.start()
    try:
        pk.generate_synthetic(spec, catalog, constraint)
        return tracemalloc.get_traced_memory()[1] / spec.n_users
    finally:
        tracemalloc.stop()


def scalar_draws(rng, bounds):
    return np.array([rng.integers(bound) for bound in bounds], dtype=np.int64)


class TestDrawStream:
    """``generate_synthetic`` draws its stream in one call over per-draw bounds for each block of users.

    That this reproduces the documented one-at-a-time draws, whatever the
    block, is a numpy implementation detail, pinned here so that a numpy
    release that breaks it fails loudly instead of changing every synthetic
    survey.
    """

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n_kits", [1, 3, 8, 44100])
    def test_one_call_matches_scalar_draws(self, seed, n_kits):
        for swaps in range(5):
            # data/catalog.csv: quota 6 of 10 expensive, 4 of 10 cheap.
            bounds = np.tile([n_kits] + [6, 4] * swaps + [4, 6] * swaps, 40)
            one_by_one, at_once = pk.generator(seed), pk.generator(seed)
            assert np.array_equal(scalar_draws(one_by_one, bounds), at_once.integers(0, bounds))
            assert one_by_one.bit_generator.state == at_once.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 1000),
        users_per_block=st.integers(1, 1000),
        n_kits=st.sampled_from([1, 8, 44100]),
        seed=st.integers(0, 2**32),
    )
    def test_blocked_draws_match_one_call(self, n, users_per_block, n_kits, seed):
        # The bounds of four swaps on data/catalog.csv, drawn a block of users at a time.
        bounds = [n_kits] + [6, 4] * 4 + [4, 6] * 4
        blocked_rng, one_call_rng = pk.generator(seed), pk.generator(seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model, "_BLOCK_FLOATS", users_per_block * len(bounds))
            blocked = synthetic._draws(blocked_rng, bounds, n)
        assert np.array_equal(blocked, one_call_rng.integers(0, np.tile(bounds, n)).reshape(n, -1))
        assert blocked_rng.bit_generator.state == one_call_rng.bit_generator.state

    def test_draws_hold_one_byte_a_draw_and_one_block(self):
        bounds, n = [8] + [6, 4] * 4 + [4, 6] * 4, 50_000
        synthetic._draws(pk.generator(0), bounds, 10)  # numpy's lazily imported modules load outside the trace
        tracemalloc.start()
        try:
            synthetic._draws(pk.generator(0), bounds, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The n x 17 uint8 draws, one block of int64 draws and 64 KiB to spare; one call for all users takes 8 MB.
        assert peak < n * len(bounds) + 8 * model._BLOCK_FLOATS + 2**16, peak


class TestGenerateSynthetic:
    @pytest.mark.parametrize("noise", range(5))
    def test_matches_per_user_loop(self, catalog20, catalog20_interleaved, catalog_factory, constraint, noise):
        # Tiers of 20 and 17 items let a selection cross items 8 and 16 of
        # its tier, the boundaries of any scheme that works a byte at a time.
        for catalog in (catalog20, catalog20_interleaved, catalog_factory(20, 17)):
            kits = pk.random_kits(catalog, constraint, 8, seed=noise)
            spec = pk.SyntheticSpec(n_users=300, planted_kits=kits, noise_swaps=noise, seed=noise + 20)
            assert_same_population(
                pk.generate_synthetic(spec, catalog, constraint), generate_synthetic_loop(spec, catalog)
            )

    def test_matches_per_user_loop_without_alternative_item(self, catalog_factory):
        # Six expensive items and a quota of 6: every expensive swap draws
        # the item to drop, finds an empty pool and changes nothing.
        catalog = catalog_factory(6, 8)
        constraint = pk.SelectionConstraint(expensive_quota=6, cheap_quota=4)
        kits = pk.random_kits(catalog, constraint, 5, seed=1)
        for noise in range(5):
            spec = pk.SyntheticSpec(n_users=200, planted_kits=kits, noise_swaps=noise, seed=noise)
            prefs, planted = pk.generate_synthetic(spec, catalog, constraint)
            assert_same_population((prefs, planted), generate_synthetic_loop(spec, catalog))
            expensive = list(catalog.ids_in(pk.Category.EXPENSIVE))
            assert (dense(prefs)[:, expensive] == 1).all()

    @pytest.mark.parametrize("n_users", [10_001, 100_001])
    def test_user_ids_are_one_block(self, catalog20, constraint, n_users):
        # The ids pass from four to five (and six) digits inside the block.
        kits = pk.random_kits(catalog20, constraint, 8, seed=0)
        spec = pk.SyntheticSpec(n_users=n_users, planted_kits=kits, noise_swaps=1, seed=0)
        prefs, _ = pk.generate_synthetic(spec, catalog20, constraint)
        assert prefs.id_block is not None
        assert prefs.user_ids == tuple(f"u{i:04d}" for i in range(n_users))

    def test_peak_memory_per_user_stays_small(self, catalog20, constraint):
        # About 150 bytes a user: the draws (freed before the dedup), the
        # m x n bool population, the id block and the dedup's tables.  A
        # per-row sort of each tier (an n x w int64 order and its int32 copy)
        # and a str per user take it past 200.
        assert peak_per_user(catalog20, constraint, noise=1) < 200

    def test_peak_memory_per_user_stays_small_at_four_swaps(self, catalog20, constraint):
        # The draws are one byte each, 17 a user.  Drawing every user's
        # bounds and draws as int64 at once takes 272 bytes a user.
        assert peak_per_user(catalog20, constraint, noise=4) < 200

    def test_no_noise_rows_equal_planted_kits(self, catalog20, constraint):
        prefs, planted, kits = planted_fixture(catalog20, constraint, noise=0)
        for i in range(prefs.n):
            expected = kits[planted[i]].indicator(catalog20.m)
            assert (dense(prefs)[i] == expected).all()

    def test_same_seed_same_output(self, catalog20, constraint):
        a_prefs, a_planted, _ = planted_fixture(catalog20, constraint, noise=1, seed=3)
        b_prefs, b_planted, _ = planted_fixture(catalog20, constraint, noise=1, seed=3)
        assert (dense(a_prefs) == dense(b_prefs)).all()
        assert (a_planted == b_planted).all()
        assert a_prefs.user_ids == b_prefs.user_ids

    def test_one_swap_per_category_gives_hamming_four(self, catalog20, constraint):
        # With 10 items per category and quotas 6/4, a swap always has an
        # alternative item available, so each category contributes exactly
        # one dropped and one added item: Hamming distance 4 overall.
        prefs, planted, kits = planted_fixture(catalog20, constraint, n_users=120, noise=1)
        for category in pk.Category:
            ids = list(catalog20.ids_in(category))
            for i in range(prefs.n):
                kit_vec = kits[planted[i]].indicator(catalog20.m)
                dropped = [q for q in ids if kit_vec[q] == 1 and dense(prefs)[i, q] == 0]
                added = [q for q in ids if kit_vec[q] == 0 and dense(prefs)[i, q] == 1]
                assert len(dropped) == 1 and len(added) == 1
        hamming = np.abs(
            dense(prefs) - np.stack([kits[g].indicator(catalog20.m) for g in planted])
        ).sum(axis=1)
        assert (hamming == 4).all()

    def test_every_row_satisfies_constraint(self, catalog20, constraint):
        for noise in (0, 1, 2, 4):
            prefs, _, _ = planted_fixture(catalog20, constraint, noise=noise, seed=noise)
            assert pk.validate_constraint(prefs, catalog20, constraint) == []

    def test_noise_beyond_smaller_quota_rejected(self, catalog20, constraint):
        _, _, kits = planted_fixture(catalog20, constraint)
        spec = pk.SyntheticSpec(n_users=5, planted_kits=kits, noise_swaps=5, seed=0)
        with pytest.raises(ValueError):
            pk.generate_synthetic(spec, catalog20, constraint)

    def test_invalid_planted_kit_rejected(self, catalog20, constraint):
        bad = pk.Kit(kit_id=0, items=frozenset(range(9)))
        spec = pk.SyntheticSpec(n_users=5, planted_kits=(bad,), noise_swaps=0, seed=0)
        with pytest.raises(ValueError):
            pk.generate_synthetic(spec, catalog20, constraint)

    def test_quota_split_not_just_size_is_enforced(self, catalog20, constraint):
        # Ten items but a 5/5 split: right size, wrong categories.
        bad = pk.Kit(kit_id=0, items=frozenset([0, 1, 2, 3, 4, 10, 11, 12, 13, 14]))
        spec = pk.SyntheticSpec(n_users=5, planted_kits=(bad,), noise_swaps=0, seed=0)
        with pytest.raises(ValueError):
            pk.generate_synthetic(spec, catalog20, constraint)
