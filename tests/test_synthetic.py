import time

import numpy as np
import pytest

import prefkit as pk
from oracles import generate_synthetic_loop, random_kits_scan


def planted_fixture(catalog, constraint, n_users=40, noise=0, seed=11, n_kits=4):
    kits = pk.random_kits(catalog, constraint, n_kits, seed=pk.derive_seed(seed, "kits"))
    spec = pk.SyntheticSpec(n_users=n_users, planted_kits=kits, noise_swaps=noise, seed=seed)
    prefs, planted = pk.generate_synthetic(spec, catalog, constraint)
    return prefs, planted, kits


def assert_same_population(got, expected):
    (prefs, planted), (ref_prefs, ref_planted) = got, expected
    assert prefs.user_ids == ref_prefs.user_ids
    assert prefs.column_labels == ref_prefs.column_labels
    assert np.array_equal(prefs.data, ref_prefs.data)
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


def scalar_draws(rng, bounds):
    return np.array([rng.integers(bound) for bound in bounds], dtype=np.int64)


class TestDrawStream:
    """``generate_synthetic`` draws its stream in one call over per-draw bounds.

    That this reproduces the documented one-at-a-time draws is a numpy
    implementation detail, pinned here so that a numpy release that breaks
    it fails loudly instead of changing every synthetic survey.
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


class TestGenerateSynthetic:
    @pytest.mark.parametrize("noise", range(5))
    def test_matches_per_user_loop(self, catalog20, catalog20_interleaved, constraint, noise):
        for catalog in (catalog20, catalog20_interleaved):
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
            assert (prefs.data[:, expensive] == 1).all()

    def test_no_noise_rows_equal_planted_kits(self, catalog20, constraint):
        prefs, planted, kits = planted_fixture(catalog20, constraint, noise=0)
        for i in range(prefs.n):
            expected = kits[planted[i]].indicator(catalog20.m)
            assert (prefs.data[i] == expected).all()

    def test_same_seed_same_output(self, catalog20, constraint):
        a_prefs, a_planted, _ = planted_fixture(catalog20, constraint, noise=1, seed=3)
        b_prefs, b_planted, _ = planted_fixture(catalog20, constraint, noise=1, seed=3)
        assert (a_prefs.data == b_prefs.data).all()
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
                dropped = [q for q in ids if kit_vec[q] == 1 and prefs.data[i, q] == 0]
                added = [q for q in ids if kit_vec[q] == 0 and prefs.data[i, q] == 1]
                assert len(dropped) == 1 and len(added) == 1
        hamming = np.abs(
            prefs.data - np.stack([kits[g].indicator(catalog20.m) for g in planted])
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
