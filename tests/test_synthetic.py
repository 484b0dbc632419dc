import time

import numpy as np
import pytest

import prefkit as pk


def planted_fixture(catalog, constraint, n_users=40, noise=0, seed=11, n_kits=4):
    kits = pk.random_kits(catalog, constraint, n_kits, seed=pk.derive_seed(seed, "kits"))
    spec = pk.SyntheticSpec(n_users=n_users, planted_kits=kits, noise_swaps=noise, seed=seed)
    prefs, planted = pk.generate_synthetic(spec, catalog, constraint)
    return prefs, planted, kits


class TestRandomKits:
    def test_kits_are_distinct_and_valid(self, catalog20, constraint):
        kits = pk.random_kits(catalog20, constraint, 8, seed=5)
        assert len({kit.items for kit in kits}) == 8
        for kit in kits:
            pk.validate_kit(kit, catalog20, constraint, constrained=True)

    def test_deterministic(self, catalog20, constraint):
        a = pk.random_kits(catalog20, constraint, 8, seed=5)
        b = pk.random_kits(catalog20, constraint, 8, seed=5)
        assert [k.items for k in a] == [k.items for k in b]

    def test_impossible_count_raises(self, catalog_factory):
        catalog = catalog_factory(1, 1)
        constraint = pk.SelectionConstraint(total=2, expensive_quota=1, cheap_quota=1)
        with pytest.raises(ValueError):
            pk.random_kits(catalog, constraint, 2, seed=0)

    def test_count_above_distinct_kits_fails_fast(self, catalog20, constraint):
        limit = pk.kit_count(catalog20, constraint)
        assert limit == 44100  # C(10, 6) * C(10, 4)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="holds only 44100"):
            pk.random_kits(catalog20, constraint, limit + 1, seed=0)
        assert time.perf_counter() - start < 1.0


class TestGenerateSynthetic:
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


class TestGroundTruthIo:
    def test_round_trip(self, tmp_path, catalog20, constraint):
        prefs, planted, _ = planted_fixture(catalog20, constraint, n_users=12)
        path = tmp_path / "truth.csv"
        pk.write_ground_truth(prefs.user_ids, planted, path)
        user_ids, loaded = pk.load_ground_truth(path)
        assert user_ids == prefs.user_ids
        assert (loaded == planted).all()

    @pytest.mark.parametrize(
        "body, error",
        [
            ("u1,0\nu2\n", pk.MalformedRowError),
            ("u1,0\nu2,first\n", pk.MalformedRowError),
            ("u1,0\nu1,1\n", pk.DuplicateUserIdError),
        ],
        ids=["short-row", "non-integer-kit", "duplicate-user"],
    )
    def test_bad_row_names_its_line(self, tmp_path, body, error):
        path = tmp_path / "truth.csv"
        path.write_text("user_id,planted_kit\n" + body, encoding="utf-8")
        with pytest.raises(error, match="truth.csv:3: "):
            pk.load_ground_truth(path)
