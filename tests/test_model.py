import types

import numpy as np
import pytest

import prefkit as pk


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


CLEAN_CATALOG = (
    "item_id,name,category\n"
    "0,Rice,expensive\n"
    "1,Oil,expensive\n"
    "2,Salt,cheap\n"
    "3,Sugar,cheap\n"
)


class TestLoadCatalog:
    def test_survey_scale_catalog(self, catalog20):
        assert catalog20.m == 20
        assert len(catalog20.ids_in(pk.Category.EXPENSIVE)) == 10
        assert len(catalog20.ids_in(pk.Category.CHEAP)) == 10

    def test_minimal_two_row_catalog(self, tmp_path):
        path = write(
            tmp_path / "cat.csv",
            "item_id,name,category\n0,Rice,expensive\n1,Salt,cheap\n",
        )
        catalog = pk.load_catalog(path)
        assert catalog.m == 2
        assert catalog.items[0].name == "Rice"

    def test_unknown_category_rejected(self, tmp_path):
        path = write(
            tmp_path / "cat.csv",
            "item_id,name,category\n0,Rice,luxury\n1,Salt,cheap\n",
        )
        with pytest.raises(pk.UnknownCategoryError):
            pk.load_catalog(path)

    def test_duplicate_item_id_rejected(self, tmp_path):
        path = write(
            tmp_path / "cat.csv",
            "item_id,name,category\n0,Rice,expensive\n0,Salt,cheap\n",
        )
        with pytest.raises(pk.DuplicateItemIdError):
            pk.load_catalog(path)

    def test_gapped_ids_rejected(self, tmp_path):
        path = write(
            tmp_path / "cat.csv",
            "item_id,name,category\n0,Rice,expensive\n2,Salt,cheap\n",
        )
        with pytest.raises(pk.MalformedRowError):
            pk.load_catalog(path)

    def test_single_category_rejected(self, tmp_path):
        path = write(
            tmp_path / "cat.csv",
            "item_id,name,category\n0,Rice,expensive\n1,Oil,expensive\n",
        )
        with pytest.raises(pk.EmptyCategoryError):
            pk.load_catalog(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            pk.load_catalog(tmp_path / "nope.csv")

    def test_malformed_row(self, tmp_path):
        path = write(tmp_path / "cat.csv", "item_id,name,category\nnot-a-number,Rice,cheap\n")
        with pytest.raises(pk.MalformedRowError):
            pk.load_catalog(path)

    def test_byte_order_mark_accepted(self, tmp_path):
        path = write(tmp_path / "cat.csv", "\ufeff" + CLEAN_CATALOG)
        assert path.read_bytes().startswith(b"\xef\xbb\xbfitem_id")
        assert pk.load_catalog(path) == pk.load_catalog(write(tmp_path / "plain.csv", CLEAN_CATALOG))


@pytest.fixture
def small_catalog(tmp_path):
    return pk.load_catalog(write(tmp_path / "cat.csv", CLEAN_CATALOG))


class TestLoadPreferences:
    def test_loads_rows_in_order(self, tmp_path, small_catalog):
        path = write(
            tmp_path / "prefs.csv",
            "user_id,Rice,Oil,Salt,Sugar\nu1,1,0,1,0\nu2,0,1,0,1\n",
        )
        prefs = pk.load_preferences(path, small_catalog)
        assert prefs.n == 2 and prefs.m == 4
        assert prefs.user_ids == ("u1", "u2")
        assert prefs.data.tolist() == [[1, 0, 1, 0], [0, 1, 0, 1]]

    def test_survey_scale(self, tmp_path, catalog20, survey):
        prefs, _, _ = survey
        path = tmp_path / "prefs.csv"
        pk.write_preferences(prefs, path)
        loaded = pk.load_preferences(path, catalog20)
        assert loaded.n == 200 and loaded.m == 20

    def test_header_only_rejected(self, tmp_path, small_catalog):
        path = write(tmp_path / "prefs.csv", "user_id,Rice,Oil,Salt,Sugar\n")
        with pytest.raises(pk.EmptyMatrixError):
            pk.load_preferences(path, small_catalog)

    def test_non_binary_token_rejected(self, tmp_path, small_catalog):
        path = write(
            tmp_path / "prefs.csv",
            "user_id,Rice,Oil,Salt,Sugar\nu1,1,0,2,0\n",
        )
        with pytest.raises(pk.NonBinaryEntryError):
            pk.load_preferences(path, small_catalog)

    def test_width_mismatch_rejected(self, tmp_path, small_catalog):
        path = write(tmp_path / "prefs.csv", "user_id,Rice,Oil,Salt\nu1,1,0,1\n")
        with pytest.raises(pk.WidthMismatchError):
            pk.load_preferences(path, small_catalog)

    def test_duplicate_user_rejected(self, tmp_path, small_catalog):
        path = write(
            tmp_path / "prefs.csv",
            "user_id,Rice,Oil,Salt,Sugar\nu1,1,0,1,0\nu1,0,1,0,1\n",
        )
        with pytest.raises(pk.DuplicateUserIdError):
            pk.load_preferences(path, small_catalog)

    def test_trailing_blank_lines_ignored(self, tmp_path, small_catalog):
        path = write(
            tmp_path / "prefs.csv",
            "user_id,Rice,Oil,Salt,Sugar\nu1,1,0,1,0\nu2,0,1,0,1\n\n\n",
        )
        prefs = pk.load_preferences(path, small_catalog)
        assert prefs.user_ids == ("u1", "u2")

    def test_blank_line_before_last_row_rejected_with_line_number(self, tmp_path, small_catalog):
        path = write(
            tmp_path / "prefs.csv",
            "user_id,Rice,Oil,Salt,Sugar\nu1,1,0,1,0\n\nu2,0,1,0,1\n",
        )
        with pytest.raises(pk.WidthMismatchError, match="prefs.csv:3: row has 0 fields"):
            pk.load_preferences(path, small_catalog)

    def test_round_trip_is_byte_identical(self, tmp_path, small_catalog):
        original = "user_id,Rice,Oil,Salt,Sugar\nu1,1,0,1,0\nu2,0,1,0,1\n"
        src = write(tmp_path / "src.csv", original)
        prefs = pk.load_preferences(src, small_catalog)
        dst = tmp_path / "dst.csv"
        pk.write_preferences(prefs, dst)
        assert dst.read_text(encoding="utf-8").rstrip("\n") == original.rstrip("\n")


class TestPreferenceMatrix:
    def test_rejects_non_binary_entries(self):
        with pytest.raises(ValueError):
            pk.PreferenceMatrix(("u1",), np.array([[0, 2]]))

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValueError):
            pk.PreferenceMatrix(("u1", "u2"), np.array([[0, 1]]))

    def test_data_is_read_only(self):
        prefs = pk.PreferenceMatrix(("u1",), np.array([[0, 1]]))
        with pytest.raises(ValueError):
            prefs.data[0, 0] = 1


class TestSelectionConstraint:
    def test_defaults(self, constraint):
        assert (constraint.total, constraint.expensive_quota, constraint.cheap_quota) == (10, 6, 4)

    def test_quota_sum_must_match_total(self):
        with pytest.raises(ValueError):
            pk.SelectionConstraint(total=10, expensive_quota=5, cheap_quota=4)

    def test_catalog_must_be_large_enough(self, catalog_factory):
        with pytest.raises(ValueError):
            pk.SelectionConstraint().check_catalog(catalog_factory(4, 4))


class TestValidateConstraint:
    def make_prefs(self, rows):
        return pk.PreferenceMatrix(
            tuple(f"u{i}" for i in range(len(rows))), np.array(rows, dtype=np.int8)
        )

    def test_mandated_pattern_passes(self, catalog20, constraint):
        row = [1] * 6 + [0] * 4 + [1] * 4 + [0] * 6
        assert pk.validate_constraint(self.make_prefs([row]), catalog20, constraint) == []

    def test_seven_three_split_reported(self, catalog20, constraint):
        row = [1] * 7 + [0] * 3 + [1] * 3 + [0] * 7
        violations = pk.validate_constraint(self.make_prefs([row]), catalog20, constraint)
        assert len(violations) == 1
        v = violations[0]
        assert (v.row_index, v.expensive_count, v.cheap_count) == (0, 7, 3)

    def test_eleven_total_reported(self, catalog20, constraint):
        row = [1] * 6 + [0] * 4 + [1] * 5 + [0] * 5
        violations = pk.validate_constraint(self.make_prefs([row]), catalog20, constraint)
        assert len(violations) == 1
        assert (violations[0].expensive_count, violations[0].cheap_count) == (6, 5)

    def test_matches_row_by_row_counting(self, catalog20, constraint):
        rng = np.random.default_rng(59)
        prefs = self.make_prefs(rng.integers(0, 2, size=(300, 20)).tolist())
        expected = []
        for i, row in enumerate(prefs.data.tolist()):
            e, c = sum(row[:10]), sum(row[10:])
            if (e, c) != (constraint.expensive_quota, constraint.cheap_quota):
                expected.append(pk.RowViolation(i, f"u{i}", e, c))
        assert 0 < len(expected) < prefs.n
        assert pk.validate_constraint(prefs, catalog20, constraint) == expected

    def test_width_mismatch_raises(self, catalog20, constraint):
        with pytest.raises(ValueError):
            pk.validate_constraint(self.make_prefs([[1, 0]]), catalog20, constraint)

    def test_every_fixture_row_is_clean(self, survey, catalog20, constraint):
        prefs, _, _ = survey
        assert pk.validate_constraint(prefs, catalog20, constraint) == []
        exp_mask = catalog20.category_mask(pk.Category.EXPENSIVE)
        assert (prefs.data.sum(axis=1) == constraint.total).all()
        assert (prefs.data[:, exp_mask].sum(axis=1) == constraint.expensive_quota).all()


def test_package_exports_each_imported_name_once():
    assert len(pk.__all__) == len(set(pk.__all__))
    for name in pk.__all__:
        value = getattr(pk, name)
        assert not isinstance(value, types.ModuleType), name
        assert getattr(value, "__module__", "prefkit.").startswith("prefkit."), name
    assert {"kit_count", "svd", "sweep", "write_preferences", "PrefkitError"} <= set(pk.__all__)
