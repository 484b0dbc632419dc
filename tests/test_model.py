import dataclasses
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import prefkit as pk
from prefkit import io as pio
from prefkit import model
from prefkit.cli import main

from conftest import CATALOG_PATH
from oracles import dense, unique_by_first_np


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
        assert dense(prefs).tolist() == [[1, 0, 1, 0], [0, 1, 0, 1]]

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


def assert_same_matrix(a, b):
    assert a.user_ids == b.user_ids
    assert a.column_labels == b.column_labels
    assert dense(a).dtype == dense(b).dtype and np.array_equal(dense(a), dense(b))


HEADER = "user_id,Rice,Oil,Salt,Sugar\n"


class TestPlainFormReader:
    """Plain-form files are read as one byte block; the result must be the
    matrix the per-row reader builds from the same file."""

    @pytest.mark.parametrize(
        "text, plain",
        [
            ("\ufeff" + HEADER + "u1,1,0,1,0\nu2,0,1,0,1\n", True),
            (HEADER + "u1,1,0,1,0\nu2,0,1,0,1\n\n\n", True),
            (HEADER + "u1,1,0,1,0\nu2,0,1,0,1", True),
            (HEADER + "u1,1,0,1,0\nuser_000002,0,1,0,1\n,1,1,0,0\n", True),
            (HEADER + "\u00fc1,1,0,1,0\n\u7528\u62372,0,1,0,1\n", True),
            (HEADER + '"u,1",1,0,1,0\nu2,0,1,0,1\n', False),
            (HEADER.replace("\n", "\r\n") + "u1,1,0,1,0\r\nu2,0,1,0,1\r\n", False),
            (HEADER + "u\x001,1,0,1,0\nu2,0,1,0,1\n", False),
        ],
        ids=["bom", "trailing-blank-lines", "no-final-newline", "mixed-length-ids",
             "non-ascii-ids", "quoted-id", "crlf", "nul-in-id"],
    )
    def test_matches_row_reader(self, tmp_path, small_catalog, text, plain):
        path = write(tmp_path / "prefs.csv", text)
        raw = path.read_bytes()
        fast = pio._plain_parts(raw, small_catalog.m)
        rows = pio._preferences_from_rows(path, pio._csv_rows(path, raw), small_catalog.m)
        assert (fast is not None) == plain
        if plain:
            assert_same_matrix(pk.PreferenceMatrix(*fast), rows)
        assert_same_matrix(pk.load_preferences(path, small_catalog), rows)

    def test_synth_survey_takes_plain_path(self, tmp_path, catalog20, monkeypatch):
        out = tmp_path / "synth"
        argv = ["synth", "--catalog", str(CATALOG_PATH), "--out", str(out), "--n-users", "500"]
        assert main(argv + ["--n-kits", "8", "--noise-swaps", "1", "--seed", "4"]) == 0

        def per_row_reader(*args):
            raise AssertionError("a synth survey went through the per-row reader")

        monkeypatch.setattr(pio, "_preferences_from_rows", per_row_reader)
        prefs = pk.load_preferences(out / "preferences.csv", catalog20)
        assert prefs.n == 500 and prefs.user_ids[-1] == "u0499"


def outcome(load, path):
    """The matrix a reader gives, or the type and message of its error."""
    try:
        prefs = load(path)
    except pk.PrefkitError as exc:
        return type(exc), str(exc)
    return prefs.user_ids, prefs.column_labels, dense(prefs).tolist()


class TestPlainFormIds:
    """The plain-form reader keeps the ids as bytes and checks them for
    uniqueness on uint64 keys (ids up to 8 bytes) or void keys (longer).
    Either way a file loads as the per-row reader loads it, or fails with
    its error."""

    @pytest.mark.parametrize(
        "ids, plain",
        [
            (["user_0001x", "user_0001y", "user_0001"], True),
            (["u1", "u2", "u1"], False),
            (["user_000000001", "u2", "user_000000001"], False),
            (["12345678", "1234567", "12345679"], True),
            (["", "u2", "u3"], True),
            (["", "u2", ""], False),
            (["\u00fc\u00fc\u00fc\u00fc\u00fc", "\u00fc\u00fc\u00fc\u00fc", "\u7528"], True),
        ],
        ids=["long-shared-prefix", "short-duplicate", "long-duplicate", "at-8-bytes", "one-empty",
             "two-empty", "non-ascii"],
    )
    def test_loads_or_fails_as_the_row_reader_does(self, tmp_path, small_catalog, ids, plain):
        cells = ["1,0,1,0", "0,1,0,1", "1,1,0,0"]
        path = write(tmp_path / "prefs.csv", HEADER + "".join(f"{uid},{row}\n" for uid, row in zip(ids, cells)))
        raw = path.read_bytes()
        fast = pio._plain_parts(raw, small_catalog.m)
        assert (fast is not None) == plain
        if plain:
            prefs = pk.PreferenceMatrix(*fast)
            assert prefs.id_block is not None and prefs.user_ids == tuple(ids)
        def per_row(p):
            return pio._preferences_from_rows(p, pio._csv_rows(p, p.read_bytes()), small_catalog.m)

        assert outcome(lambda p: pk.load_preferences(p, small_catalog), path) == outcome(per_row, path)

    def test_invalid_utf8_in_an_id_fails_as_the_row_reader_does(self, tmp_path, small_catalog):
        path = tmp_path / "prefs.csv"
        path.write_bytes(HEADER.encode() + b"u1,1,0,1,0\nu\xc3,0,1,0,1\n\xbcu,1,1,0,0\n")
        assert pio._plain_parts(path.read_bytes(), small_catalog.m) is None
        with pytest.raises(pk.TextFormatError, match=r"prefs\.csv:3: byte 0xc3 is not valid UTF-8"):
            pk.load_preferences(path, small_catalog)

    def test_user_ids_are_decoded_once_and_only_when_read(self, tmp_path, small_catalog):
        path = write(tmp_path / "prefs.csv", HEADER + "u1,1,0,1,0\nu\u00e92,1,1,0,0\nu3,0,1,0,1\n")
        prefs = pk.load_preferences(path, small_catalog)
        constraint = pk.SelectionConstraint(expensive_quota=1, cheap_quota=1)
        violations = pk.validate_constraint(prefs, small_catalog, constraint)
        assert [v.user_id for v in violations] == ["u\u00e92"]
        assert "user_ids" not in vars(prefs)  # the violation decoded only its own id
        assert prefs.user_ids == ("u1", "u\u00e92", "u3") and prefs.user_ids is prefs.user_ids


class TestTextErrors:
    @pytest.mark.parametrize("kind", ["catalog", "preferences"])
    def test_invalid_utf8_names_file_and_line(self, tmp_path, small_catalog, kind):
        text, load = {
            "catalog": (CLEAN_CATALOG, pk.load_catalog),
            "preferences": (
                HEADER + "u1,1,0,1,0\nu2,0,1,0,1\n",
                lambda path: pk.load_preferences(path, small_catalog),
            ),
        }[kind]
        raw = text.encode("utf-8")
        # The bad byte opens line 3, right after a line break.
        cut = raw.index(b"\n", raw.index(b"\n") + 1) + 1
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xef\xbb\xbf" + raw[:cut] + b"\xff" + raw[cut:])
        with pytest.raises(pk.TextFormatError, match=r"bad\.csv:3: byte 0xff is not valid UTF-8"):
            load(path)

    def test_oversized_field_names_file_and_line(self, tmp_path, small_catalog):
        path = write(tmp_path / "prefs.csv", HEADER + 'u1,1,0,1,0\n"u2' + "0" * 200_000 + "\n")
        with pytest.raises(pk.TextFormatError, match=r"prefs\.csv:3: field larger than field limit"):
            pk.load_preferences(path, small_catalog)


class TestPreferenceMatrix:
    def test_rejects_non_binary_entries(self):
        with pytest.raises(ValueError):
            pk.PreferenceMatrix(("u1",), np.array([[0, 2]]))

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValueError):
            pk.PreferenceMatrix(("u1", "u2"), np.array([[0, 1]]))


class TestDistinctRows:
    def test_first_occurrence_order_weights_and_inverse(self):
        data = [[1, 1, 0], [0, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 0], [1, 1, 0]]
        rows, weights, inverse, first = pk.PreferenceMatrix(tuple("abcdef"), np.array(data)).distinct
        assert rows.tolist() == [[1, 1, 0], [0, 0, 0], [0, 1, 1]] and rows.dtype == np.int8
        assert weights.tolist() == [3, 2, 1]
        assert inverse.tolist() == [0, 1, 0, 2, 1, 0]
        assert first.tolist() == [0, 1, 3]

    @pytest.mark.parametrize("m", [1, 7, 8, 9, 64, 65, 130])
    def test_matches_unique_rows_at_any_width(self, m):
        rng = np.random.default_rng(m)
        base = rng.integers(0, 2, size=(12, m))
        data = base[rng.integers(0, 12, size=300)]
        rows, weights, inverse, _ = pk.PreferenceMatrix(tuple(map(str, range(300))), data).distinct
        assert np.array_equal(rows[inverse], data)
        assert len(rows) == len(np.unique(data, axis=0))
        assert np.array_equal(weights, np.bincount(inverse))
        firsts = np.unique(inverse, return_index=True)[1]
        assert (np.diff(firsts) > 0).all()  # numbered in order of first occurrence

    @pytest.mark.parametrize("m", [1, 20, 64])
    def test_uint64_and_void_keys_give_the_same_rows(self, m):
        rng = np.random.default_rng(m)
        data = rng.integers(0, 2, size=(12, m))[rng.integers(0, 12, size=400)]
        packed = np.packbits(data, axis=1)
        wide = np.zeros((len(data), 9), dtype=np.uint8)  # the same rows, one byte too wide for a uint64
        wide[:, : packed.shape[1]] = packed
        narrow, void = model._byte_keys(packed), model._byte_keys(wide)
        assert narrow.dtype == np.uint64 and void.dtype.kind == "V"
        for by_uint64, by_void in zip(model._unique_by_first(narrow), model._unique_by_first(void)):
            assert np.array_equal(by_uint64, by_void)

    @pytest.mark.parametrize("dtype", ["int64", "uint64", "void", "object"])
    @pytest.mark.parametrize("n", [0, 1, 2000])
    def test_first_occurrence_numbering_matches_np_unique(self, dtype, n):
        values = np.random.default_rng(n).integers(0, 50, size=n)
        keys = {
            "int64": values,
            "uint64": values.astype(np.uint64) << np.uint64(40),
            "void": model._byte_keys(np.c_[np.zeros((n, 8), dtype=np.uint8), values.astype(np.uint8)]),
            "object": np.array([v << 70 for v in values.tolist()], dtype=object).reshape(n),
        }[dtype]
        for ours, reference in zip(model._unique_by_first(keys), unique_by_first_np(keys)):
            assert ours.dtype == np.int64 and np.array_equal(ours, reference)

    def test_same_rows_either_side_of_the_64_column_boundary(self):
        rng = np.random.default_rng(64)
        data = rng.integers(0, 2, size=(12, 64))[rng.integers(0, 12, size=400)]
        ids = tuple(map(str, range(400)))
        at_64 = pk.PreferenceMatrix(ids, data).distinct
        at_65 = pk.PreferenceMatrix(ids, np.c_[data, np.zeros(400, dtype=int)]).distinct
        assert np.array_equal(at_65.rows[:, :64], at_64.rows) and not at_65.rows[:, 64].any()
        assert np.array_equal(at_65.weights, at_64.weights) and np.array_equal(at_65.inverse, at_64.inverse)

    def test_computed_once_read_only_and_still_frozen(self):
        prefs = pk.PreferenceMatrix(("u1", "u2"), np.array([[0, 1], [0, 1]]))
        assert prefs.distinct is prefs.distinct
        for arr in prefs.distinct:
            with pytest.raises(ValueError):
                arr[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            prefs.distinct = prefs.distinct

    def test_no_rows_and_no_columns(self):
        rows, weights, inverse, _ = pk.PreferenceMatrix((), np.zeros((0, 4))).distinct
        assert rows.shape == (0, 4) and weights.size == inverse.size == 0
        rows, weights, inverse, _ = pk.PreferenceMatrix(("a", "b"), np.zeros((2, 0))).distinct
        assert rows.shape == (1, 0) and weights.tolist() == [2] and inverse.tolist() == [0, 0]


class TestDenseAndPlainFormAgree:
    """The distinct rows are found at construction: a matrix built from dense
    rows and the one the plain-form reader builds from its file must agree."""

    @pytest.mark.parametrize(
        "n, m, patterns",
        [(300, 10, 12), (300, 100, 12), (1, 10, 1), (1, 100, 1), (50, 10, 1), (50, 100, 1)],
        ids=["uint64-keys", "void-keys", "one-user-m10", "one-user-m100", "all-equal-m10", "all-equal-m100"],
    )
    def test_distinct_first_and_data_agree(self, tmp_path, n, m, patterns):
        rng = np.random.default_rng(n + m + patterns)
        data = rng.integers(0, 2, size=(patterns, m))[rng.integers(0, patterns, size=n)]
        from_rows = pk.PreferenceMatrix(tuple(f"u{i}" for i in range(n)), data)
        path = tmp_path / "prefs.csv"
        pk.write_preferences(from_rows, path)
        parts = pio._plain_parts(path.read_bytes(), m)
        assert parts is not None
        plain = pk.PreferenceMatrix(*parts)
        assert plain.id_block is not None
        for ours, theirs in zip(from_rows.distinct, plain.distinct):
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
        rows, weights, inverse, first = from_rows.distinct
        assert np.array_equal(first, np.unique(inverse, return_index=True)[1])  # each row's first user
        assert np.array_equal(rows, data[first]) and weights.sum() == n
        assert np.array_equal(dense(from_rows), data) and np.array_equal(dense(plain), data)
        assert dense(from_rows).dtype == dense(plain).dtype == np.int8


def binary_rows(count, m):
    return hnp.arrays(np.int8, st.tuples(count, st.just(m)), elements=st.integers(0, 1))


class TestHamming:
    """The blocked popcount of packed rows against a direct comparison of every pair of rows."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_pairwise_comparison(self, data):
        # Rows of one word, rows that end at a 64-bit word boundary or just past one, and rows of several words.
        widths = st.integers(0, 12) | st.integers(60, 70) | st.integers(120, 135) | st.integers(250, 300)
        m = data.draw(widths, label="m")
        rows = data.draw(binary_rows(st.integers(0, 9), m), label="rows")
        others = data.draw(binary_rows(st.integers(1, 7), m), label="others")
        dtype = data.draw(st.sampled_from([np.dtype(np.int64), np.min_scalar_type(m)]), label="dtype")
        # From one row per block up to three, so that blocks split the rows unevenly.
        words = max(1, -(-m // 64))
        block_floats = data.draw(st.integers(1, 3 * len(others) * words), label="block_floats")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model, "_BLOCK_FLOATS", block_floats)
            got = model._hamming(rows, others, dtype)
        assert got.dtype == dtype and np.array_equal(got, (rows[:, None] != others[None]).sum(axis=2))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    @pytest.mark.parametrize("block_floats", [1, 2, 2**16])
    def test_against_one_row(self, monkeypatch, dtype, block_floats):
        rows = np.random.default_rng(block_floats).integers(0, 2, size=(7, 20))
        monkeypatch.setattr(model, "_BLOCK_FLOATS", block_floats)
        got = model._hamming(rows, rows[3:4], dtype)
        assert got.dtype == dtype and np.array_equal(got, (rows != rows[3]).sum(axis=1, keepdims=True))


class TestSelectionConstraint:
    def test_defaults(self, constraint):
        assert (constraint.total, constraint.expensive_quota, constraint.cheap_quota) == (10, 6, 4)

    def test_catalog_must_be_large_enough(self, catalog_factory):
        with pytest.raises(ValueError):
            pk.SelectionConstraint().check_catalog(catalog_factory(4, 4))

    def test_check_catalog_names_the_short_tier(self, catalog_factory):
        for sizes, tier in (((5, 9), "expensive"), ((9, 3), "cheap")):
            with pytest.raises(ValueError, match=f"^{tier}_quota exceeds {tier} item count$"):
                pk.SelectionConstraint().check_catalog(catalog_factory(*sizes))

    def test_tiers_pair_each_category_with_its_ids_and_quota(self, catalog20_interleaved):
        tiers = pk.SelectionConstraint(expensive_quota=5, cheap_quota=3).tiers(catalog20_interleaved)
        assert [(category, ids.tolist(), quota) for category, ids, quota in tiers] == [
            (pk.Category.EXPENSIVE, list(range(0, 20, 2)), 5),
            (pk.Category.CHEAP, list(range(1, 20, 2)), 3),
        ]
        assert all(ids.dtype.kind == "i" for _, ids, _ in tiers)


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

    def test_matches_row_by_row_counting(self, catalog20, catalog20_interleaved, constraint):
        rng = np.random.default_rng(59)
        prefs = self.make_prefs(rng.integers(0, 2, size=(300, 20)).tolist())
        for catalog in (catalog20, catalog20_interleaved):
            expensive = set(catalog.ids_in(pk.Category.EXPENSIVE))
            expected = []
            for i, row in enumerate(dense(prefs).tolist()):
                e = sum(v for j, v in enumerate(row) if j in expensive)
                c = sum(row) - e
                if (e, c) != (constraint.expensive_quota, constraint.cheap_quota):
                    expected.append(pk.RowViolation(i, f"u{i}", e, c))
            assert 0 < len(expected) < prefs.n
            assert pk.validate_constraint(prefs, catalog, constraint) == expected

    def test_width_mismatch_raises(self, catalog20, constraint):
        with pytest.raises(ValueError):
            pk.validate_constraint(self.make_prefs([[1, 0]]), catalog20, constraint)

    def test_every_fixture_row_is_clean(self, survey, catalog20, constraint):
        prefs, _, _ = survey
        assert pk.validate_constraint(prefs, catalog20, constraint) == []
        expensive = list(catalog20.ids_in(pk.Category.EXPENSIVE))
        assert (dense(prefs).sum(axis=1) == constraint.total).all()
        assert (dense(prefs)[:, expensive].sum(axis=1) == constraint.expensive_quota).all()


def test_package_exports_each_imported_name_once():
    assert len(pk.__all__) == len(set(pk.__all__))
    for name in pk.__all__:
        value = getattr(pk, name)
        assert not isinstance(value, types.ModuleType), name
        assert getattr(value, "__module__", "prefkit.").startswith("prefkit."), name
    assert {"kit_count", "svd", "sweep", "write_preferences", "PrefkitError"} <= set(pk.__all__)
