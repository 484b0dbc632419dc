"""Property tests of the CSV writers and of the preference loader's two readers.

The column writers must give the bytes of the row-at-a-time ``csv.writer``
they replaced.  ``load_preferences`` reads plain-form files as one byte block
and every other file row by row.  Whatever the bytes, it must give what the
per-row reader gives: the same matrix, or the same ``PrefkitError`` type and
message.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import prefkit as pk
from oracles import dense, write_csv_rows
from prefkit import io as pio

CATALOG = pk.ItemCatalog(
    tuple(pk.Item(j, f"item_{j}", pk.Category.EXPENSIVE if j < 3 else pk.Category.CHEAP) for j in range(5))
)
M = CATALOG.m
# Every byte a mutation may insert or write: cells, separators, quotes, line
# breaks, NUL, a letter and a byte that is never valid UTF-8.
MUTATION_BYTES = b'01,\n\r"\0x\xff'

text = st.text(st.characters(exclude_categories=("Cs",)), max_size=6)
rows = st.lists(st.lists(st.integers(0, 1), min_size=M, max_size=M), min_size=1, max_size=12)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("properties") / "prefs.csv"


def per_row_reader(path):
    return pio._preferences_from_rows(path, pio._csv_rows(path, path.read_bytes()), M)


def outcome(load, path):
    try:
        prefs = load(path)
    except pk.PrefkitError as exc:
        return type(exc), str(exc)
    return prefs.user_ids, prefs.column_labels, dense(prefs).dtype, dense(prefs).tolist()


@settings(max_examples=150, deadline=None)
# A field holding a CR must be quoted although the files end lines with LF.
@example(data=[[0, 1, 0, 1, 0]], ids=["a\rb", *map(str, range(11))], labels=["", "\r", "x\r\ny", "", ""])
@given(data=rows, ids=st.lists(text, min_size=12, max_size=12, unique=True),
       labels=st.lists(text, min_size=M, max_size=M))
def test_write_then_load_returns_the_same_matrix(path, data, ids, labels):
    prefs = pk.PreferenceMatrix(tuple(ids[: len(data)]), np.array(data), tuple(labels))
    pk.write_preferences(prefs, path)
    loaded = pk.load_preferences(path, CATALOG)
    assert loaded.user_ids == prefs.user_ids
    assert loaded.column_labels == prefs.column_labels
    assert np.array_equal(dense(loaded), dense(prefs))


# Cells with every character the csv module quotes for, plus some it does not.
cell_text = st.text(alphabet='ab,"\r\n\u00e9\t ', max_size=5)
cell_ints = st.integers(-(10**6), 10**6)
cell_floats = st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])


@st.composite
def tables(draw):
    """(header, columns): 2-4 equal-length columns of text, ints or floats, as lists or arrays."""
    n = draw(st.integers(0, 8))
    kinds = draw(st.lists(st.sampled_from(["text", "int", "int64", "float", "float64"]), min_size=2, max_size=4))
    columns = []
    for kind in kinds:
        cell = {"text": cell_text, "int": cell_ints, "int64": cell_ints}.get(kind, cell_floats)
        cells = draw(st.lists(cell, min_size=n, max_size=n))
        columns.append(np.array(cells, dtype=kind) if kind in ("int64", "float64") else cells)
    return draw(st.lists(cell_text, min_size=len(columns), max_size=len(columns))), columns


def written(write, path, *args):
    write(path, *args)
    return path.read_bytes()


@settings(max_examples=300, deadline=None)
@example(table=(["a", ""], [["", 'x"y'], np.array([-0.0, float("nan")])]))
@example(table=(["a\rb", "c"], [[], np.array([], dtype=np.int64)]))
@given(table=tables())
def test_column_writer_gives_the_row_writers_bytes(path, table):
    header, columns = table
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    assert written(pio.write_csv, path, header, columns) == written(write_csv_rows, path, header, rows)


@settings(max_examples=100, deadline=None)
@example(data=[[0, 1, 0, 1, 0]], ids=['a"b', "c,d"], labels=["", "\r", "x\r\ny", "", ""])
@given(data=st.lists(st.lists(st.integers(0, 1), min_size=M, max_size=M), max_size=8),
       ids=st.lists(cell_text, min_size=8, max_size=8, unique=True),
       labels=st.lists(cell_text, min_size=M, max_size=M))
def test_write_preferences_gives_the_row_writers_bytes(path, data, ids, labels):
    matrix = np.array(data, dtype=np.int8).reshape(-1, M)
    prefs = pk.PreferenceMatrix(tuple(ids[: len(data)]), matrix, tuple(labels))
    rows = ([uid, *row] for uid, row in zip(prefs.user_ids, dense(prefs).tolist()))
    expected = written(write_csv_rows, path, ["user_id", *prefs.column_labels], rows)
    assert written(lambda p: pk.write_preferences(prefs, p), path) == expected


@pytest.mark.parametrize("n", [1, 100, pio._BLOCK_ROWS, 2 * pio._BLOCK_ROWS + 5])
@pytest.mark.parametrize("source", ["plain", "quoted", "str"])
def test_keyed_writer_gives_write_csvs_bytes(tmp_path, n, source):
    # The per-user writer builds each line from the id's bytes and its key's
    # suffix; the file must be write_csv's of the full per-user columns.
    rng = np.random.default_rng(n)
    ids = [f"u{i}" if i % 3 else f"\u00fc\u7528{i}" for i in range(n)]
    if source == "quoted":
        ids[::4] = [f'q,"{i}"' for i in range(0, n, 4)]
    prefs = pk.PreferenceMatrix(tuple(ids), rng.integers(0, 2, size=(n, M)))
    if source != "str":  # loaded ids: a plain file's id block, or str ids from the per-row reader
        pk.write_preferences(prefs, tmp_path / "prefs.csv")
        prefs = pk.load_preferences(tmp_path / "prefs.csv", CATALOG)
        assert (prefs.id_block is not None) == (source == "plain")
    keys = rng.integers(0, 7, size=n)
    columns = [np.arange(7) * 1000 - 3, [f"c{k}" if k % 2 else f"c,{k}" for k in range(7)], np.arange(7) / 4]
    header = ["user_id", "a", "b", "c"]
    per_user = [prefs.user_ids, *(np.asarray(column, dtype=object)[keys] for column in columns)]
    expected = written(pio.write_csv, tmp_path / "expected.csv", header, per_user)
    assert written(pio.write_user_csv, tmp_path / "keyed.csv", header, prefs, columns, keys) == expected


EDGE_IDS = {
    # Mixed lengths as synth writes them (u9995 to u10004), then non-ASCII.
    "synth-ids": ([f"u{i:04d}" for i in range(9_995, 10_005)], "\n"),
    "non-ascii": (["ü", "用户", "x", "\U0001f600y", "ééééé"], "\n"),
    "one-empty-id": ([""], "\n"),
    "no-final-lf": (["a", "bb", "ccc"], ""),
    "blank-lines-at-end": (["a", "bb", "ccc"], "\n\n\n"),
    # The first window ends at a 1-byte id just after a 12-byte header, so
    # the 16-byte window of the longest id would start before the file.
    "window-before-file": (["a", "b" * 15, "c"], "\n"),
    "comma-in-id": (["a", "b,1", "c"], "\n"),
    "one-long-id": (["x" * 5_000, *map(str, range(20))], "\n"),
    "nul-in-id": (["a\0b", "c"], "\n"),
}


@pytest.mark.parametrize("case", list(EDGE_IDS))
def test_edge_ids_load_and_write_as_the_row_forms_do(tmp_path, monkeypatch, case):
    ids, tail = EDGE_IDS[case]
    data = np.random.default_rng(len(ids)).integers(0, 2, size=(len(ids), M))
    lines = ["user_id,,,,,", *(f"{uid}," + ",".join(map(str, row)) for uid, row in zip(ids, data.tolist()))]
    path = tmp_path / "prefs.csv"
    path.write_bytes(("\n".join(lines) + tail).encode("utf-8"))
    plain = case not in ("comma-in-id", "one-long-id", "nul-in-id")
    if case in ("one-long-id", "nul-in-id"):  # the reader must give up before it gathers anything
        monkeypatch.setattr(pio, "sliding_window_view", None)
    assert (pio._plain_parts(path.read_bytes(), M) is not None) == plain
    monkeypatch.undo()
    assert outcome(lambda p: pk.load_preferences(p, CATALOG), path) == outcome(per_row_reader, path)

    # Both writers, for the str ids and for the ids as loaded, give write_csv's bytes.
    matrices = [pk.PreferenceMatrix(tuple(ids), data, ("",) * M)]
    if plain:
        matrices.append(pk.load_preferences(path, CATALOG))
        assert matrices[-1].id_block is not None
    keys = np.arange(len(ids)) % 3
    columns = [np.array([-1, 10, 200]), ["c", "d,e", ""]]
    header = ["user_id", "a", "b"]
    for prefs in matrices:
        cells = [prefs.user_ids, *(dense(prefs)[:, j] for j in range(M))]
        expected = written(pio.write_csv, tmp_path / "expected.csv", ["user_id", *prefs.column_labels], cells)
        assert written(lambda p: pk.write_preferences(prefs, p), tmp_path / "plain.csv") == expected
        per_user = [prefs.user_ids, *(np.asarray(column, dtype=object)[keys] for column in columns)]
        expected = written(pio.write_csv, tmp_path / "expected.csv", header, per_user)
        assert written(pio.write_user_csv, tmp_path / "keyed.csv", header, prefs, columns, keys) == expected


def test_keyed_writer_memory_stays_within_a_few_blocks(tmp_path):
    # One 5,000-byte id pads only the blocks of lines around it, each within
    # the block budget; padding all n ids to its width would take 100 MB.
    n = 20_000
    ids = tuple(["x" * 5_000, *(f"u{i}" for i in range(1, n))])
    prefs = pk.PreferenceMatrix(ids, np.zeros((n, M), dtype=np.int8))
    tracemalloc.start()
    try:
        pio.write_user_csv(tmp_path / "keyed.csv", ["user_id", "a"], prefs, [np.array([7])], np.zeros(n, dtype=int))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < min(8 * pio._BLOCK_BYTES, n * 5_000 // 8), peak
    assert (tmp_path / "keyed.csv").read_bytes() == b"user_id,a\n" + b"".join(f"{uid},7\n".encode() for uid in ids)


@st.composite
def mutated_files(draw):
    data = draw(rows)
    lines = ["user_id," + ",".join(f"item_{j}" for j in range(M))]
    lines += [f"u{i}," + ",".join(map(str, row)) for i, row in enumerate(data)]
    raw = bytearray(("\n".join(lines) + "\n").encode("utf-8"))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        at = draw(st.integers(0, len(raw) if op == "insert" else len(raw) - 1))
        byte = draw(st.sampled_from(MUTATION_BYTES))
        if op == "insert":
            raw.insert(at, byte)
        elif op == "delete":
            del raw[at]
        else:
            raw[at] = byte
        if not raw:
            break
    return bytes(raw)


@settings(max_examples=300, deadline=None)
# A comma inserted into a user id leaves the last 2m bytes of its line valid,
# and with one comma deleted from the header the file's comma count holds too.
@example(raw=b"user_id,item_0,item_1,item_2,item_3,item_4\nu,0,1,0,1,0,1\n")
@example(raw=b"user_id,item_0item_1,item_2,item_3,item_4\nu,0,1,0,1,0,1\n")
@given(raw=mutated_files())
def test_mutated_file_loads_or_fails_as_the_per_row_reader_does(path, raw):
    path.write_bytes(raw)
    assert outcome(lambda p: pk.load_preferences(p, CATALOG), path) == outcome(per_row_reader, path)
