"""CSV ingestion and emission for catalogs, preference matrices and the command outputs.

Formats (UTF-8, comma-separated, LF line endings).  Loaders accept a UTF-8
byte-order mark and ignore blank lines at the end of a file; a blank line
before the last row is a malformed row.  A file that is not UTF-8, or that
the CSV reader cannot split into rows, raises ``TextFormatError`` naming
``path:line``.

* catalog:      ``item_id,name,category`` with category in {expensive, cheap}
* preferences:  ``user_id,<one label per item>`` with data cells strictly 0 or 1

A plain-form preference file is read as one byte buffer, and its user ids
stay bytes (a ``ByteBlock``) from the reader to the per-user writers; they
are decoded to str only when ``PreferenceMatrix.user_ids`` is read.

Writers work a column at a time: ``write_csv`` turns each column into its
fields once and writes the joined rows in blocks.  The per-user files are
built as bytes: ``write_user_csv`` formats the cells after the user id once
per key (on the SVD route, once per distinct row) and writes each line as
the id's bytes and its key's suffix; ``write_preferences`` does the same
with one suffix of cells per distinct row of the matrix.  A field is quoted
only when it holds a comma, a quote, a CR or an LF.
"""

from __future__ import annotations

import codecs
import csv
import io
from itertools import islice
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DuplicateItemIdError,
    DuplicateUserIdError,
    EmptyMatrixError,
    MalformedRowError,
    NonBinaryEntryError,
    TextFormatError,
    UnknownCategoryError,
    WidthMismatchError,
)
from .model import ByteBlock, Category, Item, ItemCatalog, PreferenceMatrix, _byte_keys

CATALOG_HEADER = ["item_id", "name", "category"]


def _strip_bom(raw: bytes) -> bytes:
    return raw[len(codecs.BOM_UTF8) :] if raw.startswith(codecs.BOM_UTF8) else raw


def _csv_rows(path: str | Path, raw: bytes) -> list[list[str]]:
    """Split a file's bytes into CSV rows, dropping blank rows at the end."""
    raw = _strip_bom(raw)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The appended byte makes a bad byte right after a line break count
        # as the first byte of the next line.
        lineno = len((raw[: exc.start] + b"x").splitlines())
        raise TextFormatError(f"{path}:{lineno}: byte 0x{raw[exc.start]:02x} is not valid UTF-8") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise TextFormatError(f"{path}:{reader.line_num}: {exc}") from None
    while rows and not rows[-1]:
        rows.pop()
    return rows


def load_catalog(path: str | Path) -> ItemCatalog:
    """Read an item catalog; item order is file order."""
    rows = _csv_rows(path, Path(path).read_bytes())
    if not rows or rows[0] != CATALOG_HEADER:
        raise MalformedRowError(f"{path}: expected header {','.join(CATALOG_HEADER)}")
    items: list[Item] = []
    seen_ids: set[int] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise MalformedRowError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
        raw_id, name, raw_cat = row
        try:
            item_id = int(raw_id)
        except ValueError:
            raise MalformedRowError(f"{path}:{lineno}: item_id {raw_id!r} is not an integer") from None
        if item_id in seen_ids:
            raise DuplicateItemIdError(f"{path}:{lineno}: duplicate item_id {item_id}")
        seen_ids.add(item_id)
        try:
            category = Category(raw_cat)
        except ValueError:
            raise UnknownCategoryError(f"{path}:{lineno}: unknown category {raw_cat!r}") from None
        items.append(Item(item_id, name, category))
    if [it.item_id for it in items] != list(range(len(items))):
        raise MalformedRowError(f"{path}: item_ids must run 0..{len(items) - 1} in order")
    return ItemCatalog(tuple(items))


def load_preferences(path: str | Path, catalog: ItemCatalog) -> PreferenceMatrix:
    """Read a preference matrix, coercing cells strictly from '0'/'1' tokens.

    A file in the plain form that ``write_preferences`` emits is read as one
    byte block; any other file goes through the per-row reader, which gives
    every error its message and line.  Both give the same matrix.
    """
    raw = Path(path).read_bytes()
    prefs = _plain_preferences(raw, catalog.m)
    if prefs is None:
        prefs = _preferences_from_rows(path, _csv_rows(path, raw), catalog.m)
    return prefs


def _plain_preferences(raw: bytes, m: int) -> PreferenceMatrix | None:
    """The matrix of a plain-form file, or None for any other file.

    Plain form: LF line endings, no quote character or NUL byte, a header
    of m + 1 fields, and data lines that each hold a unique, comma-free user
    id and then m cells written as ``,0`` or ``,1``.  The file is one byte
    buffer: the last 2m bytes of every data line form one n x 2m cell block,
    checked column by column, and the ids stay bytes, kept as one
    ``ByteBlock`` and checked for uniqueness on ``_byte_keys``.  The reader
    returns before the matrix is built, so its temporaries are freed first.
    """
    parts = _plain_parts(raw, m)
    return None if parts is None else PreferenceMatrix(*parts)


def _plain_parts(raw: bytes, m: int) -> tuple[ByteBlock, np.ndarray, tuple[str, ...]] | None:
    """The user ids, n x m selections and column labels of a plain-form file, or None."""
    raw = _strip_bom(raw)
    if b'"' in raw or b"\r" in raw or b"\0" in raw:
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    lf = np.flatnonzero(buf == ord("\n"))
    # Blank lines at the end are the LFs after the last other byte: exactly
    # there lf[i] - i takes its largest possible value, buf.size - lf.size.
    blank = np.count_nonzero(lf - np.arange(lf.size) == buf.size - lf.size)
    size = buf.size - blank
    line_ends = np.append(lf[: lf.size - blank], size)  # each line's LF, or the end of the text
    n, width = line_ends.size - 1, 2 * m
    starts, ends = line_ends[:-1] + 1, line_ends[1:]  # the data lines
    lengths = ends - width - starts  # of each user id
    # Every line holds m commas in its cells, so this count leaves none for
    # the user ids once the header has its m.
    if not n or (lengths < 0).any() or raw.count(b",") != m * (n + 1):
        return None
    cells = sliding_window_view(buf, width)[ends - width]
    if not ((cells[:, 0::2] == ord(",")).all() and ((cells[:, 1::2] | 1) == ord("1")).all()):
        return None
    selected = cells[:, 1::2] == ord("1")
    del cells
    # Past the header the text is each line's id, then its cells and LF
    # (the last line has no LF).
    after_id = np.full(n, width + 1)
    after_id[-1] = width
    ids = ByteBlock(buf[starts[0] : size][_first_of_pairs(lengths, after_id)], np.r_[0, np.cumsum(lengths)])
    # Zero padding keeps ids apart, as the plain form has no NUL.  A padded
    # block larger than the file (one very long id) is left to the row reader.
    if n * int(lengths.max()) > buf.size:
        return None
    keys = np.sort(_byte_keys(ids.padded()))
    if (keys[1:] == keys[:-1]).any():
        return None
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            return None
    labels = raw[: line_ends[0]].decode("utf-8").split(",")
    if len(labels) != m + 1:
        return None
    return ids, selected, tuple(labels[1:])


def _first_of_pairs(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """A mask over pieces laid out first[0], second[0], first[1], second[1], ...
    of the given byte sizes: True on each first piece."""
    return np.repeat(np.tile([True, False], len(first)), np.column_stack([first, second]).ravel())


def _preferences_from_rows(path: str | Path, rows: list[list[str]], m: int) -> PreferenceMatrix:
    if not rows:
        raise EmptyMatrixError(f"{path}: file is empty")
    header = rows[0]
    if len(header) != m + 1:
        raise WidthMismatchError(
            f"{path}: header has {len(header)} fields, expected {m + 1}"
        )
    if len(rows) == 1:
        raise EmptyMatrixError(f"{path}: no data rows")
    user_ids: list[str] = []
    seen: set[str] = set()
    data = np.zeros((len(rows) - 1, m), dtype=np.int8)
    for i, row in enumerate(rows[1:]):
        lineno = i + 2
        if len(row) != m + 1:
            raise WidthMismatchError(
                f"{path}:{lineno}: row has {len(row)} fields, expected {m + 1}"
            )
        uid = row[0]
        if uid in seen:
            raise DuplicateUserIdError(f"{path}:{lineno}: duplicate user_id {uid!r}")
        seen.add(uid)
        user_ids.append(uid)
        for j, token in enumerate(row[1:]):
            if token == "0":
                continue
            if token == "1":
                data[i, j] = 1
            else:
                raise NonBinaryEntryError(
                    f"{path}:{lineno}: cell {token!r} in column {j} is not '0' or '1'"
                )
    return PreferenceMatrix(tuple(user_ids), data, tuple(header[1:]))


# Rows the writers join and hand to the file at once.
_BLOCK_ROWS = 4096
# Characters that make the csv module quote a field when records end in CR LF.
_SPECIAL = (",", '"', "\r", "\n")


def _quote(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"' if any(c in cell for c in _SPECIAL) else cell


def _fields(column: Sequence[object] | np.ndarray) -> list[str]:
    """One column's cells as CSV fields.

    An integer array is formatted through a table of its distinct values;
    any other cell is ``str(cell)``, quoted by the csv module's minimal rule
    (wrap in quotes, double each quote) only if it holds a comma, a quote, a
    CR or an LF.  The joined column is searched once, so a column that needs
    no quoting costs no per-cell test.
    """
    if isinstance(column, np.ndarray):
        if column.dtype.kind in "iu":
            values, index = np.unique(column, return_inverse=True)
            return np.array([str(v) for v in values.tolist()], dtype=object)[index].tolist()
        column = column.tolist()
    cells = [str(cell) for cell in column]
    if any(c in "".join(cells) for c in _SPECIAL):
        cells = [_quote(cell) for cell in cells]
    return cells


def write_csv(
    path: str | Path, header: Sequence[object], columns: Sequence[Sequence[object] | np.ndarray]
) -> None:
    """Write a header and then one row per cell of the equal-length ``columns``.

    Each column is turned into its fields once (see ``_fields``), then rows
    are joined with commas, ended by LF and written in blocks of
    ``_BLOCK_ROWS``.  The bytes are those of ``csv.writer`` with minimal
    quoting that also quotes a field holding a CR, with one exception: a row
    whose only field is empty is written as an empty line, not as ``""``.
    No command writes a one-column file.
    """
    rows = map(",".join, zip(*map(_fields, columns), strict=True))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_fields(header)) + "\n")
        while chunk := list(islice(rows, _BLOCK_ROWS)):
            fh.write("\n".join(chunk) + "\n")


def _id_fields(prefs: PreferenceMatrix) -> ByteBlock:
    """Each user id as its CSV field: the block of a plain-form file as read,
    or the str ids through ``_fields``, encoded once."""
    block = prefs.id_block
    if block is None or np.isin(block.data, list(b',"\r\n')).any():
        return ByteBlock.encode(_fields(prefs.user_ids))
    return block


def _write_lines(
    path: str | Path, header: Sequence[object], ids: ByteBlock, table: np.ndarray, sizes: np.ndarray, keys: np.ndarray
) -> None:
    """Write a header, then line i: id field i and row ``keys[i]`` of a suffix table.

    Row j of the ``table`` holds suffix j's ``sizes[j]`` bytes, zero-padded.
    Lines are gathered as bytes in blocks of ``_BLOCK_ROWS``.
    """
    id_sizes = ids.lengths
    with open(path, "wb") as fh:
        fh.write((",".join(_fields(header)) + "\n").encode("utf-8"))
        for start in range(0, len(keys), _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, len(keys))
            rows = keys[start:stop]
            suffix_sizes = sizes[rows]
            is_id = _first_of_pairs(id_sizes[start:stop], suffix_sizes)
            lines = np.empty(is_id.size, dtype=np.uint8)
            lines[is_id] = ids.data[ids.offsets[start] : ids.offsets[stop]]
            lines[~is_id] = table[rows][np.arange(table.shape[1]) < suffix_sizes[:, None]]
            fh.write(lines)


def write_user_csv(
    path: str | Path,
    header: Sequence[object],
    prefs: PreferenceMatrix,
    columns: Sequence[Sequence[object] | np.ndarray],
    keys: np.ndarray,
) -> None:
    """Write a header, then one line per user: its id, then the cells of ``columns`` at its key.

    ``columns`` hold one cell per key, and user i's line ends with the cells
    at ``keys[i]``.  Each key's suffix is formatted by the rules of
    ``_fields`` and encoded once, and each line is the bytes of the user's id
    field and of its key's suffix, so the file is ``write_csv``'s for the
    columns ``[prefs.user_ids, *(column[keys] for column in columns)]``.
    """
    cells = map(",".join, zip(*map(_fields, columns), strict=True))
    suffixes = ByteBlock.encode([f",{line}\n" for line in cells])
    _write_lines(path, header, _id_fields(prefs), suffixes.padded(), suffixes.lengths, np.asarray(keys))


def write_preferences(prefs: PreferenceMatrix, path: str | Path) -> None:
    """Write the plain form ``_plain_preferences`` reads, as ``write_csv`` would.

    One d x (2m + 1) byte block holds each distinct row's cells as
    ``,0``/``,1`` and its LF; line i is user i's id field and its row's line
    of the block.
    """
    rows, _, inverse, _ = prefs.distinct
    width = 2 * prefs.m + 1
    block = np.full((len(rows), width), ord(","), dtype=np.uint8)
    block[:, 1::2] = rows + ord("0")
    block[:, -1] = ord("\n")
    header = ["user_id", *prefs.column_labels]
    _write_lines(path, header, _id_fields(prefs), block, np.full(len(rows), width), inverse)
