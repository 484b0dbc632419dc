"""CSV ingestion and emission for catalogs, preference matrices and the command outputs.

Formats (UTF-8, comma-separated, LF line endings).  Loaders accept a UTF-8
byte-order mark and ignore blank lines at the end of a file; a blank line
before the last row is a malformed row.  A file that is not UTF-8, or that
the CSV reader cannot split into rows, raises ``TextFormatError`` naming
``path:line``.

* catalog:      ``item_id,name,category`` with category in {expensive, cheap}
* preferences:  ``user_id,<one label per item>`` with data cells strictly 0 or 1

Writers work a column at a time: ``write_csv`` turns each column into its
fields once and writes the joined rows in blocks, and ``write_preferences``
writes the plain form from one byte block of cells.  A field is quoted only
when it holds a comma, a quote, a CR or an LF.
"""

from __future__ import annotations

import codecs
import csv
import io
from itertools import islice
from pathlib import Path
from typing import Sequence

import numpy as np

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
from .model import Category, Item, ItemCatalog, PreferenceMatrix

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
    id and then m cells written as ``,0`` or ``,1``.  The last 2m bytes of every
    data line form one n x 2m byte block, checked column by column.
    """
    raw = _strip_bom(raw)
    if b'"' in raw or b"\r" in raw or b"\0" in raw:
        return None
    lines = raw.rstrip(b"\n").split(b"\n")
    header, body = lines[0], lines[1:]
    width = 2 * m
    cells = b"".join([line[-width:] for line in body])
    # Every line holds m commas in its cells, so this count leaves none for
    # the user ids once the header has its m.
    if not body or len(cells) != width * len(body) or raw.count(b",") != m * len(lines):
        return None
    block = np.frombuffer(cells, dtype=np.uint8).reshape(len(body), width)
    bits = block[:, 1::2]
    if not ((block[:, 0::2] == ord(",")).all() and ((bits | 1) == ord("1")).all()):
        return None
    try:
        labels = header.decode("utf-8").split(",")
        user_ids = [line[:-width].decode("utf-8") for line in body]
    except UnicodeDecodeError:
        return None
    if len(labels) != m + 1 or len(set(user_ids)) != len(user_ids):
        return None
    return PreferenceMatrix(tuple(user_ids), bits == ord("1"), tuple(labels[1:]))


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


def write_preferences(prefs: PreferenceMatrix, path: str | Path) -> None:
    """Write the plain form ``_plain_preferences`` reads, as ``write_csv`` would.

    One n x (2m + 1) byte block holds every line's cells as ``,0``/``,1`` and
    its LF; each line is its quoted, encoded user id and its row of the block.
    """
    width = 2 * prefs.m + 1
    block = np.full((prefs.n, width), ord(","), dtype=np.uint8)
    block[:, 1::2] = prefs.data + ord("0")
    block[:, -1] = ord("\n")
    ids = [uid.encode("utf-8") for uid in _fields(prefs.user_ids)]
    with open(path, "wb") as fh:
        fh.write((",".join(_fields(["user_id", *prefs.column_labels])) + "\n").encode("utf-8"))
        for start in range(0, prefs.n, _BLOCK_ROWS):
            cells = block[start : start + _BLOCK_ROWS].tobytes()
            rows = [cells[i : i + width] for i in range(0, len(cells), width)]
            fh.write(b"".join(map(bytes.__add__, ids[start : start + _BLOCK_ROWS], rows)))
