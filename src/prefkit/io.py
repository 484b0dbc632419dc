"""CSV ingestion and emission for catalogs, preference matrices and the command outputs.

Formats (UTF-8, comma-separated, LF line endings).  Loaders accept a UTF-8
byte-order mark and ignore blank lines at the end of a file; a blank line
before the last row is a malformed row.  A file that is not UTF-8, or that
the CSV reader cannot split into rows, raises ``TextFormatError`` naming
``path:line``.

* catalog:      ``item_id,name,category`` with category in {expensive, cheap}
* preferences:  ``user_id,<one label per item>`` with data cells strictly 0 or 1

A plain-form preference file is read as one byte buffer: its cells as one
n x m block of two-byte cells, and its user ids as one zero-padded
``ByteBlock`` gathered from the window that ends at each id.  The ids stay
bytes from the reader (or the synthetic generator, which builds them as a
block too) to the per-user writers; they are decoded to str only when
``PreferenceMatrix.user_ids`` is read.

Writers work a column at a time: ``write_csv`` turns each column into its
fields once and writes the joined rows in blocks.  The per-user files are
built as bytes: ``write_user_csv`` formats the cells after the user id once
per key (on the SVD route, once per distinct row), and ``write_preferences``
formats one suffix of cells per distinct row of the matrix.  Each block of
lines is one 2-D byte block whose row holds the id field right-aligned
(str ids are encoded and gathered a block at a time) and then the key's
suffix, so that each line is one contiguous run of its row; the runs are
cut out with one mask built from comparisons.  A field is quoted only when
it holds a comma, a quote, a CR or an LF.
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
    parts = _plain_parts(raw, catalog.m)
    if parts is None:
        return _preferences_from_rows(path, _csv_rows(path, raw), catalog.m)
    return PreferenceMatrix(*parts)


def _plain_parts(raw: bytes, m: int) -> tuple[ByteBlock, np.ndarray, tuple[str, ...]] | None:
    """The user ids, n x m selections and column labels of a plain-form file, or None for any other file.

    Plain form: LF line endings, no quote character or NUL byte, a header
    of m + 1 fields, and data lines that each hold a unique, comma-free user
    id and then m cells written as ``,0`` or ``,1``.  The file is one byte
    buffer: the last 2m bytes of every data line form one n x 2m cell block,
    checked and read as n x m two-byte cells, and the ids are gathered as
    one zero-padded ``ByteBlock`` from the windows that end at each line's
    cells, then checked for commas and for uniqueness on ``_byte_keys``.
    The reader returns before the matrix is built, so its temporaries are
    freed first.
    """
    raw = _strip_bom(raw)
    if b'"' in raw or b"\r" in raw or b"\0" in raw:
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    lf = np.flatnonzero(buf == ord("\n"))
    # Blank lines at the end are the LFs after the last other byte: exactly
    # there lf[i] - i takes its largest possible value, buf.size - lf.size.
    blank = np.count_nonzero(lf - np.arange(lf.size) == buf.size - lf.size)
    line_ends = np.append(lf[: lf.size - blank], buf.size - blank)  # each line's LF, or the end of the text
    header_end, n, width = int(line_ends[0]), line_ends.size - 1, 2 * m
    id_ends = line_ends[1:] - width  # where each data line's cells start
    lengths = id_ends - line_ends[:-1] - 1
    del lf, line_ends  # the id ends and lengths are all that is kept of the lines
    # A padded id block larger than the file (one very long id) is left to
    # the row reader.
    if not n or lengths.min() < 0 or n * int(lengths.max()) > buf.size:
        return None
    # Each cell is one little-endian pair of bytes, ",0" = 0x302C or ",1" =
    # 0x312C; XOR with 0x302C leaves 0 or 0x100, whose high byte is the cell.
    pairs = sliding_window_view(buf, width)[id_ends]
    cells = pairs.view("<u2")
    cells ^= 0x302C
    if np.bitwise_or.reduce(cells, axis=None) & ~np.uint16(0x100):
        return None
    selected = cells == 0x100
    del pairs, cells
    # The cells hold m commas on each line and the header is split below, so
    # only the ids can hold another.  Zero padding keeps ids apart, as the
    # plain form has no NUL.
    ids = _id_block(buf, id_ends, lengths)
    if (ids.rows == ord(",")).any():
        return None
    keys = np.sort(_byte_keys(ids.rows))
    if (keys[1:] == keys[:-1]).any():
        return None
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            return None
    labels = raw[:header_end].decode("utf-8").split(",")
    if len(labels) != m + 1:
        return None
    return ids, selected, tuple(labels[1:])


# _HIGH_BYTES[c] keeps the c highest bytes of a little-endian 64-bit word.
_HIGH_BYTES = np.array([2**64 - 2 ** (64 - 8 * c) for c in range(9)], dtype=np.uint64)


def _id_block(buf: np.ndarray, ends: np.ndarray, lengths: np.ndarray) -> ByteBlock:
    """The strings of the given byte ``lengths`` that end at ``ends`` in ``buf``, as a ``ByteBlock``.

    Row i is the window of whole 8-byte words that ends at ``ends[i]``,
    gathered a word at a time, with the bytes before string i zeroed.
    """
    words = -(-int(lengths.max()) // 8)
    rows = np.empty((len(ends), 8 * words), dtype=np.uint8)
    # Only the first lines' windows can start before the buffer; they are
    # read from a zero-prefixed copy of its first bytes.
    early = int(np.searchsorted(ends, rows.shape[1]))
    if early:
        head = np.concatenate([np.zeros(rows.shape[1], dtype=np.uint8), buf[: rows.shape[1]]])
        rows[:early] = sliding_window_view(head, rows.shape[1])[ends[:early]]
    packed = rows.view("<u8")
    for k in range(words):
        after = 8 * (words - 1 - k)  # bytes of the window after word k
        if early < len(ends):
            packed[early:, k] = sliding_window_view(buf, 8).view("<u8")[ends[early:] - after - 8, 0]
        packed[:, k] &= _HIGH_BYTES[np.clip(lengths - after, 0, 8)]  # keeps word k's id bytes
    return ByteBlock(rows, lengths)


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


# Rows the writers join and hand to the file at once, and the bytes one
# block of padded lines may take (a block with a long line takes fewer rows).
_BLOCK_ROWS = 4096
_BLOCK_BYTES = 1 << 20
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


def _id_fields(prefs: PreferenceMatrix) -> ByteBlock | list[str]:
    """Each user id as its CSV field: the block of a plain-form file as read
    (its ids hold no comma, quote, CR or LF), or the str ids through ``_fields``."""
    return _fields(prefs.user_ids) if prefs.id_block is None else prefs.id_block


def _write_lines(
    path: str | Path, header: Sequence[object], ids: ByteBlock | list[str], table: np.ndarray, sizes: np.ndarray,
    keys: np.ndarray,
) -> None:
    """Write a header, then line i: id field i and row ``keys[i]`` of a suffix table.

    Row j of the ``table`` holds suffix j's ``sizes[j]`` bytes, zero-padded.
    Each block of ``_BLOCK_ROWS`` lines (fewer if its rows would pass
    ``_BLOCK_BYTES``) is one 2-D byte block whose row holds the line's id
    field right-aligned (str fields are encoded a block at a time) and then
    its suffix row, so that the line is one contiguous run of its row; the
    runs are cut out with one mask and written.
    """
    width = table.shape[1]
    id_sizes = ids.lengths if isinstance(ids, ByteBlock) else _utf8_lengths(ids)
    # Positions in a row fit the smallest type that holds the widest row.
    position = np.min_scalar_type(int(id_sizes.max(initial=0)) + width)
    id_widths, sizes = id_sizes.astype(position), sizes.astype(position)
    with open(path, "wb") as fh:
        fh.write((",".join(_fields(header)) + "\n").encode("utf-8"))
        start = 0
        while start < len(keys):
            stop = min(start + _BLOCK_ROWS, len(keys))
            stop = min(stop, start + max(1, _BLOCK_BYTES // (int(id_sizes[start:stop].max()) + width)))
            longest = int(id_sizes[start:stop].max())
            rows = keys[start:stop]
            lines = np.empty((stop - start, longest + width), dtype=np.uint8)
            if longest:
                if isinstance(ids, ByteBlock):
                    id_rows = ids.rows[start:stop]
                else:  # str fields are gathered as the reader gathers ids, from their bytes
                    text = np.frombuffer("".join(ids[start:stop]).encode("utf-8"), dtype=np.uint8)
                    id_rows = _id_block(text, np.cumsum(id_sizes[start:stop]), id_sizes[start:stop]).rows
                _row_items(lines[:, :longest])[:] = _row_items(id_rows[:, id_rows.shape[1] - longest :])
            np.take(_row_items(table), rows, out=_row_items(lines[:, longest:]))
            # Line i is the run [first, last) of its row; a block whose lines
            # all fill their rows is written as it is.  The mask is compared
            # a column at a time over all the rows (a row is too short a run
            # for numpy), then transposed.
            first, last = longest - id_widths[start:stop], longest + sizes[rows]
            if first.any() or (last < lines.shape[1]).any():
                columns = np.arange(lines.shape[1], dtype=position)[:, None]
                keep = columns >= first
                keep &= columns < last
                lines = lines[keep.T.copy()]
            fh.write(lines)
            start = stop


def _utf8_lengths(strings: Sequence[str]) -> np.ndarray:
    """The UTF-8 byte count of each string."""
    # An ASCII string has one byte per character.
    sizes = map(len, strings) if "".join(strings).isascii() else (len(s.encode("utf-8")) for s in strings)
    return np.fromiter(sizes, dtype=np.int64, count=len(strings))


def _row_items(block: np.ndarray) -> np.ndarray:
    """The rows of a 2-D byte block (with contiguous rows) as one item each, which numpy copies whole."""
    return block.view(np.dtype((np.void, block.shape[1])))[:, 0]


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
    suffixes = [f",{line}\n".encode("utf-8") for line in cells]
    table = np.array(suffixes, dtype=bytes)  # zero-padded to the longest
    table = table.view(np.uint8).reshape(len(suffixes), table.itemsize)
    sizes = np.fromiter(map(len, suffixes), dtype=np.int64, count=len(suffixes))
    _write_lines(path, header, _id_fields(prefs), table, sizes, np.asarray(keys))


def write_preferences(prefs: PreferenceMatrix, path: str | Path) -> None:
    """Write the plain form ``_plain_parts`` reads, as ``write_csv`` would.

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
