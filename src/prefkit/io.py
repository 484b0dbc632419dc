"""CSV ingestion and emission for catalogs, preference matrices, and ground truth.

Formats (UTF-8, comma-separated, LF line endings).  Loaders accept a UTF-8
byte-order mark and ignore blank lines at the end of a file; a blank line
before the last row is a malformed row.

* catalog:      ``item_id,name,category`` with category in {expensive, cheap}
* preferences:  ``user_id,<one label per item>`` with data cells strictly 0 or 1
* ground truth: ``user_id,planted_kit``
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateItemIdError,
    DuplicateUserIdError,
    EmptyMatrixError,
    MalformedRowError,
    NonBinaryEntryError,
    UnknownCategoryError,
    WidthMismatchError,
)
from .model import Category, Item, ItemCatalog, PreferenceMatrix

CATALOG_HEADER = ["item_id", "name", "category"]


def _read_rows(path: str | Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh))
    while rows and not rows[-1]:
        rows.pop()
    return rows


def load_catalog(path: str | Path) -> ItemCatalog:
    """Read an item catalog; item order is file order."""
    rows = _read_rows(path)
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
    """Read a preference matrix, coercing cells strictly from '0'/'1' tokens."""
    rows = _read_rows(path)
    if not rows:
        raise EmptyMatrixError(f"{path}: file is empty")
    header = rows[0]
    if len(header) != catalog.m + 1:
        raise WidthMismatchError(
            f"{path}: header has {len(header)} fields, expected {catalog.m + 1}"
        )
    if len(rows) == 1:
        raise EmptyMatrixError(f"{path}: no data rows")
    user_ids: list[str] = []
    seen: set[str] = set()
    data = np.zeros((len(rows) - 1, catalog.m), dtype=np.int8)
    for i, row in enumerate(rows[1:]):
        lineno = i + 2
        if len(row) != catalog.m + 1:
            raise WidthMismatchError(
                f"{path}:{lineno}: row has {len(row)} fields, expected {catalog.m + 1}"
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


def write_csv(path: str | Path, header: Sequence[object], rows: Iterable[Sequence[object]]) -> None:
    """Write a header and then ``rows``; each cell is written as ``str(cell)``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_preferences(prefs: PreferenceMatrix, path: str | Path) -> None:
    rows = ([uid, *row] for uid, row in zip(prefs.user_ids, prefs.data.tolist()))
    write_csv(path, ["user_id", *prefs.column_labels], rows)


def write_ground_truth(user_ids: tuple[str, ...], planted: np.ndarray, path: str | Path) -> None:
    write_csv(path, ["user_id", "planted_kit"], zip(user_ids, planted.tolist()))


def load_ground_truth(path: str | Path) -> tuple[tuple[str, ...], np.ndarray]:
    rows = _read_rows(path)
    if not rows or rows[0] != ["user_id", "planted_kit"]:
        raise MalformedRowError(f"{path}: expected header user_id,planted_kit")
    planted: dict[str, int] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise MalformedRowError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
        uid, raw_kit = row
        if uid in planted:
            raise DuplicateUserIdError(f"{path}:{lineno}: duplicate user_id {uid!r}")
        try:
            planted[uid] = int(raw_kit)
        except ValueError:
            raise MalformedRowError(f"{path}:{lineno}: planted_kit {raw_kit!r} is not an integer") from None
    return tuple(planted), np.array(list(planted.values()), dtype=np.int64)
