"""Domain types: item catalog, selection quotas, and the binary preference matrix."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import EmptyCategoryError


class Category(str, Enum):
    """Price tier of a catalog item."""

    EXPENSIVE = "expensive"
    CHEAP = "cheap"


@dataclass(frozen=True)
class Item:
    item_id: int
    name: str
    category: Category


@dataclass(frozen=True)
class ItemCatalog:
    """The m survey items, in file order; item_id equals list position."""

    items: tuple[Item, ...]

    def __post_init__(self) -> None:
        ids = [it.item_id for it in self.items]
        if ids != list(range(len(self.items))):
            raise ValueError("item_ids must be exactly 0..m-1 in file order")
        for cat in Category:
            if not any(it.category == cat for it in self.items):
                raise EmptyCategoryError(f"category {cat.value!r} has no items")

    @property
    def m(self) -> int:
        return len(self.items)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(it.name for it in self.items)

    def ids_in(self, category: Category) -> tuple[int, ...]:
        """Item ids of one category, in catalog order."""
        return tuple(it.item_id for it in self.items if it.category == category)


@dataclass(frozen=True)
class SelectionConstraint:
    """How many items a survey row must select from each price tier."""

    expensive_quota: int = 6
    cheap_quota: int = 4

    def __post_init__(self) -> None:
        if self.total < 1 or self.expensive_quota < 0 or self.cheap_quota < 0:
            raise ValueError("quotas must be non-negative and total at least 1")

    @property
    def total(self) -> int:
        return self.expensive_quota + self.cheap_quota

    def check_catalog(self, catalog: ItemCatalog) -> None:
        """Raise unless the catalog can satisfy every quota."""
        if self.total > catalog.m:
            raise ValueError(f"total {self.total} exceeds catalog size {catalog.m}")
        for category, ids, quota in self.tiers(catalog):
            if quota > len(ids):
                raise ValueError(f"{category.value}_quota exceeds {category.value} item count")

    def tiers(self, catalog: ItemCatalog) -> list[tuple[Category, np.ndarray, int]]:
        """Each price tier's category, item ids (an index array in catalog order) and quota.

        Tiers come in ``Category`` order, expensive first.  That is the order
        in which the synthetic generator steps its RNG, so a caller that
        draws per tier must keep it.
        """
        quotas = (self.expensive_quota, self.cheap_quota)
        return [(category, np.array(catalog.ids_in(category)), quota) for category, quota in zip(Category, quotas)]


def _unique_by_first(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values of a 1-d array, numbered in order of first occurrence.

    Returns where each value first occurs, each element's value number and
    each value's count.
    """
    # An unstable sort is several times faster than the stable one that
    # np.unique's return_index needs; each run's smallest index is its first.
    order = np.argsort(keys)
    ordered = keys[order]
    new_value = np.ones(keys.size, dtype=bool)
    new_value[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(new_value)
    first, counts = np.minimum.reduceat(order, starts), np.diff(starts, append=keys.size)
    by_first = np.argsort(first)
    number = np.empty(by_first.size, dtype=np.int64)
    number[by_first] = np.arange(by_first.size)
    inverse = np.empty(keys.size, dtype=np.int64)
    inverse[order] = np.repeat(number, counts)
    return first[by_first], inverse, counts[by_first]


def _words(block: np.ndarray) -> np.ndarray:
    """The rows of an n x w uint8 block, zero-padded to n x ceil(w / 8) uint64 words (one at least)."""
    n, width = block.shape
    words = np.zeros((n, max(1, -(-width // 8))), dtype=np.uint64)
    words.view(np.uint8)[:, :width] = block
    return words


def _byte_keys(block: np.ndarray) -> np.ndarray:
    """One sortable key per row of an n x w uint8 block; keys are equal exactly when rows are.

    A row of one word (``_words``) is keyed by that uint64, which sorts
    several times faster than the ``void`` key of a wider row.
    """
    words = _words(block)
    return words.ravel() if words.shape[1] == 1 else words.view(np.dtype((np.void, 8 * words.shape[1]))).ravel()


@dataclass(frozen=True, eq=False)
class ByteBlock:
    """Strings as the rows of one zero-padded UTF-8 byte block, right-aligned.

    String i is the last ``lengths[i]`` bytes of ``rows[i]``; the bytes
    before it are zero.  The plain-form reader gathers its user ids as one
    block, row i being the window of whole 8-byte words that ends where
    line i's cells start; the synthetic generator writes its ids digit by
    digit into rows as wide as the longest id.  The reader's uniqueness
    check keys the rows as they are, and the per-user writers copy them in
    front of each line's cells, so that every line is one contiguous run of
    its row.  The writers gather str ids the same way from their encoded
    bytes, a block of lines at a time.
    """

    rows: np.ndarray
    lengths: np.ndarray

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, i: int) -> str:
        return self.rows[i, self.rows.shape[1] - self.lengths[i] :].tobytes().decode("utf-8")

    def decode(self) -> tuple[str, ...]:
        raw, width = self.rows.tobytes(), self.rows.shape[1]
        ends = range(width, width * len(self) + 1, width) if width else [0] * len(self)
        return tuple(raw[end - size : end].decode("utf-8") for end, size in zip(ends, self.lengths.tolist()))


class DistinctRows(NamedTuple):
    """The distinct rows of a matrix, in order of first occurrence.

    ``rows`` is d x m, ``weights[j]`` counts the users whose row is
    ``rows[j]``, user i's row is ``rows[inverse[i]]`` and ``rows[j]`` is
    first held by user ``first[j]``.
    """

    rows: np.ndarray
    weights: np.ndarray
    inverse: np.ndarray
    first: np.ndarray

    def user_rows(self, rows: np.ndarray) -> np.ndarray:
        """The row of each user whose row is among ``rows``, in user order."""
        return self.inverse[np.isin(self.inverse, rows)]


@dataclass(frozen=True, eq=False, init=False)
class PreferenceMatrix:
    """n users by m items, entries 0/1, kept as the distinct rows found at construction.

    The user ids are given as str, or as a ``ByteBlock`` (the one the
    plain-form reader read them in, or the one the synthetic generator
    builds), kept as ``id_block`` (None for str ids).
    ``user_ids`` is always the tuple of str, decoded from the block on first
    read.  ``column_labels`` preserves the header the matrix was loaded with
    so a load/write round trip is byte-identical.
    """

    distinct: DistinctRows
    column_labels: tuple[str, ...]
    id_block: ByteBlock | None

    def __init__(
        self, user_ids: Sequence[str] | ByteBlock, data: np.ndarray, column_labels: Sequence[str] = ()
    ) -> None:
        raw = np.asarray(data)
        if raw.ndim != 2:
            raise ValueError("data must be a 2-d array")
        if raw.dtype != bool and not ((raw == 0) | (raw == 1)).all():
            raise ValueError("entries must be 0 or 1")
        block = user_ids if isinstance(user_ids, ByteBlock) else None
        ids = block if block is not None else tuple(user_ids)
        if raw.shape[0] != len(ids):
            raise ValueError("row count must match number of user_ids")
        labels = tuple(column_labels) or tuple(f"item_{j}" for j in range(raw.shape[1]))
        if len(labels) != raw.shape[1]:
            raise ValueError("column_labels length must match column count")
        # Each row is padded to whole bytes, packed to bits (as one flat array,
        # several times faster than along the rows) and keyed by
        # ``_byte_keys``: a uint64 while m <= 64, a ``void`` string of words
        # beyond.  The keys are numbered by first occurrence.
        bits = np.zeros((raw.shape[0], -(-raw.shape[1] // 8) * 8), dtype=bool)
        bits[:, : raw.shape[1]] = raw
        packed = np.packbits(bits).reshape(len(bits), bits.shape[1] // 8)
        first, inverse, weights = _unique_by_first(_byte_keys(packed))
        distinct = DistinctRows(raw[first].astype(np.int8), weights, inverse, first)
        for arr in distinct:
            arr.flags.writeable = False
        object.__setattr__(self, "distinct", distinct)
        object.__setattr__(self, "column_labels", labels)
        object.__setattr__(self, "id_block", block)
        if block is None:
            self.__dict__["user_ids"] = ids  # the cached value of the property below

    @cached_property
    def user_ids(self) -> tuple[str, ...]:
        return self.id_block.decode()

    @property
    def n(self) -> int:
        return len(self.distinct.inverse)

    @property
    def m(self) -> int:
        return self.distinct.rows.shape[1]


_BLOCK_FLOATS = 2**16  # 8-byte entries per block (512 KB) of a Hamming or silhouette product


def _block_rows(row_floats: int) -> int:
    """Rows per block, so that a block of rows ``row_floats`` entries wide stays within ``_BLOCK_FLOATS``."""
    return max(1, _BLOCK_FLOATS // max(1, row_floats))


def _hamming(rows: np.ndarray, others: np.ndarray, dtype: np.dtype | type) -> np.ndarray:
    """The len(rows) x len(others) Hamming distances between two sets of 0/1 rows, as ``dtype``.

    Both sides are packed to bits in 64-bit words (``_words``), and each
    distance is the popcount of the XOR of two rows' words, added into the
    ``dtype`` result one word at a time (integers, so in any order), a block
    of ``_block_rows(len(others) * words)`` rows at a time.
    """
    x, y = (_words(np.packbits(side, axis=1)) for side in (rows, others))
    ham = np.empty((len(x), len(y)), dtype=dtype)
    step = _block_rows(y.size)
    for lo in range(0, len(x), step):
        block = ham[lo : lo + step]
        np.bitwise_count(x[lo : lo + step, 0, None] ^ y[:, 0], out=block)
        for word in range(1, y.shape[1]):
            block += np.bitwise_count(x[lo : lo + step, word, None] ^ y[:, word])
    return ham


@dataclass(frozen=True)
class RowViolation:
    """A row that does not meet the per-category selection quotas."""

    row_index: int
    user_id: str
    expensive_count: int
    cheap_count: int


def validate_constraint(
    prefs: PreferenceMatrix,
    catalog: ItemCatalog,
    constraint: SelectionConstraint,
) -> list[RowViolation]:
    """List every row whose expensive/cheap selection counts miss the quotas.

    Violations are data, not errors: an empty list means the matrix is clean.
    """
    if prefs.m != catalog.m:
        raise ValueError(f"matrix has {prefs.m} columns but catalog has {catalog.m} items")
    tiers = constraint.tiers(catalog)
    rows, _, inverse, _ = prefs.distinct
    counts = np.stack([rows[:, ids].sum(axis=1, dtype=np.int64) for _, ids, _ in tiers], axis=1)
    bad = (counts != [quota for _, _, quota in tiers]).any(axis=1)
    ids = prefs.user_ids if prefs.id_block is None else prefs.id_block  # a block decodes only the ids asked for
    return [RowViolation(i, ids[i], *counts[inverse[i]].tolist()) for i in np.flatnonzero(bad[inverse]).tolist()]
