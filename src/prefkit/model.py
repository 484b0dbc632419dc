"""Domain types: item catalog, selection quotas, and the binary preference matrix."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple

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
    _, first, inverse, counts = np.unique(keys, return_index=True, return_inverse=True, return_counts=True)
    # np.unique numbers the values in sorted order; renumber them by first occurrence.
    order = np.argsort(first)
    by_first = np.empty(order.size, dtype=np.int64)
    by_first[order] = np.arange(order.size)
    return first[order], by_first[inverse], counts[order]


class DistinctRows(NamedTuple):
    """The distinct rows of a matrix, in order of first occurrence.

    ``rows`` is d x m, ``weights[j]`` counts the users whose row is
    ``rows[j]``, and user i's row is ``rows[inverse[i]]``.
    """

    rows: np.ndarray
    weights: np.ndarray
    inverse: np.ndarray


@dataclass(frozen=True, eq=False)
class PreferenceMatrix:
    """n users by m items, entries 0/1; row i is user i's selections.

    ``column_labels`` preserves the header the matrix was loaded with so a
    load/write round trip is byte-identical.
    """

    user_ids: tuple[str, ...]
    data: np.ndarray
    column_labels: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        raw = np.asarray(self.data)
        if raw.ndim != 2:
            raise ValueError("data must be a 2-d array")
        if not ((raw == 0) | (raw == 1)).all():
            raise ValueError("entries must be 0 or 1")
        data = np.array(raw, dtype=np.int8, copy=True, order="C")
        if data.shape[0] != len(self.user_ids):
            raise ValueError("row count must match number of user_ids")
        labels = self.column_labels or tuple(f"item_{j}" for j in range(data.shape[1]))
        if len(labels) != data.shape[1]:
            raise ValueError("column_labels length must match column count")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "user_ids", tuple(self.user_ids))
        object.__setattr__(self, "column_labels", tuple(labels))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def m(self) -> int:
        return self.data.shape[1]

    @cached_property
    def distinct(self) -> DistinctRows:
        """The distinct selection rows, found once and kept.

        Each row is packed to bits and viewed as one byte-string key, so a
        single 1-d ``np.unique`` finds them for any m.
        """
        packed = np.packbits(self.data, axis=1) if self.m else np.zeros((self.n, 1), dtype=np.uint8)
        first, inverse, weights = _unique_by_first(packed.view(np.dtype((np.void, packed.shape[1]))).ravel())
        distinct = DistinctRows(self.data[first], weights, inverse)
        for arr in distinct:
            arr.flags.writeable = False
        return distinct


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
    counts = np.stack([prefs.data[:, ids].sum(axis=1, dtype=np.int64) for _, ids, _ in tiers], axis=1)
    bad = (counts != [quota for _, _, quota in tiers]).any(axis=1)
    return [RowViolation(i, prefs.user_ids[i], *counts[i].tolist()) for i in np.flatnonzero(bad).tolist()]
