"""Domain types: item catalog, selection quotas, and the binary preference matrix."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

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

    def category_mask(self, category: Category) -> np.ndarray:
        """Boolean length-m mask selecting one category's columns."""
        mask = np.zeros(self.m, dtype=bool)
        mask[list(self.ids_in(category))] = True
        return mask


@dataclass(frozen=True)
class SelectionConstraint:
    """How many items a survey row must select, split by price tier."""

    total: int = 10
    expensive_quota: int = 6
    cheap_quota: int = 4

    def __post_init__(self) -> None:
        if self.total < 1 or self.expensive_quota < 0 or self.cheap_quota < 0:
            raise ValueError("quotas must be non-negative and total at least 1")
        if self.expensive_quota + self.cheap_quota != self.total:
            raise ValueError("expensive_quota + cheap_quota must equal total")

    def check_catalog(self, catalog: ItemCatalog) -> None:
        """Raise unless the catalog can satisfy every quota."""
        if self.total > catalog.m:
            raise ValueError(f"total {self.total} exceeds catalog size {catalog.m}")
        if self.expensive_quota > len(catalog.ids_in(Category.EXPENSIVE)):
            raise ValueError("expensive_quota exceeds expensive item count")
        if self.cheap_quota > len(catalog.ids_in(Category.CHEAP)):
            raise ValueError("cheap_quota exceeds cheap item count")


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
    exp_counts = prefs.data[:, catalog.category_mask(Category.EXPENSIVE)].sum(axis=1, dtype=np.int64)
    cheap_counts = prefs.data[:, catalog.category_mask(Category.CHEAP)].sum(axis=1, dtype=np.int64)
    bad = (exp_counts != constraint.expensive_quota) | (cheap_counts != constraint.cheap_quota)
    return [
        RowViolation(i, prefs.user_ids[i], int(exp_counts[i]), int(cheap_counts[i]))
        for i in np.flatnonzero(bad).tolist()
    ]
