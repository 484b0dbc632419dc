"""Kit synthesis: rank items by within-cluster selection frequency.

A kit is an exact-size item set.  The default ranking takes a flat top
``constraint.total`` regardless of category; constrained mode instead fills
each category's quota separately.  Ties always break toward the lowest
item id so kit design is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Category, ItemCatalog, PreferenceMatrix, SelectionConstraint


@dataclass(frozen=True)
class Kit:
    """A fixed-size set of item ids distributed to one cluster of users."""

    kit_id: int
    items: frozenset[int]

    def sorted_items(self) -> list[int]:
        return sorted(self.items)

    def indicator(self, m: int) -> np.ndarray:
        """Length-m 0/1 vector marking the kit's items."""
        items = self.sorted_items()
        if items and not 0 <= items[0] <= items[-1] < m:
            raise ValueError(f"kit {self.kit_id}: item ids must lie in 0..{m - 1}, got {items[0]}..{items[-1]}")
        vec = np.zeros(m, dtype=np.int8)
        vec[items] = 1
        return vec


def validate_kit(kit: Kit, catalog: ItemCatalog, constraint: SelectionConstraint) -> None:
    """Raise unless the kit has the right size and quota split."""
    indicator = kit.indicator(catalog.m)  # rejects item ids outside the catalog
    if len(kit.items) != constraint.total:
        raise ValueError(
            f"kit {kit.kit_id}: has {len(kit.items)} items, expected {constraint.total}"
        )
    for category, ids, quota in constraint.tiers(catalog):
        count = int(indicator[ids].sum())
        if count != quota:
            raise ValueError(f"kit {kit.kit_id}: {count} {category.value} items, expected {quota}")


def _top(values: np.ndarray, count: int) -> np.ndarray:
    """Per row of a 2-d array, the indices of its ``count`` largest values in
    ascending order; ties go to the lowest index."""
    order = np.argsort(-np.asarray(values, dtype=np.float64), axis=1, kind="stable")
    return np.sort(order[:, :count], axis=1)


def _kit_items(counts: np.ndarray, total: int, tiers: list[tuple[Category, np.ndarray, int]] | None) -> np.ndarray:
    """Per row of a 2-d array, its top ``total`` item ids, or each tier's top quota when ``tiers`` are given."""
    if tiers is None:
        return _top(counts, total)
    return np.sort(np.concatenate([ids[_top(counts[:, ids], quota)] for _, ids, quota in tiers], axis=1), axis=1)


def top_items(values: np.ndarray, count: int) -> list[int]:
    """Indices of the ``count`` largest values; ties go to the lowest index."""
    return _top(np.asarray(values)[None], count)[0].tolist()


def select_items(
    values: np.ndarray,
    catalog: ItemCatalog,
    constraint: SelectionConstraint,
    constrained: bool = False,
) -> list[int]:
    """A flat top ``constraint.total`` of ``values``, or each category's quota when constrained."""
    tiers = constraint.tiers(catalog) if constrained else None
    return _kit_items(np.asarray(values)[None], constraint.total, tiers)[0].tolist()


def design_all(
    prefs: PreferenceMatrix,
    labels: np.ndarray,
    catalog: ItemCatalog,
    constraint: SelectionConstraint,
    constrained: bool = False,
) -> list[Kit]:
    """One kit per cluster, where ``labels[j]`` is the cluster id of ``prefs.distinct.rows[j]``.

    Each row's selections count once per user of the row.  Kits are numbered
    0, 1, ... in ascending cluster id; ids no row carries yield no kit.
    """
    labels = np.asarray(labels)
    rows, weights = prefs.distinct.rows, prefs.distinct.weights
    if labels.shape != (len(rows),) or not labels.size or labels.dtype.kind not in "iu" or labels.min() < 0:
        raise ValueError(f"got {labels.size} labels for {len(rows)} distinct rows: need one non-negative int per row")
    if catalog.m < constraint.total:
        raise ValueError("catalog smaller than kit size")
    if constrained:
        constraint.check_catalog(catalog)
    order = np.argsort(labels)
    ordered = labels[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    counts = np.add.reduceat(rows[order] * weights[order, None], starts, axis=0)
    items = _kit_items(counts, constraint.total, constraint.tiers(catalog) if constrained else None)
    return [Kit(kit_id=j, items=frozenset(row)) for j, row in enumerate(items.tolist())]
