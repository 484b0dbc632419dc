"""Kit synthesis: rank items by within-cluster selection frequency.

A kit is an exact-size item set.  The default ranking takes a flat top
``constraint.total`` regardless of category; constrained mode instead fills
each category's quota separately.  Ties always break toward the lowest
item id so kit design is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
        vec = np.zeros(m, dtype=np.int8)
        vec[self.sorted_items()] = 1
        return vec


def validate_kit(
    kit: Kit,
    catalog: ItemCatalog,
    constraint: SelectionConstraint,
    constrained: bool = True,
) -> None:
    """Raise unless the kit has the right size (and, if asked, quota split)."""
    if not all(0 <= q < catalog.m for q in kit.items):
        raise ValueError(f"kit {kit.kit_id}: item ids must lie in 0..{catalog.m - 1}")
    if len(kit.items) != constraint.total:
        raise ValueError(
            f"kit {kit.kit_id}: has {len(kit.items)} items, expected {constraint.total}"
        )
    if constrained:
        expensive = set(catalog.ids_in(Category.EXPENSIVE))
        n_exp = sum(1 for q in kit.items if q in expensive)
        if n_exp != constraint.expensive_quota:
            raise ValueError(
                f"kit {kit.kit_id}: {n_exp} expensive items, "
                f"expected {constraint.expensive_quota}"
            )


@dataclass(frozen=True)
class FrequencyProfile:
    """Per-item selection counts within one cluster."""

    cluster_id: int
    counts: np.ndarray
    cluster_size: int


def frequency_profile(
    prefs: PreferenceMatrix,
    member_indices: Sequence[int],
    cluster_id: int = 0,
) -> FrequencyProfile:
    """Count how often each item was selected by the given cluster members."""
    members = np.asarray(member_indices, dtype=np.intp)
    if not members.size:
        raise ValueError("cluster has no members")
    counts = prefs.data[members].sum(axis=0, dtype=np.int64)
    counts.flags.writeable = False
    return FrequencyProfile(cluster_id=cluster_id, counts=counts, cluster_size=members.size)


def top_items(values: np.ndarray, count: int) -> list[int]:
    """Indices of the ``count`` largest values; ties go to the lowest index."""
    order = np.argsort(-np.asarray(values, dtype=np.float64), kind="stable")
    return sorted(int(q) for q in order[:count])


def select_items(
    values: np.ndarray,
    catalog: ItemCatalog,
    constraint: SelectionConstraint,
    constrained: bool = False,
) -> list[int]:
    """A flat top ``constraint.total`` of ``values``, or each category's quota when constrained."""
    if not constrained:
        return top_items(values, constraint.total)
    chosen: list[int] = []
    for category, quota in (
        (Category.EXPENSIVE, constraint.expensive_quota),
        (Category.CHEAP, constraint.cheap_quota),
    ):
        ids = np.array(catalog.ids_in(category))
        order = np.argsort(-np.asarray(values, dtype=np.float64)[ids], kind="stable")
        chosen.extend(int(q) for q in ids[order[:quota]])
    return sorted(chosen)


def design_kit(
    profile: FrequencyProfile,
    catalog: ItemCatalog,
    constraint: SelectionConstraint,
    constrained: bool = False,
) -> Kit:
    """Build one kit from a frequency profile by top-count ranking."""
    if catalog.m < constraint.total:
        raise ValueError("catalog smaller than kit size")
    if constrained:
        constraint.check_catalog(catalog)
    items = select_items(profile.counts, catalog, constraint, constrained)
    return Kit(kit_id=profile.cluster_id, items=frozenset(items))


def design_all(
    prefs: PreferenceMatrix,
    labels: np.ndarray,
    catalog: ItemCatalog,
    constraint: SelectionConstraint,
    constrained: bool = False,
) -> list[Kit]:
    """One kit per cluster, where ``labels[i]`` is user i's cluster id.

    Kits are numbered 0, 1, ... in ascending cluster id; ids no user carries
    yield no kit.
    """
    labels = np.asarray(labels)
    if labels.shape != (prefs.n,) or not labels.size or labels.dtype.kind not in "iu" or labels.min() < 0:
        raise ValueError(f"labels must be {prefs.n} non-negative integer cluster ids")
    order = np.argsort(labels, kind="stable")
    clusters = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    return [
        design_kit(frequency_profile(prefs, members, cluster_id=j), catalog, constraint, constrained)
        for j, members in enumerate(clusters)
    ]
