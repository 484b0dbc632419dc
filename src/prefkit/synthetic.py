"""Seeded synthetic populations with planted kits, for desk-scale verification.

Generation is a pure function of (spec, catalog, constraint).  The PRNG is
PCG64 (see :mod:`prefkit.seeding`) and the stepping rule is fixed:

1. For each user, in order: draw ``integers(n_kits)`` to pick a planted kit.
2. Then, for each price tier in ``SelectionConstraint.tiers`` order
   (expensive items first, cheap items second), apply ``noise_swaps``
   swaps.  Each swap draws ``integers(len(selected))`` to drop one
   currently selected item of the category, then ``integers(len(pool))``
   to add one from the category's unselected items (the dropped item is not
   in the pool, so a swap only degenerates to a no-op when the category has
   no alternative item; that swap makes no pool draw).  Candidate lists are
   in ascending item-id order.

Every bound is known before any row is built: ``len(selected)`` is the
category's quota and ``len(pool)`` the category's size minus its quota.  So
the whole stream is drawn by one ``integers(0, bounds)`` call over the
bounds listed in the order above, user after user, which yields the same
values and leaves the generator in the same state as the draws one by one.

Every generated row satisfies the selection constraint by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod

import numpy as np

from .kits import Kit, validate_kit
from .model import ItemCatalog, PreferenceMatrix, SelectionConstraint
from .seeding import generator


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a planted-kit population."""

    n_users: int
    planted_kits: tuple[Kit, ...]
    noise_swaps: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise ValueError("n_users must be at least 1")
        if not self.planted_kits:
            raise ValueError("at least one planted kit is required")
        if self.noise_swaps < 0:
            raise ValueError("noise_swaps must be non-negative")


def kit_count(catalog: ItemCatalog, constraint: SelectionConstraint) -> int:
    """How many distinct constraint-valid kits the catalog holds."""
    constraint.check_catalog(catalog)
    return prod(comb(len(ids), quota) for _, ids, quota in constraint.tiers(catalog))


def random_kits(
    catalog: ItemCatalog,
    constraint: SelectionConstraint,
    count: int,
    seed: int,
) -> tuple[Kit, ...]:
    """Draw ``count`` distinct constraint-valid kits uniformly per category.

    Per kit, for each price tier in ``constraint.tiers`` order (expensive
    first): choose the tier's quota of its ids without replacement.  A
    candidate equal to an accepted kit is redrawn (deterministically).
    """
    limit = kit_count(catalog, constraint)
    if count > limit:
        raise ValueError(f"cannot draw {count} distinct kits: the catalog holds only {limit}")
    rng = generator(seed)
    tiers = constraint.tiers(catalog)
    accepted: dict[frozenset[int], None] = {}  # in order of first draw
    while len(accepted) < count:
        picked = frozenset(int(q) for _, ids, quota in tiers for q in rng.choice(ids, size=quota, replace=False))
        accepted[picked] = None
    return tuple(Kit(kit_id=j, items=items) for j, items in enumerate(accepted))


def generate_synthetic(
    spec: SyntheticSpec,
    catalog: ItemCatalog,
    constraint: SelectionConstraint,
) -> tuple[PreferenceMatrix, np.ndarray]:
    """Build a population of noisy planted-kit copies plus its ground truth.

    Returns the matrix and a length-n array giving each user's planted kit
    index.  Identical inputs produce bit-identical outputs.
    """
    for kit in spec.planted_kits:
        validate_kit(kit, catalog, constraint)
    tiers = constraint.tiers(catalog)
    if spec.noise_swaps > min(quota for _, _, quota in tiers):
        raise ValueError("noise_swaps must not exceed the smaller category quota")

    bounds = [len(spec.planted_kits)]
    for _, ids, quota in tiers:
        pool = len(ids) - quota
        bounds += ([quota, pool] if pool else [quota]) * spec.noise_swaps
    draws = generator(spec.seed).integers(0, np.tile(bounds, spec.n_users)).reshape(spec.n_users, -1)

    planted = draws[:, 0].copy()
    data = np.stack([kit.indicator(catalog.m) for kit in spec.planted_kits])[planted]
    users = np.arange(spec.n_users)
    col = 1
    for _, ids, quota in tiers:
        pool = len(ids) - quota
        for _ in range(spec.noise_swaps):
            if pool:
                block = data[:, ids]
                # Unselected ids first, then selected ones, each in ascending
                # order.  On int8 a stable sort is a radix sort, which is slow
                # for rows this short, so the rows are sorted as int32.
                order = np.argsort(block.astype(np.int32), axis=1, kind="stable")
                block[users, order[users, pool + draws[:, col]]] = 0
                block[users, order[users, draws[:, col + 1]]] = 1
                data[:, ids] = block
            col += 2 if pool else 1

    user_ids = tuple(f"u{i:04d}" for i in range(spec.n_users))
    prefs = PreferenceMatrix(user_ids, data, catalog.names)
    return prefs, planted
