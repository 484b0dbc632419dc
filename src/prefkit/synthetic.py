"""Seeded synthetic populations with planted kits, for desk-scale verification.

Generation is a pure function of (spec, catalog, constraint).  The PRNG is
PCG64 (see :mod:`prefkit.seeding`) and the stepping rule is fixed:

1. For each user, in order: draw ``integers(n_kits)`` to pick a planted kit.
2. Then, for expensive items first and cheap items second, apply
   ``noise_swaps`` swaps.  Each swap draws ``integers(len(selected))`` to drop
   one currently selected item of the category, then ``integers(len(pool))``
   to add one from the category's unselected items (the dropped item is not
   in the pool, so a swap only degenerates to a no-op when the category has
   no alternative item).  Candidate lists are in ascending item-id order.

Every generated row satisfies the selection constraint by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .kits import Kit, validate_kit
from .model import Category, ItemCatalog, PreferenceMatrix, SelectionConstraint
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
    return comb(len(catalog.ids_in(Category.EXPENSIVE)), constraint.expensive_quota) * comb(
        len(catalog.ids_in(Category.CHEAP)), constraint.cheap_quota
    )


def random_kits(
    catalog: ItemCatalog,
    constraint: SelectionConstraint,
    count: int,
    seed: int,
    min_separation: int = 1,
) -> tuple[Kit, ...]:
    """Draw ``count`` constraint-valid kits uniformly per category.

    Per kit: choose ``expensive_quota`` of the expensive ids, then
    ``cheap_quota`` of the cheap ids, both without replacement.  A candidate
    is redrawn (deterministically) while its Hamming distance to any accepted
    kit is below ``min_separation``; the default of 1 only rules out exact
    duplicates.  Recovery benchmarks want the planted kits separated well
    beyond the noise radius, e.g. ``min_separation = 10`` against
    single-swap noise, whose rows sit at distance 4 from their kit.
    """
    limit = kit_count(catalog, constraint)
    if count > limit:
        raise ValueError(f"cannot draw {count} distinct kits: the catalog holds only {limit}")
    if min_separation < 1:
        raise ValueError("min_separation must be at least 1")
    rng = generator(seed)
    expensive = np.array(catalog.ids_in(Category.EXPENSIVE))
    cheap = np.array(catalog.ids_in(Category.CHEAP))
    kits: list[Kit] = []
    attempts = 0
    while len(kits) < count:
        attempts += 1
        if attempts > 10000 * count:
            raise ValueError(
                f"could not draw {count} kits separated by {min_separation} from this catalog"
            )
        picked = frozenset(
            int(q)
            for q in np.concatenate(
                [
                    rng.choice(expensive, size=constraint.expensive_quota, replace=False),
                    rng.choice(cheap, size=constraint.cheap_quota, replace=False),
                ]
            )
        )
        if any(len(picked ^ kit.items) < min_separation for kit in kits):
            continue
        kits.append(Kit(kit_id=len(kits), items=picked))
    return tuple(kits)


def _swap_in_category(row: np.ndarray, category_ids: tuple[int, ...], rng: np.random.Generator) -> None:
    selected = [q for q in category_ids if row[q] == 1]
    unselected = [q for q in category_ids if row[q] == 0]
    out = selected[int(rng.integers(len(selected)))]
    if not unselected:
        return
    into = unselected[int(rng.integers(len(unselected)))]
    row[out] = 0
    row[into] = 1


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
        validate_kit(kit, catalog, constraint, constrained=True)
    if spec.noise_swaps > min(constraint.expensive_quota, constraint.cheap_quota):
        raise ValueError("noise_swaps must not exceed the smaller category quota")

    rng = generator(spec.seed)
    category_ids = (
        catalog.ids_in(Category.EXPENSIVE),
        catalog.ids_in(Category.CHEAP),
    )
    data = np.zeros((spec.n_users, catalog.m), dtype=np.int8)
    planted = np.zeros(spec.n_users, dtype=np.int64)
    for i in range(spec.n_users):
        g = int(rng.integers(len(spec.planted_kits)))
        planted[i] = g
        row = spec.planted_kits[g].indicator(catalog.m)
        for ids in category_ids:
            for _ in range(spec.noise_swaps):
                _swap_in_category(row, ids, rng)
        data[i] = row

    user_ids = tuple(f"u{i:04d}" for i in range(spec.n_users))
    prefs = PreferenceMatrix(user_ids, data, catalog.names)
    return prefs, planted
