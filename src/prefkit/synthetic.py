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
the stream is drawn by one ``integers(0, bounds)`` call per block of users
over the bounds listed in the order above, user after user, which yields
the same values and leaves the generator in the same state as the draws
one by one.  The draws are kept in the smallest type that holds them.

The rows are then built for all users at once, held item by item (m x n).
A swap finds each user's drawn selected and unselected item with one
counting pass over its tier's rows (no per-user sort), and the user ids
``u0000``, ``u0001``, ... are written as one byte block, so the writers
copy them as bytes and no str is made per user.

Every generated row satisfies the selection constraint by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod

import numpy as np

from .kits import Kit, validate_kit
from .model import ByteBlock, ItemCatalog, PreferenceMatrix, SelectionConstraint, _block_rows
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
    draws = _draws(generator(spec.seed), bounds, spec.n_users)

    planted = draws[:, 0].astype(np.int64)
    # Held item by item (m x n), so that a tier's items are rows.
    by_item = np.stack([kit.indicator(catalog.m) for kit in spec.planted_kits], axis=1).astype(bool)
    by_item = np.take(by_item, planted, axis=1)
    offsets = np.arange(spec.n_users)
    col = 1
    for _, ids, quota in tiers:
        if len(ids) == quota:  # no alternative item: each swap draws its drop and changes nothing
            col += spec.noise_swaps
            continue
        block = by_item[ids]
        cells = block.reshape(-1)  # the block as one flat view: user i's item j is cell j * n + i
        for _ in range(spec.noise_swaps):
            drop, add = _nth_items(block, draws[:, col], draws[:, col + 1])
            cells[drop * spec.n_users + offsets] = False
            cells[add * spec.n_users + offsets] = True
            col += 2
        by_item[ids] = block
    del draws  # freed before the matrix finds its distinct rows

    prefs = PreferenceMatrix(_user_ids(spec.n_users), by_item.T, catalog.names)
    return prefs, planted


def _draws(rng: np.random.Generator, bounds: list[int], n: int) -> np.ndarray:
    """n users' draws ``integers(0, bounds)`` as an n x len(bounds) array, one call per block of users."""
    draws = np.empty((n, len(bounds)), dtype=np.min_scalar_type(max(bounds)))
    step = _block_rows(len(bounds))
    for lo in range(0, n, step):
        block = draws[lo : lo + step]
        block[...] = rng.integers(0, bounds, size=block.shape)
    return draws


def _nth_items(block: np.ndarray, selected: np.ndarray, unselected: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per user (column of the w x n bool ``block``), the row of its ``selected[i]``-th
    True entry and of its ``unselected[i]``-th False entry, each counted from 0.

    One pass over the rows keeps ``left``, the True entries still to pass
    before the wanted one.  Row j lies before the wanted True entry exactly
    when ``left >= 0`` after it, and before the wanted False entry exactly
    when ``left < selected + unselected - j`` (rows 0..j hold
    ``j + 1 - selected + left`` False entries).  So the number of rows that
    pass each test is the wanted row.  The counters are n-sized, whatever
    the width.
    """
    small = np.min_scalar_type(-len(block) - 1)  # holds every counter, from -w - 1 to w
    left = selected.astype(small)
    limit = left + unselected.astype(small)
    drop, add = np.zeros(len(left), dtype=small), np.zeros(len(left), dtype=small)
    for row in block:
        left -= row
        drop += left >= 0
        add += left < limit
        limit -= 1
    return drop.astype(np.intp), add.astype(np.intp)


def _user_ids(n: int) -> ByteBlock:
    """The ids ``u0000``, ``u0001``, ... of n users as one right-aligned ``ByteBlock``.

    An id is ``u`` and the user's number in at least four digits.  The users
    whose numbers take d digits are one range of the block, written a digit
    column at a time.
    """
    width = max(4, len(str(n - 1)))
    rows = np.zeros((n, width + 1), dtype=np.uint8)
    lengths = np.empty(n, dtype=np.int64)
    numbers = np.arange(n)
    for digits in range(4, width + 1):
        span = slice(10 ** (digits - 1) if digits > 4 else 0, 10**digits)
        lengths[span] = digits + 1
        rows[span, width - digits] = ord("u")
        for power in range(digits):
            rows[span, width - power] = numbers[span] // 10**power % 10 + ord("0")
    return ByteBlock(rows, lengths)
