"""Cluster users or items by the sign patterns of leading singular vectors.

Each element gets an r-bit code: bit j is 1 when its coordinate on the j-th
singular direction is >= 0, else 0 (zero counts as positive so the clustering
is total).  Elements sharing a code share a cluster.  Appending a bit can only
split clusters, so the clustering at rank r+1 always refines the one at r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .svd import SvdFactors, truncate

USERS = "users"
ITEMS = "items"


@dataclass(frozen=True, eq=False)
class SignClustering:
    """Partition of one axis by r-bit sign codes.

    ``clusters`` maps each distinct code to its member indices; iteration
    order is first occurrence in element order, which also defines the
    numeric cluster ids.
    """

    axis: str
    rank: int
    patterns: tuple[str, ...]
    clusters: dict[str, tuple[int, ...]]

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def membership(self) -> dict[int, tuple[int, ...]]:
        """cluster_id -> member indices, ids in first-occurrence order."""
        return {cid: members for cid, members in enumerate(self.clusters.values())}

    def cluster_ids(self) -> tuple[int, ...]:
        """Per-element cluster id."""
        by_pattern = {pattern: cid for cid, pattern in enumerate(self.clusters)}
        return tuple(by_pattern[p] for p in self.patterns)


def _cluster_codes(coords: np.ndarray, axis: str, rank: int) -> SignClustering:
    patterns = tuple("".join("1" if v >= 0 else "0" for v in row) for row in coords)
    clusters: dict[str, list[int]] = {}
    for index, pattern in enumerate(patterns):
        clusters.setdefault(pattern, []).append(index)
    return SignClustering(
        axis=axis,
        rank=rank,
        patterns=patterns,
        clusters={p: tuple(members) for p, members in clusters.items()},
    )


def user_sign_clusters(t: SvdFactors) -> SignClustering:
    """Group users by the signs of their leading left-singular coordinates."""
    return _cluster_codes(t.u, USERS, t.p)


def item_sign_clusters(t: SvdFactors) -> SignClustering:
    """Group items by the signs of their leading right-singular coordinates."""
    return _cluster_codes(t.vt.T, ITEMS, t.p)


def cluster_count_table(
    factors: SvdFactors,
    axis: str,
    r_min: int,
    r_max: int,
) -> list[tuple[int, int]]:
    """(rank, cluster count) for each rank in [r_min, r_max].

    The count sequence is non-decreasing because each added bit refines the
    partition.  Truncation keeps prefix slices, so each rank-r code is the
    r-bit prefix of a rank-``r_max`` code: one coding serves every rank.
    """
    if axis not in (USERS, ITEMS):
        raise ValueError(f"axis must be {USERS!r} or {ITEMS!r}")
    if not 1 <= r_min <= r_max <= factors.p:
        raise ValueError(f"need 1 <= r_min <= r_max <= {factors.p}")
    build = user_sign_clusters if axis == USERS else item_sign_clusters
    codes = build(truncate(factors, r_max)).clusters
    return [(r, len({code[:r] for code in codes})) for r in range(r_min, r_max + 1)]
