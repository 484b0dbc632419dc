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

    ``codes[i]`` is element i's code as an integer whose most significant bit
    is the first direction.  ``labels[i]`` is its cluster id: the distinct
    codes numbered in order of first occurrence.
    """

    axis: str
    rank: int
    codes: np.ndarray
    labels: np.ndarray

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def patterns(self) -> tuple[str, ...]:
        """Per-element code as a string of r bits, first direction first."""
        code_of = np.empty(self.n_clusters, dtype=self.codes.dtype)
        code_of[self.labels] = self.codes
        bits = [format(code, f"0{self.rank}b") for code in code_of.tolist()]
        return tuple(bits[label] for label in self.labels.tolist())


def _cluster_codes(coords: np.ndarray, axis: str, rank: int) -> SignClustering:
    # Codes wider than 63 bits stay exact as Python integers.
    dtype = np.int64 if rank < 64 else object
    weights = np.array([1 << (rank - 1 - j) for j in range(rank)], dtype=dtype)
    codes = (coords >= 0).astype(dtype) @ weights
    # np.unique numbers the distinct codes in ascending order; renumber them by first occurrence.
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    by_first = np.empty(first.size, dtype=np.int64)
    by_first[np.argsort(first)] = np.arange(first.size)
    labels = by_first[inverse]
    for arr in (codes, labels):
        arr.flags.writeable = False
    return SignClustering(axis=axis, rank=rank, codes=codes, labels=labels)


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
    codes = build(truncate(factors, r_max)).codes
    return [(r, len(np.unique(codes >> (r_max - r)))) for r in range(r_min, r_max + 1)]
