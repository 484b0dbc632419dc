"""Cluster users or items by the sign patterns of leading singular vectors.

Each element gets an r-bit code: bit j is 1 when its coordinate on the j-th
singular direction is >= 0, else 0 (zero counts as positive so the clustering
is total).  Elements sharing a code share a cluster.  Appending a bit can only
split clusters, so the clustering at rank r+1 always refines the one at r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import _unique_by_first
from .svd import SvdFactors


@dataclass(frozen=True, eq=False)
class SignClustering:
    """Partition of one axis by r-bit sign codes.

    ``labels[i]`` is element i's cluster id: the distinct codes numbered in
    order of first occurrence.  ``cluster_codes[c]`` is cluster c's code as an
    integer whose most significant bit is the first direction.
    """

    rank: int
    labels: np.ndarray
    cluster_codes: np.ndarray

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_codes)

    @property
    def patterns(self) -> tuple[str, ...]:
        """Per-element code as a string of r bits, first direction first."""
        bits = [format(code, f"0{self.rank}b") for code in self.cluster_codes.tolist()]
        return tuple(bits[label] for label in self.labels.tolist())


def _cluster_codes(coords: np.ndarray, rank: int) -> SignClustering:
    # Codes wider than 63 bits stay exact as Python integers.
    dtype = np.int64 if rank < 64 else object
    weights = np.array([1 << (rank - 1 - j) for j in range(rank)], dtype=dtype)
    codes = (coords >= 0).astype(dtype) @ weights
    first, labels, _ = _unique_by_first(codes)
    cluster_codes = codes[first]
    for arr in (labels, cluster_codes):
        arr.flags.writeable = False
    return SignClustering(rank=rank, labels=labels, cluster_codes=cluster_codes)


def user_sign_clusters(t: SvdFactors) -> SignClustering:
    """Group users by the signs of their leading left-singular coordinates."""
    return _cluster_codes(t.u, t.p)


def item_sign_clusters(t: SvdFactors) -> SignClustering:
    """Group items by the signs of their leading right-singular coordinates."""
    return _cluster_codes(t.vt.T, t.p)


def cluster_count_table(clustering: SignClustering) -> list[tuple[int, int]]:
    """(rank, cluster count) for each rank from 1 to the clustering's rank.

    Truncation keeps prefix slices, so each rank-r code is the r-bit prefix of
    a cluster code; each added bit refines the partition.  A set counts the
    prefixes: numpy 2.4's plain ``np.unique`` imports ``numpy.ma`` on its
    first call, about 18 ms per process.
    """
    codes, rank = clustering.cluster_codes, clustering.rank
    return [(r, len(set((codes >> (rank - r)).tolist()))) for r in range(1, rank + 1)]
