"""Per-user dissatisfaction losses and loss-minimizing kit reassignment.

A user's loss against a kit is the Hamming distance between the user's 0/1
selection row and the kit's indicator vector.  When both carry exactly
``total`` ones this equals 2 * (total - overlap), so mismatch counting and
missing-item counting rank kits identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kits import Kit
from .model import PreferenceMatrix, _hamming

@dataclass(frozen=True, eq=False)
class Assignment:
    """Kit index per user."""

    kit_index: np.ndarray

    def __post_init__(self) -> None:
        idx = np.asarray(self.kit_index)
        if idx.dtype.kind not in "iu":
            raise ValueError(f"kit indices must be integers, got dtype {idx.dtype}")
        idx = idx.astype(np.int64)
        if idx.ndim != 1:
            raise ValueError("kit_index must be 1-d")
        if (idx < 0).any():
            raise ValueError("kit indices must be non-negative")
        idx.flags.writeable = False
        object.__setattr__(self, "kit_index", idx)


@dataclass(frozen=True, eq=False)
class LossReport:
    """Per-user losses plus per-kit normal and exponential averages.

    For kit j with assigned population P_j, ``per_cluster_normal[j]`` is the
    arithmetic mean loss and ``per_cluster_exponential[j]`` the mean of
    e**loss, which magnifies dispersion (Jensen: exponential >= e**normal).
    Kits with no population report 0 in both; ``populations`` is the marker.
    """

    per_user_loss: np.ndarray
    per_cluster_normal: np.ndarray
    per_cluster_exponential: np.ndarray
    populations: np.ndarray
    total_loss: int


def _mismatches(prefs: PreferenceMatrix, kits: Sequence[Kit]) -> np.ndarray:
    """d x K losses of every distinct row against every kit: the items where the row and the kit differ.

    Users with equal rows have equal losses, so only the d distinct rows of
    ``prefs.distinct`` are scored, by ``model._hamming`` against the kit
    indicators, in row blocks written into the int64 result.
    """
    if not kits:
        raise ValueError("at least one kit is required")
    indicators = np.stack([kit.indicator(prefs.m) for kit in kits])
    return _hamming(prefs.distinct.rows, indicators, np.int64)


def _report(mismatches: np.ndarray, inverse: np.ndarray, assignment: Assignment) -> LossReport:
    """User i's loss is its distinct row ``inverse[i]``'s mismatch with its kit.

    Each kit's averages are taken over its users' losses in user order, as
    one contiguous float64 segment, so each mean sums in the order a mask
    over the users would give.
    """
    n, k = len(inverse), mismatches.shape[1]
    kit_index = assignment.kit_index
    if kit_index.shape != (n,):
        raise ValueError(f"assignment has {kit_index.size} kit indices for {n} users")
    if n and int(kit_index.max()) >= k:
        raise ValueError(f"assignment refers to kit {int(kit_index.max())}, but there are {k} kits")
    per_user = mismatches[inverse, kit_index]
    normal = np.zeros(k)
    exponential = np.zeros(k)
    populations = np.bincount(kit_index, minlength=k)
    # Kit indices cast to the smallest unsigned type that holds k - 1 sort by radix.
    order = np.argsort(kit_index.astype(np.min_scalar_type(k - 1)), kind="stable")
    segments = np.split(per_user[order].astype(np.float64), np.cumsum(populations)[:-1])
    for j, segment in enumerate(segments):
        if segment.size:
            normal[j] = segment.mean()
            exponential[j] = np.exp(segment).mean()
    for arr in (per_user, normal, exponential, populations):
        arr.flags.writeable = False
    return LossReport(
        per_user_loss=per_user,
        per_cluster_normal=normal,
        per_cluster_exponential=exponential,
        populations=populations,
        total_loss=int(per_user.sum()),
    )


def loss_report(prefs: PreferenceMatrix, kits: Sequence[Kit], assignment: Assignment) -> LossReport:
    """Losses of each user against its assigned kit, with per-kit averages."""
    return _report(_mismatches(prefs, kits), prefs.distinct.inverse, assignment)


def reassign(
    prefs: PreferenceMatrix,
    kits: Sequence[Kit],
    initial: Assignment,
) -> tuple[Assignment, LossReport, LossReport]:
    """Move every user to its lowest-loss kit (ties to the lowest kit index).

    Returns the new assignment plus before/after loss reports.  Per-user loss
    never increases, and reassigning again is a no-op.  Each distinct row
    picks its kit once, and its users take that kit.
    """
    mismatches = _mismatches(prefs, kits)
    inverse = prefs.distinct.inverse
    reassigned = Assignment(kit_index=np.argmin(mismatches, axis=1)[inverse])
    return reassigned, _report(mismatches, inverse, initial), _report(mismatches, inverse, reassigned)


def assignment_from_clusters(labels: np.ndarray) -> Assignment:
    """Initial assignment: each user, or each distinct row, gets its cluster's kit.

    ``labels[i]`` is element i's cluster id.  Kit positions number the ids
    in use in ascending order, as ``design_all`` numbers the kits it emits.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.dtype.kind not in "iu" or (labels < 0).any():
        raise ValueError("labels must be a 1-d array of non-negative integer cluster ids")
    return Assignment(kit_index=np.unique(labels, return_inverse=True)[1])
