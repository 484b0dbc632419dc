"""Per-user dissatisfaction losses and loss-minimizing kit reassignment.

A user's loss against a kit is the Hamming distance between the user's 0/1
selection row and the kit's indicator vector.  When both carry exactly
``total`` ones this equals 2 * (total - overlap), so mismatch counting and
missing-item counting rank kits identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .kits import Kit
from .model import PreferenceMatrix

INITIAL = "initial"
REASSIGNED = "reassigned"


@dataclass(frozen=True, eq=False)
class Assignment:
    """Kit index per user, with how the mapping was produced."""

    kit_index: np.ndarray
    provenance: str

    def __post_init__(self) -> None:
        idx = np.array(self.kit_index, dtype=np.int64, copy=True)
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


class ClusterLosses(NamedTuple):
    normal: np.ndarray
    exponential: np.ndarray
    populations: np.ndarray


def user_loss(row: np.ndarray, kit: Kit) -> int:
    """Hamming distance between one selection row and a kit."""
    row = np.asarray(row)
    return int((row != kit.indicator(row.shape[0])).sum())


def cluster_losses(
    per_user_loss: np.ndarray,
    assignment: Assignment,
    k: int,
) -> ClusterLosses:
    """Normal and exponential average loss per kit; empty kits report 0."""
    losses = np.asarray(per_user_loss, dtype=np.float64)
    normal = np.zeros(k)
    exponential = np.zeros(k)
    populations = np.zeros(k, dtype=np.int64)
    for j in range(k):
        members = assignment.kit_index == j
        populations[j] = int(members.sum())
        if populations[j]:
            normal[j] = losses[members].mean()
            exponential[j] = np.exp(losses[members]).mean()
    for arr in (normal, exponential, populations):
        arr.flags.writeable = False
    return ClusterLosses(normal, exponential, populations)


def _mismatches(prefs: PreferenceMatrix, kits: Sequence[Kit]) -> np.ndarray:
    """n x K losses of every user against every kit."""
    if not kits:
        raise ValueError("at least one kit is required")
    indicators = np.stack([kit.indicator(prefs.m) for kit in kits])
    return (prefs.data[:, None, :] != indicators[None, :, :]).sum(axis=2)


def _report(mismatches: np.ndarray, assignment: Assignment) -> LossReport:
    n, k = mismatches.shape
    if int(assignment.kit_index.max()) >= k:
        raise ValueError("assignment refers to a kit index out of range")
    per_user = mismatches[np.arange(n), assignment.kit_index].astype(np.int64)
    normal, exponential, populations = cluster_losses(per_user, assignment, k)
    per_user.flags.writeable = False
    return LossReport(
        per_user_loss=per_user,
        per_cluster_normal=normal,
        per_cluster_exponential=exponential,
        populations=populations,
        total_loss=int(per_user.sum()),
    )


def loss_report(prefs: PreferenceMatrix, kits: Sequence[Kit], assignment: Assignment) -> LossReport:
    """Losses of each user against its assigned kit, with per-kit averages."""
    return _report(_mismatches(prefs, kits), assignment)


def reassign(
    prefs: PreferenceMatrix,
    kits: Sequence[Kit],
    initial: Assignment,
) -> tuple[Assignment, LossReport, LossReport]:
    """Move every user to its lowest-loss kit (ties to the lowest kit index).

    Returns the new assignment plus before/after loss reports.  Per-user loss
    never increases, and reassigning again is a no-op.
    """
    mismatches = _mismatches(prefs, kits)
    reassigned = Assignment(kit_index=np.argmin(mismatches, axis=1), provenance=REASSIGNED)
    return reassigned, _report(mismatches, initial), _report(mismatches, reassigned)


def assignment_from_clusters(labels: np.ndarray) -> Assignment:
    """Initial assignment: each user gets its cluster's kit.

    ``labels[i]`` is user i's cluster id.  Kit positions number the ids in
    use in ascending order, as ``design_all`` numbers the kits it emits.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.dtype.kind not in "iu" or (labels < 0).any():
        raise ValueError("labels must be a 1-d array of non-negative integer cluster ids")
    return Assignment(kit_index=np.unique(labels, return_inverse=True)[1], provenance=INITIAL)
