"""Correctness checks on the files prefkit commands write.

Every check returns a list of problems; an empty list means the outputs are
correct.  Two kinds of check apply:

* at the default seed, SHA-256 digests of ``synth`` and ``pipeline`` outputs,
  and the values of the two floating-point tables, against ``golden.json``:
  ``kmeans-sweep`` cells within 1e-12, singular values within 1e-9 of the
  largest (LAPACK's last digits depend on the BLAS build and thread count);
* at any seed, invariants recomputed with numpy from the output files.

Files a command writes beyond those recorded in ``golden.json`` are ignored,
so adding an output file does not fail the check.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

CATALOG = Path(__file__).resolve().parent / "catalog.csv"
SYNTH_FILES = ("preferences.csv", "ground_truth.csv", "planted_kits.json")
SWEEP_TOLERANCE = 1e-12
SCREE_TOLERANCE = 1e-9
KIT_SIZE = 10
SWEEP_K = range(4, 16)
SWEEP_TRIALS = 3


class Survey:
    """A preferences file parsed for checking: user ids and an n x m 0/1 matrix."""

    def __init__(self, path: Path) -> None:
        lines = path.read_text(encoding="utf-8").split("\n")
        if lines[-1] == "":
            lines.pop()
        self.header = lines[0].split(",")
        m = len(self.header) - 1
        split = [line.split(",", 1) for line in lines[1:]]
        self.user_ids = [row[0] for row in split]
        cells = np.frombuffer(",".join(row[1] for row in split).encode(), dtype=np.uint8)
        if cells.size != len(split) * (2 * m) - 1 or not np.isin(cells[::2], (48, 49)).all():
            raise ValueError(f"{path}: cells are not a {len(split)} x {m} grid of 0/1")
        self.data = (cells[::2] - 48).reshape(len(split), m).astype(np.int8)

    def distinct_rows(self) -> int:
        return int(np.unique(self.data, axis=0).shape[0])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest_problems(out: Path, expected: dict[str, str]) -> list[str]:
    problems = []
    for name, digest in expected.items():
        path = out / name
        if not path.is_file():
            problems.append(f"{name}: missing")
        elif sha256(path) != digest:
            problems.append(f"{name}: SHA-256 differs from the recorded output")
    return problems


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _int_columns(path: Path, width: int) -> tuple[list[str], np.ndarray]:
    """First column as strings and the other ``width`` columns as int64."""
    lines = path.read_text(encoding="utf-8").split("\n")[1:]
    if lines and lines[-1] == "":
        lines.pop()
    split = [line.split(",", 1) for line in lines]
    values = np.array(",".join(row[1] for row in split).split(","), dtype=np.int64)
    return [row[0] for row in split], values.reshape(len(split), width)


def synth_problems(out: Path, n_users: int, n_kits: int) -> list[str]:
    """A synthetic survey: n rows meeting the 6/4 quotas, planted kits of 10 items."""
    survey = Survey(out / "preferences.csv")
    expensive = np.array([row[2] == "expensive" for row in read_csv(CATALOG)[1:]])
    problems = []
    if survey.data.shape != (n_users, expensive.size):
        problems.append(f"preferences.csv: shape {survey.data.shape}, expected {(n_users, expensive.size)}")
        return problems
    if (survey.data[:, expensive].sum(axis=1) != 6).any() or (survey.data[:, ~expensive].sum(axis=1) != 4).any():
        problems.append("preferences.csv: a row misses the 6 expensive / 4 cheap quotas")
    truth = read_csv(out / "ground_truth.csv")
    if [row[0] for row in truth[1:]] != survey.user_ids:
        problems.append("ground_truth.csv: user ids differ from preferences.csv")
    elif not all(0 <= int(row[1]) < n_kits for row in truth[1:]):
        problems.append("ground_truth.csv: planted kit out of range")
    kits = json.loads((out / "planted_kits.json").read_text(encoding="utf-8"))
    if len(kits) != n_kits or any(len(set(items)) != KIT_SIZE for items in kits.values()):
        problems.append(f"planted_kits.json: expected {n_kits} kits of {KIT_SIZE} items")
    return problems


def _hamming(data: np.ndarray, kits: np.ndarray) -> np.ndarray:
    """n x K Hamming distances between 0/1 rows and kit indicator rows."""
    ones = data.sum(axis=1, dtype=np.int64)[:, None] + kits.sum(axis=1, dtype=np.int64)[None, :]
    return ones - 2 * (data.astype(np.int64) @ kits.T.astype(np.int64))


def pipeline_problems(out: Path, survey: Survey) -> list[str]:
    """Invariants of ``pipeline`` outputs, recomputed from the input survey."""
    n, m = survey.data.shape
    problems = []
    kit_rows = read_csv(out / "kits.csv")[1:]
    kit_count = 1 + max((int(kit) for kit, _ in kit_rows), default=-1)
    kits = np.zeros((kit_count, m), dtype=np.int8)
    for kit, item in kit_rows:
        kits[int(kit), int(item)] = 1
    if kit_count == 0 or (kits.sum(axis=1) != KIT_SIZE).any():
        problems.append(f"kits.csv: every kit must have {KIT_SIZE} items")
        return problems
    listed = json.loads((out / "kits.json").read_text(encoding="utf-8"))
    if listed != {str(j): np.flatnonzero(kits[j]).tolist() for j in range(kit_count)}:
        problems.append("kits.json: differs from kits.csv")

    user_ids, losses = _int_columns(out / "loss_users.csv", 4)
    if user_ids != survey.user_ids:
        problems.append("loss_users.csv: user ids differ from the input")
        return problems
    before, after, loss_before, loss_after = losses.T
    if before.min() < 0 or after.min() < 0 or max(before.max(), after.max()) >= kit_count:
        problems.append("loss_users.csv: kit index out of range")
        return problems
    distance = _hamming(survey.data, kits)
    rows = np.arange(n)
    if (distance[rows, before] != loss_before).any() or (distance[rows, after] != loss_after).any():
        problems.append("loss_users.csv: a loss differs from the Hamming distance to its kit")
    if (np.argmin(distance, axis=1) != after).any():
        problems.append("loss_users.csv: kit_after is not the lowest-index argmin")

    clusters = read_csv(out / "loss_clusters.csv")[1:]
    for phase, kit_of in (("before", before), ("after", after)):
        rows_of_phase = [row for row in clusters if row[4] == phase]
        populations = np.bincount(kit_of, minlength=kit_count)
        if [int(row[1]) for row in rows_of_phase] != populations.tolist():
            problems.append(f"loss_clusters.csv: {phase} populations differ from loss_users.csv")
            continue
        loss = loss_before if phase == "before" else loss_after
        sums = np.bincount(kit_of, weights=loss, minlength=kit_count)
        means = np.divide(sums, populations, out=np.zeros(kit_count), where=populations > 0)
        if not np.allclose([float(row[2]) for row in rows_of_phase], means, rtol=1e-12, atol=0):
            problems.append(f"loss_clusters.csv: {phase} normal losses differ from the per-user losses")

    membership = read_csv(out / "user_membership.csv")[1:]
    if [row[0] for row in membership] != survey.user_ids:
        problems.append("user_membership.csv: user ids differ from the input")
    elif [int(row[1]) for row in membership] != before.tolist():
        problems.append("user_membership.csv: cluster ids differ from kit_before")
    counts = [int(row[1]) for row in read_csv(out / "user_cluster_counts.csv")[1:]]
    if not counts or counts != sorted(counts) or counts[-1] != kit_count:
        problems.append("user_cluster_counts.csv: counts must rise to the number of kits")
    sigma = scree_values(out)
    if sigma.size != min(n, m) or (np.diff(sigma) > 0).any() or sigma.min() < 0:
        problems.append("scree.csv: singular values must be non-increasing and non-negative")
    elif not np.isclose((sigma**2).sum(), survey.data.sum(dtype=np.int64), rtol=1e-9):
        problems.append("scree.csv: squared singular values do not sum to the count of ones")
    return problems


def scree_values(out: Path) -> np.ndarray:
    return np.array([float(row[1]) for row in read_csv(out / "scree.csv")[1:]])


def scree_problems(out: Path, golden: list[float]) -> list[str]:
    sigma = scree_values(out)
    if sigma.shape != (len(golden),) or (np.abs(sigma - golden) > SCREE_TOLERANCE * golden[0]).any():
        return [f"scree.csv: a singular value differs from the recorded one by more than {SCREE_TOLERANCE} of the largest"]
    return []


def sweep_cells(out: Path) -> np.ndarray:
    return np.array([[float(cell) for cell in row[1:]] for row in read_csv(out / "sweep_table.csv")[1:]])


def sweep_problems(out: Path, golden: list[list[float]] | None) -> list[str]:
    """A default ``kmeans-sweep`` table: 12 k values x 3 trials of silhouettes in [-1, 1]."""
    table = read_csv(out / "sweep_table.csv")
    if table[0] != ["k"] + [f"trial_{t + 1}" for t in range(SWEEP_TRIALS)]:
        return ["sweep_table.csv: unexpected header"]
    if [int(row[0]) for row in table[1:]] != list(SWEEP_K):
        return [f"sweep_table.csv: expected rows for k = {SWEEP_K[0]}..{SWEEP_K[-1]}"]
    cells = sweep_cells(out)
    problems = []
    if cells.shape != (len(SWEEP_K), SWEEP_TRIALS) or not (np.abs(cells) <= 1).all():
        problems.append("sweep_table.csv: every cell must be a silhouette in [-1, 1]")
    points = read_csv(out / "sweep_points.csv")[1:]
    expected = [(str(k), str(t + 1)) for k in SWEEP_K for t in range(SWEEP_TRIALS)]
    if [(row[0], row[1]) for row in points] != expected or not np.array_equal(
        [float(row[2]) for row in points], cells.ravel()
    ):
        problems.append("sweep_points.csv: differs from sweep_table.csv")
    if golden is not None and not (np.abs(cells - np.array(golden)) <= SWEEP_TOLERANCE).all():
        problems.append(f"sweep_table.csv: a cell differs from the recorded value by more than {SWEEP_TOLERANCE}")
    return problems
