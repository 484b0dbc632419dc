"""Command-line pipeline driver.

Subcommands cover the full flow: ``validate`` checks survey rows against the
selection quotas, ``synth`` emits a seeded planted-kit population,
``kmeans-sweep`` produces the silhouette-vs-k table, and ``svd`` /
``cluster-signs`` / ``design-kits`` / ``reassign`` / ``pipeline`` run the
factorization route through kit design and loss reporting.

Every subcommand runs :func:`run_command`: refuse existing outputs, load the
inputs, check the flags against the inputs, run every stage its files need,
and only then create ``--out`` and write, so a command that fails writes nothing.
A refused command reads no input unless ``--strict`` is given, since the
quota check comes first.

Exit codes: 0 success, 1 strict-mode validation failure, 2 usage error,
3 I/O or numeric failure.  A missing input and an existing output are both
exit 3; when both hold, the existing output is the one reported.  Existing output files are only overwritten under
``--force``.  All commands are deterministic given their flags; randomness
derives from ``--seed`` via :func:`prefkit.seeding.derive_seed`.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import suppress
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .assignment import Assignment, LossReport, assignment_from_clusters, reassign
from .errors import PrefkitError
from .io import load_catalog, load_preferences, write_csv, write_preferences, write_user_csv
from .kits import Kit, design_all
from .kmeans import KMeansConfig, SweepTable, sweep
from .model import ItemCatalog, PreferenceMatrix, RowViolation, SelectionConstraint, validate_constraint
from .seeding import derive_seed
from .signs import SignClustering, cluster_count_table, item_sign_clusters, user_sign_clusters
from .svd import SvdFactors, svd, truncate
from .synthetic import SyntheticSpec, generate_synthetic, kit_count, random_kits

QUOTAS = SelectionConstraint()


class UsageError(Exception):
    """Bad flag combination or a flag value the data cannot satisfy."""


class Stages:
    """One command's inputs and stages; each is loaded or run once, on first use.

    The factorization route is svd -> truncate -> user (and item) sign
    clusters -> one kit per user cluster -> initial assignment ->
    reassignment with before/after reports.  Users with equal rows share a
    code, a kit and a loss, so the stages work on the survey's distinct rows
    (``PreferenceMatrix.distinct``), one cluster label per row, and only the
    assignments and loss reports are gathered to the users.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = args

    @cached_property
    def catalog(self) -> ItemCatalog:
        return load_catalog(self.args.catalog)

    @cached_property
    def prefs(self) -> PreferenceMatrix:
        return load_preferences(self.args.prefs, self.catalog)

    @cached_property
    def violations(self) -> list[RowViolation]:
        return validate_constraint(self.prefs, self.catalog, QUOTAS)

    @cached_property
    def planted_kits(self) -> tuple[Kit, ...]:
        seed = derive_seed(self.args.seed, "synth", "kits")
        return random_kits(self.catalog, QUOTAS, self.args.n_kits, seed)

    @cached_property
    def population(self) -> tuple[PreferenceMatrix, np.ndarray]:
        spec = SyntheticSpec(
            n_users=self.args.n_users,
            planted_kits=self.planted_kits,
            noise_swaps=self.args.noise_swaps,
            seed=derive_seed(self.args.seed, "synth", "population"),
        )
        return generate_synthetic(spec, self.catalog, QUOTAS)

    @cached_property
    def sweep_table(self) -> SweepTable:
        a = self.args
        config = KMeansConfig(
            k=a.k_min, damping=a.damping, max_iters=a.max_iters, seed=derive_seed(a.seed, "kmeans-sweep")
        )
        return sweep(self.prefs, config, k_max=a.k_max, trials=a.trials)

    @cached_property
    def factors(self) -> SvdFactors:
        distinct = self.prefs.distinct
        return svd(distinct.rows, distinct.weights)

    @cached_property
    def truncated(self) -> SvdFactors:
        return truncate(self.factors, self.args.rank)

    @cached_property
    def row_users(self) -> SignClustering:
        """One code per distinct row, numbered in user order."""
        return user_sign_clusters(self.truncated)

    @cached_property
    def items(self) -> SignClustering:
        return item_sign_clusters(self.truncated)

    @cached_property
    def kits(self) -> list[Kit]:
        return design_all(
            self.prefs, self.row_users.labels, self.catalog, QUOTAS, self.args.constrained_kits
        )

    @cached_property
    def initial(self) -> Assignment:
        by_row = assignment_from_clusters(self.row_users.labels)
        return Assignment(by_row.kit_index[self.prefs.distinct.inverse])

    @cached_property
    def reassigned(self) -> tuple[Assignment, LossReport, LossReport]:
        return reassign(self.prefs, self.kits, self.initial)


def _write_kits_json(kits: Iterable[Kit], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({str(kit.kit_id): kit.sorted_items() for kit in kits}, fh, indent=2)
        fh.write("\n")


def _csv(header: list[str], columns: Sequence[Sequence[object] | np.ndarray]) -> Callable[[Path], None]:
    return partial(write_csv, header=header, columns=columns)


def _rows(header: list[str], rows: Iterable[Sequence[object]]) -> Callable[[Path], None]:
    """A small file given row by row."""
    return _csv(header, list(zip(*rows)))


def _sweep_cells(table: SweepTable, *columns: np.ndarray) -> list[np.ndarray]:
    """One cell per sweep cell, k-major: k, trial (from 1), then each k x trials column."""
    k, trials = len(table.k_values), table.trials
    ks, ts = np.repeat(table.k_values, trials), np.tile(np.arange(1, trials + 1), k)
    return [ks, ts, *(column.ravel() for column in columns)]


MEMBERSHIP = ["element_id", "cluster_id", "pattern_bits"]


def _by_row(s: Stages, header: list[str], columns: Sequence[np.ndarray]) -> Callable[[Path], None]:
    """A per-user file whose columns after the user id hold one cell per distinct row.

    Each user's line is its id and its row's cells, so the cells are
    formatted once per distinct row (see ``write_user_csv``).
    """
    return partial(write_user_csv, header=header, prefs=s.prefs, columns=columns, keys=s.prefs.distinct.inverse)


def _loss_clusters(s: Stages):
    _, before, after = s.reassigned
    return _rows(["kit_id", "population", "normal_loss", "exponential_loss", "phase"], (
        [j, *cells, phase]
        for phase, report in (("before", before), ("after", after))
        for j, cells in enumerate(zip(
            report.populations.tolist(), report.per_cluster_normal.tolist(),
            report.per_cluster_exponential.tolist(),
        ))
    ))


def _loss_users(s: Stages):
    final, before, after = s.reassigned
    # Users with equal rows share their kits and losses, so each distinct
    # row's first user gives the row's cells.
    first = s.prefs.distinct.first
    return _by_row(s, ["user_id", "kit_before", "kit_after", "loss_before", "loss_after"], [
        column[first] for column in (s.initial.kit_index, final.kit_index, before.per_user_loss, after.per_user_loss)
    ])


# Output file -> what writes it: a function of the stages that runs every
# stage the file needs and returns the writer, which takes the file's path.
# Library functions are looked up by name when a stage runs, never bound here,
# so rebinding a name of this module (as tests and bench/tracer.py do) takes effect.
ARTIFACTS: dict[str, Callable[[Stages], Callable[[Path], None]]] = {
    "violations.csv": lambda s: _rows(
        ["row", "user_id", "expensive_count", "cheap_count"],
        ([v.row_index, v.user_id, v.expensive_count, v.cheap_count] for v in s.violations),
    ),
    "preferences.csv": lambda s: partial(write_preferences, s.population[0]),
    "ground_truth.csv": lambda s: partial(
        write_user_csv, header=["user_id", "planted_kit"], prefs=s.population[0],
        columns=[np.arange(len(s.planted_kits))], keys=s.population[1],
    ),
    "planted_kits.json": lambda s: partial(_write_kits_json, s.planted_kits),
    "sweep_table.csv": lambda s: _csv(
        ["k", *(f"trial_{t + 1}" for t in range(s.sweep_table.trials))],
        [s.sweep_table.k_values, *s.sweep_table.scores.T],
    ),
    "sweep_points.csv": lambda s: _csv(
        ["k", "trial", "silhouette"], _sweep_cells(s.sweep_table, s.sweep_table.scores)
    ),
    "sweep_runs.csv": lambda s: _csv(["k", "trial", "iterations", "converged", "wcss"], _sweep_cells(
        s.sweep_table, s.sweep_table.iterations, s.sweep_table.converged.astype(int), s.sweep_table.wcss,
    )),
    "scree.csv": lambda s: _csv(["rank", "sigma"], [range(1, s.factors.p + 1), s.factors.sigma]),
    "user_cluster_counts.csv": lambda s: _rows(["r", "count"], cluster_count_table(s.row_users)),
    "item_cluster_counts.csv": lambda s: _rows(["r", "count"], cluster_count_table(s.items)),
    "user_membership.csv": lambda s: _by_row(s, MEMBERSHIP, [s.row_users.labels, s.row_users.patterns]),
    "item_membership.csv": lambda s: _csv(MEMBERSHIP, [range(s.catalog.m), s.items.labels, s.items.patterns]),
    "kits.csv": lambda s: _rows(
        ["kit_id", "item_id"], ([kit.kit_id, q] for kit in s.kits for q in kit.sorted_items())
    ),
    "kits.json": lambda s: partial(_write_kits_json, s.kits),
    "loss_clusters.csv": _loss_clusters,
    "loss_users.csv": _loss_users,
}

# Every flag; a command's help lists its flags in this order.
FLAGS = {
    "--catalog": {"required": True, "help": "item catalog CSV"},
    "--prefs": {"required": True, "help": "preference matrix CSV"},
    "--out": {"required": True, "help": "output directory"},
    "--seed": {"type": int, "default": 0, "help": "base seed for all randomness"},
    "--force": {"action": "store_true", "help": "overwrite existing output files"},
    "--n-users": {"type": int, "default": 200},
    "--n-kits": {"type": int, "default": 8},
    "--noise-swaps": {"type": int, "default": 1},
    "--k-min": {"type": int, "default": 4},
    "--k-max": {"type": int, "default": 15},
    "--trials": {"type": int, "default": 3},
    "--lambda": {"dest": "damping", "type": float, "default": 0.3,
                 "help": "centroid update damping factor in (0, 1]"},
    "--max-iters": {"type": int, "default": 100},
    "--allow-small-k": {"action": "store_true", "help": "permit --k-min below the default floor of 4"},
    "--rank": {"type": int, "default": 4, "help": "truncation rank r"},
    "--constrained-kits": {"action": "store_true",
                           "help": "fill each category quota instead of a flat top-N"},
    "--strict": {"action": "store_true", "help": "exit 1 when rows violate the quotas"},
}
SHARED_FLAGS = ("--catalog", "--out", "--seed", "--force")

# Subcommand -> (help, its flags beyond the shared ones, the files it writes in order).
COMMANDS = {
    "validate": ("check rows against the 6/4 selection quotas", "--prefs --strict", ("violations.csv",)),
    "synth": ("generate a seeded planted-kit population", "--n-users --n-kits --noise-swaps", (
        "preferences.csv", "ground_truth.csv", "planted_kits.json",
    )),
    "kmeans-sweep": (
        "silhouette table over a range of k",
        "--prefs --k-min --k-max --trials --lambda --max-iters --allow-small-k",
        ("sweep_table.csv", "sweep_points.csv", "sweep_runs.csv"),
    ),
    "svd": ("emit singular values as scree data", "--prefs", ("scree.csv",)),
    "cluster-signs": ("sign-pattern clusters for users and items", "--prefs --rank", (
        "user_cluster_counts.csv", "item_cluster_counts.csv", "user_membership.csv",
        "item_membership.csv",
    )),
    "design-kits": ("one kit per user sign cluster", "--prefs --rank --constrained-kits", (
        "kits.csv", "kits.json",
    )),
    "reassign": ("move users to their lowest-loss kit", "--prefs --rank --constrained-kits", (
        "loss_clusters.csv", "loss_users.csv",
    )),
    "pipeline": ("svd route end to end, all artifacts", "--prefs --rank --constrained-kits --strict", (
        "scree.csv", "user_cluster_counts.csv", "user_membership.csv", "kits.csv", "kits.json",
        "loss_clusters.csv", "loss_users.csv",
    )),
}


def _flag_problems(a: argparse.Namespace, s: Stages) -> Iterator[str]:
    """What is wrong with the command's flag values, given its inputs, in the order checked."""
    if "k_min" in a:  # kmeans-sweep
        if a.k_min < 4 and not a.allow_small_k:
            yield "--k-min below 4 requires --allow-small-k"
        if not 2 <= a.k_min <= a.k_max:
            yield "need 2 <= --k-min <= --k-max: a silhouette needs 2 clusters"
        if a.k_max > s.prefs.n:
            yield f"--k-max {a.k_max} exceeds the {s.prefs.n} survey rows"
        if a.trials < 1:
            yield "--trials must be at least 1"
        if not 0 < a.damping <= 1:
            yield "--lambda must lie in (0, 1]"
        if a.max_iters < 1:
            yield "--max-iters must be at least 1"
        if len(s.prefs.distinct.rows) < 2:
            yield f"all {s.prefs.n} survey rows are equal (1 distinct row); silhouette needs 2"
    if "rank" in a and not 1 <= a.rank <= min(s.prefs.n, s.prefs.m):
        yield f"--rank must lie in 1..{min(s.prefs.n, s.prefs.m)} for this matrix"
    elif "rank" in a:  # past numpy's matrix_rank tolerance, the sign codes read rounding noise
        sigma, tol = s.factors.sigma, s.factors.sigma[0] * max(s.prefs.n, s.prefs.m) * np.finfo(float).eps
        if sigma[a.rank - 1] <= tol:
            yield f"--rank {a.rank} is past the numerical rank: sigma_{a.rank} = {sigma[a.rank - 1]:.2g} <= {tol:.2g}"
    if "n_users" in a:  # synth
        kits, swaps = kit_count(s.catalog, QUOTAS), min(quota for _, _, quota in QUOTAS.tiers(s.catalog))
        if a.n_users < 1:
            yield "--n-users must be at least 1"
        if not 1 <= a.n_kits <= kits:
            yield f"--n-kits must lie in 1..{kits}, the distinct kits of this catalog"
        if not 0 <= a.noise_swaps <= swaps:
            yield f"--noise-swaps must lie in 0..{swaps}, the smaller category quota"


def run_command(args: argparse.Namespace) -> int:
    """Refuse existing outputs, load inputs, check flags against the data, run every stage, then write.

    Under ``--strict`` the quota check runs first; otherwise a refused
    command reads no input.  Nothing is written before every stage the files need has run.  Each file
    is written under a temporary name in ``--out`` and renamed into place
    only after every writer has succeeded, so a command that fails, in a
    stage or in a write, leaves no new file, no ``--out`` it created, and
    any existing outputs untouched.  Under ``--strict``, rows that violate
    the quotas exit 1: ``validate`` still writes its report, and a command
    that does not report them writes nothing.
    """
    files = COMMANDS[args.command][2]
    stages = Stages(args)
    code = 0
    if getattr(args, "strict", False) and stages.violations:
        print(f"{len(stages.violations)} rows violate the selection constraint", file=sys.stderr)
        if "violations.csv" not in files:
            return 1
        code = 1
    out = Path(args.out)
    existing = [str(out / name) for name in files if (out / name).exists()]
    if existing and not args.force:
        raise FileExistsError(f"output exists (use --force to overwrite): {', '.join(existing)}")
    stages.catalog  # load the inputs, so a bad input (exit 3) is reported before a bad flag (exit 2)
    if "prefs" in args:
        stages.prefs
    problem = next(_flag_problems(args, stages), None)
    if problem:
        raise UsageError(problem)
    writers = [(out / name, ARTIFACTS[name](stages)) for name in files]
    created = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    out.mkdir(parents=True, exist_ok=True)
    partials = [path.with_name(f".{path.name}.partial") for path, _ in writers]
    try:
        for (_, write), partial_path in zip(writers, partials):
            write(partial_path)
        for (path, _), partial_path in zip(writers, partials):
            partial_path.replace(path)
    except BaseException:
        for partial_path in partials:
            partial_path.unlink(missing_ok=True)
        for d in created:
            with suppress(OSError):
                d.rmdir()
        raise
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefkit",
        description="Cluster binary preference surveys into fixed-size kits.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        for flag, options in FLAGS.items():
            if flag in SHARED_FLAGS or flag in flags.split():
                sub.add_argument(flag, **options)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_command(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, PrefkitError, ValueError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
