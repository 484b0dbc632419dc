"""Command-line pipeline driver.

Subcommands cover the full flow: ``validate`` checks survey rows against the
selection quotas, ``synth`` emits a seeded planted-kit population,
``kmeans-sweep`` produces the silhouette-vs-k table, and ``svd`` /
``cluster-signs`` / ``design-kits`` / ``reassign`` / ``pipeline`` run the
factorization route through kit design and loss reporting.

Exit codes: 0 success, 1 strict-mode validation failure, 2 usage error,
3 I/O or numeric failure.  Existing output files are only overwritten under
``--force``.  All commands are deterministic given their flags; randomness
derives from ``--seed`` via :func:`prefkit.seeding.derive_seed`.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .assignment import Assignment, LossReport, assignment_from_clusters, reassign
from .errors import PrefkitError
from .io import load_catalog, load_preferences, write_ground_truth, write_preferences
from .kits import Kit, design_all
from .kmeans import KMeansConfig, sweep
from .model import ItemCatalog, PreferenceMatrix, RowViolation, SelectionConstraint, validate_constraint
from .seeding import derive_seed
from .signs import ITEMS, USERS, SignClustering, cluster_count_table, item_sign_clusters, user_sign_clusters
from .svd import SvdFactors, scree, svd, truncate
from .synthetic import SyntheticSpec, generate_synthetic, random_kits


class UsageError(Exception):
    """Bad flag combination or a flag value the data cannot satisfy."""


def _write_csv(path: Path, header: list[str], rows: Iterable[Sequence[object]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_kits_json(path: Path, kits: Iterable[Kit]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({str(kit.kit_id): kit.sorted_items() for kit in kits}, fh, indent=2)
        fh.write("\n")


def _prepare_out(args: argparse.Namespace, filenames: Sequence[str]) -> dict[str, Path]:
    """Create the output directory and guard against silent overwrites."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / name for name in filenames}
    if not args.force:
        existing = [str(p) for p in paths.values() if p.exists()]
        if existing:
            raise FileExistsError(
                f"output exists (use --force to overwrite): {', '.join(existing)}"
            )
    return paths


def _load_inputs(args: argparse.Namespace) -> tuple[ItemCatalog, PreferenceMatrix]:
    catalog = load_catalog(args.catalog)
    prefs = load_preferences(args.prefs, catalog)
    return catalog, prefs


def _strict_failure(args: argparse.Namespace, violations: list[RowViolation]) -> int:
    """Exit code 1, with a message, when --strict is set and rows violate the quotas."""
    if violations and args.strict:
        print(f"{len(violations)} rows violate the selection constraint", file=sys.stderr)
        return 1
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    catalog, prefs = _load_inputs(args)
    paths = _prepare_out(args, ["violations.csv"])
    violations = validate_constraint(prefs, catalog, SelectionConstraint())
    _write_csv(
        paths["violations.csv"],
        ["row", "user_id", "expensive_count", "cheap_count"],
        [[v.row_index, v.user_id, v.expensive_count, v.cheap_count] for v in violations],
    )
    return _strict_failure(args, violations)


def cmd_synth(args: argparse.Namespace) -> int:
    catalog = load_catalog(args.catalog)
    constraint = SelectionConstraint()
    paths = _prepare_out(args, ["preferences.csv", "ground_truth.csv", "planted_kits.json"])
    kits = random_kits(catalog, constraint, args.n_kits, derive_seed(args.seed, "synth", "kits"))
    spec = SyntheticSpec(
        n_users=args.n_users,
        planted_kits=kits,
        noise_swaps=args.noise_swaps,
        seed=derive_seed(args.seed, "synth", "population"),
    )
    prefs, planted = generate_synthetic(spec, catalog, constraint)
    write_preferences(prefs, paths["preferences.csv"])
    write_ground_truth(prefs.user_ids, planted, paths["ground_truth.csv"])
    _write_kits_json(paths["planted_kits.json"], kits)
    return 0


def cmd_kmeans_sweep(args: argparse.Namespace) -> int:
    catalog, prefs = _load_inputs(args)
    if args.k_min < 4 and not args.allow_small_k:
        raise UsageError("--k-min below 4 requires --allow-small-k")
    if not 2 <= args.k_min <= args.k_max:
        raise UsageError("need 2 <= --k-min <= --k-max: a silhouette needs 2 clusters")
    if args.k_max > prefs.n:
        raise UsageError(f"--k-max {args.k_max} exceeds the {prefs.n} survey rows")
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    if (prefs.data == prefs.data[0]).all():
        raise UsageError(f"all {prefs.n} survey rows are equal (1 distinct row); silhouette needs 2")
    paths = _prepare_out(args, ["sweep_table.csv", "sweep_points.csv", "sweep_runs.csv"])
    config = KMeansConfig(
        k=args.k_min,
        damping=args.damping,
        max_iters=args.max_iters,
        seed=derive_seed(args.seed, "kmeans-sweep"),
    )
    table = sweep(prefs, config, k_min=args.k_min, k_max=args.k_max, trials=args.trials)
    _write_csv(
        paths["sweep_table.csv"],
        ["k"] + [f"trial_{t + 1}" for t in range(table.trials)],
        [[k, *scores] for k, scores in zip(table.k_values, table.scores.tolist())],
    )
    _write_csv(
        paths["sweep_points.csv"],
        ["k", "trial", "silhouette"],
        [
            [k, t + 1, score]
            for k, scores in zip(table.k_values, table.scores.tolist())
            for t, score in enumerate(scores)
        ],
    )
    _write_csv(
        paths["sweep_runs.csv"],
        ["k", "trial", "iterations", "converged", "wcss"],
        [
            [k, t + 1, int(table.iterations[row, t]), int(table.converged[row, t]), float(table.wcss[row, t])]
            for row, k in enumerate(table.k_values)
            for t in range(table.trials)
        ],
    )
    return 0


class Route:
    """The factorization route on one survey; each stage runs once, on first use.

    svd -> truncate -> user (and item) sign clusters -> one kit per user
    cluster -> initial assignment -> reassignment with before/after reports.
    """

    def __init__(self, args: argparse.Namespace, catalog: ItemCatalog, prefs: PreferenceMatrix):
        self.args = args
        self.catalog = catalog
        self.prefs = prefs

    @cached_property
    def factors(self) -> SvdFactors:
        return svd(self.prefs.data)

    @cached_property
    def truncated(self) -> SvdFactors:
        return truncate(self.factors, self.args.rank)

    @cached_property
    def users(self) -> SignClustering:
        return user_sign_clusters(self.truncated)

    @cached_property
    def items(self) -> SignClustering:
        return item_sign_clusters(self.truncated)

    @cached_property
    def kits(self) -> list[Kit]:
        return design_all(
            self.prefs, self.users.labels, self.catalog, SelectionConstraint(),
            self.args.constrained_kits,
        )

    @cached_property
    def initial(self) -> Assignment:
        return assignment_from_clusters(self.users.labels)

    @cached_property
    def reassigned(self) -> tuple[Assignment, LossReport, LossReport]:
        return reassign(self.prefs, self.kits, self.initial)


def _membership_rows(element_ids: Iterable[object], clustering: SignClustering):
    return zip(element_ids, clustering.labels.tolist(), clustering.patterns)


def _loss_cluster_rows(route: Route):
    _, before, after = route.reassigned
    return (
        [j, *cells, phase]
        for phase, report in (("before", before), ("after", after))
        for j, cells in enumerate(zip(
            report.populations.tolist(), report.per_cluster_normal.tolist(),
            report.per_cluster_exponential.tolist(),
        ))
    )


def _loss_user_rows(route: Route):
    final, before, after = route.reassigned
    return zip(
        route.prefs.user_ids,
        route.initial.kit_index.tolist(),
        final.kit_index.tolist(),
        before.per_user_loss.tolist(),
        after.per_user_loss.tolist(),
    )


MEMBERSHIP = ["element_id", "cluster_id", "pattern_bits"]

# Output file -> (CSV header, or None for the kits JSON; its rows from a route).
# A rows function runs every stage the file needs and returns a lazy iterable.
ARTIFACTS: dict[str, tuple[list[str] | None, Callable[[Route], Iterable]]] = {
    "scree.csv": (["rank", "sigma"], lambda r: scree(r.factors)),
    "user_cluster_counts.csv": (
        ["r", "count"], lambda r: cluster_count_table(r.factors, USERS, 1, r.args.rank)
    ),
    "item_cluster_counts.csv": (
        ["r", "count"], lambda r: cluster_count_table(r.factors, ITEMS, 1, r.args.rank)
    ),
    "user_membership.csv": (MEMBERSHIP, lambda r: _membership_rows(r.prefs.user_ids, r.users)),
    "item_membership.csv": (MEMBERSHIP, lambda r: _membership_rows(range(r.catalog.m), r.items)),
    "kits.csv": (
        ["kit_id", "item_id"], lambda r: [[kit.kit_id, q] for kit in r.kits for q in kit.sorted_items()]
    ),
    "kits.json": (None, lambda r: r.kits),
    "loss_clusters.csv": (
        ["kit_id", "population", "normal_loss", "exponential_loss", "phase"], _loss_cluster_rows
    ),
    "loss_users.csv": (
        ["user_id", "kit_before", "kit_after", "loss_before", "loss_after"], _loss_user_rows
    ),
}

# The factorization subcommands' flags beyond the I/O ones, each command taking a prefix.
ROUTE_FLAGS = (
    ("--rank", {"type": int, "default": 4, "help": "truncation rank r"}),
    ("--constrained-kits", {"action": "store_true",
                            "help": "fill each category quota instead of a flat top-N"}),
    ("--strict", {"action": "store_true", "help": "abort with exit 1 when rows violate the quotas"}),
)

# Subcommand -> (help, how many ROUTE_FLAGS it takes, files it writes in order).
ROUTE_COMMANDS = {
    "svd": ("emit singular values as scree data", 0, ("scree.csv",)),
    "cluster-signs": ("sign-pattern clusters for users and items", 1, (
        "user_cluster_counts.csv", "item_cluster_counts.csv", "user_membership.csv",
        "item_membership.csv",
    )),
    "design-kits": ("one kit per user sign cluster", 2, ("kits.csv", "kits.json")),
    "reassign": ("move users to their lowest-loss kit", 2, ("loss_clusters.csv", "loss_users.csv")),
    "pipeline": ("svd route end to end, all artifacts", 3, (
        "scree.csv", "user_cluster_counts.csv", "user_membership.csv", "kits.csv", "kits.json",
        "loss_clusters.csv", "loss_users.csv",
    )),
}


def cmd_route(args: argparse.Namespace) -> int:
    """Run every stage the subcommand's files need, then write them: a failure writes none."""
    catalog, prefs = _load_inputs(args)
    if "strict" in args:  # pipeline validates every run; --strict makes violations fatal
        if _strict_failure(args, validate_constraint(prefs, catalog, SelectionConstraint())):
            return 1
    if "rank" in args and not 1 <= args.rank <= min(prefs.n, prefs.m):
        raise UsageError(f"--rank must lie in 1..{min(prefs.n, prefs.m)} for this matrix")
    paths = _prepare_out(args, args.files)
    route = Route(args, catalog, prefs)
    rows = {name: ARTIFACTS[name][1](route) for name in args.files}
    for name in args.files:
        header = ARTIFACTS[name][0]
        if header is None:
            _write_kits_json(paths[name], rows[name])
        else:
            _write_csv(paths[name], header, rows[name])
    return 0


def _add_io_flags(sub: argparse.ArgumentParser, prefs: bool = True) -> None:
    sub.add_argument("--catalog", required=True, help="item catalog CSV")
    if prefs:
        sub.add_argument("--prefs", required=True, help="preference matrix CSV")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--seed", type=int, default=0, help="base seed for all randomness")
    sub.add_argument("--force", action="store_true", help="overwrite existing output files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefkit",
        description="Cluster binary preference surveys into fixed-size kits.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("validate", help="check rows against the 6/4 selection quotas")
    _add_io_flags(sub)
    sub.add_argument("--strict", action="store_true", help="exit 1 when violations exist")
    sub.set_defaults(func=cmd_validate)

    sub = commands.add_parser("synth", help="generate a seeded planted-kit population")
    _add_io_flags(sub, prefs=False)
    sub.add_argument("--n-users", type=int, default=200)
    sub.add_argument("--n-kits", type=int, default=8)
    sub.add_argument("--noise-swaps", type=int, default=1)
    sub.set_defaults(func=cmd_synth)

    sub = commands.add_parser("kmeans-sweep", help="silhouette table over a range of k")
    _add_io_flags(sub)
    sub.add_argument("--k-min", type=int, default=4)
    sub.add_argument("--k-max", type=int, default=15)
    sub.add_argument("--trials", type=int, default=3)
    sub.add_argument("--lambda", dest="damping", type=float, default=0.3,
                     help="centroid update damping factor in (0, 1]")
    sub.add_argument("--max-iters", type=int, default=100)
    sub.add_argument("--allow-small-k", action="store_true",
                     help="permit --k-min below the default floor of 4")
    sub.set_defaults(func=cmd_kmeans_sweep)

    for name, (help_text, n_flags, files) in ROUTE_COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        _add_io_flags(sub)
        for flag, options in ROUTE_FLAGS[:n_flags]:
            sub.add_argument(flag, **options)
        sub.set_defaults(func=cmd_route, files=files)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, PrefkitError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
