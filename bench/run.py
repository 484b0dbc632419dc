"""The prefkit benchmark: time CLI commands end to end, trace them per layer.

    python3 bench/run.py --workload pipeline_repeat --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --smoke            # every workload at 200 users, in seconds
    python3 bench/run.py --record-golden    # rewrite golden.json at seed 0

Run it from the repository root; it imports prefkit from ``src/`` and works
in ``.bench_work/``.  Each run builds its survey with ``prefkit synth
--seed <seed>`` (timed as ``setup_s``), then runs the workload's timed command
in fresh processes, one at a time, until ``--seconds`` have passed and at
least three samples exist.  Every command's outputs are checked (see
``check.py``); a command that exits non-zero or fails its check counts as
failed.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones, from samples that alternate untraced and traced commands.  See
``README.md`` for the metrics and why the workloads are what they are.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import tracer  # noqa: E402

CATALOG = check.CATALOG
GOLDEN = BENCH / "golden.json"
GOLDEN_SEED = 0
N_KITS = 8
RANK = 4
SMOKE_USERS = 200
SETUP_REPEATS = 3
MIN_SAMPLES = 3
# Samples run one at a time on a shared host; one BLAS thread keeps them steady.
BLAS_THREADS = 1
AS_LIMIT_MB = 3072
RUN_BUDGET_S = 170.0


@dataclass(frozen=True)
class Workload:
    name: str
    n_users: int
    noise_swaps: int
    command: str


WORKLOADS = {
    w.name: w
    for w in (
        # 100k users, 4.4% distinct rows: load, sign codes, reassignment and
        # the CSV writers dominate, and row dedup has the most to gain.
        Workload("pipeline_repeat", 100_000, 1, "pipeline"),
        # The paper's Table-1 route (k = 4..15, 3 trials) on 90% distinct
        # rows; silhouette's n x n x m tensor dominates time and memory.
        Workload("kmeans_sweep", 700, 1, "kmeans-sweep"),
    )
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class Runner:
    """Runs prefkit commands in fresh child processes and counts failures."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.deadline = perf_counter() + RUN_BUDGET_S
        self.attempted = 0
        self.failures: list[str] = []
        threads = str(BLAS_THREADS)
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )

    def time_left(self) -> float:
        return self.deadline - perf_counter()

    def run(self, argv: list[str], trace: bool = False) -> dict | None:
        """Run one command; return the child's record, or None if it failed."""
        index = self.attempted
        self.attempted += 1
        result = self.work / f"result-{index}.json"
        cmd = [sys.executable, str(BENCH / "child.py"), "--result", str(result)]
        cmd += ["--as-limit-mb", str(AS_LIMIT_MB)] + (["--trace"] if trace else []) + ["--", *argv]
        start = perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=max(self.time_left(), 1.0)
            )
        except subprocess.TimeoutExpired:
            self.fail(argv, "timed out")
            return None
        elapsed = perf_counter() - start
        if not result.is_file():
            self.fail(argv, f"exit {proc.returncode}, no result: {proc.stderr.strip()[-500:]}")
            return None
        record = json.loads(result.read_text(encoding="utf-8"))
        result.unlink()
        if Path(record["prefkit"]).resolve().parents[1] != ROOT / "src":
            raise BenchError(f"imported prefkit from {record['prefkit']}, not from {ROOT / 'src'}")
        if proc.returncode != 0:
            detail = record["error"] or proc.stderr.strip()[-500:]
            self.fail(argv, f"exit {proc.returncode}: {detail}")
            return None
        record["process_s"] = elapsed
        return record

    def check(self, argv: list[str], problems_of, *args) -> bool:
        try:
            problems = problems_of(*args)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if problems:
            self.fail(argv, "; ".join(problems))
        return not problems

    def fail(self, argv: list[str], reason: str) -> None:
        self.failures.append(f"{argv[0]}: {reason}")


def load_golden(workload: Workload, n_users: int, seed: int) -> dict | None:
    if seed != GOLDEN_SEED or not GOLDEN.is_file():
        return None
    return json.loads(GOLDEN.read_text(encoding="utf-8")).get(f"{workload.name}@{n_users}")


def synth_argv(workload: Workload, n_users: int, seed: int, out: Path) -> list[str]:
    return [
        "synth", "--catalog", str(CATALOG), "--out", str(out), "--n-users", str(n_users),
        "--n-kits", str(N_KITS), "--noise-swaps", str(workload.noise_swaps), "--seed", str(seed),
    ]  # fmt: skip


def command_argv(workload: Workload, prefs: Path, seed: int, out: Path) -> list[str]:
    argv = [workload.command, "--catalog", str(CATALOG), "--prefs", str(prefs), "--out", str(out)]
    return argv + (["--rank", str(RANK)] if workload.command == "pipeline" else ["--seed", str(seed)])


def set_up(runner: Runner, workload: Workload, n_users: int, seed: int, golden, repeats: int, trace: bool):
    """Build the survey ``repeats`` times.

    The first good survey is checked against its invariants (and digests at
    the golden seed); later ones must be byte-identical to it.  Returns its
    directory, the parsed survey and the records of the good synth runs.
    """
    records, first, survey = [], None, None
    for rep in range(repeats):
        out = runner.work / f"setup-{rep}"
        argv = synth_argv(workload, n_users, seed, out)
        record = runner.run(argv, trace=trace)
        if record is None:
            continue
        if first is None:
            expected = golden["synth"] if golden else {}
            ok = runner.check(argv, check.digest_problems, out, expected) and runner.check(
                argv, check.synth_problems, out, n_users, N_KITS
            )
            if ok:
                first, survey = out, check.Survey(out / "preferences.csv")
        else:
            digests = {name: check.sha256(first / name) for name in check.SYNTH_FILES}
            ok = runner.check(argv, check.digest_problems, out, digests)
        if ok:
            records.append(record)
    if first is None:
        raise BenchError(f"synth failed: {runner.failures}")
    return first, survey, records


def sample(runner: Runner, workload: Workload, setup: Path, survey, seed: int, golden, trace: bool, index: int):
    """Run the timed command once; return its record with the bytes it wrote, or None."""
    out = runner.work / f"out-{index}"
    argv = command_argv(workload, setup / "preferences.csv", seed, out)
    record = runner.run(argv, trace=trace)
    if record is not None:
        # A command counts as failed once, at its first failed check.
        if workload.command == "pipeline":
            ok = runner.check(argv, check.pipeline_problems, out, survey) and (
                not golden
                or runner.check(argv, check.digest_problems, out, golden["pipeline"])
                and runner.check(argv, check.scree_problems, out, golden["scree"])
            )
        else:
            ok = runner.check(argv, check.sweep_problems, out, golden["sweep"] if golden else None)
        record["bytes_written"] = sum(path.stat().st_size for path in out.iterdir())
        record = record if ok else None
    shutil.rmtree(out, ignore_errors=True)
    return record


def median_of_means(values: list[float], groups: int = 3) -> float:
    """Median of the means of ``groups`` consecutive runs of samples.

    The shared host switches between speeds that differ by up to 1.8x, for
    seconds to minutes at a time, so short samples fall into two modes and
    their plain median jumps between them; a group mean averages the modes.
    With three samples or fewer this is their median.
    """
    k = min(groups, len(values))
    bounds = [round(i * len(values) / k) for i in range(k + 1)]
    return statistics.median(statistics.fmean(values[a:b]) for a, b in zip(bounds, bounds[1:]))


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, n_users: int, min_samples: int):
    """One benchmark run; returns (result line, summary lines)."""
    work = ROOT / ".bench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work)
    golden = load_golden(workload, n_users, seed)
    try:
        setup, survey, setup_records = set_up(
            runner, workload, n_users, seed, golden, repeats=1 if trace else SETUP_REPEATS, trace=trace
        )
        plain, traced = [], []
        start = perf_counter()
        index = 0
        # Trace runs alternate untraced and traced samples for trace.overhead_s.
        while index < min_samples or perf_counter() - start < seconds:
            if runner.time_left() < 0:
                break
            use_trace = trace and index % 2 == 1
            record = sample(runner, workload, setup, survey, seed, golden, use_trace, index)
            if record is not None:
                (traced if use_trace else plain).append(record)
            index += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not plain or (trace and not traced):
        raise BenchError(f"no successful sample: {runner.failures}")

    attempted, failed = runner.attempted, len(runner.failures)
    wall = [r["wall_s"] for r in plain]
    rss = [r["peak_rss_mb"] for r in plain]
    distinct = survey.distinct_rows()
    summary = [
        f"workload {workload.name}: {n_users} users, {distinct} distinct rows, seed {seed}",
        f"wall_s {median_of_means(wall)} s: median of group means of {len(wall)} samples {[round(w, 4) for w in wall]}",
        f"peak_rss_mb {statistics.median(rss)} MB: median of {len(rss)} samples, max {max(rss)}",
        f"failed_frac {failed / attempted} ratio: {failed} of {attempted} commands",
        *(f"failure: {reason}" for reason in runner.failures),
    ]
    if not trace:
        setup_s = [r["process_s"] for r in setup_records]
        summary.insert(3, f"setup_s {statistics.median(setup_s)} s: median of {len(setup_s)} synth runs")
        metrics = {
            "wall_s": (median_of_means(wall), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
            "setup_s": (statistics.median(setup_s), "s"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        metrics = traced_metrics(plain, traced, setup_records[0], survey, distinct)
        absent = sorted({name for r in (setup_records[0], *traced) for name in r["trace"]["absent"]})
        if absent:
            summary.append(f"absent: {', '.join(absent)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {
        name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
    }}  # fmt: skip
    return result, summary


UNITS = {"self_s": "s", "peak_alloc_mb": "MB", "bytes_read": "B", "bytes_written": "B"}


def unit_of(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    if suffix in UNITS:
        return UNITS[suffix]
    return "ratio" if suffix.endswith(("_share", "_frac")) else "count"


def traced_metrics(plain: list[dict], traced: list[dict], setup: dict, survey, distinct: int) -> dict:
    """Per-layer metrics from the traced sample of median wall time."""
    chosen = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
    layers = tracer.layer_metrics(chosen["trace"])
    accounted = sum(layers.get(f"{layer}.self_s", 0.0) for layer in tracer.LAYERS)
    # The synthetic layer and the survey writer work only in set-up.
    from_setup = tracer.layer_metrics(setup["trace"])
    for name in list(from_setup):
        if name.startswith("synthetic.") or name == "io.write_preferences.self_s":
            layers[name] = from_setup[name]
    metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
    n = survey.data.shape[0]
    wall = chosen["wall_s"]
    metrics.update(
        {
            "cli.bytes_written": (chosen["bytes_written"], "B"),
            "input.rows": (n, "count"),
            "input.distinct_rows": (distinct, "count"),
            "input.distinct_share": (distinct / n, "ratio"),
            "trace.wall_s": (wall, "s"),
            "trace.overhead_s": (
                median_of_means([r["wall_s"] for r in traced]) - median_of_means([r["wall_s"] for r in plain]),
                "s",
            ),
            "trace.accounted_share": (accounted / wall, "ratio"),
        }
    )
    return metrics


def machine_facts() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "loadavg_start": os.getloadavg(),
        "src_lines": src_lines,
        "as_limit_mb": AS_LIMIT_MB,
    }


def record_golden() -> None:
    """Write golden.json from the current code at the golden seed."""
    golden = {}
    for workload in WORKLOADS.values():
        for n_users in (workload.n_users, SMOKE_USERS):
            work = ROOT / ".bench_work" / "golden"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            runner = Runner(work)
            setup, survey, _ = set_up(runner, workload, n_users, GOLDEN_SEED, None, 1, False)
            out = work / "out"
            argv = command_argv(workload, setup / "preferences.csv", GOLDEN_SEED, out)
            if runner.run(argv) is None:
                raise BenchError(f"{workload.name}: {runner.failures}")
            entry = {"synth": {name: check.sha256(setup / name) for name in check.SYNTH_FILES}}
            if workload.command == "pipeline":
                runner.check(argv, check.pipeline_problems, out, survey)
                entry["pipeline"] = {p.name: check.sha256(p) for p in sorted(out.iterdir()) if p.name != "scree.csv"}
                entry["scree"] = check.scree_values(out).tolist()
            else:
                runner.check(argv, check.sweep_problems, out, None)
                entry["sweep"] = check.sweep_cells(out).tolist()
            if runner.failures:
                raise BenchError(f"{workload.name}: {runner.failures}")
            golden[f"{workload.name}@{n_users}"] = entry
            shutil.rmtree(work)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


def smoke() -> bool:
    """Every workload at SMOKE_USERS, untraced and traced, plus a corrupted-output check."""
    ok = True
    for workload in WORKLOADS.values():
        for trace in (False, True):
            result, summary = run_workload(workload, GOLDEN_SEED, 0.0, trace, SMOKE_USERS, 2 if trace else 1)
            metrics = result["metrics"]
            print(*summary, json.dumps(result), sep="\n")
            ok &= result["correct"]
            if trace:
                accounted = metrics["trace.accounted_share"]["value"]
                ok &= 0.99 < accounted <= 1.0 + 1e-9
                ok &= all(f"{layer}.calls" in metrics for layer in tracer.LAYERS)
    ok &= corrupted_output_fails()
    print(f"smoke: {'ok' if ok else 'FAILED'}")
    return ok


def corrupted_output_fails() -> bool:
    """A changed loss in pipeline output must fail both the digest and the invariants."""
    workload = WORKLOADS["pipeline_repeat"]
    work = ROOT / ".bench_work" / "corrupt"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(work)
        golden = load_golden(workload, SMOKE_USERS, GOLDEN_SEED)
        setup, survey, _ = set_up(runner, workload, SMOKE_USERS, GOLDEN_SEED, golden, 1, False)
        out = work / "out"
        if runner.run(command_argv(workload, setup / "preferences.csv", GOLDEN_SEED, out)) is None:
            return False
        if check.pipeline_problems(out, survey) or check.digest_problems(out, golden["pipeline"]):
            return False
        losses = out / "loss_users.csv"
        lines = losses.read_text(encoding="utf-8").split("\n")
        fields = lines[1].split(",")
        fields[-1] = str(int(fields[-1]) + 2)
        lines[1] = ",".join(fields)
        losses.write_text("\n".join(lines), encoding="utf-8")
        caught = bool(check.pipeline_problems(out, survey)) and bool(check.digest_problems(out, golden["pipeline"]))
        print(f"corrupted loss_users.csv {'fails' if caught else 'PASSES'} the check")
        return caught
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()
    # On SIGTERM, unwind so that subprocess.run kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "prefkit" / "cli.py").is_file():
        print(f"error: no prefkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.record_golden:
            record_golden()
            return 0
        print("facts " + json.dumps(machine_facts()), flush=True)
        if args.smoke:
            return 0 if smoke() else 1
        if args.workload is None:
            parser.error("--workload is required")
        workload = WORKLOADS[args.workload]
        result, summary = run_workload(workload, args.seed, args.seconds, bool(args.trace), workload.n_users, MIN_SAMPLES)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(*summary, sep="\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
