import csv
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import prefkit as pk
from oracles import _top_items_argsort, svd_rows
from prefkit.cli import Stages, build_parser, main

from conftest import CATALOG_PATH, REPO_ROOT


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def run_synth(tmp_path, name="synth", **overrides):
    out = tmp_path / name
    flags = {"--n-users": "60", "--n-kits": "4", "--noise-swaps": "1", "--seed": "7"}
    flags.update({k: str(v) for k, v in overrides.items()})
    argv = ["synth", "--catalog", str(CATALOG_PATH), "--out", str(out)]
    for key, value in flags.items():
        argv += [key, value]
    assert main(argv) == 0
    return out


class TestSynth:
    @pytest.mark.parametrize("seed, digest", [
        (0, "fca81f815e621efa3dc1d91cb578a51981c4c49446cd9237f03e4b1acd93658f"),
        (3, "5aeedbe478af323efd6b4a0927e05e5c2ede2b6a5120f7e3aa9b4daeac5efdfc"),
    ], ids=["seed0", "seed3"])
    def test_100k_survey_bytes_are_pinned(self, tmp_path, seed, digest):
        # The writer formats each distinct row once; the bytes must be those
        # the per-user writer gave before it.
        out = run_synth(tmp_path, **{"--n-users": 100_000, "--n-kits": 8, "--seed": seed})
        assert hashlib.sha256((out / "preferences.csv").read_bytes()).hexdigest() == digest

    def test_100k_pipeline_per_user_files_are_pinned(self, tmp_path):
        # The per-user writers build each block of lines as one byte block
        # from the ids as read; the bytes must be those of the row writer.
        survey = run_synth(tmp_path, **{"--n-users": 100_000, "--n-kits": 8, "--seed": 0})
        out = tmp_path / "pipe"
        argv = ["pipeline", "--catalog", str(CATALOG_PATH), "--prefs", str(survey / "preferences.csv"),
                "--out", str(out), "--rank", "4"]
        assert main(argv) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("user_membership.csv", "loss_users.csv")}
        assert digests == {
            "user_membership.csv": "0831c160296e00e4984a45806a8cf0e6d14a8d47925455194a939fc54ae78776",
            "loss_users.csv": "b7132ed4c6c4d9465c9e119608f25eaa8c9fce436f9c2cb3a5dae506a9a6436d",
        }

    def test_writes_valid_population(self, tmp_path, catalog20, constraint):
        out = run_synth(tmp_path)
        prefs = pk.load_preferences(out / "preferences.csv", catalog20)
        assert prefs.n == 60
        assert pk.validate_constraint(prefs, catalog20, constraint) == []
        truth = read_csv(out / "ground_truth.csv")
        assert truth[0] == ["user_id", "planted_kit"]
        assert tuple(row[0] for row in truth[1:]) == prefs.user_ids
        planted = np.array([int(row[1]) for row in truth[1:]])
        kits = json.loads((out / "planted_kits.json").read_text())
        assert set(kits) == {"0", "1", "2", "3"}
        assert (planted < 4).all()

    def test_no_noise_rows_duplicate_planted_kits(self, tmp_path, catalog20):
        out = run_synth(tmp_path, **{"--noise-swaps": 0})
        prefs = pk.load_preferences(out / "preferences.csv", catalog20)
        planted = [row[1] for row in read_csv(out / "ground_truth.csv")[1:]]
        kits = json.loads((out / "planted_kits.json").read_text())
        for i in range(prefs.n):
            expected = sorted(kits[planted[i]])
            assert sorted(np.flatnonzero(prefs.data[i]).tolist()) == expected

    def test_same_flags_byte_identical(self, tmp_path):
        a = run_synth(tmp_path, "a")
        b = run_synth(tmp_path, "b")
        for name in ("preferences.csv", "ground_truth.csv", "planted_kits.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_default_flags_give_valid_200_row_survey(self, tmp_path, catalog20, constraint):
        out = tmp_path / "defaults"
        assert main(["synth", "--catalog", str(CATALOG_PATH), "--out", str(out), "--seed", "7"]) == 0
        prefs = pk.load_preferences(out / "preferences.csv", catalog20)
        assert prefs.n == 200
        assert pk.validate_constraint(prefs, catalog20, constraint) == []


class TestValidate:
    def test_clean_file_exits_zero(self, tmp_path):
        out = run_synth(tmp_path)
        report_dir = tmp_path / "report"
        code = main([
            "validate", "--catalog", str(CATALOG_PATH),
            "--prefs", str(out / "preferences.csv"), "--out", str(report_dir),
        ])
        assert code == 0
        assert read_csv(report_dir / "violations.csv") == [
            ["row", "user_id", "expensive_count", "cheap_count"]
        ]

    def _dirty_file(self, tmp_path, catalog20):
        out = run_synth(tmp_path)
        prefs = pk.load_preferences(out / "preferences.csv", catalog20)
        data = prefs.data.copy()
        data[0] = 0
        data[0, :7] = 1  # 7 expensive, 0 cheap
        dirty = pk.PreferenceMatrix(prefs.user_ids, data, prefs.column_labels)
        path = tmp_path / "dirty.csv"
        pk.write_preferences(dirty, path)
        return path

    def test_strict_mode_exits_one_and_reports(self, tmp_path, catalog20):
        path = self._dirty_file(tmp_path, catalog20)
        report_dir = tmp_path / "report"
        code = main([
            "validate", "--catalog", str(CATALOG_PATH), "--prefs", str(path),
            "--out", str(report_dir), "--strict",
        ])
        assert code == 1
        rows = read_csv(report_dir / "violations.csv")
        assert rows[1] == ["0", "u0000", "7", "0"]

    def test_non_strict_mode_exits_zero_but_reports(self, tmp_path, catalog20):
        path = self._dirty_file(tmp_path, catalog20)
        report_dir = tmp_path / "report"
        code = main([
            "validate", "--catalog", str(CATALOG_PATH), "--prefs", str(path),
            "--out", str(report_dir), "--force",
        ])
        assert code == 0
        assert len(read_csv(report_dir / "violations.csv")) == 2


class TestKmeansSweep:
    def test_default_range_emits_table_1_layout(self, tmp_path):
        out = run_synth(tmp_path, **{"--n-users": 120})
        sweep_dir = tmp_path / "sweep"
        code = main([
            "kmeans-sweep", "--catalog", str(CATALOG_PATH),
            "--prefs", str(out / "preferences.csv"), "--out", str(sweep_dir),
            "--seed", "3",
        ])
        assert code == 0
        table = read_csv(sweep_dir / "sweep_table.csv")
        assert table[0] == ["k", "trial_1", "trial_2", "trial_3"]
        assert [row[0] for row in table[1:]] == [str(k) for k in range(4, 16)]
        assert len(table) == 13
        points = read_csv(sweep_dir / "sweep_points.csv")
        assert points[0] == ["k", "trial", "silhouette"]
        assert len(points) == 1 + 12 * 3
        for row in points[1:]:
            assert -1.0 <= float(row[2]) <= 1.0
        runs = read_csv(sweep_dir / "sweep_runs.csv")
        assert runs[0] == ["k", "trial", "iterations", "converged", "wcss"]
        assert [row[:2] for row in runs[1:]] == [row[:2] for row in points[1:]]
        for _, _, iterations, converged, wcss in runs[1:]:
            assert converged in ("0", "1")
            assert 1 <= int(iterations) <= 100
            assert converged == "1" or int(iterations) == 100
            assert float(wcss) >= 0.0

    def test_small_k_needs_explicit_override(self, tmp_path):
        out = run_synth(tmp_path)
        code = main([
            "kmeans-sweep", "--catalog", str(CATALOG_PATH),
            "--prefs", str(out / "preferences.csv"), "--out", str(tmp_path / "s1"),
            "--k-min", "2", "--k-max", "3",
        ])
        assert code == 2
        code = main([
            "kmeans-sweep", "--catalog", str(CATALOG_PATH),
            "--prefs", str(out / "preferences.csv"), "--out", str(tmp_path / "s2"),
            "--k-min", "2", "--k-max", "3", "--allow-small-k",
        ])
        assert code == 0

    def test_fifty_kit_stress_run_emits_47_point_rows(self, tmp_path):
        out = run_synth(tmp_path)
        sweep_dir = tmp_path / "stress"
        code = main([
            "kmeans-sweep", "--catalog", str(CATALOG_PATH),
            "--prefs", str(out / "preferences.csv"), "--out", str(sweep_dir),
            "--k-min", "4", "--k-max", "50", "--trials", "1", "--seed", "5",
        ])
        assert code == 0
        points = read_csv(sweep_dir / "sweep_points.csv")
        assert len(points) == 1 + 47
        table = read_csv(sweep_dir / "sweep_table.csv")
        assert [row[0] for row in table[1:]] == [str(k) for k in range(4, 51)]

    def test_single_distinct_row_is_usage_error(self, tmp_path, capsys):
        out = run_synth(tmp_path, **{"--n-users": 30, "--n-kits": 1, "--noise-swaps": 0})
        sweep_dir = tmp_path / "sweep"
        code = main([
            "kmeans-sweep", "--catalog", str(CATALOG_PATH),
            "--prefs", str(out / "preferences.csv"), "--out", str(sweep_dir),
        ])
        assert code == 2
        assert "1 distinct row" in capsys.readouterr().err
        assert not sweep_dir.exists()

    def test_two_distinct_rows_give_a_defined_table(self, tmp_path):
        out = run_synth(tmp_path, **{"--n-users": 30, "--n-kits": 2, "--noise-swaps": 0})
        assert len({tuple(row[1:]) for row in read_csv(out / "preferences.csv")[1:]}) == 2
        sweep_dir = tmp_path / "sweep"
        code = main([
            "kmeans-sweep", "--catalog", str(CATALOG_PATH),
            "--prefs", str(out / "preferences.csv"), "--out", str(sweep_dir),
        ])
        assert code == 0
        table = read_csv(sweep_dir / "sweep_table.csv")
        assert [row[0] for row in table[1:]] == [str(k) for k in range(4, 16)]
        # Each cluster holds copies of one row, so every width is exactly 1.
        assert all(cell == "1.0" for row in table[1:] for cell in row[1:])

    def test_k_min_below_two_is_usage_error(self, tmp_path, capsys):
        out = run_synth(tmp_path)
        sweep_dir = tmp_path / "sweep"
        code = main([
            "kmeans-sweep", "--catalog", str(CATALOG_PATH),
            "--prefs", str(out / "preferences.csv"), "--out", str(sweep_dir),
            "--k-min", "1", "--k-max", "3", "--allow-small-k",
        ])
        assert code == 2
        assert "2 clusters" in capsys.readouterr().err
        assert not sweep_dir.exists()

    def test_k_max_above_population_is_usage_error(self, tmp_path):
        out = run_synth(tmp_path, **{"--n-users": 10})
        code = main([
            "kmeans-sweep", "--catalog", str(CATALOG_PATH),
            "--prefs", str(out / "preferences.csv"), "--out", str(tmp_path / "s"),
            "--k-min", "4", "--k-max", "11",
        ])
        assert code == 2


class TestSvdAndSigns:
    def test_scree_has_one_row_per_sigma(self, tmp_path):
        out = run_synth(tmp_path)
        svd_dir = tmp_path / "svd"
        assert main([
            "svd", "--catalog", str(CATALOG_PATH),
            "--prefs", str(out / "preferences.csv"), "--out", str(svd_dir),
        ]) == 0
        rows = read_csv(svd_dir / "scree.csv")
        assert rows[0] == ["rank", "sigma"]
        assert len(rows) == 21
        sigmas = [float(r[1]) for r in rows[1:]]
        assert all(a >= b - 1e-12 for a, b in zip(sigmas, sigmas[1:]))

    def test_cluster_signs_counts_and_membership(self, tmp_path):
        out = run_synth(tmp_path)
        signs_dir = tmp_path / "signs"
        assert main([
            "cluster-signs", "--catalog", str(CATALOG_PATH),
            "--prefs", str(out / "preferences.csv"), "--out", str(signs_dir),
            "--rank", "4",
        ]) == 0
        counts = read_csv(signs_dir / "user_cluster_counts.csv")
        assert counts[0] == ["r", "count"]
        values = [int(r[1]) for r in counts[1:]]
        assert values[0] == 1
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(v <= 2 ** (r - 1) for r, v in enumerate(values[1:], start=2))
        membership = read_csv(signs_dir / "user_membership.csv")
        assert membership[0] == ["element_id", "cluster_id", "pattern_bits"]
        assert len(membership) == 61
        assert all(len(row[2]) == 4 for row in membership[1:])
        items = read_csv(signs_dir / "item_membership.csv")
        assert len(items) == 21

    def test_rank_beyond_p_is_usage_error(self, tmp_path):
        out = run_synth(tmp_path)
        assert main([
            "cluster-signs", "--catalog", str(CATALOG_PATH),
            "--prefs", str(out / "preferences.csv"), "--out", str(tmp_path / "x"),
            "--rank", "21",
        ]) == 2
        assert not (tmp_path / "x").exists()

    def test_rank_past_numerical_rank_is_usage_error(self, tmp_path, capsys):
        # Every quota-valid row is orthogonal to 1_expensive/6 - 1_cheap/4, so
        # the survey has rank at most 19 and sigma_20 is rounding noise.
        out = run_synth(tmp_path)
        assert main([
            "cluster-signs", "--catalog", str(CATALOG_PATH),
            "--prefs", str(out / "preferences.csv"), "--out", str(tmp_path / "x"),
            "--rank", "20",
        ]) == 2
        assert "sigma_20 = " in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, coded_sizes", [("pipeline", [60]), ("cluster-signs", [60, 20])])
    def test_each_axis_is_coded_once(self, tmp_path, monkeypatch, command, coded_sizes):
        # pipeline codes the 60 users; cluster-signs the users and the 20 items.
        out = run_synth(tmp_path)
        coded = []
        cluster_codes = pk.signs._cluster_codes

        def counted(coords, *args):
            coded.append(len(coords))
            return cluster_codes(coords, *args)

        monkeypatch.setattr("prefkit.signs._cluster_codes", counted)
        assert main([
            command, "--catalog", str(CATALOG_PATH),
            "--prefs", str(out / "preferences.csv"), "--out", str(tmp_path / "x"),
            "--rank", "4",
        ]) == 0
        assert coded == coded_sizes

    def test_sign_codes_match_the_full_svd_at_every_rank(self, tmp_path, monkeypatch):
        # The route factors the 4,466 distinct rows of the 100k seed-0 survey;
        # each user's code must be the one the SVD of all 100k rows gives it,
        # wherever no kept coordinate is within rounding of zero.
        survey = run_synth(tmp_path, **{"--n-users": 100_000, "--n-kits": 8, "--seed": 0})
        prefs = pk.load_preferences(survey / "preferences.csv", pk.load_catalog(CATALOG_PATH))
        monkeypatch.setattr("prefkit.cli.load_preferences", lambda path, catalog: prefs)
        assert len(prefs.distinct.rows) == 4466
        full = svd_rows(prefs.data)
        for rank in range(1, 20):
            args = build_parser().parse_args([
                "cluster-signs", "--catalog", str(CATALOG_PATH), "--prefs", "-", "--out", "-", "--rank", str(rank),
            ])
            rows, reference = Stages(args).row_users, pk.user_sign_clusters(pk.truncate(full, rank))
            codes = rows.cluster_codes[rows.labels][prefs.distinct.inverse]
            expected = reference.cluster_codes[reference.labels]
            clear = np.abs(full.u[:, :rank]).min(axis=1) > 1e-9
            assert clear.mean() > 0.99, rank
            assert np.array_equal(codes[clear], expected[clear]), rank


class TestDesignAndReassign:
    def test_kits_have_exact_size(self, tmp_path):
        out = run_synth(tmp_path)
        kits_dir = tmp_path / "kits"
        assert main([
            "design-kits", "--catalog", str(CATALOG_PATH),
            "--prefs", str(out / "preferences.csv"), "--out", str(kits_dir),
            "--rank", "4",
        ]) == 0
        kits = json.loads((kits_dir / "kits.json").read_text())
        assert 1 <= len(kits) <= 8
        for items in kits.values():
            assert len(items) == 10
        rows = read_csv(kits_dir / "kits.csv")
        assert rows[0] == ["kit_id", "item_id"]
        assert len(rows) == 1 + 10 * len(kits)

    def test_constrained_kits_respect_quotas(self, tmp_path, catalog20, constraint):
        out = run_synth(tmp_path)
        kits_dir = tmp_path / "kits"
        assert main([
            "design-kits", "--catalog", str(CATALOG_PATH),
            "--prefs", str(out / "preferences.csv"), "--out", str(kits_dir),
            "--rank", "4", "--constrained-kits",
        ]) == 0
        kits = json.loads((kits_dir / "kits.json").read_text())
        expensive = set(catalog20.ids_in(pk.Category.EXPENSIVE))
        for items in kits.values():
            assert sum(1 for q in items if q in expensive) == constraint.expensive_quota

    def test_reassign_reduces_total_loss(self, tmp_path):
        out = run_synth(tmp_path, **{"--n-users": 120})
        loss_dir = tmp_path / "loss"
        assert main([
            "reassign", "--catalog", str(CATALOG_PATH),
            "--prefs", str(out / "preferences.csv"), "--out", str(loss_dir),
            "--rank", "4",
        ]) == 0
        users = read_csv(loss_dir / "loss_users.csv")
        assert users[0] == ["user_id", "kit_before", "kit_after", "loss_before", "loss_after"]
        before = sum(int(r[3]) for r in users[1:])
        after = sum(int(r[4]) for r in users[1:])
        assert after <= before
        assert all(int(r[4]) <= int(r[3]) for r in users[1:])
        clusters = read_csv(loss_dir / "loss_clusters.csv")
        assert clusters[0] == ["kit_id", "population", "normal_loss", "exponential_loss", "phase"]
        phases = {row[4] for row in clusters[1:]}
        assert phases == {"before", "after"}


class TestPipeline:
    def test_rank_four_yields_at_most_eight_kits(self, tmp_path):
        out = run_synth(tmp_path, **{"--n-users": 150, "--n-kits": 8})
        pipe_dir = tmp_path / "pipe"
        assert main([
            "pipeline", "--catalog", str(CATALOG_PATH),
            "--prefs", str(out / "preferences.csv"), "--out", str(pipe_dir),
            "--rank", "4",
        ]) == 0
        kits = json.loads((pipe_dir / "kits.json").read_text())
        assert len(kits) <= 8
        for name in (
            "scree.csv", "user_cluster_counts.csv", "user_membership.csv",
            "kits.csv", "loss_clusters.csv", "loss_users.csv",
        ):
            assert (pipe_dir / name).exists()

    def test_rank_one_gives_single_global_kit(self, tmp_path, catalog20, constraint):
        out = run_synth(tmp_path)
        pipe_dir = tmp_path / "pipe"
        assert main([
            "pipeline", "--catalog", str(CATALOG_PATH),
            "--prefs", str(out / "preferences.csv"), "--out", str(pipe_dir),
            "--rank", "1",
        ]) == 0
        kits = json.loads((pipe_dir / "kits.json").read_text())
        assert list(kits) == ["0"]
        prefs = pk.load_preferences(out / "preferences.csv", catalog20)
        expected = sorted(_top_items_argsort(prefs.data.sum(axis=0), np.arange(prefs.m), constraint.total))
        assert kits["0"] == expected

    def test_noise_free_planted_population_recovers_zero_loss(self, tmp_path):
        out = run_synth(tmp_path, **{"--noise-swaps": 0, "--n-users": 80, "--n-kits": 8})
        pipe_dir = tmp_path / "pipe"
        assert main([
            "pipeline", "--catalog", str(CATALOG_PATH),
            "--prefs", str(out / "preferences.csv"), "--out", str(pipe_dir),
            "--rank", "4",
        ]) == 0
        users = read_csv(pipe_dir / "loss_users.csv")
        planted = json.loads((out / "planted_kits.json").read_text())
        designed = {tuple(items) for items in json.loads((pipe_dir / "kits.json").read_text()).values()}
        truth = [row[1] for row in read_csv(out / "ground_truth.csv")[1:]]
        total_before = sum(int(r[3]) for r in users[1:])
        total_after = sum(int(r[4]) for r in users[1:])
        assert total_after <= total_before
        for row, g in zip(users[1:], truth):
            if tuple(planted[g]) in designed:
                assert int(row[4]) == 0

    def test_strict_pipeline_aborts_on_dirty_rows(self, tmp_path, catalog20):
        out = run_synth(tmp_path)
        prefs = pk.load_preferences(out / "preferences.csv", catalog20)
        data = prefs.data.copy()
        data[0, :] = 1
        dirty = pk.PreferenceMatrix(prefs.user_ids, data, prefs.column_labels)
        path = tmp_path / "dirty.csv"
        pk.write_preferences(dirty, path)
        assert main([
            "pipeline", "--catalog", str(CATALOG_PATH), "--prefs", str(path),
            "--out", str(tmp_path / "pipe"), "--strict",
        ]) == 1
        assert not (tmp_path / "pipe").exists()

    def test_pipeline_validates_only_under_strict(self, tmp_path, monkeypatch):
        out = run_synth(tmp_path)

        def fail(*args):
            raise AssertionError("validated without --strict")

        monkeypatch.setattr("prefkit.cli.validate_constraint", fail)
        assert main([
            "pipeline", "--catalog", str(CATALOG_PATH),
            "--prefs", str(out / "preferences.csv"), "--out", str(tmp_path / "pipe"),
        ]) == 0


class TestCliContract:
    def test_missing_input_is_io_error(self, tmp_path):
        assert main([
            "svd", "--catalog", str(CATALOG_PATH),
            "--prefs", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o"),
        ]) == 3
        # The inputs load before the flags are checked, even by a check that does not read them.
        assert main([
            "kmeans-sweep", "--catalog", str(CATALOG_PATH),
            "--prefs", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o"), "--lambda", "1.5",
        ]) == 3

    def test_existing_output_needs_force(self, tmp_path):
        out = run_synth(tmp_path)
        again = [
            "synth", "--catalog", str(CATALOG_PATH), "--out", str(out),
            "--n-users", "60", "--n-kits", "4", "--noise-swaps", "1", "--seed", "7",
        ]
        assert main(again) == 3
        assert main(again + ["--force"]) == 0

    def test_failing_stage_writes_no_file(self, tmp_path, monkeypatch):
        out = run_synth(tmp_path)

        def fail(*args):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr("prefkit.cli.reassign", fail)
        pipe_dir = tmp_path / "pipe"
        assert main([
            "pipeline", "--catalog", str(CATALOG_PATH),
            "--prefs", str(out / "preferences.csv"), "--out", str(pipe_dir),
        ]) == 3
        assert not pipe_dir.exists()

    def test_failed_write_leaves_no_partial_out(self, tmp_path, monkeypatch):
        old = run_synth(tmp_path)
        before = {p.name: p.read_bytes() for p in old.iterdir()}

        def full_disk(path, header, columns):  # ground_truth.csv, the second of synth's three files
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("user_id,planted_kit\n")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("prefkit.cli.write_csv", full_disk)
        fresh = tmp_path / "new" / "synth"
        for out, extra in ((old, ["--force", "--seed", "8"]), (fresh, [])):
            assert main(["synth", "--catalog", str(CATALOG_PATH), "--out", str(out), *extra]) == 3
        assert {p.name: p.read_bytes() for p in old.iterdir()} == before
        assert not (tmp_path / "new").exists()

    def test_existing_output_is_refused_before_the_flags_are_checked(self, tmp_path, monkeypatch, capsys):
        # The --rank check reads the singular values; a refused command must not factor.
        argv = ["pipeline", "--catalog", str(CATALOG_PATH), "--prefs", str(run_synth(tmp_path) / "preferences.csv"),
                "--out", str(tmp_path / "pipe"), "--rank", "4"]
        assert main(argv) == 0
        capsys.readouterr()

        def fail(*args, **kwargs):
            raise AssertionError("svd ran for a refused command")

        monkeypatch.setattr("prefkit.cli.svd", fail)
        assert main(argv) == 3
        assert "output exists" in capsys.readouterr().err

    def test_existing_output_is_refused_before_the_inputs_are_read(self, tmp_path, monkeypatch, capsys):
        argv = ["pipeline", "--catalog", str(CATALOG_PATH), "--prefs", str(run_synth(tmp_path) / "preferences.csv"),
                "--out", str(tmp_path / "pipe"), "--rank", "4"]
        assert main(argv) == 0
        capsys.readouterr()

        def fail(*args, **kwargs):
            raise AssertionError("a refused command read its inputs")

        monkeypatch.setattr("prefkit.cli.load_catalog", fail)
        monkeypatch.setattr("prefkit.cli.load_preferences", fail)
        assert main(argv) == 3
        assert "output exists" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("kmeans-sweep", "--lambda", "1.5"),
        ("kmeans-sweep", "--max-iters", "0"),
        ("synth", "--n-users", "0"),
        ("synth", "--n-kits", "0"),
        ("synth", "--n-kits", "44101"),
        ("synth", "--noise-swaps", "7"),
    ])
    def test_out_of_range_value_exits_two_naming_flag(self, tmp_path, capsys, command, flag, value):
        argv = [command, "--catalog", str(CATALOG_PATH), "--out", str(tmp_path / "o"), flag, value]
        if command == "kmeans-sweep":
            argv += ["--prefs", str(run_synth(tmp_path) / "preferences.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} ")
        assert not (tmp_path / "o").exists()

    # where: "sweep" fails the whole sweep call, "fork" the forking of a worker;
    # "worker" and "parent" fail the first cell of a forked worker's share or of
    # the parent's own share.  A signal kills that worker and an int is the code
    # it exits with, sending nothing.
    @pytest.mark.parametrize("error, line, where", [
        (MemoryError(), "error: MemoryError", "sweep"),
        (MemoryError("Unable to allocate 74.5 GiB"), "error: Unable to allocate 74.5 GiB", "sweep"),
        (MemoryError("Unable to allocate 74.5 GiB"), "error: Unable to allocate 74.5 GiB", "worker"),
        (MemoryError(), "error: MemoryError", "parent"),
        (signal.SIGKILL, "error: a sweep worker was killed by SIGKILL", "worker"),
        (0, "error: a sweep worker exited with code 0 and sent no result", "worker"),
        (OSError(11, "Resource temporarily unavailable"), "error: [Errno 11] Resource temporarily unavailable", "fork"),
    ])
    def test_memory_error_exits_three_with_error_line(self, tmp_path, monkeypatch, capsys, error, line, where):
        if where != "sweep" and not hasattr(os, "fork"):
            pytest.skip("no os.fork: the sweep runs in-process")
        out = run_synth(tmp_path)
        parent, run_kmeans = os.getpid(), pk.kmeans.run_kmeans

        def fail(*args, **kwargs):
            in_parent = os.getpid() == parent
            if (where == "worker" and in_parent) or (where == "parent" and not in_parent):
                return run_kmeans(*args, **kwargs)
            if isinstance(error, signal.Signals):
                os.kill(os.getpid(), error)
            if isinstance(error, int):
                os._exit(error)
            raise error

        if where == "sweep":
            monkeypatch.setattr("prefkit.cli.sweep", fail)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            monkeypatch.setattr("os.fork" if where == "fork" else "prefkit.kmeans.run_kmeans", fail)
        def open_fds():
            return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()

        fds = open_fds()
        sweep_dir = tmp_path / "sweep"
        assert main([
            "kmeans-sweep", "--catalog", str(CATALOG_PATH),
            "--prefs", str(out / "preferences.csv"), "--out", str(sweep_dir),
        ]) == 3
        assert capsys.readouterr().err == line + "\n"
        assert not sweep_dir.exists()
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)
        assert open_fds() == fds  # and every pipe was closed

    @pytest.mark.skipif(
        not (hasattr(os, "fork") and Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists()),
        reason="needs os.fork and /proc/<pid>/task/<tid>/children",
    )
    def test_no_worker_outlives_a_killed_sweep(self, tmp_path):
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("one usable CPU: the sweep forks no worker")
        out = run_synth(tmp_path, **{"--n-users": 700, "--n-kits": 8, "--seed": 0})
        path = [str(REPO_ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.Popen([
            sys.executable, "-m", "prefkit.cli", "kmeans-sweep", "--catalog", str(CATALOG_PATH),
            "--prefs", str(out / "preferences.csv"), "--out", str(tmp_path / "sweep"), "--trials", "40",
        ], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

        def running(pid):
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except FileNotFoundError:
                return False
            return stat.rsplit(")", 1)[1].split()[0] != "Z"

        try:
            listing = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
            workers = []
            while not workers and proc.poll() is None:
                workers = listing.read_text().split()
                time.sleep(0.002)
            assert workers, "the sweep ended before it forked a worker"
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 2
            while any(map(running, workers)) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not any(map(running, workers))
        finally:
            proc.kill()
            proc.wait()

    def test_invalid_utf8_exits_three_naming_file_and_line(self, tmp_path, capsys):
        prefs = run_synth(tmp_path) / "preferences.csv"
        lines = prefs.read_bytes().split(b"\n")
        lines[4] = lines[4][:2] + b"\xff" + lines[4][2:]
        prefs.write_bytes(b"\n".join(lines))
        out = tmp_path / "pipe"
        assert main([
            "pipeline", "--catalog", str(CATALOG_PATH), "--prefs", str(prefs), "--out", str(out),
        ]) == 3
        assert capsys.readouterr().err == f"error: {prefs}:5: byte 0xff is not valid UTF-8\n"
        assert not out.exists()

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_inputs_are_not_mutated(self, tmp_path):
        out = run_synth(tmp_path)
        before = (out / "preferences.csv").read_bytes()
        assert main([
            "pipeline", "--catalog", str(CATALOG_PATH),
            "--prefs", str(out / "preferences.csv"), "--out", str(tmp_path / "pipe"),
            "--rank", "4",
        ]) == 0
        assert (out / "preferences.csv").read_bytes() == before
        assert CATALOG_PATH.read_bytes().startswith(b"item_id,name,category")


# One seeded survey through every factorization-route command.  Each stage
# command must write the same bytes as ``pipeline`` for the files they share,
# and every file is pinned across versions: by SHA-256, except the singular
# values, whose last digits depend on the BLAS build (compared within 1e-9 of
# the largest, as the benchmark's check does).
PINNED_RUNS = {
    "svd": ["svd"],
    "cluster-signs": ["cluster-signs", "--rank", "4"],
    "design-kits": ["design-kits", "--rank", "4"],
    "design-kits-constrained": ["design-kits", "--rank", "4", "--constrained-kits"],
    "reassign": ["reassign", "--rank", "4"],
    "pipeline": ["pipeline", "--rank", "4"],
    "pipeline-constrained": ["pipeline", "--rank", "4", "--constrained-kits"],
}

PINNED_DIGESTS = {
    "cluster-signs/item_cluster_counts.csv": "c4e9b2bf7b1e9cd618bfa5f07b2e73ec050ed8d7cbda7c87b8e3cc9ba888bf33",
    "cluster-signs/item_membership.csv": "ddf2ede2f416babeb27f84e3e2f43d1c07cf571d06dc81f0507fc84e83d9fd27",
    "cluster-signs/user_cluster_counts.csv": "c4e9b2bf7b1e9cd618bfa5f07b2e73ec050ed8d7cbda7c87b8e3cc9ba888bf33",
    "cluster-signs/user_membership.csv": "b221f0072f47f95225e1ebb5ef176d8fcb9e943118ff7a962efd7fbbd828deb9",
    "design-kits/kits.csv": "b4c80c8db3ebd3d58dab749fd5d9cc937a6abd684c40bcd2fd0019f1d1ca2001",
    "design-kits/kits.json": "93e62b81ffe6deb2a796570d03c77434d67eb1c8dd27af64c7ea5787364526ee",
    "design-kits-constrained/kits.csv": "c86fb303e984a3f83513015a15f9dbba139c5b34d769254249aab909f051608c",
    "design-kits-constrained/kits.json": "88480b637185d28f77497bce3393a3f68fb1ffca288c876db82749cb52e00887",
    "reassign/loss_clusters.csv": "dc023de716e77be67abbc8d928094e696efb1969dfa84f3143b3f8a437968729",
    "reassign/loss_users.csv": "bac1b2bc7ccfb537012f80a9a5d847245bb7e8aa7a44f301c41d49eb3b7df45e",
    "pipeline/kits.csv": "b4c80c8db3ebd3d58dab749fd5d9cc937a6abd684c40bcd2fd0019f1d1ca2001",
    "pipeline/kits.json": "93e62b81ffe6deb2a796570d03c77434d67eb1c8dd27af64c7ea5787364526ee",
    "pipeline/loss_clusters.csv": "dc023de716e77be67abbc8d928094e696efb1969dfa84f3143b3f8a437968729",
    "pipeline/loss_users.csv": "bac1b2bc7ccfb537012f80a9a5d847245bb7e8aa7a44f301c41d49eb3b7df45e",
    "pipeline/user_cluster_counts.csv": "c4e9b2bf7b1e9cd618bfa5f07b2e73ec050ed8d7cbda7c87b8e3cc9ba888bf33",
    "pipeline/user_membership.csv": "b221f0072f47f95225e1ebb5ef176d8fcb9e943118ff7a962efd7fbbd828deb9",
    "pipeline-constrained/kits.csv": "c86fb303e984a3f83513015a15f9dbba139c5b34d769254249aab909f051608c",
    "pipeline-constrained/kits.json": "88480b637185d28f77497bce3393a3f68fb1ffca288c876db82749cb52e00887",
    "pipeline-constrained/loss_clusters.csv": "b990ad95787b1356f03b1a44aa290f5f9ce9271e7027ec14fe601f3989cf1e71",
    "pipeline-constrained/loss_users.csv": "e6c69a5eaf01200334e5633b59bd2b8bf540037f666e35b85cefff42d76b3813",
    "pipeline-constrained/user_cluster_counts.csv": "c4e9b2bf7b1e9cd618bfa5f07b2e73ec050ed8d7cbda7c87b8e3cc9ba888bf33",
    "pipeline-constrained/user_membership.csv": "b221f0072f47f95225e1ebb5ef176d8fcb9e943118ff7a962efd7fbbd828deb9",
}

PINNED_SCREE = [
    40.39938169808617,
    13.219398260921736,
    11.798641715151714,
    11.057487383549933,
    10.313863186121878,
    9.947370516463735,
    9.256853836413333,
    8.424413775767981,
    8.090842992781528,
    7.796709268822533,
    7.763048136309847,
    7.623967262309785,
    7.470595473756002,
    7.350847879247592,
    7.16351652280627,
    6.82008293434391,
    6.590982846615342,
    6.197335364022278,
    5.9592750502997385,
    3.161589352672707e-15,
]


def run_pinned(tmp_path):
    """Run every command of PINNED_RUNS on one seeded survey; name -> output dir."""
    survey = run_synth(tmp_path, **{"--n-users": 300, "--n-kits": 8, "--seed": 11})
    outs = {}
    for name, argv in PINNED_RUNS.items():
        outs[name] = tmp_path / name
        assert main([
            *argv, "--catalog", str(CATALOG_PATH),
            "--prefs", str(survey / "preferences.csv"), "--out", str(outs[name]),
        ]) == 0
    return outs


class TestPinnedOutputs:
    def test_stage_commands_match_pipeline_and_recorded_digests(self, tmp_path):
        outs = run_pinned(tmp_path)
        digests = {}
        for name, out in outs.items():
            pipe = outs["pipeline-constrained" if "constrained" in name else "pipeline"]
            for path in sorted(out.iterdir()):
                if (pipe / path.name).exists():
                    assert path.read_bytes() == (pipe / path.name).read_bytes(), f"{name}/{path.name}"
                if path.name != "scree.csv":
                    digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digests == PINNED_DIGESTS
        scree = read_csv(outs["svd"] / "scree.csv")
        assert [row[0] for row in scree] == ["rank", *(str(r) for r in range(1, 21))]
        sigmas = np.array([float(row[1]) for row in scree[1:]])
        assert np.abs(sigmas - PINNED_SCREE).max() <= 1e-9 * PINNED_SCREE[0]


# The other three commands on the pinned survey.  ``synth`` and ``validate``
# files are pinned by SHA-256.  The sweep files are pinned cell by cell: str
# cells exactly, float cells (silhouette and WCSS) within 1e-12, the
# benchmark's sweep tolerance.
PINNED_SYNTH = {
    "preferences.csv": "acfa25304071aaeb744ea2a0bccaa1452c2a8c45f2d316cf332d4628b21ac86c",
    "ground_truth.csv": "b35eb3c45ba0751fff70f3184cee675e2fa5c946d49059f417c4ed200d4044ab",
    "planted_kits.json": "d40826525d8c52364d6cb1acf47dd38bac7075ed0ccd286e5a7ff8ffb849b626",
}

PINNED_VIOLATIONS = {
    "clean": "d778ba51e2fd1dea5e2822b2134bcf4ec6f0c13837f3147cb1645c716a1d71a6",
    "dirty": "dca03d7762dfd6dd0707191da8a98a5636b30264ca1508e50929b38238f7eb62",
}

PINNED_SWEEP = {
    "sweep_table.csv": [
        ["k", "trial_1", "trial_2"],
        ["4", 0.1040758126966144, 0.10952922467509318],
        ["5", 0.11306163653740213, 0.09155619736448144],
        ["6", 0.10441726841322603, 0.10857459385735746],
    ],
    "sweep_points.csv": [
        ["k", "trial", "silhouette"],
        ["4", "1", 0.1040758126966144],
        ["4", "2", 0.10952922467509318],
        ["5", "1", 0.11306163653740213],
        ["5", "2", 0.09155619736448144],
        ["6", "1", 0.10441726841322603],
        ["6", "2", 0.10857459385735746],
    ],
    "sweep_runs.csv": [
        ["k", "trial", "iterations", "converged", "wcss"],
        ["4", "1", "52", "1", 1084.0695620213373],
        ["4", "2", "62", "1", 1082.6120896575576],
        ["5", "1", "94", "1", 1018.087469350321],
        ["5", "2", "52", "1", 1049.5594650585685],
        ["6", "1", "85", "1", 984.0596447329631],
        ["6", "2", "58", "1", 977.0035399019478],
    ],
}

# ``prefkit [command] --help`` at COLUMNS=80 on Python 3.11 (argparse's layout
# differs across Python versions), with the description of --strict blanked.
PINNED_HELP = {
    "": "1b0bfc20cd8fe9467dbba4c37819638b1e02380c8bad1db648587d2bf390247c",
    "validate": "dc85c024b4c9ee74c5fc2f14c7a20c79ec2973a4701dbc2995e954d82040bfdc",
    "synth": "86771615660bbf1e8093602431549854a00875bead3a8c41324e7b6f595e5314",
    "kmeans-sweep": "b73eede31d0305212f4d51960777d504841b69498a356cd4edbed19114430c52",
    "svd": "de2959df7535dae5b64f422c413875e75a14bee5b417b2ff3263317689671825",
    "cluster-signs": "7d19b00d0ba124c39e1c033f14a31c8accd74100eda9a4757e1fbf44ce659141",
    "design-kits": "c6cf54665b206eebbb1a5b0b5b0b57ae24ec0d2270428494dffd93e64a483c23",
    "reassign": "5196fc543360d5edb75cb4d485b04ea80d623e0e5e49f6fed14296285f649805",
    "pipeline": "abeeb99f48786231edc334f1da16b7ee111394b2c403aeb86b575c52bce7e740",
}

STRICT_HELP = re.compile(r"(--strict +)\S.*")


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def assert_cells_match(rows, pinned, where):
    assert [len(row) for row in rows] == [len(row) for row in pinned], where
    for row, expected in zip(rows, pinned):
        for cell, want in zip(row, expected):
            if isinstance(want, float):
                assert abs(float(cell) - want) <= 1e-12, f"{where}: {cell} != {want}"
            else:
                assert cell == want, where


class TestPinnedOtherCommands:
    def test_synth_validate_and_sweep_match_recorded_outputs(self, tmp_path, catalog20):
        survey = run_synth(tmp_path, **{"--n-users": 300, "--n-kits": 8, "--seed": 11})
        assert {name: sha256(survey / name) for name in PINNED_SYNTH} == PINNED_SYNTH

        prefs = pk.load_preferences(survey / "preferences.csv", catalog20)
        data = prefs.data.copy()
        data[0] = 0
        data[0, :7] = 1
        data[5] = 1
        dirty = tmp_path / "dirty.csv"
        pk.write_preferences(pk.PreferenceMatrix(prefs.user_ids, data, prefs.column_labels), dirty)
        runs = {
            "clean": (survey / "preferences.csv", [], 0, "clean"),
            "dirty": (dirty, [], 0, "dirty"),
            "dirty-strict": (dirty, ["--strict"], 1, "dirty"),
        }
        for name, (path, extra, code, pinned) in runs.items():
            out = tmp_path / name
            assert main([
                "validate", "--catalog", str(CATALOG_PATH), "--prefs", str(path),
                "--out", str(out), *extra,
            ]) == code, name
            assert sha256(out / "violations.csv") == PINNED_VIOLATIONS[pinned], name

        out = tmp_path / "sweep"
        assert main([
            "kmeans-sweep", "--catalog", str(CATALOG_PATH),
            "--prefs", str(survey / "preferences.csv"), "--out", str(out),
            "--k-max", "6", "--trials", "2",
        ]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(PINNED_SWEEP)
        for name, pinned in PINNED_SWEEP.items():
            assert_cells_match(read_csv(out / name), pinned, name)

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help digests recorded on Python 3.11")
    def test_help_texts_match_recorded_digests(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        digests = {}
        for command in PINNED_HELP:
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"] if command else ["--help"])
            assert exc.value.code == 0
            text = STRICT_HELP.sub(r"\1<help>", capsys.readouterr().out)
            digests[command] = hashlib.sha256(text.encode()).hexdigest()
        assert digests == PINNED_HELP
