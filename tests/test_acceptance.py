"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances and thresholds are pinned here and nowhere else.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import prefkit as pk
from prefkit.cli import main

from conftest import CATALOG_PATH
from oracles import adjusted_rand_index, random_kits_scan, silhouette_bruteforce, singular_values_charpoly, user_loss

BASE_SEED = 20260809


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num}] {name}: FAIL")
        raise
    print(f"\n[criterion {num}] {name}: PASS")


def random_prefs(rng, n, m):
    data = rng.integers(0, 2, size=(n, m)).astype(np.int8)
    return pk.PreferenceMatrix(tuple(f"u{i}" for i in range(n)), data)


def test_criterion_1_silhouette_matches_bruteforce_oracle():
    with criterion(1, "silhouette equals O(n^2) brute force within 1e-9"):
        rng = np.random.default_rng(pk.derive_seed(BASE_SEED, "silhouette"))
        start = time.perf_counter()
        for _ in range(100):
            n = int(rng.integers(10, 51))
            m = int(rng.integers(2, 21))
            k = int(rng.integers(2, 7))
            data = rng.integers(0, 2, size=(n, m)).astype(float)
            labels = rng.integers(0, k, size=n)
            labels[0], labels[1] = 0, 1
            prefs = pk.PreferenceMatrix(tuple(f"u{i}" for i in range(n)), data.astype(np.int8))
            run = pk.KMeansRun(np.zeros((k, m)), labels, 1, True, (0.0,), pk.KMeansConfig(k=k))
            report = pk.silhouette(prefs, run)
            _, _, macro = silhouette_bruteforce(data, labels, k)
            assert abs(report.macro_average - macro) <= 1e-9
        assert time.perf_counter() - start < 5.0


def test_criterion_2_svd_reconstruction_and_eigen_oracle():
    with criterion(2, "svd contract + sigma vs characteristic-polynomial oracle"):
        start = time.perf_counter()
        rng = np.random.default_rng(pk.derive_seed(BASE_SEED, "svd-binary"))
        for _ in range(100):
            a = rng.integers(0, 2, size=(200, 20)).astype(float)
            f = pk.svd(a)
            assert np.linalg.norm(a - f.reconstruct()) <= 1e-8 * max(1.0, np.linalg.norm(a))
            assert np.abs(f.u.T @ f.u - np.eye(f.p)).max() <= 1e-8
            assert np.abs(f.vt @ f.vt.T - np.eye(f.p)).max() <= 1e-8
            assert (np.diff(f.sigma) <= 0).all()
            assert (f.sigma >= 0).all()
        rng = np.random.default_rng(pk.derive_seed(BASE_SEED, "svd-small"))
        for _ in range(1000):
            a = rng.integers(0, 3, size=(3, 3)).astype(float)
            f = pk.svd(a)
            expected = singular_values_charpoly(a.tolist())
            assert np.abs(f.sigma - np.array(expected)).max() <= 1e-6
        assert time.perf_counter() - start < 30.0


def _refines(fine, coarse):
    # Each fine cluster lies inside one coarse cluster: one coarse label per fine label.
    pairs = set(zip(fine.labels.tolist(), coarse.labels.tolist()))
    return len(pairs) == len(set(fine.labels.tolist()))


def test_criterion_3_sign_cluster_count_law(catalog20, constraint, survey):
    with criterion(3, "non-negative matrices: count 1 at r=1, <= 2^(r-1), refinement"):
        prefs, _, _ = survey
        matrices = [prefs.data.astype(float)]
        for s in range(6):
            kits = pk.random_kits(catalog20, constraint, 6, seed=pk.derive_seed(BASE_SEED, "law-kits", s))
            spec = pk.SyntheticSpec(
                n_users=40 + 20 * s, planted_kits=kits, noise_swaps=s % 3,
                seed=pk.derive_seed(BASE_SEED, "law-pop", s),
            )
            matrices.append(pk.generate_synthetic(spec, catalog20, constraint)[0].data.astype(float))
        rng = np.random.default_rng(pk.derive_seed(BASE_SEED, "law-float"))
        for _ in range(3):
            matrices.append(rng.uniform(0.05, 1.0, size=(int(rng.integers(20, 80)), int(rng.integers(4, 16)))))
        matrices.append(np.outer(np.arange(1.0, 31.0), np.arange(1.0, 9.0)))

        for a in matrices:
            f = pk.svd(a)
            r_max = min(8, f.p)
            table = pk.cluster_count_table(pk.user_sign_clusters(pk.truncate(f, r_max)))
            assert table[0] == (1, 1)
            counts = [c for _, c in table]
            for r, count in table[1:]:
                assert count <= 2 ** (r - 1)
            assert all(x <= y for x, y in zip(counts, counts[1:]))
            for r in range(1, r_max):
                coarse = pk.user_sign_clusters(pk.truncate(f, r))
                fine = pk.user_sign_clusters(pk.truncate(f, r + 1))
                assert _refines(fine, coarse)


def test_criterion_4_lloyd_monotonicity_and_damped_termination():
    with criterion(4, "undamped WCSS never increases; damped runs terminate optimally"):
        rng = np.random.default_rng(pk.derive_seed(BASE_SEED, "lloyd"))
        cases = []
        for _ in range(50):
            n = int(rng.integers(30, 81))
            m = int(rng.integers(5, 21))
            k = int(rng.integers(2, 9))
            cases.append((random_prefs(rng, n, m), k))
        for trial, (prefs, k) in enumerate(cases):
            run = pk.run_kmeans(
                prefs, pk.KMeansConfig(k=k, damping=1.0, seed=pk.derive_seed(BASE_SEED, "lloyd", trial))
            )
            trace = run.wcss_trace
            assert all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))
        for trial, (prefs, k) in enumerate(cases):
            run = pk.run_kmeans(
                prefs,
                pk.KMeansConfig(k=k, damping=0.3, max_iters=100,
                                seed=pk.derive_seed(BASE_SEED, "damped", trial)),
            )
            assert run.iterations_used <= 100
            for i in range(prefs.n):
                own = float(np.linalg.norm(prefs.data[i] - run.centroids[run.idx[i]]))
                for j in range(run.k):
                    assert float(np.linalg.norm(prefs.data[i] - run.centroids[j])) >= own - 1e-12


def test_criterion_5_planted_recovery(catalog20, constraint):
    with criterion(5, "best-of-5 k-means: ARI >= 0.9, >= 6/8 kits at Jaccard >= 0.8"):
        start = time.perf_counter()
        # Planted kits at least 10 apart, well beyond single-swap noise (rows 4 from their kit).
        kits = random_kits_scan(catalog20, constraint, 8, pk.derive_seed(BASE_SEED, "planted", "kits"), 10)
        spec = pk.SyntheticSpec(
            n_users=200, planted_kits=kits, noise_swaps=1,
            seed=pk.derive_seed(BASE_SEED, "planted", "population"),
        )
        prefs, truth = pk.generate_synthetic(spec, catalog20, constraint)
        best_ari, best_run = -1.0, None
        for s in range(5):
            run = pk.run_kmeans(
                prefs,
                pk.KMeansConfig(k=8, damping=1.0, seed=pk.derive_seed(BASE_SEED, "planted", "trial", s)),
            )
            ari = adjusted_rand_index(run.idx.tolist(), truth.tolist())
            if ari > best_ari:
                best_ari, best_run = ari, run
        assert best_ari >= 0.9
        designed = pk.design_all(prefs, best_run.idx[prefs.distinct.first], catalog20, constraint)
        matched = sum(
            1
            for planted_kit in kits
            if max(
                len(planted_kit.items & dk.items) / len(planted_kit.items | dk.items)
                for dk in designed
            )
            >= 0.8
        )
        assert matched >= 6
        assert time.perf_counter() - start < 10.0


@pytest.fixture(scope="module")
def reassignment_corpus(catalog20, constraint, survey):
    """(prefs, kits, initial, final, before, after) across both pipelines."""
    corpus = []

    prefs, truth, planted = survey
    clustering = pk.user_sign_clusters(pk.truncate(pk.svd(prefs.data.astype(float)), 4))
    kits = pk.design_all(prefs, clustering.labels[prefs.distinct.first], catalog20, constraint)
    initial = pk.assignment_from_clusters(clustering.labels)
    corpus.append((prefs, kits) + pk.reassign(prefs, kits, initial) + (initial,))

    clean_kits = pk.random_kits(catalog20, constraint, 6, seed=pk.derive_seed(BASE_SEED, "corpus", 0))
    spec = pk.SyntheticSpec(n_users=90, planted_kits=clean_kits, noise_swaps=0,
                            seed=pk.derive_seed(BASE_SEED, "corpus", 1))
    clean_prefs, clean_truth = pk.generate_synthetic(spec, catalog20, constraint)
    initial = pk.Assignment(clean_truth)
    corpus.append((clean_prefs, list(clean_kits)) + pk.reassign(clean_prefs, list(clean_kits), initial) + (initial,))

    noisy_kits = pk.random_kits(catalog20, constraint, 5, seed=pk.derive_seed(BASE_SEED, "corpus", 2))
    spec = pk.SyntheticSpec(n_users=80, planted_kits=noisy_kits, noise_swaps=2,
                            seed=pk.derive_seed(BASE_SEED, "corpus", 3))
    noisy_prefs, _ = pk.generate_synthetic(spec, catalog20, constraint)
    run = pk.run_kmeans(noisy_prefs, pk.KMeansConfig(k=5, damping=1.0, seed=pk.derive_seed(BASE_SEED, "corpus", 4)))
    km_kits = pk.design_all(noisy_prefs, run.idx[noisy_prefs.distinct.first], catalog20, constraint)
    initial = pk.assignment_from_clusters(run.idx)
    corpus.append((noisy_prefs, km_kits) + pk.reassign(noisy_prefs, km_kits, initial) + (initial,))

    return corpus


def test_criterion_6_reassignment_contract(reassignment_corpus):
    with criterion(6, "reassignment: pointwise/total non-increase, idempotent, no better move"):
        for prefs, kits, final, before, after, initial in reassignment_corpus:
            assert (after.per_user_loss <= before.per_user_loss).all()
            assert after.total_loss <= before.total_loss
            again, before2, after2 = pk.reassign(prefs, kits, final)
            assert (again.kit_index == final.kit_index).all()
            assert before2.total_loss == after.total_loss == after2.total_loss
            for i in range(prefs.n):
                for kit in kits:
                    assert user_loss(prefs.data[i], kit) >= after.per_user_loss[i]


def test_criterion_7_jensen_magnification(reassignment_corpus):
    with criterion(7, "exponential average >= exp(normal average), strict under spread"):
        for prefs, kits, final, before, after, initial in reassignment_corpus:
            for report, assignment in ((before, initial), (after, final)):
                for j in range(len(kits)):
                    if report.populations[j] == 0:
                        assert report.per_cluster_normal[j] == 0.0
                        assert report.per_cluster_exponential[j] == 0.0
                        continue
                    member_losses = report.per_user_loss[assignment.kit_index == j]
                    expo = report.per_cluster_exponential[j]
                    norm = report.per_cluster_normal[j]
                    assert expo >= np.exp(norm) - 1e-12
                    if len(set(member_losses.tolist())) > 1:
                        assert expo > np.exp(norm)


def test_criterion_8_sweep_structure_and_stress(survey):
    with criterion(8, "12x3 sweep table in [-1,1]; 50-kit stress sweep under 60 s"):
        prefs, _, _ = survey
        config = pk.KMeansConfig(k=4, seed=pk.derive_seed(BASE_SEED, "sweep"))
        table = pk.sweep(prefs, config, k_max=15, trials=3)
        assert table.k_values == tuple(range(4, 16))
        assert table.scores.shape == (12, 3)
        assert (table.scores >= -1.0).all() and (table.scores <= 1.0).all()
        start = time.perf_counter()
        stress = pk.sweep(prefs, config, k_max=50, trials=1)
        assert time.perf_counter() - start < 60.0
        assert stress.scores.shape == (47, 1)


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "every CLI command is byte-identical across repeat runs"):
        catalog = str(CATALOG_PATH)
        synth_out = tmp_path / "survey"
        assert main([
            "synth", "--catalog", catalog, "--out", str(synth_out),
            "--n-users", "80", "--n-kits", "6", "--noise-swaps", "1", "--seed", "11",
        ]) == 0
        prefs_file = str(synth_out / "preferences.csv")
        commands = {
            "synth": ["synth", "--catalog", catalog, "--n-users", "80", "--n-kits", "6",
                      "--noise-swaps", "1", "--seed", "11"],
            "validate": ["validate", "--catalog", catalog, "--prefs", prefs_file],
            "kmeans-sweep": ["kmeans-sweep", "--catalog", catalog, "--prefs", prefs_file,
                             "--seed", "11", "--k-min", "4", "--k-max", "6", "--trials", "2"],
            "svd": ["svd", "--catalog", catalog, "--prefs", prefs_file],
            "cluster-signs": ["cluster-signs", "--catalog", catalog, "--prefs", prefs_file,
                              "--rank", "4"],
            "design-kits": ["design-kits", "--catalog", catalog, "--prefs", prefs_file,
                            "--rank", "4"],
            "reassign": ["reassign", "--catalog", catalog, "--prefs", prefs_file,
                         "--rank", "4"],
            "pipeline": ["pipeline", "--catalog", catalog, "--prefs", prefs_file,
                         "--rank", "4"],
        }
        for name, argv in commands.items():
            runs = []
            for tag in ("first", "second"):
                out = tmp_path / f"{name}-{tag}"
                assert main(argv + ["--out", str(out)]) == 0, name
                runs.append(out)
            first = sorted(p.name for p in runs[0].iterdir())
            second = sorted(p.name for p in runs[1].iterdir())
            assert first == second and first, name
            for fname in first:
                assert (runs[0] / fname).read_bytes() == (runs[1] / fname).read_bytes(), (
                    f"{name}: {fname} differs between runs"
                )
