import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import prefkit as pk
from oracles import dense

# HYPOTHESIS_PROFILE=ci makes every property test draw the same examples on
# each run and print the blob that reproduces a failure.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

REPO_ROOT = Path(__file__).resolve().parents[1]
CATALOG_PATH = REPO_ROOT / "data" / "catalog.csv"


@pytest.fixture(scope="session")
def catalog20() -> pk.ItemCatalog:
    return pk.load_catalog(CATALOG_PATH)


@pytest.fixture(scope="session")
def catalog20_interleaved(catalog20) -> pk.ItemCatalog:
    """The items of ``catalog20`` reordered so the expensive ones sit at the even ids."""
    tiers = [[it for it in catalog20.items if it.category == cat] for cat in pk.Category]
    items = [it for pair in zip(*tiers) for it in pair]
    return pk.ItemCatalog(tuple(pk.Item(i, it.name, it.category) for i, it in enumerate(items)))


@pytest.fixture(scope="session")
def constraint() -> pk.SelectionConstraint:
    return pk.SelectionConstraint()


@pytest.fixture(scope="session")
def survey(catalog20, constraint):
    """A 200 x 20 planted-kit population: (prefs, planted, kits)."""
    kits = pk.random_kits(catalog20, constraint, 8, seed=pk.derive_seed(99, "fixture-kits"))
    spec = pk.SyntheticSpec(
        n_users=200, planted_kits=kits, noise_swaps=1, seed=pk.derive_seed(99, "fixture-pop")
    )
    prefs, planted = pk.generate_synthetic(spec, catalog20, constraint)
    return prefs, planted, kits


@pytest.fixture(scope="session")
def repeated_survey(survey):
    """600 users whose rows repeat the first 40 rows of ``survey``, in shuffled order."""
    prefs = survey[0]
    data = dense(prefs)[:40][np.random.default_rng(5).integers(0, 40, size=600)]
    return pk.PreferenceMatrix(tuple(f"r{i}" for i in range(600)), data)


@pytest.fixture
def catalog_factory():
    """Build a catalog with the given number of expensive and cheap items."""

    def _make(n_expensive: int, n_cheap: int) -> pk.ItemCatalog:
        items = [
            pk.Item(i, f"exp_{i}", pk.Category.EXPENSIVE) for i in range(n_expensive)
        ] + [
            pk.Item(n_expensive + j, f"cheap_{j}", pk.Category.CHEAP)
            for j in range(n_cheap)
        ]
        return pk.ItemCatalog(tuple(items))

    return _make
