"""The public API that code outside the package relies on.

``bench/tracer.py`` wraps prefkit's public functions from outside ``src/``
and names some of them for their own metrics.  A named function that a
refactor removes or makes private only drops its metrics from the traced
benchmark line, so this test catches it first.
"""

import importlib
import importlib.util
import inspect

import pytest

from conftest import REPO_ROOT


def load_tracer():
    spec = importlib.util.spec_from_file_location("prefkit_bench_tracer", REPO_ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER = load_tracer()


@pytest.mark.parametrize("key", sorted({*TRACER.NAMED, *TRACER.CALLS, *TRACER.HOOKS, *TRACER.MEMORY}))
def test_every_function_the_tracer_names_is_public(key):
    layer, name = key.split(".")
    assert layer in TRACER.LAYERS
    module = importlib.import_module(f"prefkit.{layer}")
    fn = getattr(module, name, None)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__, f"prefkit.{key} is not a public function"
    assert not name.startswith("_")

