"""Span tracing of prefkit's layers from outside the package.

Each layer is one module of ``prefkit``.  :class:`Tracer` wraps every public
function defined in a layer module and rebinds each reference to it in the
loaded ``prefkit`` modules (``cli`` imports most of them by name), so no file
of the package changes.  A call records a span: name, layer, start, end,
parent span and whether it raised.  Spans stay in memory until the command
returns; :func:`layer_metrics` turns them into per-layer numbers.

Only module-level public functions are wrapped.  Private helpers (``_name``)
and methods are not, so their time counts as self time of the public function
that called them.  ``cli.self_s`` is therefore the command's time outside the
other layers: argparse, the CSV writers and the glue code.

A layer module, a named function or a counter that a refactor removed is
reported as an absent metric, never as a crash.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import tracemalloc
from time import perf_counter

import numpy as np

LAYERS = ("io", "model", "synthetic", "svd", "signs", "kits", "assignment", "kmeans", "cli")

# Functions with their own self-time metric.  A span's self time is charged
# to the outermost named function of its own layer on the call stack, so
# ``signs.cluster_count_table`` owns the sign codes it builds through
# ``user_sign_clusters``, and ``kmeans.silhouette`` owns
# ``silhouette_from_labels``.
NAMED = (
    "io.load_preferences",
    "io.write_preferences",
    "model.validate_constraint",
    "synthetic.generate_synthetic",
    "signs.user_sign_clusters",
    "signs.cluster_count_table",
    "kits.design_all",
    "assignment.reassign",
    "kmeans.run_kmeans",
    "kmeans.silhouette",
)

# Functions whose calls are counted on their own.
CALLS = ("assignment.loss_report",)

# Functions whose peak allocation is measured with tracemalloc.  It is
# switched on only inside a function's first call, because it slows every
# Python allocation: the silhouette's per-user loop ran 3x slower under it.
MEMORY = {
    "assignment.reassign": "assignment.peak_alloc_mb",
    "kmeans.silhouette": "kmeans.silhouette.peak_alloc_mb",
}


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _bytes_read(args, kwargs, result):
    return {"input.bytes_read": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _violations(args, kwargs, result):
    return {"model.violations": len(result)}


def _codes_built(args, kwargs, result):
    return {"signs.codes_built": len(result.patterns) * result.rank}


def _users_moved(args, kwargs, result):
    initial = _arg(args, kwargs, 2, "initial")
    return {"assignment.users_moved": int(np.count_nonzero(result[0].kit_index != initial.kit_index))}


def _kmeans_run(args, kwargs, result):
    return {
        "kmeans.runs": 1,
        "kmeans.iterations": result.iterations_used,
        "kmeans.converged_runs": int(result.converged),
    }


def _silhouette_pairs(args, kwargs, result):
    data = _arg(args, kwargs, 0, "prefs").data
    distinct = np.unique(data, axis=0).shape[0]
    return {"kmeans.silhouette.pairs": data.shape[0] ** 2, "kmeans.silhouette.distinct_pairs": distinct**2}


# Counters taken from a call's arguments and result after its span closes:
# function -> (hook, the counters it adds to).
HOOKS = {
    "io.load_catalog": (_bytes_read, ("input.bytes_read",)),
    "io.load_preferences": (_bytes_read, ("input.bytes_read",)),
    "model.validate_constraint": (_violations, ("model.violations",)),
    "signs.user_sign_clusters": (_codes_built, ("signs.codes_built",)),
    "signs.item_sign_clusters": (_codes_built, ("signs.codes_built",)),
    "assignment.reassign": (_users_moved, ("assignment.users_moved",)),
    "kmeans.run_kmeans": (_kmeans_run, ("kmeans.runs", "kmeans.iterations", "kmeans.converged_runs")),
    "kmeans.silhouette": (_silhouette_pairs, ("kmeans.silhouette.pairs", "kmeans.silhouette.distinct_pairs")),
}


class Tracer:
    """Wraps prefkit's layer functions and keeps their spans in memory."""

    def __init__(self) -> None:
        # One span is [name, layer, start, end, parent index or -1, raised].
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.peaks: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"prefkit.{layer}")
            except ImportError:
                self.absent.append(layer)
                continue
            for name, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_"):
                    wrapped[fn] = self._wrap(layer, f"{layer}.{name}", fn)
            for key in (*NAMED, *HOOKS, *MEMORY, *CALLS):
                if key.startswith(f"{layer}.") and not inspect.isfunction(getattr(module, key.split(".")[1], None)):
                    self.absent.append(key)
        for module_name, module in list(sys.modules.items()):
            if module_name == "prefkit" or module_name.startswith("prefkit."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrapped:
                        setattr(module, attr, wrapped[value])

    def _wrap(self, layer: str, key: str, fn):
        hook = HOOKS.get(key, (None,))[0]
        memory_key = MEMORY.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [key, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            owns_memory = memory_key not in (None, *self.peaks) and not tracemalloc.is_tracing()
            if owns_memory:
                tracemalloc.start()
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[3] = perf_counter()
                self._stack.pop()
                if owns_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peaks[memory_key] = peak
            if hook is not None:
                self._count(key, hook, args, kwargs, result)
            return result

        return traced

    def _count(self, key: str, hook, args, kwargs, result) -> None:
        try:
            counts = hook(args, kwargs, result)
        except Exception:  # a refactored signature or result loses the counter, not the run
            if key not in self.absent:
                self.absent.append(key)
            return
        for name, value in counts.items():
            self.counters[name] = self.counters.get(name, 0) + value

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters, "peaks": self.peaks, "absent": self.absent}


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command, from :meth:`Tracer.dump`.

    ``<layer>.self_s`` sums the self time (duration minus direct children) of
    the layer's spans, so the layers together account for the root span.
    ``<layer>.calls`` and ``<layer>.errors`` count spans and spans that
    raised.  Metrics of a layer that did no work read 0.
    """
    spans = trace["spans"]
    absent = set(trace["absent"])
    self_s = [end - start for _, _, start, end, _, _ in spans]
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            self_s[parent] -= end - start

    metrics: dict[str, float] = {}
    present = [layer for layer in LAYERS if layer not in absent]
    for layer in present:
        metrics.update({f"{layer}.self_s": 0.0, f"{layer}.calls": 0, f"{layer}.errors": 0})
    for key in NAMED:
        if key.split(".")[0] in present and key not in absent:
            metrics[f"{key}.self_s"] = 0.0
    for key in CALLS:
        if key.split(".")[0] in present and key not in absent:
            metrics[f"{key}.calls"] = 0
    for key, (_, names) in HOOKS.items():
        if key.split(".")[0] in present and key not in absent:
            metrics.update({name: trace["counters"].get(name, 0) for name in names})
    for key, name in MEMORY.items():
        if key.split(".")[0] in present and key not in absent:
            metrics[name] = trace["peaks"].get(name, 0) / 2**20

    for index, (name, layer, _, _, _, raised) in enumerate(spans):
        metrics[f"{layer}.self_s"] += self_s[index]
        metrics[f"{layer}.calls"] += 1
        metrics[f"{layer}.errors"] += int(raised)
        if f"{name}.calls" in metrics:
            metrics[f"{name}.calls"] += 1
        owner, cursor = None, index
        while cursor >= 0:
            if spans[cursor][1] == layer and spans[cursor][0] in NAMED:
                owner = spans[cursor][0]
            cursor = spans[cursor][4]
        if owner is not None and f"{owner}.self_s" in metrics:
            metrics[f"{owner}.self_s"] += self_s[index]

    if "kmeans.runs" in metrics:
        runs = metrics.pop("kmeans.runs")
        converged = metrics.pop("kmeans.converged_runs")
        metrics["kmeans.converged_frac"] = converged / runs if runs else 0.0
    if "kmeans.silhouette.pairs" in metrics:
        distinct = metrics.pop("kmeans.silhouette.distinct_pairs")
        pairs = metrics["kmeans.silhouette.pairs"]
        metrics["kmeans.silhouette.distinct_pair_share"] = distinct / pairs if pairs else 0.0
    return metrics
