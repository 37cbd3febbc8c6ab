"""Span tracer that measures cset's layers from outside the package.

Each function in TARGETS is replaced, wherever a cset module (or the package
namespace) holds a reference to it, by a wrapper that records a span: name,
start, end and the index of the enclosing span. Methods are replaced on
their class. Nothing under src/ changes, and uninstall() puts every original
back, so traced and untraced passes run the same code.

A layer is a cset module; a span is named "<module>.<function>". Self time
is a span's duration minus the time its child spans cover. Work the tracer
does for its own counters (hashing labels, counting ties) is recorded as a
"trace.stats" span, so it shows as overhead instead of inflating a layer.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import resource
import statistics
import time
import weakref
from collections import defaultdict

import numpy as np

LAYERS = (
    "score_store", "platt", "conformal", "tuning", "metrics",
    "trials", "synth", "reports", "cli",
)

# (module, attribute path in that module, span name inside the layer)
TARGETS = (
    ("score_store", "ScoreMatrix.__post_init__", "ScoreMatrix"),
    ("score_store", "ScoreMatrix.take", "take"),
    ("score_store", "SortedScores.take", "SortedScores.take"),
    ("score_store", "SortedScores.label_ranks", "label_ranks"),
    ("score_store", "softmax", "softmax"),
    ("score_store", "sort_scores", "sort_scores"),
    ("score_store", "split", "split"),
    ("score_store", "load_scores", "load_scores"),
    ("platt", "nll", "nll"),
    ("platt", "fit_temperature", "fit_temperature"),
    ("conformal", "calibration_scores", "calibration_scores"),
    ("conformal", "conformal_quantile", "conformal_quantile"),
    ("conformal", "calibrate", "calibrate"),
    ("conformal", "naive_model", "naive_model"),
    ("conformal", "set_sizes", "set_sizes"),
    ("conformal", "save_model", "save_model"),
    ("conformal", "load_model", "load_model"),
    ("tuning", "fixed_k_star", "fixed_k_star"),
    ("tuning", "make_fixed_k_model", "make_fixed_k_model"),
    ("tuning", "tune_for_size", "tune_for_size"),
    ("metrics", "strata_rows", "strata_rows"),
    ("metrics", "sscv_from_arrays", "sscv_from_arrays"),
    ("metrics", "difficulty_rows", "difficulty_rows"),
    ("metrics", "size_histogram", "size_histogram"),
    ("trials", "run_trials_multi", "run_trials_multi"),
    ("trials", "run_synth_trials", "run_synth_trials"),
    ("synth", "generate", "generate"),
    ("synth", "oracle_coverage", "oracle_coverage"),
    ("reports", "render_method_table", "render_method_table"),
    ("reports", "summary_csv", "summary_csv"),
    ("reports", "render_strata_table", "render_strata_table"),
    ("reports", "render_difficulty_table", "render_difficulty_table"),
    ("reports", "hist_csv", "hist_csv"),
    ("reports", "strata_csv", "strata_csv"),
    ("reports", "difficulty_csv", "difficulty_csv"),
    ("reports", "render_sweep", "render_sweep"),
    ("reports", "sweep_csv", "sweep_csv"),
    ("cli", "main", "main"),
    ("cli", "cmd_fit_temp", "cmd_fit_temp"),
    ("cli", "cmd_calibrate", "cmd_calibrate"),
    ("cli", "cmd_predict", "cmd_predict"),
    ("cli", "cmd_experiment", "cmd_experiment"),
)

# Matrix-consuming functions: which argument (or the result) carries the
# matrix whose rows x K cells the call processed.
CELLS_FROM = {
    "score_store.load_scores": "result",
    "score_store.softmax": "m",
    "score_store.sort_scores": "m",
    "conformal.set_sizes": "ss",
    "synth.generate": "spec",
}

STATS_SPAN = "trace.stats"

# Wrapped for the self-time table and the reports layer total, but left out
# of the per-layer metrics to keep that list short.
TABLE_ONLY = frozenset({
    "reports.render_method_table", "reports.render_strata_table",
    "reports.render_difficulty_table", "reports.hist_csv", "reports.strata_csv",
    "reports.difficulty_csv", "reports.render_sweep", "reports.sweep_csv",
})
FUNCTIONS = tuple(
    f"{module}.{short}" for module, _, short in TARGETS
    if f"{module}.{short}" not in TABLE_ONLY
)

# Functions the harness calls directly, so their spans are top level.
TOP_LEVEL = ("cli.main", "trials.run_synth_trials", "synth.oracle_coverage")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cells(obj) -> int:
    if hasattr(obj, "scores"):
        return int(obj.scores.size)
    if hasattr(obj, "sorted"):
        return int(obj.sorted.size)
    return int(obj.n) * int(obj.n_classes)  # SynthSpec


class Tracer:
    """Wraps cset's layer functions and keeps spans and counters in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, maxrss rise or None]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.cells: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._sorted_keys: set = set()
        self._ranked: dict[int, weakref.ref] = {}

    # --- patching ---------------------------------------------------------

    def install(self) -> None:
        """Replace every target; raise LookupError if one has disappeared."""
        package = importlib.import_module("cset")
        modules = {name: importlib.import_module(f"cset.{name}") for name in LAYERS}
        namespaces = [package, *modules.values()]
        for module, path, short in TARGETS:
            owner = modules[module]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls, None)
            found = vars(owner).get(attr) if owner is not None else None
            if not callable(found):
                self.uninstall()
                raise LookupError(
                    f"traced layer function cset.{module}.{path} no longer exists; "
                    "update TARGETS in bench/tracer.py"
                )
            wrapper = self._wrap(f"{module}.{short}", found)
            if classes:
                self._patch(owner, attr, found, wrapper)
                continue
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is found:
                        self._patch(ns, name, found, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def new_pass(self) -> None:
        """Forget which sorts and ranked objects were seen (per-pass ratios)."""
        self._sorted_keys.clear()
        self._ranked.clear()

    # --- spans ------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn)
        counted = name in CELLS_FROM or name == "score_store.label_ranks"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            rss0 = _maxrss_mb() if parent is None else None
            record = [name, clock(), 0.0, parent, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if rss0 is not None:
                    record[4] = _maxrss_mb() - rss0
            if counted:
                self._count(name, signature.bind(*args, **kwargs).arguments, result, parent)
            return result

        return wrapper

    def _count(self, name, arguments, result, parent) -> None:
        record = [STATS_SPAN, time.perf_counter(), 0.0, parent, None]
        self.spans.append(record)
        source = CELLS_FROM.get(name)
        if source is not None:
            self.cells[name] += _cells(result if source == "result" else arguments[source])
        if name == "score_store.sort_scores":
            m = arguments["m"]
            digest = hashlib.sha1(np.ascontiguousarray(m.labels).tobytes()).hexdigest()
            key = (m.scores.shape, int(arguments.get("seed", 0)), digest)
            self.counts["sort_repeats"] += key in self._sorted_keys
            self._sorted_keys.add(key)
            srt = result.sorted
            self.counts["sort_ties"] += int(np.count_nonzero(srt[:, 1:] == srt[:, :-1]))
            self.counts["sort_pairs"] += srt.shape[0] * (srt.shape[1] - 1)
        elif name == "score_store.label_ranks":
            ss = arguments["self"]
            ref = self._ranked.get(id(ss))
            if ref is None or ref() is not ss:
                self._ranked[id(ss)] = weakref.ref(ss)
                self.counts["ranked_objects"] += 1
        record[2] = time.perf_counter()


def self_times(spans) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def summarize(tracer: Tracer, traced_ms: list[float], untraced_ms: list[float]) -> dict:
    """Per-layer metrics, per traced pass, keyed by the names in PER_LAYER.

    traced_ms and untraced_ms are the wall times of the traced and untraced
    passes; the overhead compares their medians.
    """
    n_passes = len(traced_ms)
    own = self_times(tracer.spans)
    calls: dict[str, int] = defaultdict(int)
    total_ms: dict[str, float] = defaultdict(float)
    self_ms: dict[str, float] = defaultdict(float)
    rss_rise: dict[str, float] = defaultdict(float)
    top_ms = 0.0
    for (name, start, end, parent, rise), own_s in zip(tracer.spans, own):
        calls[name] += 1
        total_ms[name] += (end - start) * 1e3
        self_ms[name] += own_s * 1e3
        if parent is None:
            top_ms += (end - start) * 1e3
            if rise is not None:
                rss_rise[name] = max(rss_rise[name], rise)

    out: dict[str, float] = {}
    for layer in LAYERS:
        prefix = layer + "."
        out[f"{layer}.calls"] = sum(c for n, c in calls.items() if n.startswith(prefix)) / n_passes
        out[f"{layer}.self_ms"] = sum(v for n, v in self_ms.items() if n.startswith(prefix)) / n_passes
    for name in FUNCTIONS:
        out[f"{name}.calls"] = calls[name] / n_passes
        out[f"{name}.self_ms"] = self_ms[name] / n_passes
    for name in CELLS_FROM:
        out[f"{name}.ms"] = total_ms[name] / n_passes
        out[f"{name}.cells"] = tracer.cells[name] / n_passes
    for name in TOP_LEVEL:
        out[f"{name}.maxrss_rise_mb"] = rss_rise[name]

    sorts = calls["score_store.sort_scores"]
    counts = tracer.counts
    out["score_store.sort_scores.repeat_ratio"] = counts["sort_repeats"] / sorts if sorts else 0.0
    out["score_store.sort_scores.tie_frac"] = (
        counts["sort_ties"] / counts["sort_pairs"] if counts["sort_pairs"] else 0.0)
    ranked = counts["ranked_objects"]
    out["score_store.label_ranks.calls_per_sorted"] = (
        calls["score_store.label_ranks"] / ranked if ranked else 0.0)
    fits = calls["platt.fit_temperature"]
    out["platt.fit_temperature.nll_calls"] = calls["platt.nll"] / fits if fits else 0.0
    out["trace.stats_ms"] = self_ms[STATS_SPAN] / n_passes
    traced, untraced = statistics.median(traced_ms), statistics.median(untraced_ms)
    out["trace.wall_ms"] = traced
    out["trace.untraced_wall_ms"] = untraced
    out["trace.accounted_frac"] = top_ms / sum(traced_ms)
    out["trace.overhead_frac"] = traced / untraced - 1.0
    return out


def self_time_table(tracer: Tracer, n_passes: int, limit: int = 25) -> list[tuple]:
    """(span name, calls, ms, self ms) per traced pass, largest self time first."""
    own = self_times(tracer.spans)
    rows: dict[str, list] = {}
    for (name, start, end, _, _), own_s in zip(tracer.spans, own):
        row = rows.setdefault(name, [name, 0, 0.0, 0.0])
        row[1] += 1
        row[2] += (end - start) * 1e3
        row[3] += own_s * 1e3
    table = sorted(rows.values(), key=lambda r: -r[3])[:limit]
    return [(n, c / n_passes, ms / n_passes, s / n_passes) for n, c, ms, s in table]


def _per_layer() -> tuple:
    rows = []
    for layer in LAYERS:
        rows += [(f"{layer}.calls", "count"), (f"{layer}.self_ms", "ms")]
    for name in FUNCTIONS:
        rows += [(f"{name}.calls", "count"), (f"{name}.self_ms", "ms")]
    for name in CELLS_FROM:
        rows += [(f"{name}.ms", "ms"), (f"{name}.cells", "cells")]
    rows += [(f"{name}.maxrss_rise_mb", "MB") for name in TOP_LEVEL]
    rows += [
        ("score_store.sort_scores.repeat_ratio", "ratio"),
        ("score_store.sort_scores.tie_frac", "ratio"),
        ("score_store.label_ranks.calls_per_sorted", "ratio"),
        ("platt.fit_temperature.nll_calls", "count"),
        ("trace.stats_ms", "ms"),
        ("trace.wall_ms", "ms"),
        ("trace.untraced_wall_ms", "ms"),
        ("trace.accounted_frac", "ratio"),
        ("trace.overhead_frac", "ratio"),
    ]
    return tuple(rows)


# Every per-layer metric name with its unit, in report order.
PER_LAYER = _per_layer()
