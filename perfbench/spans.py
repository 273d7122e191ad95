"""In-memory span tracing around the package's layer functions.

A :class:`Tracer` records one span per call of every wrapped function:
name, start and end (``perf_counter_ns``), the index of the enclosing span
and the current job id.  Wrappers are installed at every place a function
is looked up (``bench_cli`` imports several names directly, ``plaknn`` and
``baselines`` reach ``knn_index`` through the module attribute,
``membership_matrix`` is a method) and :meth:`Tracer.installed` restores
the originals on exit.  Nothing in the package is edited.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int | None
    job: str | None


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it covered by its children.

    Children may in principle overlap (they never do in single-threaded
    code), so the covered part is the union of child intervals clipped to
    the parent.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cursor = s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out.append(s.end - s.start - covered)
    return out


# Wrapped functions: (span name, sites).  A site is (module path, attribute
# path); the first site that exists gives the function, and every site that
# holds that same function gets the wrapper.
_SITES: list[tuple[str, list[tuple[str, str]]]] = [
    ("knn_index.sq_distance_chunk", [("plbag.knn_index", "sq_distance_chunk")]),
    ("knn_index.sq_distances", [("plbag.knn_index", "sq_distances")]),
    ("knn_index.nearest_order", [("plbag.knn_index", "nearest_order")]),
    (
        "plaknn.classify_batch_detail",
        [("plbag.plaknn", "classify_batch_detail"), ("plbag.bench_cli", "classify_batch_detail")],
    ),
    (
        "baselines.fixed_k_batch",
        [("plbag.baselines", "fixed_k_batch"), ("plbag.bench_cli", "fixed_k_batch")],
    ),
    (
        "baselines.aknn_batch",
        [("plbag.baselines", "aknn_batch"), ("plbag.bench_cli", "aknn_batch")],
    ),
    ("core.membership_matrix", [("plbag.core", "PartialDataset.membership_matrix")]),
    ("core.load_dataset", [("plbag.core", "load_dataset"), ("plbag.bench_cli", "load_dataset")]),
    (
        "core.bag_frequencies_at",
        [("plbag.core", "bag_frequencies_at"), ("plbag.theory", "bag_frequencies_at")],
    ),
    ("synth.kmeans_labels", [("plbag.synth", "kmeans_labels")]),
    ("synth.make_bags", [("plbag.synth", "make_bags"), ("plbag.bench_cli", "make_bags")]),
    ("synth.sample_points", [("plbag.synth", "AnalyticScenario.sample_points")]),
    ("synth.bag_masks_for", [("plbag.synth", "AnalyticScenario.bag_masks_for")]),
    (
        "synth.remove_truth_noise",
        [("plbag.synth", "remove_truth_noise"), ("plbag.bench_cli", "remove_truth_noise")],
    ),
    ("preprocess.fit", [("plbag.preprocess", "fit")]),
    ("preprocess.transform", [("plbag.preprocess", "transform")]),
    ("theory.advantage_report", [("plbag.theory", "advantage_report")]),
    ("theory.is_label_aligned_process", [("plbag.theory", "is_label_aligned_process")]),
    ("theory.is_reconstructible", [("plbag.theory", "is_reconstructible")]),
    ("bench_cli.parse_config", [("plbag.bench_cli", "parse_config")]),
    ("bench_cli.load_distribution", [("plbag.bench_cli", "load_distribution")]),
    ("bench_cli.emit", [("plbag.bench_cli", "emit")]),
    ("bench_cli.run", [("plbag.bench_cli", "run")]),
    ("bench_cli._run_job", [("plbag.bench_cli", "_run_job")]),
    ("bench_cli.theory_report", [("plbag.bench_cli", "theory_report")]),
]


def _resolve(module: str, attr: str):
    """(owner object, attribute name) for a dotted attribute path, or None."""
    owner = importlib.import_module(module)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if last not in vars(owner):
        return None
    return owner, last


@contextmanager
def _patched(names: list[str], make_wrapper: Callable[[Callable, str], Callable]):
    """Replace each named function at every site that holds it; restore on exit."""
    sites = dict(_SITES)
    restore: list[tuple[object, str, object]] = []
    try:
        for name in names:
            found = [r for r in (_resolve(m, a) for m, a in sites[name]) if r is not None]
            if not found:
                continue  # the layer no longer exists under this name
            original = vars(found[0][0])[found[0][1]]
            wrapper = make_wrapper(original, name)
            for owner, attr in found:
                if vars(owner)[attr] is original:
                    restore.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


@contextmanager
def capture_plaknn_calls(into: list):
    """Append ``(train, index, queries, config)`` of every plaknn batch call."""

    def make_wrapper(fn: Callable, name: str) -> Callable:
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            a = sig.bind(*args, **kwargs).arguments
            into.append((a["train"], a["index"], a["queries"], a["config"]))
            return fn(*args, **kwargs)

        return wrapper

    with _patched(["plaknn.classify_batch_detail"], make_wrapper):
        yield


class Tracer:
    """Collects spans, exact counters and captured plaknn results in memory."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.plaknn_calls: list[tuple[np.ndarray, np.ndarray, int]] = []
        self.job: str | None = None
        self._stack: list[int] = []

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, fn: Callable, name: str) -> Callable:
        before, after = _HOOKS.get(name, (None, None))
        sig = inspect.signature(fn) if before or after else None
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments if sig is not None else None
            if before is not None:
                before(self, bound)
            parent = stack[-1] if stack else None
            job = self.job
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, job)
            if after is not None:
                after(self, bound, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the original attributes on exit."""
        with _patched([name for name, _ in _SITES], self.wrap):
            yield self

    def write(self, path: Path) -> None:
        """Spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.job]) + "\n")


def _set_job(tracer: Tracer, args: dict) -> None:
    tracer.job = f"noise={args['noise']:.6g} rep={args['rep']}"


def _count_distances(tracer: Tracer, args: dict, result) -> None:
    index = args["index"]
    m = 1 if "query" in args else np.asarray(args["queries"]).shape[0]
    pairs = m * index.n
    tracer.count("knn_index.distance_pairs", pairs)
    tracer.count("knn_index.distance_bytes", 8 * pairs * index.dim)


def _keep_iterations(tracer: Tracer, args: dict, result) -> None:
    cap = min(args["config"].T, args["train"].n)
    tracer.plaknn_calls.append((np.asarray(result.iterations), np.asarray(result.disambiguated), cap))


def _count_emitted(tracer: Tracer, args: dict, result) -> None:
    written = sum(p.stat().st_size for p in Path(args["out_dir"]).iterdir() if p.is_file())
    tracer.count("bench_cli.emit_bytes", written)


# span name -> (hook before the call, hook after it); hooks see bound arguments
_HOOKS = {
    "bench_cli._run_job": (_set_job, None),
    "knn_index.sq_distance_chunk": (None, _count_distances),
    "knn_index.sq_distances": (None, _count_distances),
    "plaknn.classify_batch_detail": (None, _keep_iterations),
    "bench_cli.emit": (None, _count_emitted),
}


# Per-layer time metrics: metric name -> span names whose self time it sums.
SELF_TIME_METRICS = {
    "knn_index.distance_s": ("knn_index.sq_distance_chunk", "knn_index.sq_distances"),
    "knn_index.select_s": ("knn_index.nearest_order",),
    "plaknn.self_s": ("plaknn.classify_batch_detail",),
    "baselines.fixed_k_s": ("baselines.fixed_k_batch",),
    "baselines.aknn_s": ("baselines.aknn_batch",),
    "core.membership_matrix_s": ("core.membership_matrix",),
    "core.load_dataset_s": ("core.load_dataset",),
    "core.bag_frequencies_at_s": ("core.bag_frequencies_at",),
    "synth.kmeans_labels_s": ("synth.kmeans_labels",),
    "synth.make_bags_s": ("synth.make_bags",),
    "synth.sample_s": ("synth.sample_points", "synth.bag_masks_for"),
    "synth.remove_truth_noise_s": ("synth.remove_truth_noise",),
    "preprocess.fit_s": ("preprocess.fit",),
    "preprocess.transform_s": ("preprocess.transform",),
    "theory.advantage_report_s": ("theory.advantage_report",),
    "theory.is_label_aligned_process_s": ("theory.is_label_aligned_process",),
    "theory.is_reconstructible_s": ("theory.is_reconstructible",),
    "bench_cli.parse_config_s": ("bench_cli.parse_config",),
    "bench_cli.load_distribution_s": ("bench_cli.load_distribution",),
    "bench_cli.emit_s": ("bench_cli.emit",),
    "bench_cli.harness_s": ("bench_cli.run", "bench_cli._run_job", "bench_cli.theory_report"),
}

# Per-layer call counts: metric name -> span name.
CALL_COUNT_METRICS = {
    "knn_index.select_calls": "knn_index.nearest_order",
    "core.membership_matrix.calls": "core.membership_matrix",
    "core.bag_frequencies_at.calls": "core.bag_frequencies_at",
}

# Exact counters kept by the hooks, with their units.
COUNTER_METRICS = {
    "knn_index.distance_pairs": "count",
    "knn_index.distance_bytes": "bytes",
    "bench_cli.emit_bytes": "bytes",
}

# plaknn behaviour descriptors: (unit, better).
PLAKNN_METRICS = {
    "plaknn.iters.p50": ("iterations", "lower"),
    "plaknn.iters.p90": ("iterations", "lower"),
    "plaknn.iters.max": ("iterations", "lower"),
    "plaknn.cap_hit_frac": ("ratio", "lower"),
    "plaknn.disamb_frac": ("ratio", "lower"),
    "plaknn.lockstep_util": ("ratio", "higher"),
}

# Every per-layer metric a traced run prints: name -> (unit, better).
PER_LAYER = {
    **{m: ("s", "lower") for m in SELF_TIME_METRICS},
    **{m: ("count", "lower") for m in CALL_COUNT_METRICS},
    **{m: (unit, "lower") for m, unit in COUNTER_METRICS.items()},
    **PLAKNN_METRICS,
    "trace_overhead_frac": ("ratio", "lower"),
}

# Metrics that must repeat exactly between traced grids of one seed.
EXACT_METRICS = (*CALL_COUNT_METRICS, *COUNTER_METRICS, *PLAKNN_METRICS)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self times (seconds), exact counts and plaknn descriptors of one trace.

    A layer that did not run reads 0.
    """
    selfs = self_times(tracer.spans)
    by_name: dict[str, int] = {}
    calls: dict[str, int] = {}
    for s, t in zip(tracer.spans, selfs):
        by_name[s.name] = by_name.get(s.name, 0) + t
        calls[s.name] = calls.get(s.name, 0) + 1
    out: dict[str, float] = {
        metric: sum(by_name.get(n, 0) for n in names) / 1e9
        for metric, names in SELF_TIME_METRICS.items()
    }
    out.update({metric: calls.get(n, 0) for metric, n in CALL_COUNT_METRICS.items()})
    out.update({metric: tracer.counts.get(metric, 0) for metric in COUNTER_METRICS})
    out.update(plaknn_metrics(tracer.plaknn_calls))
    return out


LOCKSTEP_BLOCK = 256  # fixed here so the descriptor means the same on every commit


def plaknn_metrics(calls: list[tuple[np.ndarray, np.ndarray, int]]) -> dict[str, float]:
    """Iteration distribution over every plaknn query of a trace.

    Each call is ``(iterations, disambiguated, cap)``.  ``lockstep_util`` is
    the share of useful slots when queries advance in fixed blocks of
    ``LOCKSTEP_BLOCK`` that each run until their slowest query is done: the
    sum of iterations over the sum, per block, of block size times block max
    iterations.  Blocks never span two calls.
    """
    if not calls:
        return dict.fromkeys(PLAKNN_METRICS, 0.0)
    its = np.concatenate([c[0] for c in calls])
    caps = np.concatenate([np.full(c[0].shape, c[2]) for c in calls])
    useful = slots = 0
    for it, _, _ in calls:
        for start in range(0, it.shape[0], LOCKSTEP_BLOCK):
            block = it[start : start + LOCKSTEP_BLOCK]
            useful += int(block.sum())
            slots += block.shape[0] * int(block.max())
    return {
        "plaknn.iters.p50": float(np.percentile(its, 50)),
        "plaknn.iters.p90": float(np.percentile(its, 90)),
        "plaknn.iters.max": float(its.max()),
        "plaknn.cap_hit_frac": float((its >= caps).mean()),
        "plaknn.disamb_frac": float(np.concatenate([c[1] for c in calls]).mean()),
        "plaknn.lockstep_util": useful / slots,
    }
