"""Experiment harness and command-line interface.

``bench run`` executes a (noise level x repetition) grid of train/test
splits for one dataset or synthetic scenario, classifies the held-out
points with each configured method, and writes ``results.csv`` plus
``summary.csv``.  ``bench synth`` emits a generated dataset as CSV, and
``bench theory`` prints identifiability, alignment and advantage reports
for a serialized finite-support distribution.

Config files are flat ``key = value`` text with sections ``[experiment]``,
``[plaknn]``, ``[synth]`` and ``[pipeline]``.  A section's keys are the
fields of its dataclass (``ExperimentConfig`` without its three section
fields, ``PlaknnConfig``, ``SynthBagConfig``, ``PipelineConfig``), converted
by their annotations; unknown sections or keys are errors.  The pipeline's
``variant`` is ``none`` or a ``PipelineConfig`` variant name.

The meaning of the noise grid depends on the data source: for CSV datasets
each level is the truth-removal rate, for synthetic scenarios it is the
anchor-corruption probability used during bag generation.

Every stochastic choice of repetition r flows from seed ``base_seed + r``,
so reruns of the same config produce byte-identical CSV files (wall-clock
timings are only written when ``timings = true``).  The noise level changes
only the training bags, so a repetition builds the rest once and shares it
across noise levels and methods: the split and scenario sample, the k-means
clustering of ``make_bags`` scenarios, the pipeline fit and transform, the
neighbor index, and the neighbor search of the test points.  Each noise
level draws its bags from the generator state the shared steps left, which
is exactly what a fresh repetition at that level would draw.

The search reaches the deepest neighbor count any method needs, in one or
two steps.  Where ``knn_index`` prefilters a shallower search that still
covers ``fixed_k`` (``knn_index.prefilter_depth``), every job first
classifies all test points from that search, with plaknn and aknn capped at
its depth; the test points that plaknn or aknn of any job leave undecided
at the cap are searched again, full depth, and every job classifies them
again.  Thresholds depend on the neighbor count alone, so the capped run is
a prefix of the full one and the outputs equal those of one full-depth
search.  Each search comes as int32 orders for batches of test points from
``plaknn._order_batches``, the batching every classifier call uses (all
1,000 test points of a 5,000-point ``gaussian_clusters`` sample at T = 400
are one batch), which ``knn_index.search`` writes in place, one call per
batch.  Every (noise level, method) job classifies a batch in one call
before the next batch is searched, reading each test point's bags as
membership rows through a prefix of the batch's order.  So a repetition
holds one batch's order and one distance tile, never an order for all
test points, and no bag tensor.  ``wall_time_ms`` sums one job's classification
over the batches and excludes the shared work.
"""

from __future__ import annotations

import argparse
import copy
import csv
import operator
import sys
import time
import warnings
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from . import knn_index, preprocess, theory
from .baselines import _aknn, fixed_k_batch
from .core import (
    MAX_ENUMERABLE_LABELS,
    Atom,
    BagGenMatrix,
    DataFormatError,
    DiscreteDistribution,
    LabelDistribution,
    LabelSpace,
    PartialDataset,
    load_dataset,
    save_dataset,
)
from .plaknn import PlaknnConfig, _neighbor_cap, _order_batches, classify_batch_detail
from .synth import (
    SCENARIOS,
    AnalyticScenario,
    SynthBagConfig,
    analytic_scenario,
    bag_clusters,
    draw_bags,
    make_bags,
    remove_truth_noise,
)

METHODS = ("plaknn", "aknn", "fixed_k")

# Largest scenario sample, and the most rows bench run takes from a dataset.
# Besides O(n d) arrays (the sample, the index, the bags of each noise
# level, the job records' labels of the test points), a repetition holds
# one batch of test points and one distance tile at a time.  The batch is
# an int32 (rows, depth) order with depth <= n_train, which the search
# writes in place, the classifiers' O(c) state per row, and aknn's counts of
# the columns it reads at once, at most 4 MiB unless one column's are more.
# The tile is the search's float64 distances of as many query rows as fit
# about 256 KB, at least one (640 KB at 80,000 training points), with those
# rows' order and distances.  plaknn._batch_rows keeps a batch's order and
# state within 4 MiB in every classifier call, unless it falls to its
# 256-row floor, as batches (c = 10) do from a depth of about 3,940.  So at
# 80,000 training points the batch's order is at most 82 MB and the tile
# under 2 MB.  The k-means of make_bags holds (synth.MAX_CLUSTERS = 256, n)
# float64 distances beside its index's two copies of the points: 164 MB at
# 80,000 points, and 205 MB for the 100,000 points of bench synth.  Each noise level
# adds its training bags (8 bytes per training point) and, per method, the
# int64 labels of every test point (plaknn also keeps their iteration
# counts): 1.28 MB per level at 80,000 training and 20,000 test points with
# all three methods.  ``--dump-predictions`` keeps each job's labels, one
# byte per test point, and each repetition's test truths, 8 bytes per test
# point, and ``run`` holds every repetition's until ``emit`` writes them: at
# train_fraction 0.8, 20,000 test points x 3 methods x 128 levels are
# 7.68 MB per repetition, 768 MB at MAX_REPETITIONS; at train_fraction 0.01
# (99,000 test points) about 38 MB per repetition.
MAX_SAMPLES = 100_000

# Longest noise grid.  A repetition holds every level's bags and job outputs
# at once, so 128 levels hold about 164 MB at MAX_SAMPLES.
MAX_NOISE_LEVELS = 128

# Most repetitions: criterion 07 runs 50 and the default is 20.  Dumped
# predictions grow with it (see MAX_SAMPLES).
MAX_REPETITIONS = 100


class ConfigError(ValueError):
    """A config file names an unknown key or an invalid value."""


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str | None = None
    dataset: str | None = None
    methods: tuple[str, ...] = ("plaknn",)
    fixed_k: int = 10
    noise_grid: tuple[float, ...] = (0.0,)
    train_fraction: float = 0.8
    repetitions: int = 20
    base_seed: int = 0
    n_samples: int = 2000
    timings: bool = False
    plaknn: PlaknnConfig = field(default_factory=PlaknnConfig)
    synth: SynthBagConfig = field(default_factory=SynthBagConfig)
    pipeline: preprocess.PipelineConfig | None = None

    def __post_init__(self) -> None:
        if (self.scenario is None) == (self.dataset is None):
            raise ConfigError("exactly one of 'scenario' and 'dataset' must be set")
        if self.scenario is not None and self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")
        if not self.methods:
            raise ConfigError("at least one method is required")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; choose from {METHODS}")
        if len(set(self.methods)) < len(self.methods):
            raise ConfigError(f"methods must be distinct, got {self.methods}")
        if self.fixed_k < 1:
            raise ConfigError(f"fixed_k must be >= 1, got {self.fixed_k}")
        if not self.noise_grid:
            raise ConfigError("at least one noise level is required")
        if len(self.noise_grid) > MAX_NOISE_LEVELS:
            raise ConfigError(
                f"at most {MAX_NOISE_LEVELS} noise levels are allowed, got {len(self.noise_grid)}"
            )
        for v in self.noise_grid:
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"noise level {v} outside [0, 1]")
        # a set holds 0.0 and -0.0 once
        if len(set(self.noise_grid)) < len(self.noise_grid):
            raise ConfigError(f"noise levels must be distinct, got {self.noise_grid}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if not 1 <= self.repetitions <= MAX_REPETITIONS:
            raise ConfigError(f"repetitions must be in 1..{MAX_REPETITIONS}, got {self.repetitions}")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed}")
        if self.scenario is not None and not 10 <= self.n_samples <= MAX_SAMPLES:
            raise ConfigError(f"n_samples must be in 10..{MAX_SAMPLES}, got {self.n_samples}")


@dataclass(frozen=True)
class ResultRow:
    method: str
    noise: float
    repetition: int
    seed: int
    n_train: int
    error_rate: float
    mean_iterations: float | None
    wall_time_ms: float


@dataclass(frozen=True)
class SummaryRow:
    method: str
    noise: float
    mean_error: float
    std_error: float
    n_reps: int


@dataclass(frozen=True)
class PredictionRow:
    method: str
    noise: float
    repetition: int
    index: int
    truth: int
    predicted: int


@dataclass
class RunResult:
    """A grid's result rows, sorted by (method, noise, repetition), and its
    summary.  ``predictions`` is ``None`` unless predictions were dumped; then
    it holds one ``(truths, labels)`` pair per entry of ``rows``, in the same
    order: the repetition's test truths and the job's uint8 predicted labels,
    both in test-point order.  :func:`emit` expands each pair into the job's
    :class:`PredictionRow` lines."""

    rows: list[ResultRow]
    summary: list[SummaryRow]
    predictions: list[tuple[np.ndarray, np.ndarray]] | None


# ---------------------------------------------------------------------------
# Experiment execution
# ---------------------------------------------------------------------------


def _n_train(n: int, fraction: float) -> int:
    return min(n - 1, max(1, int(round(fraction * n))))


def _split(n: int, fraction: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    n_train = _n_train(n, fraction)
    perm = rng.permutation(n)
    return perm[:n_train], perm[n_train:]


def _split_rep(
    config: ExperimentConfig,
    source: PartialDataset | AnalyticScenario,
    rng: np.random.Generator,
) -> tuple[list[PartialDataset], np.ndarray, np.ndarray]:
    """Split one repetition into (training sets, test features, test truths),
    where ``trains[i]`` is the training set at ``config.noise_grid[i]``.

    Everything but the bags is drawn once: the split, the scenario sample
    and the k-means clustering.  Each noise level's bags continue the
    generator from the same post-split state, so they equal what a fresh
    repetition at that noise level would draw.  Every training set shares
    one feature matrix and one truth vector.
    """
    if isinstance(source, PartialDataset):
        train_idx, test_idx = _split(source.n, config.train_fraction, rng)
        clean = source.subset(train_idx)
        noise_seed = int(rng.integers(2**63))
        trains = [
            remove_truth_noise(clean, v, seed=noise_seed) if v > 0.0 else clean
            for v in config.noise_grid
        ]
        return trains, source.features[test_idx], source.truths[test_idx]

    x, y = source.sample_points(config.n_samples, rng)
    train_idx, test_idx = _split(config.n_samples, config.train_fraction, rng)
    train_x, train_y = x[train_idx], y[train_idx]
    # fresh arrays, made read-only once so every noise level shares them uncopied
    train_x.flags.writeable = train_y.flags.writeable = False
    if source.has_bag_process:
        masks = [
            source.bag_masks_for(train_x, train_y, copy.deepcopy(rng), noise_nu=v)
            for v in config.noise_grid
        ]
        trains = [PartialDataset(train_x, m, source.label_space, truths=train_y) for m in masks]
    else:
        synth = replace(config.synth, seed=int(rng.integers(2**63)))
        clustered = bag_clusters(train_x, train_y, source.label_space, synth)
        trains = [draw_bags(clustered, replace(synth, noise_nu=v)) for v in config.noise_grid]
    return trains, x[test_idx], y[test_idx]


def _batch_calls(config: ExperimentConfig, index: knn_index.NeighborIndex) -> dict[str, tuple]:
    """Each method's neighbor depth and its call ``(train, queries, order, t)``
    on one batch of test points whose order is ``t`` deep.  A call gives the
    batch's labels, plaknn's iterations (None for the other methods) and the
    rows it leaves undecided: those that plaknn or aknn, capped at t < T,
    would read past the t-th neighbor.

    Every threshold depends on the neighbor count k alone, so a run capped
    at t is the first t steps of the run capped at T: a plaknn row that
    settles within t steps, and an aknn row that qualifies within them, get
    the labels and iterations of the full run.
    """
    cap = config.plaknn.T

    def plaknn(train, queries, order, t):
        capped = replace(config.plaknn, T=min(t, cap))
        detail = classify_batch_detail(train, index, queries, capped, order=order)
        undecided = (t < cap) & detail.disambiguated & (detail.iterations == t)
        return detail.labels, detail.iterations, undecided

    def aknn(train, queries, order, t):
        capped = replace(config.plaknn, T=min(t, cap))
        labels, steps = _aknn(train, index, queries, capped, order=order)
        return labels, None, (t < cap) & (steps == 0)

    def fixed_k(train, queries, order, t):
        labels = fixed_k_batch(train, index, queries, config.fixed_k, order=order)
        return labels, None, np.zeros(labels.shape, dtype=bool)

    return {"plaknn": (cap, plaknn), "aknn": (cap, aknn), "fixed_k": (config.fixed_k, fixed_k)}


@dataclass
class _Job:
    """One (noise level, method) job: its training set and batch call, the
    labels its calls gave each test point (and plaknn's iterations, else
    None), and their summed wall time."""

    noise: float
    method: str
    train: PartialDataset
    call: Callable[..., tuple]
    labels: np.ndarray
    iterations: np.ndarray | None
    wall_ms: float = 0.0


def _classify_rows(
    jobs: list[_Job], index: knn_index.NeighborIndex, queries: np.ndarray, rows: np.ndarray, t: int, c: int
) -> np.ndarray:
    """Classify ``queries``, the test points ``rows``, with every job, from a
    search ``t`` deep that comes in batches (``plaknn._order_batches``), and
    write each job's outputs at those points.  Every job classifies a batch,
    one call each, before the next batch is searched.  Returns the points that
    some job left undecided."""
    undecided = np.zeros(rows.shape[0], dtype=bool)
    for batch, order in _order_batches(index, queries, t, c):
        at = rows[batch]
        for job in jobs:
            started = time.perf_counter()
            labels, iterations, left = job.call(job.train, queries[batch], order, t)
            job.wall_ms += (time.perf_counter() - started) * 1000.0
            job.labels[at] = labels
            if iterations is not None:
                job.iterations[at] = iterations
            undecided[batch] |= left
    return rows[undecided]


def _run_rep(
    config: ExperimentConfig,
    source: PartialDataset | AnalyticScenario,
    rep: int,
    dump_predictions: bool,
) -> list[tuple[ResultRow, tuple[np.ndarray, np.ndarray] | None]]:
    """Every (noise level, method) job of repetition ``rep``, one :class:`_Job`
    each, as its result row and, when ``dump_predictions`` is set, the
    repetition's test truths (one array shared by every job) and the job's
    uint8 labels; without it no label array outlives the repetition.

    The split, the features, the pipeline, the index and the neighbor
    searches of the test points are shared by all jobs; only the bags
    depend on the noise level, so the index and any pipeline are built from
    the first training set's features, and a pipeline rebinds every training
    set to the index's points.  The test points are searched as deep as
    ``knn_index`` prefilters, when that covers ``fixed_k`` and falls short
    of T, else as deep as the deepest method reads.  Every job classifies
    them from that search, and the points that plaknn or aknn of any job
    left undecided are searched again, full depth, and classified again by
    every job.
    """
    seed = config.base_seed + rep
    trains, test_x, test_y = _split_rep(config, source, np.random.default_rng(seed))
    if config.pipeline is None:
        index = knn_index.build(trains[0].features)
    else:
        try:
            fitted = preprocess.fit(trains[0].features, config.pipeline)
        except ValueError as exc:
            raise DataFormatError(f"feature pipeline, repetition {rep}: {exc}") from exc
        test_x = preprocess.transform(fitted, test_x)
        index = knn_index.build(fitted.transformed_train)
        # the index's read-only copy: every noise level shares it uncopied
        trains = [train.with_features(index.points) for train in trains]
    calls = _batch_calls(config, index)
    m = test_x.shape[0]
    jobs = [
        _Job(noise, method, train, calls[method][1], np.empty(m, np.int64),
             np.empty(m, np.int64) if method == "plaknn" else None)
        for noise, train in zip(config.noise_grid, trains)
        for method in config.methods
    ]
    # deep enough for every method: each one reads its own prefix
    depth = max(calls[method][0] for method in config.methods)
    # plaknn and aknn stop each test point on its own evidence, most of them
    # early; fixed_k reads a fixed prefix, which the first search must cover
    shallow = knn_index.prefilter_depth(index.n, index.dim)
    floor = config.fixed_k if "fixed_k" in config.methods else 1
    first = shallow if floor <= shallow < depth else depth
    c = trains[0].label_space.c
    deep = _classify_rows(jobs, index, test_x, np.arange(m), first, c)
    if deep.size:
        _classify_rows(jobs, index, test_x[deep], deep, depth, c)
    results = []
    for job in jobs:
        mean_iters = None if job.iterations is None else float(job.iterations.mean())
        error = float((job.labels != test_y).mean())
        row = ResultRow(job.method, job.noise, rep, seed, job.train.n, error, mean_iters, job.wall_ms)
        # labels are 1..c with c <= MAX_LABELS = 64, so one byte each
        results.append((row, (test_y, job.labels.astype(np.uint8)) if dump_predictions else None))
    return results


def _check_neighbor_counts(config: ExperimentConfig, n_train: int, c: int, dim: int) -> ExperimentConfig:
    """Reject neighbor counts that a training split of n_train points cannot
    supply, and thresholds under which no label can ever be eliminated.

    A label's count gap over k neighbors is at most k, so a threshold above 1
    eliminates nothing; thresholds fall as k grows, so the one at the
    largest k decides.  Returns ``config`` with T cut to n_train, so the
    classifiers do not warn on every call; :func:`run` warns once instead.
    """
    if "fixed_k" in config.methods and config.fixed_k > n_train:
        raise ConfigError(f"fixed_k = {config.fixed_k} exceeds the {n_train} training points")
    if config.pipeline is not None:
        k = max(config.pipeline.smoothing_k, config.pipeline.density_k)
        if k >= n_train:
            raise ConfigError(f"pipeline needs more than {k} training points, got {n_train}")
    if {"plaknn", "aknn"} & set(config.methods):
        k = min(config.plaknn.T, n_train)
        value = config.plaknn.threshold(n_train, k, c, dim)
        if value > 1.0:
            raise ConfigError(
                f"[plaknn] the threshold at k = {k} is {value:.6g} > 1, so no label can"
                " ever be eliminated; lower c1 or d0"
            )
        config = replace(config, plaknn=replace(config.plaknn, T=min(config.plaknn.T, n_train)))
    return config


def _load_source(config: ExperimentConfig) -> PartialDataset | AnalyticScenario:
    if config.dataset is not None:
        data = load_dataset(config.dataset)
        if data.truths is None:
            raise DataFormatError(
                f"{config.dataset}: experiments need the ground-truth column 'y'"
            )
        if data.n < 2:
            raise DataFormatError(
                f"{config.dataset}: experiments need at least 2 rows, got {data.n}"
            )
        if data.n > MAX_SAMPLES:
            raise DataFormatError(
                f"{config.dataset}: experiments take at most {MAX_SAMPLES} rows, got {data.n}"
            )
        # every squared distance, and every squared norm after centering, is
        # at most the squared diagonal; past the neighbor search's norm limit
        # squared distances overflow and every far pair ties
        with np.errstate(over="ignore"):
            span = data.features.max(axis=0) - data.features.min(axis=0)
            diagonal = float(np.sum(span * span))
        if not diagonal <= knn_index._SQ_NORM_LIMIT:
            raise DataFormatError(
                f"{config.dataset}: the features' bounding box has a squared diagonal of"
                f" {diagonal:.6g}, over the limit of {knn_index._SQ_NORM_LIMIT:.6g}"
            )
        # without a pipeline the raw features are ranked: when even the largest
        # span squares below the smallest normal float, squared distances lose
        # their precision or flush to 0 and neighbors tie
        largest = float(span.max())
        tiny = float(np.finfo(float).tiny)
        if config.pipeline is None and largest > 0.0 and largest * largest < tiny:
            raise DataFormatError(
                f"{config.dataset}: the features' largest span {largest:.6g} squares below"
                f" the smallest normal float {tiny:.6g}, so squared distances underflow"
            )
        return data
    return analytic_scenario(config.scenario)


def run(config: ExperimentConfig, dump_predictions: bool = False) -> RunResult:
    """Execute the full (noise x repetition) grid, one repetition after
    another, and summarize it."""
    source = _load_source(config)
    if isinstance(source, PartialDataset):
        n, dim = source.n, source.dim
    else:
        n, dim = config.n_samples, source.means.shape[1]
    n_train = _n_train(n, config.train_fraction)
    checked = _check_neighbor_counts(config, n_train, source.label_space.c, dim)
    reps = (_run_rep(checked, source, rep, dump_predictions) for rep in range(config.repetitions))
    jobs = [job for rep_jobs in reps for job in rep_jobs]
    # a T above n_train warns only once every repetition has succeeded, so a
    # run that fails prints its one error line alone
    if checked.plaknn.T < config.plaknn.T:
        _neighbor_cap(config.plaknn.T, n_train)

    # each job's labels are in index order, so this one sort orders predictions too
    jobs.sort(key=lambda job: (job[0].method, job[0].noise, job[0].repetition))
    rows = [row for row, _ in jobs]
    predictions = [pred for _, pred in jobs] if dump_predictions else None

    summary: list[SummaryRow] = []
    for method in config.methods:
        for noise in config.noise_grid:
            errs = [r.error_rate for r in rows if r.method == method and r.noise == noise]
            mean = float(np.mean(errs))
            std = float(np.std(errs, ddof=1)) if len(errs) > 1 else 0.0
            summary.append(SummaryRow(method, noise, mean, std, len(errs)))
    return RunResult(rows=rows, summary=summary, predictions=predictions)


def _fmt(value: float) -> str:
    return format(value, ".6g")


# Output cells keyed by field annotation (a string under postponed evaluation).
_CELLS = {"float": _fmt, "float | None": lambda v: "" if v is None else _fmt(v),
          "int": lambda v: v, "str": lambda v: v}


def _table(cls: type, rows: Iterable, timings: bool = False) -> Iterator[list]:
    """The field names of the row dataclass ``cls``, then the cells of each of
    ``rows``, any iterable of ``cls`` instances, read once; ``wall_time_ms``
    cells are empty unless ``timings`` is set."""
    names = [f.name for f in fields(cls)]
    yield names
    cells = [_CELLS[f.type] for f in fields(cls)]
    if not timings and "wall_time_ms" in names:
        cells[names.index("wall_time_ms")] = lambda v: ""
    for values in map(operator.attrgetter(*names), rows):
        yield [cell(v) for cell, v in zip(cells, values)]


def emit(result: RunResult, out_dir: str | Path, timings: bool = False) -> None:
    """Write results.csv and summary.csv (and predictions.csv when dumped).

    Timing columns are left empty unless requested so that reruns of the
    same config produce byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    predictions = None if result.predictions is None else (
        PredictionRow(row.method, row.noise, row.repetition, i, truth, label)
        for row, (truths, labels) in zip(result.rows, result.predictions, strict=True)
        for i, (truth, label) in enumerate(zip(truths.tolist(), labels.tolist()))
    )
    for name, cls, rows in [("results.csv", ResultRow, result.rows),
                            ("summary.csv", SummaryRow, result.summary),
                            ("predictions.csv", PredictionRow, predictions)]:
        if rows is not None:
            with (out / name).open("w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(_table(cls, rows, timings))


# ---------------------------------------------------------------------------
# Config file parsing
# ---------------------------------------------------------------------------

def _read_text(path: Path, error: type[ValueError]) -> str:
    """The file's text; bytes that do not decode raise ``error``."""
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: unreadable text: {exc}") from None


def _parse_sections(path: Path) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {name: {} for name in _SECTION_FIELDS}
    current: str | None = None
    for lineno, raw in enumerate(_read_text(path, ConfigError).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTION_FIELDS:
                raise ConfigError(f"{path}:{lineno}: unknown section [{current}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside any section")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SECTION_FIELDS[current]:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in section [{current}]")
        if key in sections[current]:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        sections[current][key] = value.strip()
    return sections


def _to_bool(value: str, key: str) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"key {key!r}: expected a boolean, got {value!r}")


def _to_float(value: str, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {value!r}") from None


def _to_int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {value!r}") from None


def _to_str(value: str, key: str) -> str:
    return value


def _to_tuple(item):
    """Comma-separated items; empty ones are dropped."""
    return lambda value, key: tuple(item(v.strip(), key) for v in value.split(",") if v.strip())


# Converters keyed by field annotation (a string under postponed evaluation).
_CONVERTERS = {
    "int": _to_int, "int | None": _to_int, "float": _to_float, "float | None": _to_float,
    "bool": _to_bool, "str": _to_str, "str | None": _to_str,
    "tuple[str, ...]": _to_tuple(_to_str), "tuple[float, ...]": _to_tuple(_to_float),
}

_SECTION_CLASSES = {"experiment": ExperimentConfig, "plaknn": PlaknnConfig,
                    "synth": SynthBagConfig, "pipeline": preprocess.PipelineConfig}

# section -> {key: converter} in field-declaration order; the experiment
# fields that hold the other sections are not keys
_SECTION_FIELDS = {
    section: {f.name: _CONVERTERS[f.type] for f in fields(cls) if f.name not in _SECTION_CLASSES}
    for section, cls in _SECTION_CLASSES.items()
}


def _build(section: str, factory, values: dict[str, str]):
    """``factory`` called on the values converted in field-declaration order;
    its ValueError names the section."""
    keys = _SECTION_FIELDS[section]
    kwargs = {key: convert(values[key], key) for key, convert in keys.items() if key in values}
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"section [{section}]: {exc}") from exc


def parse_config(path: str | Path) -> ExperimentConfig:
    """Parse a config file into an :class:`ExperimentConfig`."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    sections = _parse_sections(path)
    # the experiment values are converted first and validated last
    kwargs = _build("experiment", dict, sections["experiment"])
    kwargs["plaknn"] = _build("plaknn", PlaknnConfig, sections["plaknn"])
    kwargs["synth"] = _build("synth", SynthBagConfig, sections["synth"])
    pipe = sections["pipeline"]
    if pipe.get("variant", "none") == "none":
        if set(pipe) - {"variant"}:
            raise ConfigError("pipeline keys given but variant is 'none'")
        kwargs["pipeline"] = None
    else:
        kwargs["pipeline"] = _build("pipeline", preprocess.PipelineConfig, pipe)
    return ExperimentConfig(**kwargs)


# ---------------------------------------------------------------------------
# Serialized finite-support distributions (for `bench theory`)
# ---------------------------------------------------------------------------

# Every atom holds a dense (2^c - 1, c) float64 bag table; a file may ask for
# at most this many bytes of them in total.
MAX_BAG_TABLE_BYTES = 1 << 25


def load_distribution(path: str | Path) -> DiscreteDistribution:
    """Parse the plain-text atom listing format.

    The file starts with ``labels <c>``; each ``atom`` block then gives
    ``location``, ``mass``, ``probs`` (the c label probabilities) and one
    ``bagrow <labels;...> v1 ... vc`` line per bag with nonzero probability.
    A ``bagdefault identity`` line inside a block fills any all-zero column
    with the singleton-of-the-true-label process, which keeps files short
    when only one label's bag behavior matters.  The atoms are counted first:
    a file whose bag tables would exceed ``MAX_BAG_TABLE_BYTES`` in total is
    refused before any table is built.
    """
    path = Path(path)
    # unsplit until their block is parsed: all lines' words take ~3x the memory
    lines = [
        (lineno, line)
        for lineno, raw in enumerate(_read_text(path, DataFormatError).splitlines(), start=1)
        if (line := raw.strip()) and not line.startswith("#")
    ]
    if not lines or lines[0][1].split()[0] != "labels":
        raise DataFormatError(f"{path}: first directive must be 'labels <c>'")
    try:
        c = int(lines[0][1].split()[1])
    except (IndexError, ValueError):
        raise DataFormatError(f"{path}: malformed labels directive") from None
    if not 2 <= c <= MAX_ENUMERABLE_LABELS:
        raise DataFormatError(f"{path}: labels must be in 2..{MAX_ENUMERABLE_LABELS}, got {c}")
    starts = [i for i, (_, ln) in enumerate(lines) if ln.split(None, 1)[0] == "atom"] + [len(lines)]
    n_atoms = len(starts) - 1
    table_bytes = n_atoms * ((1 << c) - 1) * c * 8
    if table_bytes > MAX_BAG_TABLE_BYTES:
        raise DataFormatError(
            f"{path}: {n_atoms} atoms with {c} labels need {table_bytes} bytes of bag "
            f"tables, over the limit of {MAX_BAG_TABLE_BYTES}"
        )
    if starts[0] > 1:
        raise DataFormatError(f"{path}:{lines[1][0]}: directive outside an atom block")
    atoms = [_parse_atom(path, c, lines[a + 1 : b]) for a, b in zip(starts, starts[1:])]
    if not atoms:
        raise DataFormatError(f"{path}: no atoms")
    try:
        return DiscreteDistribution(tuple(atoms), LabelSpace(c))
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def _parse_atom(path: Path, c: int, block: list[tuple[int, str]]) -> Atom:
    """The atom of one block's ``(line number, line)`` directives, read in file
    order; a later directive of the same kind, or row of the same bag, wins."""
    given: dict[str, float | list[float]] = {}
    entries = np.zeros(((1 << c) - 1, c))
    identity = False
    try:
        for lineno, line in block:
            words = line.split()
            word = words[0]
            if word == "bagrow":
                labels = list(map(int, words[1].split(";")))  # all parse before any is checked
                mask = 0
                for y in labels:
                    if not 1 <= y <= c:
                        raise DataFormatError(f"{path}:{lineno}: bad bag spec {words[1]!r}")
                    mask |= 1 << (y - 1)
                values = list(map(float, words[2:]))
                if len(values) != c:
                    raise DataFormatError(f"{path}:{lineno}: expected {c} probabilities")
                entries[mask - 1] = values
            elif word in ("location", "probs"):
                given[word] = list(map(float, words[1:]))
            elif word == "mass":
                given[word] = float(words[1])
            elif word == "bagdefault":
                if words[1] != "identity":
                    raise DataFormatError(f"{path}:{lineno}: unknown bagdefault {words[1]!r}")
                identity = True
            else:
                raise DataFormatError(f"{path}:{lineno}: unknown directive {word!r}")
    except DataFormatError:
        raise
    except (IndexError, ValueError) as exc:
        raise DataFormatError(f"{path}:{lineno}: malformed directive") from exc
    for req in ("location", "mass", "probs"):
        if req not in given:
            raise DataFormatError(f"{path}: atom block missing '{req}'")
    if identity:
        # columns summed pairwise, as entries[:, y].sum(); y's singleton is row 2^(y-1) - 1
        ys = np.flatnonzero(entries.T.copy().sum(axis=1) == 0.0)
        entries[(1 << ys) - 1, ys] = 1.0
    try:
        return Atom(np.array(given["location"]), given["mass"],
                    LabelDistribution(np.array(given["probs"])), BagGenMatrix(entries))
    except ValueError as exc:
        raise DataFormatError(f"{path}: invalid atom: {exc}") from exc


def theory_report(d: DiscreteDistribution) -> str:
    """Key=value dump of reconstructibility, alignment and advantage."""
    return _theory_text(d, theory.advantage_report(d))


def _theory_text(d: DiscreteDistribution, report: theory.AdvantageReport) -> str:
    lines = [f"atoms={d.n_atoms} labels={d.label_space.c}"]
    lines.append(f"dist_label_aligned={str(theory.is_label_aligned_dist(d)).lower()}")
    for idx, atom in enumerate(d.atoms):
        recon = theory.is_reconstructible(atom.baggen)
        probe = theory.is_label_aligned_process(atom.baggen)
        lines.append(
            f"atom_index={idx} reconstructible={str(recon).lower()} "
            f"process_aligned_so_far={str(probe.aligned_so_far).lower()} "
            f"{report.entries[idx].text_fields()}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CLI entry points
# ---------------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    config = parse_config(args.config)
    # run's warnings are shown once emit has written, so a run whose output
    # cannot be written prints its one error line alone
    with warnings.catch_warnings(record=True) as held:
        result = run(config, dump_predictions=args.dump_predictions)
        emit(result, args.out, timings=config.timings)
    for w in held:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, line=w.line)
    header, *lines = _table(SummaryRow, result.summary)
    for cells in lines:
        print(" ".join(f"{name}={cell}" for name, cell in zip(header, cells)))
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    config = parse_config(args.config)
    if config.scenario is None:
        raise ConfigError("bench synth needs a scenario in [experiment]")
    scenario = analytic_scenario(config.scenario)
    if scenario.has_bag_process:
        data = scenario.sample(config.n_samples, config.base_seed, config.synth.noise_nu)
    else:
        x, y = scenario.sample_points(config.n_samples, np.random.default_rng(config.base_seed))
        data = make_bags(x, y, scenario.label_space, config.synth)
    save_dataset(data, args.out)
    print(f"wrote {data.n} examples to {args.out}")
    return 0


def _cmd_theory(args: argparse.Namespace) -> int:
    d = load_distribution(args.dist)
    try:
        report = theory.advantage_report(d)
    except ValueError as exc:
        raise DataFormatError(f"{args.dist}: {exc}") from exc
    # the CSV first: a bad --csv path fails before the report is printed
    if args.csv is not None:
        report.write_csv(args.csv)
    sys.stdout.write(_theory_text(d, report))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench", description="partial-label experiment harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment grid")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--dump-predictions", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_synth = sub.add_parser("synth", help="emit a generated dataset as CSV")
    p_synth.add_argument("--config", required=True)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=_cmd_synth)

    p_theory = sub.add_parser("theory", help="report on a serialized distribution")
    p_theory.add_argument("--dist", required=True)
    p_theory.add_argument("--csv", default=None)
    p_theory.set_defaults(func=_cmd_theory)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
