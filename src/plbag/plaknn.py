"""Adaptive nearest-neighbor classification over bags of candidate labels.

The classifier grows the neighborhood one neighbor at a time.  At step k it
counts, for every label, how many of the k nearest bags contain it, and
removes every still-candidate label whose count trails the leading count by
at least k times the threshold :meth:`PlaknnConfig.threshold` gives at k.
Few neighbors suffice when one label clearly leads; close races
automatically draw in more neighbors.  If more than one candidate survives
after T steps, the label that came closest to eliminating all others wins.

The rule lives in :func:`_step` (one step's margins and eliminations, whose
test compares integer count gaps with a table from :func:`_smallest_count`)
and :func:`_eliminate` (the step loop over a batch of queries, O(c) int32
state per query).  The kernel reads query q's k-th bag as the membership row
``memb[order[q, k-1]]``, so no (queries, T, c) bag tensor is built.
:func:`classify_batch` runs it on each batch of :func:`_order_blocks`, the
one source of neighbor orders for this module and :mod:`plbag.baselines`;
:func:`classify` runs it on one query and rebuilds the full
:class:`EliminationTrace` from the counts with a single vectorized
:func:`_step` call, so both return the same labels by construction.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from itertools import compress
from typing import Iterator

import numpy as np

from . import knn_index
from .core import MAX_LABELS, LabelSpace, PartialDataset


@dataclass(frozen=True)
class PlaknnConfig:
    """Classifier hyperparameters.

    ``T`` caps the neighborhood size: bags of very distant neighbors say
    little about the query.  ``mode`` selects the pointwise or uniform
    threshold.  ``d0`` applies only in uniform mode, where it defaults to
    ``dim + 1`` (the VC dimension of Euclidean balls) when left unset.
    """

    c1: float = 0.5
    delta: float = 0.1
    T: int = 400
    mode: str = "pointwise"
    d0: int | None = None

    def __post_init__(self) -> None:
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if self.mode not in ("pointwise", "uniform"):
            raise ValueError(f"mode must be 'pointwise' or 'uniform', got {self.mode!r}")
        if self.d0 is not None and self.mode != "uniform":
            raise ValueError("d0 applies only in uniform mode")
        # checks c1, delta and d0 on the largest threshold: one neighbor, the
        # most labels, and as many points and dimensions as an array can hold
        self.threshold(sys.maxsize, 1, MAX_LABELS, sys.maxsize)

    def threshold(self, n: int, k: int | np.ndarray, c: int, dim: int) -> float | np.ndarray:
        """Elimination threshold at neighborhood size k, for n training points
        with c labels in ``dim`` dimensions.

        Pointwise mode::

            c1 * sqrt((ln n + ln(c / delta)) / k)

        Uniform mode scales the ``ln n`` term by d0 (the VC dimension of balls
        in the feature space), which makes the guarantee hold uniformly over
        queries instead of per query.  Natural logarithms throughout.  An
        integer array ``k`` gives the threshold at each of its values, bit for
        bit.  A threshold that overflows the float range raises ``ValueError``.
        """
        c1, delta = self.c1, self.delta
        d0 = None if self.mode == "pointwise" else self.d0 if self.d0 is not None else dim + 1
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if np.min(k) < 1:
            raise ValueError(f"k must be >= 1, got {np.min(k)}")
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        if c < 2:
            raise ValueError(f"c must be >= 2, got {c}")
        if not 0.0 < c1 < math.inf:
            raise ValueError(f"c1 must be finite and positive, got {c1}")
        if d0 is not None and not 1 <= d0 <= sys.float_info.max:
            raise ValueError(f"d0 must be in [1, {sys.float_info.max}], got {d0}")
        scale = 1.0 if d0 is None else float(d0)
        # ln(c) - ln(delta) is ln(c / delta) without the division's rounding
        bound = scale * math.log(n) + math.log(c) - math.log(delta)
        # an overflow is reported below as ValueError, not as a numpy warning
        with np.errstate(over="ignore"):
            value = c1 * np.sqrt(bound / k)
        if np.max(value) == math.inf:
            raise ValueError(f"c1 = {c1} and d0 = {d0} overflow the threshold at n = {n}, k = {np.min(k)}")
        return float(value) if value.ndim == 0 else value


@dataclass(frozen=True)
class IterationRecord:
    """State after one neighborhood-growth step."""

    k: int
    neighbor: int
    delta: float
    tau: tuple[int, ...]
    survivors: frozenset[int]
    eliminated: tuple[int, ...]


@dataclass
class EliminationTrace:
    """Full record of one classification run.

    ``margins[k-1, y-1]`` holds ``sqrt(k) * (delta_k - (tau_y - m2) / k)``
    for labels that were still candidates at step k (the distance-to-
    elimination score used for final disambiguation); unfilled entries are
    ``+inf``, never zero, so they can never win the argmin.
    """

    n: int
    label_space: LabelSpace
    records: list[IterationRecord]
    margins: np.ndarray
    label: int
    disambiguated: bool

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def final_survivors(self) -> frozenset[int]:
        return self.records[-1].survivors

    def elimination_iteration(self, y: int) -> int | None:
        """Step at which label y was removed, or None if it survived."""
        for rec in self.records:
            if y in rec.eliminated:
                return rec.k
        return None


def _neighbor_cap(t: int, n: int) -> int:
    """``min(t, n)``.  A t above n warns, at the innermost caller outside this
    package: the user's line, whichever public function it called.  A frame's
    module is named by its ``__spec__`` when it has one, so a package module
    run as ``python -m`` (``__name__`` is ``__main__`` there) still counts as
    inside the package."""
    if t > n:
        level, frame = 2, sys._getframe(1)
        while frame.f_back and _module_name(frame).startswith(f"{__package__}."):
            level, frame = level + 1, frame.f_back
        message = f"iteration cap T={t} exceeds the {n} available neighbors; using T={n}"
        warnings.warn(message, RuntimeWarning, stacklevel=level)
    return min(t, n)


def _module_name(frame) -> str:
    """The name of the module whose code ``frame`` runs."""
    spec = frame.f_globals.get("__spec__")
    return spec.name if spec is not None else frame.f_globals.get("__name__", "")


def _schedule(train: PartialDataset, config: PlaknnConfig) -> tuple[int, np.ndarray]:
    """Iteration cap ``min(T, n)`` and thresholds ``deltas[k-1]`` for k = 1..cap."""
    t_cap = _neighbor_cap(config.T, train.n)
    return t_cap, config.threshold(train.n, np.arange(1, t_cap + 1), train.label_space.c, train.dim)


# Queries per classification batch (see :func:`_batch_rows`): at least
# _BATCH, and as many as fit _BATCH_BYTES of the batch's int32 order and the
# kernels' per-query state.  baselines._qualify caps its chunks by the same
# budget.
_BATCH = 256
_BATCH_BYTES = 4 * 1024 * 1024
# Bytes per label and query that the elimination kernel holds, the per-row
# cost :func:`_batch_rows` counts beside the order: 21 of state (int32
# counts and elimination steps, alive flags, float64 best margins with their
# int32 steps) and about 43 of one step's temporaries, the float64 margin
# row above all.
_STATE_BYTES = 64


def _batch_rows(t: int, c: int) -> int:
    """Queries per classification batch over an order ``t`` deep with ``c`` labels.

    As many as hold the batch's int32 order (4 t bytes per query) and the
    kernels' per-query state (``_STATE_BYTES`` per label) in
    ``_BATCH_BYTES``, and at least ``_BATCH``.  Every kernel call in this
    module and :mod:`plbag.baselines` gets a batch of this size, searched
    straight into its order or cut from a given order, and the search adds
    only its distance tiles of about 256 KB.  Rows are independent, so the
    size changes no output.
    """
    return max(_BATCH, _BATCH_BYTES // (4 * t + _STATE_BYTES * c))


def _order_batches(
    index: knn_index.NeighborIndex, queries: np.ndarray, depth: int, c: int
) -> Iterator[tuple[slice, np.ndarray]]:
    """``(batch, order)`` for consecutive batches of :func:`_batch_rows` queries
    (the last may be shorter): the int32 order of the batch's
    ``min(depth, n)`` nearest training points, which one
    :func:`knn_index.search` call writes into a buffer that every batch
    reuses, so each must be used up before the next is drawn.
    """
    m, t = queries.shape[0], min(depth, index.n)
    step = _batch_rows(t, c)
    buffer = np.empty((min(step, m), t), dtype=np.int32)
    for start in range(0, m, step):
        order = buffer[: min(step, m - start)]
        knn_index.search(index, queries[start : start + step], order)
        yield slice(start, start + order.shape[0]), order


def _order_blocks(
    train: PartialDataset,
    index: knn_index.NeighborIndex,
    queries: np.ndarray,
    t: int,
    order: np.ndarray | None,
) -> tuple[np.ndarray, int, Iterator[tuple[slice, np.ndarray]]]:
    """The membership matrix and the query count m, after checking the
    inputs, and ``(rows, order)`` batches of :func:`_batch_rows` queries:
    ``order[i, j]`` is the (j+1)-th nearest training point of query
    ``rows.start + i`` for j < min(t, n), so ``memb[order[i, j]]`` is its
    bag row.  The batches are searched, one search call each, into one int32
    buffer (:func:`_order_batches`), or cut from a precomputed ``order`` of
    the queries, read in place.
    """
    if index.n != train.n or index.dim != train.dim:
        raise ValueError(
            f"index over {index.n}x{index.dim} points does not match the "
            f"{train.n}x{train.dim} training set"
        )
    queries = knn_index._checked_queries(index, np.asarray(queries, dtype=np.float64))
    memb = train.membership_matrix()
    m, c = queries.shape[0], train.label_space.c
    if order is None:
        return memb, m, _order_batches(index, queries, t, c)
    t = min(t, index.n)
    order = np.asarray(order)
    if order.ndim != 2 or order.shape[0] != m or order.shape[1] < t:
        raise ValueError(
            f"order of shape {order.shape} does not give {t} neighbors for each of {m} queries"
        )
    step = _batch_rows(t, c)
    batches = (slice(s, min(s + step, m)) for s in range(0, m, step))
    return memb, m, ((rows, order[rows]) for rows in batches)


def _smallest_count(deltas: np.ndarray, shift: float) -> np.ndarray:
    """``out[k-1]``: the smallest count q of k neighbors with
    ``q / k - shift >= deltas[k-1]`` in floats; k + 1 when no q <= k passes.

    Rounding is monotone, so the test holds for every q from the smallest
    passing one on, and a count passes exactly when it is at least
    ``out[k-1]``.  The real bound ``(delta + shift) k`` is off by less than
    one from it, so one step down or up against the float test itself finds
    it.  The elimination gap test ``g / k >= delta_k`` is shift 0.0 (x - 0.0
    is x in floats), and aknn's qualification shift ``1 / c``.
    """
    ks = np.arange(1, deltas.shape[0] + 1, dtype=np.float64)

    def passes(q: np.ndarray) -> np.ndarray:
        return (q <= ks) & (q / ks - shift >= deltas)

    need = np.clip(np.ceil((deltas + shift) * ks), 0.0, ks + 1.0)
    need = np.where((need >= 1.0) & passes(need - 1.0), need - 1.0, need)
    need = np.where(passes(need) | (need > ks), need, need + 1.0)
    return need.astype(np.int32)


def _step(
    tau: np.ndarray,
    alive: np.ndarray,
    k: int | np.ndarray,
    delta_k: float | np.ndarray,
    gap_k: int | np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One elimination step over the label axis; broadcasts over leading axes.

    Returns the margin row ``sqrt(k) * (delta_k - (tau - m2) / k)``, with m1
    the leading and m2 the runner-up count among alive labels; the alive
    labels whose count trails m1 by at least ``gap_k``, the smallest
    integer gap g with ``g / k >= delta_k`` in floats
    (:func:`_smallest_count`); and, over the leading axes, whether the
    runner-up falls, which leaves one alive label of the two or more there
    were.
    """
    c = tau.shape[-1]
    # the counts are integers, so the sorted axis's last two are the top two
    # exactly; with AVX2 or AVX-512 numpy sorts a short axis faster than a
    # two-kth partition selects
    top = np.sort(np.where(alive, tau, -1), axis=-1)
    m2, m1 = top[..., c - 2 : c - 1], top[..., c - 1 :]
    margin = np.sqrt(k) * (delta_k - (tau - m2) / k)
    return margin, alive & (m1 - tau >= gap_k), (m1 - m2 >= gap_k)[..., 0]


def _eliminate(
    memb: np.ndarray, order: np.ndarray, deltas: np.ndarray, gaps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Elimination over a batch; ``memb[order[q, k-1]]`` is query q's k-th
    nearest bag row, for k up to ``len(deltas)``.

    Returns labels, iterations, disambiguated flags and ``eliminated_at[q, y-1]``,
    the step at which label y fell (0: it survived).  Each query keeps int32
    counts, its alive labels, the step each label fell and, per label, the
    smallest margin so far with the first step that reached it.  A query's
    results are written at the step it finishes; the winner is the alive
    label with the smallest (margin, step, label), which is the row-major
    argmin over the margin matrix.  Finished queries leave the state arrays
    once they are a tenth of them; until then they keep stepping unread,
    and a query down to one alive label eliminates nothing more, since
    every gap threshold is at least 1.
    """
    m, c = order.shape[0], memb.shape[1]
    t_cap = deltas.shape[0]
    labels = np.empty(m, dtype=np.int64)
    iterations = np.empty(m, dtype=np.int64)
    disambiguated = np.empty(m, dtype=bool)
    eliminated_at = np.empty((m, c), dtype=np.int32)
    rows = np.arange(m)
    running = np.ones(m, dtype=bool)
    tau = np.zeros((m, c), dtype=np.int32)
    alive = np.ones((m, c), dtype=bool)
    fell = np.zeros((m, c), dtype=np.int32)
    best = np.full((m, c), np.inf)
    best_k = np.zeros((m, c), dtype=np.int32)
    left, finished = m, 0
    for k in range(1, t_cap + 1):
        if not left:
            break
        tau += memb.take(order[rows, k - 1], axis=0)
        margin, elim, settled = _step(tau, alive, k, deltas[k - 1], gaps[k - 1])
        # a dead label's best margin is never read again
        better = margin < best
        np.minimum(best, margin, out=best)
        np.copyto(best_k, np.int32(k), where=better)
        alive ^= elim
        np.copyto(fell, np.int32(k), where=elim)
        done = running & settled if k < t_cap else running
        if not done.any():
            continue
        out = np.flatnonzero(done)
        score = np.where(alive[out], best[out], np.inf)
        tied = score == score.min(axis=1, keepdims=True)
        first = np.where(tied, best_k[out], t_cap + 1)
        labels[rows[out]] = np.argmax(tied & (first == first.min(axis=1, keepdims=True)), axis=1) + 1
        iterations[rows[out]] = k
        disambiguated[rows[out]] = ~settled[out]
        eliminated_at[rows[out]] = fell[out]
        running[out] = False
        left -= out.size
        finished += out.size
        if left and finished * 10 >= rows.size:
            rows, tau, alive, fell = rows[running], tau[running], alive[running], fell[running]
            best, best_k, running = best[running], best_k[running], running[running]
            finished = 0
    return labels, iterations, disambiguated, eliminated_at


def classify(
    train: PartialDataset,
    index: knn_index.NeighborIndex,
    x: np.ndarray,
    config: PlaknnConfig,
) -> tuple[int, EliminationTrace]:
    """Classify one query, returning the label and the elimination trace."""
    t_cap, deltas = _schedule(train, config)
    gaps = _smallest_count(deltas, 0.0)
    query = np.asarray(x, dtype=np.float64)[None, :]
    memb, _, blocks = _order_blocks(train, index, query, t_cap, None)
    (_, order), = blocks
    labels, iterations, disambiguated, eliminated_at = _eliminate(memb, order, deltas, gaps)

    # replay the K steps at once: counts, alive-before-step masks, one _step
    n_steps = int(iterations[0])
    neighbors = order[0, :n_steps]
    ks = np.arange(1, n_steps + 1)[:, None]
    tau = np.cumsum(memb[neighbors], axis=0, dtype=np.int64)
    fell = eliminated_at[0]
    alive = (fell == 0) | (fell >= ks)
    margin, elim, _ = _step(tau, alive, ks, deltas[:n_steps, None], gaps[:n_steps, None])
    survivors = alive & ~elim
    ys = range(1, train.label_space.c + 1)
    steps = zip(neighbors.tolist(), deltas.tolist(), tau.tolist(), survivors.tolist(), elim.tolist())
    records = [
        IterationRecord(
            k=k,
            neighbor=neighbor,
            delta=delta_k,
            tau=tuple(counts),
            survivors=frozenset(compress(ys, left)),
            eliminated=tuple(compress(ys, dropped)),
        )
        for k, (neighbor, delta_k, counts, left, dropped) in enumerate(steps, start=1)
    ]
    label = int(labels[0])
    trace = EliminationTrace(
        n=train.n,
        label_space=train.label_space,
        records=records,
        margins=np.where(alive, margin, np.inf),
        label=label,
        disambiguated=bool(disambiguated[0]),
    )
    return label, trace


@dataclass
class BatchResult:
    """Labels plus per-query bookkeeping from a vectorized run."""

    labels: np.ndarray
    iterations: np.ndarray
    disambiguated: np.ndarray


def classify_batch(
    train: PartialDataset,
    index: knn_index.NeighborIndex,
    queries: np.ndarray,
    config: PlaknnConfig,
) -> np.ndarray:
    """Labels for a batch of queries; elementwise equal to :func:`classify`."""
    return classify_batch_detail(train, index, queries, config).labels


def classify_batch_detail(
    train: PartialDataset,
    index: knn_index.NeighborIndex,
    queries: np.ndarray,
    config: PlaknnConfig,
    *,
    order: np.ndarray | None = None,
) -> BatchResult:
    """Labels, iterations and disambiguated flags for a batch of queries.

    ``order``, when given, is a precomputed neighbor order of ``queries``
    with at least ``min(T, n)`` columns, read in place one batch of
    :func:`_batch_rows` rows at a time; the result is the same as searching.
    """
    t_cap, deltas = _schedule(train, config)
    gaps = _smallest_count(deltas, 0.0)
    memb, m, blocks = _order_blocks(train, index, queries, t_cap, order)
    labels = np.empty(m, dtype=np.int64)
    iterations = np.empty(m, dtype=np.int64)
    disambiguated = np.zeros(m, dtype=bool)
    for rows, block in blocks:
        labels[rows], iterations[rows], disambiguated[rows], _ = _eliminate(memb, block, deltas, gaps)
    return BatchResult(labels, iterations, disambiguated)
