"""Adaptive nearest-neighbor classification over bags of candidate labels.

The classifier grows the neighborhood one neighbor at a time.  At step k it
counts, for every label, how many of the k nearest bags contain it, and
removes every still-candidate label whose count trails the leading count by
at least k times the threshold :meth:`PlaknnConfig.threshold` gives at k.
Few neighbors suffice when one label clearly leads; close races
automatically draw in more neighbors.  If more than one candidate survives
after T steps, the label that came closest to eliminating all others wins.

The rule lives in :func:`_step` (one step's margins and eliminations) and
:func:`_eliminate` (the step loop over a block of queries, O(c) state per
query).  :func:`classify_batch` runs the kernel on each block of neighbor
bags from :func:`_bag_blocks`, the one source of bags for this module and
:mod:`plbag.baselines`; :func:`classify` runs it on one query and rebuilds
the full :class:`EliminationTrace` from the counts with a single vectorized
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
    package: the user's line, whichever public function it called."""
    if t > n:
        level, frame = 2, sys._getframe(1)
        while frame.f_back and frame.f_globals.get("__name__", "").startswith(f"{__package__}."):
            level, frame = level + 1, frame.f_back
        message = f"iteration cap T={t} exceeds the {n} available neighbors; using T={n}"
        warnings.warn(message, RuntimeWarning, stacklevel=level)
    return min(t, n)


def _schedule(train: PartialDataset, config: PlaknnConfig) -> tuple[int, np.ndarray]:
    """Iteration cap ``min(T, n)`` and thresholds ``deltas[k-1]`` for k = 1..cap."""
    t_cap = _neighbor_cap(config.T, train.n)
    return t_cap, config.threshold(train.n, np.arange(1, t_cap + 1), train.label_space.c, train.dim)


def _bag_blocks(
    train: PartialDataset,
    index: knn_index.NeighborIndex,
    queries: np.ndarray,
    t: int,
    order: np.ndarray | None,
) -> tuple[int, Iterator[tuple[slice, np.ndarray, np.ndarray]]]:
    """The query count m, after checking the inputs, and ``(rows, order,
    bags)`` blocks: ``order[i, j]`` is the (j+1)-th nearest training point of
    query ``rows.start + i``, j < min(t, n), and ``bags[i, j]`` its
    membership row.  The blocks come from :func:`knn_index.neighbor_blocks`,
    or from the first min(t, n) columns of a precomputed ``order`` of the
    queries, cut into blocks of as many rows as a search min(t, n) deep
    holds (:func:`knn_index._block_rows`).
    """
    if index.n != train.n or index.dim != train.dim:
        raise ValueError(
            f"index over {index.n}x{index.dim} points does not match the "
            f"{train.n}x{train.dim} training set"
        )
    queries = knn_index._checked_queries(index, np.asarray(queries, dtype=np.float64))
    memb = train.membership_matrix()
    m = queries.shape[0]
    if order is None:
        blocks = knn_index.neighbor_blocks(index, queries, t)
        return m, ((rows, block, memb[block]) for rows, block, _ in blocks)
    t = min(t, index.n)
    order = np.asarray(order)
    if order.ndim != 2 or order.shape[0] != m or order.shape[1] < t:
        raise ValueError(
            f"order of shape {order.shape} does not give {t} neighbors for each of {m} queries"
        )
    step = knn_index._block_rows(t, index.dim)
    blocks = (slice(s, min(s + step, m)) for s in range(0, m, step))
    return m, ((rows, order[rows, :t], memb[order[rows, :t]]) for rows in blocks)


def _step(
    tau: np.ndarray, alive: np.ndarray, k: int | np.ndarray, delta_k: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One elimination step over the label axis; broadcasts over leading axes.

    Returns the margin row ``sqrt(k) * (delta_k - (tau - m2) / k)``, with m2
    the runner-up count among alive labels, and the alive labels whose count
    trails the leader's by at least ``k * delta_k``.
    """
    c = tau.shape[-1]
    capped = np.where(alive, tau, -1)
    m1 = capped.max(axis=-1, keepdims=True)
    m2 = np.partition(capped, c - 2, axis=-1)[..., c - 2 : c - 1]
    margin = np.sqrt(k) * (delta_k - (tau - m2) / k)
    return margin, alive & ((m1 - tau) / k >= delta_k)


def _eliminate(
    nb: np.ndarray, deltas: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Elimination over a block; ``nb[q, k-1]`` is query q's k-th nearest bag row.

    Returns labels, iterations, disambiguated flags and ``eliminated_at[q, y-1]``,
    the step at which label y fell (0: it survived).  An active query keeps its
    counts, its alive labels and, per label, the smallest margin so far with
    the first step that reached it; it leaves the active set at the step it
    finishes.  The winner is the alive label with the smallest (margin, step,
    label), which is the row-major argmin over the margin matrix.
    """
    m, t_cap, c = nb.shape
    labels = np.empty(m, dtype=np.int64)
    iterations = np.empty(m, dtype=np.int64)
    disambiguated = np.empty(m, dtype=bool)
    eliminated_at = np.zeros((m, c), dtype=np.int64)
    rows = np.arange(m)
    tau = np.zeros((m, c), dtype=np.int64)
    alive = np.ones((m, c), dtype=bool)
    best = np.full((m, c), np.inf)
    best_k = np.zeros((m, c), dtype=np.int64)
    k = 0
    while rows.size:
        k += 1
        tau += nb[rows, k - 1]
        margin, elim = _step(tau, alive, k, deltas[k - 1])
        better = alive & (margin < best)
        np.copyto(best, margin, where=better)
        np.copyto(best_k, k, where=better)
        alive &= ~elim
        q, y = np.nonzero(elim)
        eliminated_at[rows[q], y] = k
        single = alive.sum(axis=1) == 1
        done = single | (k == t_cap)
        if not done.any():
            continue
        score = np.where(alive[done], best[done], np.inf)
        tied = score == score.min(axis=1, keepdims=True)
        first = np.where(tied, best_k[done], t_cap + 1)
        out = rows[done]
        labels[out] = np.argmax(tied & (first == first.min(axis=1, keepdims=True)), axis=1) + 1
        iterations[out] = k
        disambiguated[out] = ~single[done]
        keep = ~done
        rows, tau, alive, best, best_k = rows[keep], tau[keep], alive[keep], best[keep], best_k[keep]
    return labels, iterations, disambiguated, eliminated_at


def classify(
    train: PartialDataset,
    index: knn_index.NeighborIndex,
    x: np.ndarray,
    config: PlaknnConfig,
) -> tuple[int, EliminationTrace]:
    """Classify one query, returning the label and the elimination trace."""
    t_cap, deltas = _schedule(train, config)
    _, blocks = _bag_blocks(train, index, np.asarray(x, dtype=np.float64)[None, :], t_cap, None)
    (_, order, bags), = blocks
    labels, iterations, disambiguated, eliminated_at = _eliminate(bags, deltas)

    # replay the K steps at once: counts, alive-before-step masks, one _step
    n_steps = int(iterations[0])
    neighbors = order[0, :n_steps]
    ks = np.arange(1, n_steps + 1)[:, None]
    tau = np.cumsum(bags[0, :n_steps], axis=0, dtype=np.int64)
    fell = eliminated_at[0]
    alive = (fell == 0) | (fell >= ks)
    margin, elim = _step(tau, alive, ks, deltas[:n_steps, None])
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
    with at least ``min(T, n)`` columns, read one block of rows at a time
    (see :func:`_bag_blocks`); the result is the same as searching.
    """
    t_cap, deltas = _schedule(train, config)
    m, blocks = _bag_blocks(train, index, queries, t_cap, order)
    labels = np.empty(m, dtype=np.int64)
    iterations = np.empty(m, dtype=np.int64)
    disambiguated = np.zeros(m, dtype=bool)
    for rows, _, bags in blocks:
        labels[rows], iterations[rows], disambiguated[rows], _ = _eliminate(bags, deltas)
    return BatchResult(labels, iterations, disambiguated)
