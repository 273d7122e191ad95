"""Adaptive nearest-neighbor classification over bags of candidate labels.

The classifier grows the neighborhood one neighbor at a time.  At step k it
counts, for every label, how many of the k nearest bags contain it, and
removes every still-candidate label whose count trails the leading count by
at least ``k * threshold(n, k, delta)``.  Few neighbors suffice when one
label clearly leads; close races automatically draw in more neighbors.  If
more than one candidate survives after T steps, the label that came closest
to eliminating all others wins.

The rule lives in :func:`_step` (one step's margins and eliminations) and
:func:`_eliminate` (the step loop over a block of queries, O(c) state per
query).  :func:`classify_batch` runs the kernel once per
:func:`knn_index.order_blocks` block; :func:`classify` runs it on one query
and rebuilds the full :class:`EliminationTrace` from the counts with a single
vectorized :func:`_step` call, so both return the same labels by construction.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from itertools import compress

import numpy as np

from . import knn_index
from .core import MAX_LABELS, LabelSpace, PartialDataset


def threshold(
    n: int, k: int, delta: float, c: int, c1: float = 0.5, d0: int | None = None
) -> float:
    """Elimination threshold at neighborhood size k.

    Pointwise form (``d0 is None``)::

        c1 * sqrt((ln n + ln(c / delta)) / k)

    With ``d0`` given, the ``ln n`` term is scaled by ``d0`` (the VC dimension
    of balls in the feature space), which makes the guarantee hold uniformly
    over queries instead of per query.  Natural logarithms throughout.  A
    threshold that overflows the float range raises ``ValueError``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
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
    value = c1 * math.sqrt((scale * math.log(n) + math.log(c) - math.log(delta)) / k)
    if value == math.inf:
        raise ValueError(f"c1 = {c1} and d0 = {d0} overflow the threshold at n = {n}, k = {k}")
    return value


@dataclass(frozen=True)
class PlaknnConfig:
    """Classifier hyperparameters.

    ``T`` caps the neighborhood size: bags of very distant neighbors say
    little about the query.  ``mode`` selects the pointwise or uniform
    threshold; in uniform mode ``d0`` defaults to ``dim + 1`` (the VC
    dimension of Euclidean balls) when left unset.
    """

    c1: float = 0.5
    delta: float = 0.1
    T: int = 400
    mode: str = "pointwise"
    d0: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.c1 < math.inf:
            raise ValueError(f"c1 must be finite and positive, got {self.c1}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if self.mode not in ("pointwise", "uniform"):
            raise ValueError(f"mode must be 'pointwise' or 'uniform', got {self.mode!r}")
        if self.d0 is not None and self.d0 < 1:
            raise ValueError(f"d0 must be >= 1, got {self.d0}")
        # the largest threshold: one neighbor, the most labels, and as many points
        # and dimensions as an array can hold
        self.threshold(sys.maxsize, 1, MAX_LABELS, sys.maxsize)

    def resolve_d0(self, dim: int) -> int | None:
        if self.mode == "pointwise":
            return None
        return self.d0 if self.d0 is not None else dim + 1

    def threshold(self, n: int, k: int, c: int, dim: int = 1) -> float:
        return threshold(n, k, self.delta, c, self.c1, self.resolve_d0(dim))


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
    config: PlaknnConfig
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


def _require_matching_index(train: PartialDataset, index: knn_index.NeighborIndex) -> None:
    if index.n != train.n or index.dim != train.dim:
        raise ValueError(
            f"index over {index.n}x{index.dim} points does not match the "
            f"{train.n}x{train.dim} training set"
        )


def _schedule(
    train: PartialDataset, index: knn_index.NeighborIndex, config: PlaknnConfig
) -> tuple[int, np.ndarray]:
    """Iteration cap and thresholds ``deltas[k-1]`` for k = 1..cap.

    Checks that ``index`` covers ``train`` and clamps T to the training size
    with a ``RuntimeWarning``.
    """
    _require_matching_index(train, index)
    n = train.n
    t_cap = config.T
    if t_cap > n:
        warnings.warn(
            f"iteration cap T={t_cap} exceeds the {n} available neighbors; using T={n}",
            RuntimeWarning,
            stacklevel=3,
        )
        t_cap = n
    c = train.label_space.c
    return t_cap, np.array([config.threshold(n, k, c, train.dim) for k in range(1, t_cap + 1)])


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
    t_cap, deltas = _schedule(train, index, config)
    memb = train.membership_matrix()
    query = np.asarray(x, dtype=np.float64)[None, :]
    _, order, _ = next(knn_index.neighbor_blocks(index, query, t_cap))
    labels, iterations, disambiguated, eliminated_at = _eliminate(memb[order], deltas)

    # replay the K steps at once: counts, alive-before-step masks, one _step
    n_steps = int(iterations[0])
    neighbors = order[0, :n_steps]
    ks = np.arange(1, n_steps + 1)[:, None]
    tau = np.cumsum(memb[neighbors], axis=0, dtype=np.int64)
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
        config=config,
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
    with at least ``min(T, n)`` columns (see :func:`knn_index.order_blocks`);
    the result is the same as searching.
    """
    t_cap, deltas = _schedule(train, index, config)
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != train.dim:
        raise ValueError("queries must be an (m, d) matrix matching the training dimension")
    memb = train.membership_matrix()
    m_total = queries.shape[0]
    labels = np.empty(m_total, dtype=np.int64)
    iterations = np.empty(m_total, dtype=np.int64)
    disambiguated = np.zeros(m_total, dtype=bool)
    for rows, block in knn_index.order_blocks(index, queries, t_cap, order):
        labels[rows], iterations[rows], disambiguated[rows], _ = _eliminate(memb[block], deltas)
    return BatchResult(labels, iterations, disambiguated)
