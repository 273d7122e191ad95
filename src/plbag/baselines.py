"""Comparison classifiers over bags: fixed-k voting and threshold-qualification.

``fixed_k_classify`` is the classical rule that predicts the label appearing
in the most bags among a fixed number of neighbors.  ``aknn_classify`` is an
adaptive alternative that grows the neighborhood until one label's bag
frequency exceeds ``1/c`` by the elimination threshold and then predicts it;
unlike the margin-elimination classifier it looks only at the leading
frequency, never at gaps between labels.

Both rules are vectorized over :func:`knn_index.neighbor_blocks`; the
single-query forms are one-row batch calls.
"""

from __future__ import annotations

import numpy as np

from . import knn_index
from .core import PartialDataset
from .plaknn import PlaknnConfig, _require_matching_index, _schedule


def fixed_k_classify(
    train: PartialDataset,
    index: knn_index.NeighborIndex,
    x: np.ndarray,
    k: int,
) -> int:
    """Most frequent label among the k nearest bags; ties go to the smallest."""
    return int(fixed_k_batch(train, index, np.asarray(x, dtype=np.float64)[None, :], k)[0])


def fixed_k_batch(
    train: PartialDataset,
    index: knn_index.NeighborIndex,
    queries: np.ndarray,
    k: int,
) -> np.ndarray:
    """:func:`fixed_k_classify` for every row of ``queries``."""
    _require_matching_index(train, index)
    if not 1 <= k <= train.n:
        raise ValueError(f"k must be in 1..{train.n}, got {k}")
    queries = np.asarray(queries, dtype=np.float64)
    memb = train.membership_matrix()
    labels = np.empty(queries.shape[0], dtype=np.int64)
    for rows, order, _ in knn_index.neighbor_blocks(index, queries, k):
        labels[rows] = np.argmax(memb[order].sum(axis=1), axis=1) + 1
    return labels


def _aknn(
    train: PartialDataset,
    index: knn_index.NeighborIndex,
    queries: np.ndarray,
    config: PlaknnConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Labels and qualification steps (0: none within the cap) per query.

    Labels are scanned one at a time so temporaries stay (block, T).
    """
    t_cap, deltas = _schedule(train, index, config)
    queries = np.asarray(queries, dtype=np.float64)
    c = train.label_space.c
    memb = train.membership_matrix()
    ks = np.arange(1, t_cap + 1, dtype=np.float64)
    labels = np.empty(queries.shape[0], dtype=np.int64)
    steps = np.empty(queries.shape[0], dtype=np.int64)
    for rows, order, _ in knn_index.neighbor_blocks(index, queries, t_cap):
        first = np.full(order.shape[0], t_cap)  # t_cap: no hit yet
        best = np.zeros(order.shape[0], dtype=np.int64)
        at_cap = np.empty((order.shape[0], c), dtype=np.int64)
        for y in range(c):
            counts = np.cumsum(memb[order, y], axis=1)
            qualified = counts / ks - 1.0 / c >= deltas
            hit = np.where(qualified.any(axis=1), np.argmax(qualified, axis=1), t_cap)
            best = np.where(hit < first, y, best)
            first = np.minimum(hit, first)
            at_cap[:, y] = counts[:, -1]
        missed = first == t_cap
        best[missed] = np.argmax(at_cap[missed], axis=1)
        labels[rows] = best + 1
        steps[rows] = np.where(missed, 0, first + 1)
    return labels, steps


def aknn_decision(
    train: PartialDataset,
    index: knn_index.NeighborIndex,
    x: np.ndarray,
    config: PlaknnConfig,
) -> tuple[int, int | None]:
    """Label plus the neighborhood size at which it first qualified.

    Qualification at step k means the label's empirical bag frequency among
    the k nearest bags beats 1/c by at least the step-k threshold.  If no
    label qualifies within the iteration cap, the second element is None and
    the label falls back to the most frequent one at the cap (ties to the
    smallest label, as everywhere in this package).
    """
    labels, steps = _aknn(train, index, np.asarray(x, dtype=np.float64)[None, :], config)
    return int(labels[0]), int(steps[0]) or None


def aknn_classify(
    train: PartialDataset,
    index: knn_index.NeighborIndex,
    x: np.ndarray,
    config: PlaknnConfig,
) -> int:
    """First label whose bag frequency clears 1/c by the threshold."""
    return aknn_decision(train, index, x, config)[0]


def aknn_batch(
    train: PartialDataset,
    index: knn_index.NeighborIndex,
    queries: np.ndarray,
    config: PlaknnConfig,
) -> np.ndarray:
    """:func:`aknn_classify` for every row of ``queries``."""
    return _aknn(train, index, queries, config)[0]
