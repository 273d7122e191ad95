"""Comparison classifiers over bags: fixed-k voting and threshold-qualification.

``fixed_k_batch`` is the classical rule that predicts the label appearing
in the most bags among a fixed number of neighbors.  ``aknn_batch`` is an
adaptive alternative that grows the neighborhood until one label's bag
frequency exceeds ``1/c`` by the elimination threshold and then predicts it;
unlike the margin-elimination classifier it looks only at the leading
frequency, never at gaps between labels.  ``aknn_decision`` gives one
query's label together with the neighborhood size at which it qualified.

Both rules are vectorized over the neighbor bags of
:func:`plaknn._bag_blocks`, which searches or takes a precomputed neighbor
order.
"""

from __future__ import annotations

import numpy as np

from . import knn_index
from .core import PartialDataset
from .plaknn import PlaknnConfig, _bag_blocks, _schedule


def fixed_k_batch(
    train: PartialDataset,
    index: knn_index.NeighborIndex,
    queries: np.ndarray,
    k: int,
    *,
    order: np.ndarray | None = None,
) -> np.ndarray:
    """Most frequent label among the k nearest bags of each row of
    ``queries``; ties go to the smallest.  ``order`` as in
    :func:`plaknn.classify_batch_detail`."""
    if not 1 <= k <= train.n:
        raise ValueError(f"k must be in 1..{train.n}, got {k}")
    m, blocks = _bag_blocks(train, index, queries, k, order)
    labels = np.empty(m, dtype=np.int64)
    for rows, _, bags in blocks:
        labels[rows] = np.argmax(bags.sum(axis=1), axis=1) + 1
    return labels


def _aknn(
    train: PartialDataset,
    index: knn_index.NeighborIndex,
    queries: np.ndarray,
    config: PlaknnConfig,
    *,
    order: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Labels and qualification steps (0: none within the cap) per query.

    Labels are scanned one at a time so temporaries stay (block, T).
    ``order`` as in :func:`plaknn.classify_batch_detail`.
    """
    t_cap, deltas = _schedule(train, config)
    c = train.label_space.c
    ks = np.arange(1, t_cap + 1, dtype=np.float64)
    m, blocks = _bag_blocks(train, index, queries, t_cap, order)
    labels = np.empty(m, dtype=np.int64)
    steps = np.empty(m, dtype=np.int64)
    for rows, _, bags in blocks:
        first = np.full(bags.shape[0], t_cap)  # t_cap: no hit yet
        best = np.zeros(bags.shape[0], dtype=np.int64)
        at_cap = np.empty((bags.shape[0], c), dtype=np.int64)
        for y in range(c):
            counts = np.cumsum(bags[:, :, y], axis=1)
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


def aknn_batch(
    train: PartialDataset,
    index: knn_index.NeighborIndex,
    queries: np.ndarray,
    config: PlaknnConfig,
    *,
    order: np.ndarray | None = None,
) -> np.ndarray:
    """First label whose bag frequency clears 1/c by the threshold, for every
    row of ``queries`` (the label of :func:`aknn_decision`); ``order`` as in
    :func:`plaknn.classify_batch_detail`."""
    return _aknn(train, index, queries, config, order=order)[0]
