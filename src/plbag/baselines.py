"""Comparison classifiers over bags: fixed-k voting and threshold-qualification.

``fixed_k_batch`` is the classical rule that predicts the label appearing
in the most bags among a fixed number of neighbors.  ``aknn_batch`` is an
adaptive alternative that grows the neighborhood until one label's bag
frequency exceeds ``1/c`` by the elimination threshold and then predicts it;
unlike the margin-elimination classifier it looks only at the leading
frequency, never at gaps between labels.  ``aknn_decision`` gives one
query's label together with the neighborhood size at which it qualified.

Both rules read each query's neighbor bags as membership rows through the
int32 neighbor-order batches of :func:`plaknn._order_blocks`, searched or
cut from a precomputed order.
"""

from __future__ import annotations

import numpy as np

from . import knn_index
from .core import PartialDataset
from .plaknn import _BATCH_BYTES, PlaknnConfig, _order_blocks, _schedule, _smallest_count

# Columns of the first chunk aknn reads (see _qualify).
_FIRST_CHUNK = 32


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
    memb, m, blocks = _order_blocks(train, index, queries, k, order)
    labels = np.empty(m, dtype=np.int64)
    for rows, block in blocks:
        counts = np.zeros((block.shape[0], memb.shape[1]), dtype=np.int32)
        for j in range(k):
            counts += memb[block[:, j]]
        labels[rows] = np.argmax(counts, axis=1) + 1
    return labels


def _aknn(
    train: PartialDataset,
    index: knn_index.NeighborIndex,
    queries: np.ndarray,
    config: PlaknnConfig,
    *,
    order: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Labels and qualification steps (0: none within the cap) per query,
    one :func:`_qualify` call per batch.  ``order`` as in
    :func:`plaknn.classify_batch_detail`.
    """
    t_cap, deltas = _schedule(train, config)
    # need[k-1]: the fewest of k bags holding a label for it to qualify
    need = _smallest_count(deltas, 1.0 / train.label_space.c)
    memb, m, blocks = _order_blocks(train, index, queries, t_cap, order)
    labels = np.empty(m, dtype=np.int64)
    steps = np.empty(m, dtype=np.int64)
    for rows, block in blocks:
        labels[rows], steps[rows] = _qualify(memb, block, need)
    return labels, steps


def _qualify(memb: np.ndarray, order: np.ndarray, need: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels and qualification steps (0: none within the cap) over a batch;
    ``memb[order[q, k-1]]`` is query q's k-th nearest bag row, for k up to
    ``len(need)``.

    Columns are read in chunks of doubling width, the first
    ``_FIRST_CHUNK`` wide, with each query's counts carried from chunk to
    chunk.  A chunk is narrower when its int32 label counts would pass
    ``plaknn._BATCH_BYTES``, the batch budget, down to one column.  A query
    leaves at the chunk where a label first qualifies, so only the queries
    that never do read all the columns.  Within a chunk
    the first qualifying (step, label) in row-major order wins: the
    earliest step, then the smallest label.  A query that never qualifies
    gets the most frequent label at the cap, the smallest on ties.
    """
    m, c = order.shape[0], memb.shape[1]
    t_cap = need.shape[0]
    labels = np.empty(m, dtype=np.int64)
    steps = np.zeros(m, dtype=np.int64)
    rows = np.arange(m)
    counts = np.zeros((m, c), dtype=np.int32)
    lo, width = 0, _FIRST_CHUNK
    while rows.size and lo < t_cap:
        room = _BATCH_BYTES // (4 * c * rows.size)
        hi = min(lo + max(1, min(width, room)), t_cap)
        cum = np.cumsum(memb[order[rows, lo:hi]], axis=1, dtype=np.int32)
        cum += counts[:, None, :]
        qualified = (cum >= need[lo:hi, None]).reshape(rows.size, -1)
        first = np.argmax(qualified, axis=1)
        hit = qualified[np.arange(rows.size), first]
        labels[rows[hit]] = first[hit] % c + 1
        steps[rows[hit]] = lo + first[hit] // c + 1
        rows, counts = rows[~hit], cum[~hit, -1]
        lo, width = hi, 2 * width
    labels[rows] = np.argmax(counts, axis=1) + 1
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
