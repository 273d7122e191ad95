"""Exact brute-force nearest-neighbor retrieval with a deterministic order.

Neighbors are ranked by squared Euclidean distance with ties broken by the
original training index, which makes every downstream classifier run
reproducible.  :func:`neighbor_blocks` is the one retrieval path: it walks a
batch of queries in fixed-size blocks and yields each query's nearest
training indices in that order, so every consumer sees the same neighbors
whether it asks for one query or many.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

# Queries per block: bounds the (block, n, d) difference tensor.
_BLOCK = 256


class NeighborIndex:
    """Immutable matrix of training points answering exact queries."""

    __slots__ = ("points",)

    def __init__(self, points: np.ndarray) -> None:
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] < 1 or points.shape[1] < 1:
            raise ValueError("points must be a nonempty (n, d) matrix")
        if not np.all(np.isfinite(points)):
            raise ValueError("points must be finite")
        points = points.copy()
        points.flags.writeable = False
        self.points = points

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def build(points: np.ndarray) -> NeighborIndex:
    """Construct an index over the given training points."""
    return NeighborIndex(points)


def sq_distance_chunk(index: NeighborIndex, queries: np.ndarray) -> np.ndarray:
    """Row-wise squared distances for a chunk of queries, shape (m, n).

    Computed from explicit differences, never the expanded dot-product form,
    so each row is bit-identical to the same query computed on its own.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != index.dim:
        raise ValueError("queries must be an (m, d) matrix matching the index dimension")
    diff = index.points[None, :, :] - queries[:, None, :]
    return np.multiply(diff, diff, out=diff).sum(axis=-1)


def nearest_order(sqd: np.ndarray, limit: int) -> np.ndarray:
    """Indices of the ``limit`` nearest points under (distance, index) order.

    Selection at the boundary is exact: among points tied at the cutoff
    distance, lower original indices win.
    """
    n = sqd.shape[0]
    limit = min(limit, n)
    if limit == n:
        return np.lexsort((np.arange(n), sqd))
    cutoff = np.partition(sqd, limit - 1)[limit - 1]
    below = np.flatnonzero(sqd < cutoff)
    below = below[np.lexsort((below, sqd[below]))]
    at = np.flatnonzero(sqd == cutoff)
    take = limit - below.shape[0]
    return np.concatenate([below, at[:take]])


def neighbor_blocks(
    index: NeighborIndex, queries: np.ndarray, t: int
) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """Yield ``(rows, order, sqd)`` for consecutive blocks of queries.

    ``order[i]`` holds the ``min(t, n)`` nearest training indices of query
    ``rows.start + i`` under (distance, index) order and ``sqd[i]`` their
    squared distances.  The block's (block, n) distance matrix is freed
    before the yield, so callers never hold it while they work.
    """
    queries = np.asarray(queries, dtype=np.float64)
    t = min(t, index.n)
    for start in range(0, queries.shape[0], _BLOCK):
        rows = slice(start, min(start + _BLOCK, queries.shape[0]))
        d2 = sq_distance_chunk(index, queries[rows])
        order = np.empty((d2.shape[0], t), dtype=np.int64)
        for i in range(d2.shape[0]):
            order[i] = nearest_order(d2[i], t)
        sqd = np.take_along_axis(d2, order, axis=1)
        del d2
        yield rows, order, sqd
