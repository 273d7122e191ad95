"""Exact brute-force nearest-neighbor retrieval with a deterministic order.

Neighbors are ranked by squared Euclidean distance with ties broken by the
original training index, which makes every downstream classifier run
reproducible.  :func:`neighbor_blocks` is the one retrieval path: it walks a
batch of queries in fixed-size blocks and yields each query's nearest
training indices in that order, so every consumer sees the same neighbors
whether it asks for one query or many.  :func:`nearest_orders` collects
those blocks into one (m, t) order, and :func:`order_blocks` hands a
caller either fresh blocks or row blocks of such an order cut to the first
t columns: prefixes are exact because the (distance, index) order is total,
so one search at the largest t serves every smaller one.

Distances come from :func:`sq_distance_chunk`, a coordinate-wise kernel over
the index's transposed points: it squares one coordinate's differences at a
time for a tile of query rows and adds the squares up in numpy's pairwise
order, so each value equals ``((p - q) ** 2).sum(-1)`` bit for bit without
an (m, n, d) difference tensor.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

# Queries per block: bounds the (block, n) distance matrix and the
# selection work held at once by ``neighbor_blocks``.
_BLOCK = 256
# Bytes of one (rows, n) float64 temporary of the distance kernel; a tile
# holds as many query rows as fit, at least one.
_TILE_BYTES = 256 * 1024
# numpy's pairwise summation adds at most this many terms in one 8-lane loop
# and splits longer runs in two.
_PAIRWISE_BLOCK = 128


class NeighborIndex:
    """Immutable matrix of training points answering exact queries."""

    __slots__ = ("points", "columns")

    def __init__(self, points: np.ndarray) -> None:
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] < 1 or points.shape[1] < 1:
            raise ValueError("points must be a nonempty (n, d) matrix")
        if not np.all(np.isfinite(points)):
            raise ValueError("points must be finite")
        points = points.copy()
        points.flags.writeable = False
        self.points = points
        columns = np.ascontiguousarray(points.T)
        columns.flags.writeable = False
        self.columns = columns

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

    Each value is bit-identical to ``((points - query) ** 2).sum(-1)``, so a
    row does not depend on which other queries share its chunk.  The d
    squared coordinate differences are added in the order numpy's
    ``pairwise_sum`` uses for that expression (see :func:`_sum_squares`);
    any other order, and the expanded ``|p|^2 - 2 p.q + |q|^2`` form above
    all, rounds differently and can reorder neighbors at near-ties.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != index.dim:
        raise ValueError("queries must be an (m, d) matrix matching the index dimension")
    m, n = queries.shape[0], index.n
    out = np.empty((m, n))
    rows = max(1, _TILE_BYTES // (8 * n))
    spare = np.empty((_spare_count(index.dim), min(rows, m), n))
    for start in range(0, m, rows):
        q = queries[start : start + rows]
        _sum_squares(index.columns, q, 0, index.dim, out[start : start + rows], spare[:, : q.shape[0]])
    return out


def _spare_count(d: int) -> int:
    """Scratch tiles :func:`_sum_squares` needs for d coordinates."""
    if d > _PAIRWISE_BLOCK:
        half = d // 2 - (d // 2) % 8
        return max(_spare_count(half), 1 + _spare_count(d - half))
    return 4 if d >= 8 else 1


def _square(columns: np.ndarray, q: np.ndarray, j: int, dest: np.ndarray) -> None:
    """``dest`` <- squared differences of coordinate ``j``, shape (rows, n)."""
    np.subtract(columns[j], q[:, j, None], out=dest)
    np.multiply(dest, dest, out=dest)


def _add_squares(
    columns: np.ndarray, q: np.ndarray, coords: range, dest: np.ndarray, spare: np.ndarray
) -> None:
    """Add the squares of ``coords`` to ``dest`` one after another."""
    for j in coords:
        _square(columns, q, j, spare[0])
        dest += spare[0]


def _sum_squares(
    columns: np.ndarray, q: np.ndarray, lo: int, hi: int, dest: np.ndarray, spare: np.ndarray
) -> None:
    """``dest`` <- squares of coordinates ``lo:hi`` summed in pairwise order.

    numpy's ``pairwise_sum`` adds fewer than 8 terms one after another
    (starting from zero, which leaves a nonnegative first term exact); up
    to ``_PAIRWISE_BLOCK`` terms in 8 strided lanes combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and then the remaining ``n % 8``
    terms in order; longer runs are split at ``half - half % 8`` and the two
    halves added.  ``spare`` holds scratch tiles shaped like ``dest``, used
    as a stack: a callee gets the tiles after those its caller still holds.
    """
    n = hi - lo
    if n > _PAIRWISE_BLOCK:
        half = n // 2 - (n // 2) % 8
        _sum_squares(columns, q, lo, lo + half, dest, spare)
        _sum_squares(columns, q, lo + half, hi, spare[0], spare[1:])
        dest += spare[0]
    elif n < 8:
        _square(columns, q, lo, dest)
        _add_squares(columns, q, range(lo + 1, hi), dest, spare)
    else:
        stop = hi - n % 8
        _sum_lanes(columns, q, lo, 8, stop, dest, spare)
        _add_squares(columns, q, range(stop, hi), dest, spare)


def _sum_lanes(
    columns: np.ndarray,
    q: np.ndarray,
    first: int,
    width: int,
    stop: int,
    dest: np.ndarray,
    spare: np.ndarray,
) -> None:
    """``dest`` <- lanes ``first .. first+width-1`` added as a balanced tree.

    Lane ``j`` is the running sum of the squares of coordinates ``j``,
    ``j + 8``, ... below ``stop``.
    """
    if width == 1:
        _square(columns, q, first, dest)
        _add_squares(columns, q, range(first + 8, stop, 8), dest, spare)
        return
    width //= 2
    _sum_lanes(columns, q, first, width, stop, dest, spare)
    _sum_lanes(columns, q, first + width, width, stop, spare[0], spare[1:])
    dest += spare[0]


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


def nearest_orders(index: NeighborIndex, queries: np.ndarray, t: int) -> np.ndarray:
    """The (m, min(t, n)) neighbor order of every query: the ``order``
    blocks of :func:`neighbor_blocks` stacked."""
    blocks = [order for _, order, _ in neighbor_blocks(index, queries, t)]
    if not blocks:
        return np.empty((0, min(t, index.n)), dtype=np.int64)
    return np.concatenate(blocks)


def order_blocks(
    index: NeighborIndex, queries: np.ndarray, t: int, order: np.ndarray | None = None
) -> Iterator[tuple[slice, np.ndarray]]:
    """``(rows, order)`` blocks of the ``min(t, n)`` nearest training indices.

    With ``order=None`` the blocks come from :func:`neighbor_blocks`.
    Otherwise ``order`` is a precomputed (m, >= min(t, n)) order of the same
    queries, as :func:`nearest_orders` returns it, and each block is its
    first ``min(t, n)`` columns; queries of the wrong shape, a wrong row
    count or too few columns raise ``ValueError`` before any block is
    yielded.
    """
    if order is None:
        return ((rows, block) for rows, block, _ in neighbor_blocks(index, queries, t))
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != index.dim:
        raise ValueError("queries must be an (m, d) matrix matching the index dimension")
    t = min(t, index.n)
    m = queries.shape[0]
    order = np.asarray(order)
    if order.ndim != 2 or order.shape[0] != m or order.shape[1] < t:
        raise ValueError(
            f"order of shape {order.shape} does not give {t} neighbors for each of {m} queries"
        )
    return (
        (slice(start, min(start + _BLOCK, m)), order[start : start + _BLOCK, :t])
        for start in range(0, m, _BLOCK)
    )
