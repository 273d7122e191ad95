"""Exact brute-force nearest-neighbor retrieval with a deterministic order.

Neighbors are ranked by squared Euclidean distance with ties broken by the
original training index, which makes every downstream classifier run
reproducible.  :func:`neighbor_blocks` is the one retrieval path: it walks a
batch of queries in blocks sized by :func:`_block_rows` and yields each
query's nearest training indices in that order, so every consumer sees the
same neighbors whether it asks for one query or many.  Prefixes are exact
because the (distance, index) order is total, so one search at the largest
t serves every smaller one: a caller that holds one block's order at that
depth can run every consumer on that block before the next one is
searched.

Distances come from :func:`sq_distance_chunk`, a coordinate-wise kernel over
the index's transposed points: it squares one coordinate's differences at a
time for a tile of query rows and adds the squares up in numpy's pairwise
order, so each value equals ``((p - q) ** 2).sum(-1)`` bit for bit without
an (m, n, d) difference tensor.

Searches for few neighbors, ``t * 32 <= n`` in ``d >= 8`` dimensions, first
rule most points out through the expanded form (Johnson, Douze, Jegou,
"Billion-scale similarity search with GPUs", arXiv:1702.08734).  For a tile
of query rows one GEMM gives x(p) = |p|^2 - 2 q.p, the squared distance less
the query's own |q|^2.  With y_t the t-th smallest x of a query, only the
points with x(p) <= y_t + 2E are rescored, with the kernel's expression
``((p - q) ** 2).sum(-1)``.  The candidates come in index order, and one
stable sort by (query, distance) takes the t nearest of them in (distance,
index) order, so ``order`` and ``sqd`` equal the full search's bytes.  The
rule comes from timings on one core: with t/n <= 1/32 and d >= 8 the
prefiltered search took 0.18-0.72 of the full one's time on Gaussian,
unit-norm, clustered and integer-grid points; at d <= 4, or at t/n = 1/16,
it took up to 1.03 of it.  :func:`prefilter_depth` gives the deepest search
the rule prefilters, so a caller whose queries mostly need few neighbors
can search that deep first and search again, deeper, only for the queries
that need more (``bench run`` does).

The bound.  Let u = 2^-53, g_k = k u / (1 - k u) and eta = 2^-1022, the
most that one operation can lose below the normal range, with gradual
underflow or flushed to zero.  For a query q and a point p let S(p) be the
exact |p - q|^2, D(p) the kernel's value, c = |q|^2, and x(p) the exact sum
of the two computed terms of the expanded value, before its own rounding.

(a) Each GEMM entry (BLAS computes each one as a dot product) and each
    squared norm is a dot product of length d.  In any summation order,
    with or without FMA, it errs by at most g_d sum |x_i y_i| plus eta per
    operation.  With a >= |q| and b >= max |p| this gives
    |x(p) - (S(p) - c)| <= E1 = g_d (2ab + b^2) + 8 d eta.
(b) The kernel's d subtractions, d squares and d - 1 additions give
    |D(p) - S(p)| <= g_{d+2} S(p) + 4 d eta.
(c) The t points whose rounded x is at most y_t have x <= y_t + u |y_t| + eta,
    so by (a) S <= M = y_t + u |y_t| + eta + c + E1 for each of them, and
    by (b) the t-th smallest kernel distance D_t <= (1 + g_{d+2}) M + 4 d eta.
(d) So a point with D(p) <= D_t has S(p) <= M + 2K by (b), with
    K = (g_{d+2} M + 4 d eta) / (1 - g_{d+2}), and by (a)
    x(p) <= y_t + u |y_t| + eta + 2 E1 + 2K = y_t + 2E.  Rounding is
    monotone, so its rounded x is at most the rounded y_t + 2E.

Every point at distance D_t or less, ties included, is therefore a
candidate.  E is evaluated in floats with a relative margin of 2^-40, far
above the rounding of its own few operations.  The bound assumes no
overflow and no input read as zero: a block with a squared norm above
2^1000 (or not finite) or a subnormal coordinate (which a
denormals-are-zero mode would drop) takes the full search.  So does a tile
whose candidates exceed an eighth of its pairs, where rescoring costs more
than the kernel: a common offset much larger than the spread of the points
makes E large against their distances (at 1e8 against a spread of 1 the
search then takes 1.15-1.3 times as long as the full one).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

# Query rows per block (see :func:`_block_rows`): at least _BLOCK, and as
# many as fit _BLOCK_BYTES of the block's order, its order distances and one
# float copy of its queries, (2 t + d) 8-byte values per row.
_BLOCK = 256
_BLOCK_BYTES = 4 * 1024 * 1024
# Bytes of one (rows, n) float64 temporary of the distance kernel; a tile
# holds as many query rows as fit, at least one.
_TILE_BYTES = 256 * 1024
# numpy's pairwise summation adds at most this many terms in one 8-lane loop
# and splits longer runs in two.
_PAIRWISE_BLOCK = 128
# Dispatch rule of the prefilter (see :func:`prefilter_depth`):
# t * _PREFILTER_RATIO <= n and d >= _PREFILTER_MIN_DIM.
_PREFILTER_RATIO = 32
_PREFILTER_MIN_DIM = 8
# Unit roundoff of float64, and its smallest normal number: the most one
# operation can lose below the normal range, with gradual underflow or
# flushed to zero.
_U = 2.0**-53
_ETA = 2.0**-1022
# The bound covers squared norms up to this, far from overflow.
_SQ_NORM_LIMIT = 2.0**1000
# Relative margin on the bound's own float arithmetic (a few ulps at most).
_MARGIN = 1.0 + 2.0**-40
# A tile with more candidates than 1 / _DENSE of its pairs costs more to
# rescore than the full kernel does (large common offsets, many near-ties).
_DENSE = 8


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
    queries = _checked_queries(index, np.asarray(queries, dtype=np.float64))
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
    squared distances, each equal to ``((points[j] - query) ** 2).sum(-1)``
    bit for bit.  A block holds :func:`_block_rows` queries, and its
    distances are computed and selected one tile of about ``_TILE_BYTES`` at
    a time, so neither the search nor its callers hold a (block, n) matrix.
    A block with a non-finite query raises ``ValueError`` when it is
    reached.

    Dispatch depends on (t, n, d) alone.  A search with ``t * 32 <= n`` in
    ``d >= 8`` dimensions is prefiltered (:func:`_prefiltered`): it rescores
    only the points whose expanded value |p|^2 - 2 q.p lies within 2E of the
    query's t-th smallest, where E bounds the expanded form's rounding error
    for any BLAS summation order, with or without FMA, plus an absolute
    term for underflow (the module docstring gives the bound and its
    proof).  Every other search computes the full distance matrix
    (:func:`_exact`), and so does a prefiltered search for a block with a
    squared norm above ``2**1000`` or a subnormal coordinate and for a tile
    whose candidates exceed an eighth of its pairs.  Both paths return the
    same bytes.
    """
    queries = _checked_queries(index, np.asarray(queries, dtype=np.float64))
    t = min(t, index.n)
    point_sq = None
    if t <= prefilter_depth(index.n, index.dim):
        point_sq = _safe_sq_norms(index.points)
    step = _block_rows(t, index.dim)
    for start in range(0, queries.shape[0], step):
        rows = slice(start, min(start + step, queries.shape[0]))
        q = queries[rows]
        if not np.all(np.isfinite(q)):
            bad = rows.start + int(np.argmin(np.isfinite(q).all(axis=1)))
            raise ValueError(f"queries must be finite; query {bad} is not")
        query_sq = None if point_sq is None else _safe_sq_norms(q)
        # yielded unbound, so the block is freed while the next one is searched
        if query_sq is None:
            yield rows, *_exact(index, q, t)
        else:
            yield rows, *_prefiltered(index, q, t, point_sq, query_sq)


def prefilter_depth(n: int, d: int) -> int:
    """The deepest search that :func:`neighbor_blocks` prefilters over n points
    in d dimensions: ``n // 32`` when ``d >= 8``, else 0 (none)."""
    return n // _PREFILTER_RATIO if d >= _PREFILTER_MIN_DIM else 0


def _block_rows(t: int, d: int) -> int:
    """Query rows per block of a search ``t`` deep in ``d`` dimensions.

    Rows are independent, so the size changes no output.  The size bounds
    the search's own memory alone: ``plaknn._order_batches`` copies the
    blocks into the classifiers' batches, which ``plaknn._batch_rows`` sizes.
    """
    return max(_BLOCK, _BLOCK_BYTES // (8 * (2 * t + d)))


def _checked_queries(index: NeighborIndex, queries: np.ndarray) -> np.ndarray:
    """``queries``, after checking that they are an (m, d) matrix."""
    if queries.ndim != 2 or queries.shape[1] != index.dim:
        raise ValueError("queries must be an (m, d) matrix matching the index dimension")
    return queries


def _exact(index: NeighborIndex, queries: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """``(order, sqd)`` of the ``t`` nearest points from every distance, one
    tile of about ``_TILE_BYTES`` of them at a time."""
    m, n = queries.shape[0], index.n
    order = np.empty((m, t), dtype=np.int64)
    sqd = np.empty((m, t))
    rows = max(1, _TILE_BYTES // (8 * n))
    for start in range(0, m, rows):
        for i, row in enumerate(sq_distance_chunk(index, queries[start : start + rows]), start):
            order[i] = nearest_order(row, t)
            sqd[i] = row[order[i]]
    return order, sqd


def _safe_sq_norms(x: np.ndarray) -> np.ndarray | None:
    """Squared row norms of ``x``, or None when the bound does not cover it:
    a squared norm above ``_SQ_NORM_LIMIT`` (or not finite) or a subnormal
    coordinate."""
    sq = np.einsum("ij,ij->i", x, x)
    if not np.all(sq <= _SQ_NORM_LIMIT):
        return None
    if np.any((np.abs(x) < _ETA) & (x != 0.0)):
        return None
    return sq


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u)."""
    return k * _U / (1.0 - k * _U)


def _candidate_limit(
    cutoff: np.ndarray, query_sq: np.ndarray, point_sq_max: float, d: int
) -> np.ndarray:
    """``cutoff + 2 E``, one per query (see the module docstring).

    ``cutoff`` holds each query's t-th smallest expanded value, ``query_sq``
    the queries' computed squared norms and ``point_sq_max`` the largest
    computed squared norm of a point.
    """
    g = _gamma(d)
    a2 = query_sq / (1.0 - g) + 4 * d * _ETA  # >= |q|^2
    b2 = point_sq_max / (1.0 - g) + 4 * d * _ETA  # >= max |p|^2
    expanded = g * (2.0 * np.sqrt(a2) * np.sqrt(b2) + b2) + 8 * d * _ETA  # E1
    rounding = _U * np.abs(cutoff) + _ETA
    reach = np.maximum(cutoff + rounding + a2 + expanded, 0.0)  # M
    k = _gamma(d + 2)
    kernel = (k * reach + 4 * d * _ETA) / (1.0 - k)
    return cutoff + (rounding + 2.0 * (expanded + kernel)) * _MARGIN


def _prefiltered(
    index: NeighborIndex, queries: np.ndarray, t: int, point_sq: np.ndarray, query_sq: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(order, sqd)`` of the ``t`` nearest points, tile by tile: equal to
    :func:`_exact` byte for byte.  A tile whose candidates exceed
    ``1 / _DENSE`` of its pairs goes through :func:`_exact` instead."""
    m, n = queries.shape[0], index.n
    rows = max(1, _TILE_BYTES // (8 * n))
    expanded = np.empty((min(rows, m), n))
    ranked = np.empty_like(expanded)
    order = np.empty((m, t), dtype=np.int64)
    sqd = np.empty((m, t))
    point_sq_max = float(point_sq.max())
    for start in range(0, m, rows):
        tile = slice(start, min(start + rows, m))
        q = queries[tile]
        keep = _candidates(
            index, q, t, point_sq, query_sq[tile], point_sq_max,
            expanded[: q.shape[0]], ranked[: q.shape[0]],
        )
        if np.count_nonzero(keep) * _DENSE > keep.size:
            order[tile], sqd[tile] = _exact(index, q, t)
        else:
            order[tile], sqd[tile] = _rescored(index.points, q, keep, t)
    return order, sqd


def _candidates(
    index: NeighborIndex,
    queries: np.ndarray,
    t: int,
    point_sq: np.ndarray,
    query_sq: np.ndarray,
    point_sq_max: float,
    expanded: np.ndarray,
    ranked: np.ndarray,
) -> np.ndarray:
    """(rows, n) mask of the points each query keeps: expanded value at most
    the t-th smallest plus 2 E.  ``expanded`` and ``ranked`` are (rows, n)
    scratch buffers."""
    # |p|^2 - 2 q.p: the expanded squared distance less the query's |q|^2
    np.matmul(-2.0 * queries, index.columns, out=expanded)
    expanded += point_sq
    np.copyto(ranked, expanded)
    ranked.partition(t - 1, axis=1)
    limit = _candidate_limit(ranked[:, t - 1], query_sq, point_sq_max, index.dim)
    return expanded <= limit[:, None]


def _rescored(
    points: np.ndarray, queries: np.ndarray, keep: np.ndarray, t: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(order, sqd)`` of the ``t`` nearest kept points of each query, by
    their kernel distances in (distance, index) order.

    The kept pairs come in row-major order, so ``j`` ascends within each
    query's run, and the stable sort by (query, distance) leaves tied
    distances in index order.  On 13-row tiles over 2,400 points in 16
    dimensions, taking the pairs from the flat mask and sorting on two keys
    takes 0.35-0.67 of the time of ``np.nonzero`` on the 2-D mask and a
    three-key sort.
    """
    i, j = np.divmod(np.flatnonzero(keep), keep.shape[1])
    dist = np.empty(i.shape[0])
    step = max(1, _TILE_BYTES // (8 * points.shape[1]))
    for s in range(0, i.shape[0], step):
        diff = points[j[s : s + step]] - queries[i[s : s + step]]
        dist[s : s + step] = np.multiply(diff, diff, out=diff).sum(-1)
    pick = np.lexsort((dist, i))
    counts = np.bincount(i, minlength=keep.shape[0])
    pick = pick[(np.cumsum(counts) - counts)[:, None] + np.arange(t)]
    return j[pick], dist[pick]
