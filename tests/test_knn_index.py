import tracemalloc
from unittest import mock

import numpy as np
import pytest

from plbag import knn_index


def sq_distance_oracle(index, queries):
    """The distance kernel's former body: an explicit (m, n, d) difference tensor."""
    queries = np.asarray(queries, dtype=np.float64)
    diff = index.points[None, :, :] - queries[:, None, :]
    return np.multiply(diff, diff, out=diff).sum(axis=-1)


def searched(index, queries, t):
    """``(order, sqd)`` that one ``search`` call writes for ``queries``, ``t`` deep."""
    queries = np.atleast_2d(queries)
    order = np.empty((queries.shape[0], t), dtype=np.int64)
    sqd = np.empty(order.shape)
    knn_index.search(index, queries, order, sqd)
    return order, sqd


def neighbors(index, query, t=None):
    """Neighbor order of one query, from a one-row search."""
    return searched(index, query, t or index.n)[0][0]


def full_search(index, queries, t):
    """``(order, sqd)`` from every distance: each row of the kernel's matrix
    ranked by ``nearest_order``."""
    dist = knn_index.sq_distance_chunk(index, queries)
    order = np.array([knn_index.nearest_order(row, t) for row in dist]).reshape(-1, t)
    return order, np.take_along_axis(dist, order, axis=1)


def tiles(m, n):
    """Distance tiles of a search of m queries over n points."""
    return -(-m // max(1, knn_index._TILE_BYTES // (8 * n)))


def record_candidates(monkeypatch):
    """Route ``_candidates``, called once per prefiltered tile, through a
    recorder; returns the list of ``(queries, t, index)`` of its calls."""
    calls = []
    real = knn_index._candidates

    def recording(index, queries, t, *rest):
        calls.append((queries, t, index))
        return real(index, queries, t, *rest)

    monkeypatch.setattr(knn_index, "_candidates", recording)
    return calls


class TestBuild:
    def test_single_point(self):
        index = knn_index.build(np.array([[1.0, 2.0]]))
        assert index.n == 1 and index.dim == 2

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            knn_index.build(np.array([[np.nan]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            knn_index.build(np.zeros((0, 2)))

    def test_duplicates_both_retrievable(self):
        index = knn_index.build(np.array([[1.0], [1.0]]))
        emitted = neighbors(index, np.array([1.0]))
        assert sorted(emitted) == [0, 1]


class TestStreamOrder:
    def test_collinear_from_middle(self):
        # from the middle of three collinear points: distance, then index
        index = knn_index.build(np.array([[0.0], [1.0], [2.5]]))
        assert neighbors(index, np.array([1.0])).tolist() == [1, 0, 2]

    def test_line_query(self):
        index = knn_index.build(np.array([[0.0], [1.0], [2.0]]))
        assert neighbors(index, np.array([0.9])).tolist() == [1, 0, 2]

    def test_query_on_training_point(self):
        index = knn_index.build(np.array([[3.0], [7.0]]))
        assert neighbors(index, np.array([7.0]), 1).tolist() == [1]

    def test_equidistant_tie_breaks_by_index(self):
        index = knn_index.build(np.array([[1.0], [-1.0]]))
        assert neighbors(index, np.array([0.0])).tolist() == [0, 1]

    def test_dimension_mismatch(self):
        index = knn_index.build(np.array([[0.0, 0.0]]))
        with pytest.raises(ValueError):
            knn_index.search(index, np.array([[0.0]]), np.empty((1, 1), dtype=np.int64))

    def test_exhausts_after_n(self):
        # all n neighbors come once each; an order deeper than n, or with a
        # row count other than the queries', is refused
        index = knn_index.build(np.array([[0.0], [1.0]]))
        order, sqd = searched(index, np.array([[0.0]]), 2)
        assert order.tolist() == [[0, 1]]
        assert sqd.tolist() == [[0.0, 1.0]]
        for shape in ((1, 5), (1, 0), (2, 2)):
            with pytest.raises(ValueError, match="does not hold 1 to 2 neighbors"):
                knn_index.search(index, np.array([[0.0]]), np.empty(shape, dtype=np.int64))
        with pytest.raises(ValueError, match="does not hold"):
            knn_index.search(index, np.array([[0.0]]), order, np.empty((1, 1)))


class TestOracleEquivalence:
    """The first k neighbors must equal the k smallest of a full sort."""

    def test_random_instances_match_full_sort(self):
        rng = np.random.default_rng(5)
        for n in (1, 7, 113, 2000):
            pts = rng.normal(size=(n, 3))
            index = knn_index.build(pts)
            query = rng.normal(size=3)
            sqd = ((pts - query) ** 2).sum(axis=1)
            expected = np.lexsort((np.arange(n), sqd))
            emitted = neighbors(index, query)
            assert np.array_equal(emitted, expected)

    def test_tie_heavy_instances(self):
        # integer grid points force many exact distance ties
        rng = np.random.default_rng(8)
        pts = rng.integers(-2, 3, size=(300, 2)).astype(float)
        index = knn_index.build(pts)
        query = np.zeros(2)
        sqd = ((pts - query) ** 2).sum(axis=1)
        expected = np.lexsort((np.arange(300), sqd))
        emitted = neighbors(index, query)
        assert np.array_equal(emitted, expected)

    def test_determinism(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(50, 2))
        index = knn_index.build(pts)
        query = rng.normal(size=2)
        first = neighbors(index, query)
        second = neighbors(index, query)
        assert np.array_equal(first, second)


class TestNearestOrderHelper:
    def test_matches_lexsort_prefix(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            sqd = rng.integers(0, 6, size=n).astype(float)  # heavy ties
            limit = int(rng.integers(1, n + 1))
            full = np.lexsort((np.arange(n), sqd))
            got = knn_index.nearest_order(sqd, limit)
            assert np.array_equal(got, full[:limit])

    def test_chunk_distances_match_single_query(self):
        # every row of the 600-query search must equal the same query
        # searched alone (TestBlockRule searches such a batch in blocks)
        rng = np.random.default_rng(15)
        for n, m, t in ((40, 9, 40), (300, 600, 20)):
            index = knn_index.build(rng.normal(size=(n, 5)))
            queries = rng.normal(size=(m, 5))
            order, sqd = searched(index, queries, t)
            for i in range(m):
                one_order, one_sqd = searched(index, queries[i : i + 1], t)
                assert np.array_equal(order[i], one_order[0])
                assert np.array_equal(sqd[i], one_sqd[0])


class TestPrefixes:
    """The first t columns of a deeper search equal a search at t; a caller
    that searches once at the largest depth relies on this."""

    def test_integer_grid_ties(self):
        # integer grid: many tied distances, broken by index
        rng = np.random.default_rng(9)
        points = rng.integers(0, 4, size=(90, 2)).astype(float)
        index = knn_index.build(points)
        queries = rng.integers(0, 4, size=(600, 2)).astype(float)
        wide, wide_sqd = searched(index, queries, 50)
        for t in (1, 9, 50):
            order, sqd = searched(index, queries, t)
            assert np.array_equal(wide[:, :t], order)
            assert wide_sqd[:, :t].tobytes() == sqd.tobytes()
        with pytest.raises(ValueError, match="does not hold 1 to 90 neighbors"):
            searched(index, queries, 500)

    def test_depths_straddle_the_prefilter_rule(self, monkeypatch):
        # n = 320 in d = 10: t <= 10 is prefiltered, deeper searches are full
        calls = record_candidates(monkeypatch)
        rng = np.random.default_rng(19)
        points = rng.normal(size=(320, 10))
        points[200:240] = points[:40]  # exact duplicates
        index = knn_index.build(points)
        queries = np.vstack([rng.normal(size=(290, 10)), points[:10]])
        deep, deep_sqd = searched(index, queries, 320)
        for t in (1, 3, 10, 11, 40):
            order, sqd = searched(index, queries, t)
            assert np.array_equal(deep[:, :t], order), t
            assert deep_sqd[:, :t].tobytes() == sqd.tobytes(), t
        assert [t for _, t, _ in calls] == [t for t in (1, 3, 10) for _ in range(tiles(300, 320))]


class TestNonFiniteQueries:
    """A query with a NaN or inf coordinate makes ``search`` raise
    ``ValueError`` once its block (the caller's call) is reached, on both
    dispatch paths, before anything of the block is written; the rows before
    it are searched when the caller passes them alone."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "n, d, t, prefiltered", [(90, 2, 90, False), (320, 8, 3, True)],
        ids=["90-2-False", "320-8-True"],
    )
    def test_rejected_once_its_block_is_reached(self, monkeypatch, value, n, d, t, prefiltered):
        calls = record_candidates(monkeypatch)
        rng = np.random.default_rng(29)
        index = knn_index.build(rng.normal(size=(n, d)))
        queries = rng.normal(size=(300, d))
        queries[280, d - 1] = value
        order = np.full((300, t), -1)
        sqd = np.full((300, t), -1.0)
        with pytest.raises(ValueError, match="queries must be finite; query 280 is not"):
            knn_index.search(index, queries, order, sqd)
        assert (order == -1).all() and (sqd == -1.0).all() and calls == []
        knn_index.search(index, queries[:280], order[:280], sqd[:280])
        assert np.array_equal(order[:280], full_search(index, queries[:280], t)[0])
        assert len(calls) == (tiles(280, n) if prefiltered else 0)


class TestBlockRule:
    """A caller may search its queries in blocks of any size, one ``search``
    call each: every row gets the order and distance bytes of its one-row
    search."""

    @staticmethod
    def assert_blocks_equal_one_row_searches(index, queries, t, sizes, rows):
        order = np.empty((queries.shape[0], t), dtype=np.int64)
        sqd = np.empty(order.shape)
        start = 0
        for size in sizes:
            block = slice(start, start + size)
            knn_index.search(index, queries[block], order[block], sqd[block])
            start += size
        assert start == queries.shape[0]
        for i in rows:
            one_order, one_sqd = searched(index, queries[i : i + 1], t)
            assert np.array_equal(order[i], one_order[0]), i
            assert sqd[i].tobytes() == one_sqd[0].tobytes(), i

    def test_deep_search_in_floor_blocks(self, monkeypatch):
        calls = record_candidates(monkeypatch)
        rng = np.random.default_rng(31)
        index = knn_index.build(rng.integers(-4, 5, size=(1100, 3)).astype(float))
        queries = rng.integers(-4, 5, size=(600, 3)).astype(float)
        self.assert_blocks_equal_one_row_searches(index, queries, 1100, [256, 256, 88], range(600))
        assert calls == []

    def test_wide_prefiltered_search(self, monkeypatch):
        calls = record_candidates(monkeypatch)
        rng = np.random.default_rng(32)
        index = knn_index.build(rng.normal(size=(320, 2000)))
        queries = rng.normal(size=(600, 2000))
        # each block's first and last rows, and a sample between them
        rows = sorted({0, 258, 259, 517, 518, 599, *rng.choice(600, size=30, replace=False)})
        self.assert_blocks_equal_one_row_searches(index, queries, 10, [259, 259, 82], rows)
        # 102-row tiles over 320 points, within each block
        assert [q.shape[0] for q, _, _ in calls] == [102, 102, 55] * 2 + [82] + [1] * len(rows)


class TestDistanceKernel:
    """``sq_distance_chunk`` must reproduce the tensor oracle byte for byte."""

    # around numpy's pairwise-sum boundaries: < 8 terms, 8-lane blocks,
    # remainders, the 128-term block and recursive splits above it
    DIMS = (1, 2, 3, 7, 8, 9, 15, 16, 17, 24, 127, 128, 129, 136, 257)

    @staticmethod
    def assert_same_bytes(index, queries):
        got = knn_index.sq_distance_chunk(index, queries)
        expected = sq_distance_oracle(index, queries)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d", DIMS)
    def test_random_instances(self, d):
        rng = np.random.default_rng(100 + d)
        for scale in (1e-6, 1.0, 1e6):
            n = int(rng.integers(1, 40))
            widths = scale * rng.uniform(0.1, 10.0, size=d)  # unequal coordinate scales
            index = knn_index.build(rng.normal(size=(n, d)) * widths)
            for m in (0, 1, 5):
                self.assert_same_bytes(index, rng.normal(size=(m, d)) * widths)

    @pytest.mark.parametrize("d", DIMS)
    def test_integer_grid_ties_and_duplicates(self, d):
        rng = np.random.default_rng(200 + d)
        pts = rng.integers(-2, 3, size=(30, d)).astype(float)
        pts[10:20] = pts[:10]  # duplicate points
        index = knn_index.build(pts)
        queries = np.vstack([pts[:3], rng.integers(-2, 3, size=(4, d))])  # queries on points
        self.assert_same_bytes(index, queries)

    def test_many_queries_across_tiles_and_blocks(self):
        rng = np.random.default_rng(300)
        for d in (2, 9, 17):
            index = knn_index.build(rng.normal(size=(200, d)))
            self.assert_same_bytes(index, rng.normal(size=(600, d)))

    def test_one_row_tiles(self):
        # n this large leaves room for one query row per tile
        rng = np.random.default_rng(301)
        n = knn_index._TILE_BYTES // 8 + 100
        for d in (3, 9):
            index = knn_index.build(rng.normal(size=(n, d)))
            self.assert_same_bytes(index, rng.normal(size=(3, d)))

    def test_no_difference_tensor(self):
        # peak memory stays near the (m, n) output; the oracle's (m, n, d)
        # tensor is d = 16 times that
        rng = np.random.default_rng(302)
        index = knn_index.build(rng.normal(size=(2000, 16)))
        queries = rng.normal(size=(64, 16))
        tracemalloc.start()
        try:
            out = knn_index.sq_distance_chunk(index, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * out.nbytes


def prefiltered_search(index, queries, t):
    """The prefilter's candidates and rescoring for every query, without the
    dense-tile fallback of ``search``."""
    point_sq = knn_index._safe_sq_norms(index.points)
    query_sq = knn_index._safe_sq_norms(queries)
    assert point_sq is not None and query_sq is not None
    expanded = np.empty((queries.shape[0], index.n))
    keep = knn_index._candidates(
        index, queries, t, point_sq, query_sq, float(point_sq.max()),
        expanded, np.empty_like(expanded),
    )
    return knn_index._rescored(index.points, queries, keep, t)


def assert_same_search(index, queries, t):
    """Prefiltered searches give the full search's order and bytes: every
    query's candidates rescored at once, and ``search`` with its rule
    widened to every t and d, tiled, with its dense-tile fallback."""
    order, sqd = full_search(index, queries, t)
    with mock.patch.multiple(knn_index, _PREFILTER_RATIO=1, _PREFILTER_MIN_DIM=1):
        tiled = searched(index, queries, t)
    for got_order, got_sqd in (prefiltered_search(index, queries, t), tiled):
        assert np.array_equal(got_order, order), (index.dim, t)
        assert got_sqd.tobytes() == sqd.tobytes(), (index.dim, t)


class TestPrefilter:
    """The prefiltered search against the full one: ``order`` equal and
    ``sqd`` equal byte for byte."""

    def test_every_dimension_and_neighbor_count(self):
        # Gaussian and integer-grid points, each with exact duplicates: on the
        # grid most distances tie, so the order within every tie (index
        # order, from the rescoring's stable sort) is checked at every t
        rng = np.random.default_rng(400)
        for d in range(1, 65):
            n = int(rng.integers(2, 40))
            gaussian = rng.normal(size=(n, d))
            grid = rng.integers(-1, 2, size=(n, d)).astype(float)
            for points, probes in ((gaussian, rng.normal(size=(4, d))), (grid, grid[-4:] + 0.0)):
                points[n // 2 :: 3] = points[: len(points[n // 2 :: 3])]  # exact duplicates
                queries = np.vstack([probes, points[:2]])
                index = knn_index.build(points)
                for t in range(1, n + 1):
                    assert_same_search(index, queries, t)

    @pytest.mark.parametrize("d", [8, 16, 33])
    def test_random_points_and_integer_grid_ties(self, d):
        rng = np.random.default_rng(410 + d)
        gaussian = rng.normal(size=(300, d))
        grid = rng.integers(-1, 2, size=(300, d)).astype(float)  # many exact ties
        for points in (gaussian, grid):
            points[200:260] = points[:60]
            index = knn_index.build(points)
            queries = np.vstack([points[:10], points[250:255], rng.normal(size=(20, d))])
            for t in (1, 2, 9, 51, 150, 300):
                assert_same_search(index, queries, t)

    @pytest.mark.parametrize("d", [1, 3, 8, 16])
    def test_one_ulp_near_ties_at_the_cutoff(self, d):
        # points on the axes at 1 - ulp/2, 1, 1 + ulp and 1 + 2 ulp from the
        # origin: squared distances tie exactly or differ by an ulp or two
        rng = np.random.default_rng(420 + d)
        radii = np.array([np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)])
        radii = np.append(radii, np.nextafter(radii[-1], 2.0))
        n = 200
        points = np.zeros((n, d))
        sign = rng.choice([-1.0, 1.0], size=n)
        points[np.arange(n), rng.integers(0, d, size=n)] = sign * rng.choice(radii, size=n)
        queries = np.vstack([np.zeros(d), 1e-12 * rng.normal(size=(5, d))])
        index = knn_index.build(points)
        for t in (1, 7, 40, 60, 110, 200):
            assert_same_search(index, queries, t)

    @pytest.mark.parametrize("noise", [1.0, 1e-3])
    def test_common_offset(self, noise):
        # |q|^2 and |p|^2 near 1e16 d cancel to distances near noise^2 d
        rng = np.random.default_rng(430)
        for d in (1, 2, 3, 8, 16, 64):
            index = knn_index.build(1e8 + noise * rng.normal(size=(250, d)))
            queries = 1e8 + noise * rng.normal(size=(30, d))
            for t in (1, 5, 20):
                assert_same_search(index, queries, t)

    @pytest.mark.parametrize("scale", [1e-155, 1e-160, 1e-162, 1e-170])
    def test_tiny_magnitudes(self, scale):
        # squares near or below the normal range: the absolute term carries E
        rng = np.random.default_rng(440)
        for d in (1, 4, 16):
            index = knn_index.build(scale * rng.normal(size=(200, d)))
            queries = scale * rng.normal(size=(20, d))
            for t in (1, 6, 30):
                assert_same_search(index, queries, t)

    def test_slack_covers_the_error_spread(self):
        # Points whose exact distances nearly tie are ranked by the rounding
        # errors of the expanded form alone, so the slack 2E must cover the
        # spread of those errors: a nearest point with a high error must
        # survive a cutoff set by one with a low error.  In one dimension
        # near 1e8 each product rounds once and the final sum is exact
        # (all terms are even integers below 2**54), so the errors are the
        # ones the bound counts, whatever the BLAS.
        from fractions import Fraction

        rng = np.random.default_rng(450)
        points = 1e8 + 1e-3 * rng.normal(size=(300, 1))
        queries = 1e8 + 1e-3 * rng.normal(size=(10, 1))
        index = knn_index.build(points)
        point_sq = knn_index._safe_sq_norms(points)
        query_sq = knn_index._safe_sq_norms(queries)
        expanded = np.empty((10, 300))
        ranked = np.empty_like(expanded)
        knn_index._candidates(
            index, queries, 1, point_sq, query_sq, float(point_sq.max()), expanded, ranked
        )
        cutoff = ranked[:, 0]
        slack = knn_index._candidate_limit(cutoff, query_sq, float(point_sq.max()), 1) - cutoff
        for i, q in enumerate(queries[:, 0].tolist()):
            errors = [
                Fraction(e) - (Fraction(p) ** 2 - 2 * Fraction(q) * Fraction(p))
                for e, p in zip(expanded[i].tolist(), points[:, 0].tolist())
            ]
            assert max(errors) - min(errors) <= slack[i]

    def test_dispatch_rule(self, monkeypatch):
        calls = record_candidates(monkeypatch)
        rng = np.random.default_rng(460)
        cases = [(1, 32, 8, True), (2, 64, 8, True), (2, 63, 8, False), (1, 100, 7, False),
                 (3, 96, 20, True), (9, 200, 12, False)]
        for t, n, d, expected in cases:
            index = knn_index.build(rng.normal(size=(n, d)))
            queries = rng.normal(size=(300, d))
            order, _ = searched(index, queries, t)
            assert len(calls) == (tiles(300, n) if expected else 0)
            assert np.array_equal(order, full_search(index, queries, t)[0])
            calls.clear()

    def test_norms_out_of_range_take_the_full_search(self, monkeypatch):
        rng = np.random.default_rng(470)
        points = rng.normal(size=(100, 8))
        assert knn_index._safe_sq_norms(points) is not None
        huge = points.copy()
        huge[3, 2] = 1e152  # squared norm 1e304, above 2**1000
        subnormal = points.copy()
        subnormal[5, 0] = 5e-324
        nan = points[:4].copy()
        nan[1, 1] = np.nan
        for x in (huge, subnormal, nan):
            assert knn_index._safe_sq_norms(x) is None
        assert knn_index.build(huge).sq_norms is None

        def prefiltered(*args):
            raise AssertionError("prefiltered outside the bound's range")

        monkeypatch.setattr(knn_index, "_candidates", prefiltered)
        for points, queries in ((huge, rng.normal(size=(20, 8))), (points, subnormal[:20])):
            index = knn_index.build(points)
            order, sqd = searched(index, queries, 3)
            expected_order, expected_sqd = full_search(index, queries, 3)
            assert np.array_equal(order, expected_order)
            assert sqd.tobytes() == expected_sqd.tobytes()

    def test_tiles_bound_memory(self):
        # the candidates of a 256-query search come from tiles of about
        # _TILE_BYTES; a (256, n) distance matrix would be 32 times that
        rng = np.random.default_rng(480)
        index = knn_index.build(rng.normal(size=(8192, 16)))
        queries = rng.normal(size=(256, 16))
        order = np.empty((256, 11), dtype=np.int64)
        sqd = np.empty(order.shape)
        assert 11 <= knn_index.prefilter_depth(8192, 16) and index.sq_norms is not None
        tracemalloc.start()
        try:
            knn_index.search(index, queries, order, sqd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * knn_index._TILE_BYTES

    @pytest.mark.parametrize("d, t", [(2, 40), (16, 5)], ids=["full", "prefiltered"])
    def test_the_callers_dtype_and_no_distances(self, d, t):
        # an int32 order without distances holds the int64 order's values
        rng = np.random.default_rng(490)
        index = knn_index.build(rng.normal(size=(400, d)))
        queries = rng.normal(size=(50, d))
        wide, _ = searched(index, queries, t)
        narrow = np.empty((50, t), dtype=np.int32)
        knn_index.search(index, queries, narrow)
        assert np.array_equal(narrow, wide)
