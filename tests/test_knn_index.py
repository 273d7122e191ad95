import tracemalloc

import numpy as np
import pytest

from plbag import knn_index


def sq_distance_oracle(index, queries):
    """The distance kernel's former body: an explicit (m, n, d) difference tensor."""
    queries = np.asarray(queries, dtype=np.float64)
    diff = index.points[None, :, :] - queries[:, None, :]
    return np.multiply(diff, diff, out=diff).sum(axis=-1)


def neighbors(index, query, t=None):
    """Neighbor order of one query, read from a one-row block."""
    blocks = list(knn_index.neighbor_blocks(index, np.atleast_2d(query), t or index.n))
    assert len(blocks) == 1
    return blocks[0][1][0]


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
            next(knn_index.neighbor_blocks(index, np.array([[0.0]]), 1))

    def test_exhausts_after_n(self):
        # asking for more neighbors than points yields all n, once each
        index = knn_index.build(np.array([[0.0], [1.0]]))
        _, order, sqd = next(knn_index.neighbor_blocks(index, np.array([[0.0]]), 5))
        assert order.tolist() == [[0, 1]]
        assert sqd.tolist() == [[0.0, 1.0]]


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
        # the 600-query batch spans several blocks; every row must equal the
        # same query run as a one-row block
        rng = np.random.default_rng(15)
        for n, m, t in ((40, 9, 40), (300, 600, 20)):
            index = knn_index.build(rng.normal(size=(n, 5)))
            queries = rng.normal(size=(m, 5))
            covered = 0
            for rows, order, sqd in knn_index.neighbor_blocks(index, queries, t):
                assert rows.start == covered and order.shape == (rows.stop - covered, t)
                for i in range(rows.start, rows.stop):
                    one = queries[i : i + 1]
                    _, one_order, one_sqd = next(knn_index.neighbor_blocks(index, one, t))
                    assert np.array_equal(order[i - covered], one_order[0])
                    assert np.array_equal(sqd[i - covered], one_sqd[0])
                covered = rows.stop
            assert covered == m


class TestNearestOrders:
    def test_stacks_blocks_and_prefixes_are_exact(self):
        # integer grid: many tied distances, broken by index
        rng = np.random.default_rng(9)
        points = rng.integers(0, 4, size=(90, 2)).astype(float)
        index = knn_index.build(points)
        queries = rng.integers(0, 4, size=(600, 2)).astype(float)
        wide = knn_index.nearest_orders(index, queries, 50)
        blocks = [order for _, order, _ in knn_index.neighbor_blocks(index, queries, 50)]
        assert np.array_equal(wide, np.concatenate(blocks))
        for t in (1, 9, 50):
            assert np.array_equal(wide[:, :t], knn_index.nearest_orders(index, queries, t))
        assert knn_index.nearest_orders(index, queries, 500).shape == (600, 90)
        assert knn_index.nearest_orders(index, queries[:0], 5).shape == (0, 5)


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
