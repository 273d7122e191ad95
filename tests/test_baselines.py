import math
import tracemalloc
import warnings

import numpy as np
import pytest

from plbag import baselines, knn_index, plaknn
from plbag.core import LabelSpace, PartialDataset
from plbag.plaknn import PlaknnConfig

from _fixtures import random_partial_dataset


def make_train(masks, positions=None, c=2):
    masks = np.asarray(masks, dtype=np.uint64)
    if positions is None:
        positions = np.arange(1, masks.shape[0] + 1, dtype=float)
    feats = np.asarray(positions, dtype=float).reshape(-1, 1)
    return PartialDataset(feats, masks, LabelSpace(c))


def fixed_k_one(train, index, x, k):
    """One query through a one-row ``fixed_k_batch``."""
    return int(baselines.fixed_k_batch(train, index, np.asarray(x, dtype=float)[None, :], k)[0])


class TestFixedK:
    def test_tie_breaks_to_smallest(self):
        # neighbor bags {1},{1,2},{2}: counts tie at 2 apiece
        train = make_train([1, 3, 2])
        index = knn_index.build(train.features)
        assert fixed_k_one(train, index, np.array([0.0]), 3) == 1

    def test_single_neighbor(self):
        train = make_train([2, 1])
        index = knn_index.build(train.features)
        assert fixed_k_one(train, index, np.array([0.0]), 1) == 2

    def test_hand_count(self):
        # bags {1},{1},{1,3},{2},{3}: counts (3, 1, 2)
        train = make_train([1, 1, 5, 2, 4], c=3)
        index = knn_index.build(train.features)
        assert fixed_k_one(train, index, np.array([0.0]), 5) == 1

    def test_k_equals_n_ignores_query(self):
        rng = np.random.default_rng(3)
        train = random_partial_dataset(rng, 30, 2, 4)
        index = knn_index.build(train.features)
        labels = {
            fixed_k_one(train, index, rng.normal(size=2) * 10, 30)
            for _ in range(10)
        }
        assert len(labels) == 1

    def test_k_out_of_range(self):
        train = make_train([1, 2])
        index = knn_index.build(train.features)
        with pytest.raises(ValueError):
            fixed_k_one(train, index, np.array([0.0]), 3)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        train = random_partial_dataset(rng, 40, 2, 3)
        index = knn_index.build(train.features)
        queries = rng.normal(size=(30, 2))
        batch = baselines.fixed_k_batch(train, index, queries, 7)
        scalar = [fixed_k_one(train, index, q, 7) for q in queries]
        assert batch.tolist() == scalar


class TestAknn:
    def test_unanimous_bags_qualify_at_formula_k(self):
        # all bags {1}: frequency 1, so qualification needs 1 - 1/2 >= delta_k
        n = 40
        train = make_train([1] * n)
        index = knn_index.build(train.features)
        cfg = PlaknnConfig(T=n)
        label, k_qual = baselines.aknn_decision(train, index, np.array([0.0]), cfg)
        assert label == 1
        expected = next(
            k for k in range(1, n + 1) if 1.0 - 0.5 >= PlaknnConfig().threshold(n, k, 2, 1)
        )
        assert k_qual == expected

    def test_full_bags_tie_to_smallest_label(self):
        # every label always present: all qualify simultaneously once the
        # threshold drops below 1 - 1/c
        n = 50
        train = make_train([7] * n, c=3)
        index = knn_index.build(train.features)
        label, k_qual = baselines.aknn_decision(train, index, np.array([0.0]), PlaknnConfig(T=n))
        assert label == 1
        assert k_qual is not None

    def test_fallback_when_nothing_qualifies(self):
        # a tiny cap keeps the threshold too high to cross
        train = make_train([1, 3, 2, 3, 1], c=2)
        index = knn_index.build(train.features)
        label, k_qual = baselines.aknn_decision(train, index, np.array([0.0]), PlaknnConfig(T=2))
        assert k_qual is None
        assert label == 1  # most frequent at the cap, smallest on ties

    def test_agreement_with_elimination_on_unanimous_singletons(self):
        n = 35
        train = make_train([2] * n)
        index = knn_index.build(train.features)
        cfg = PlaknnConfig(T=n)
        q = np.array([0.0])
        assert baselines.aknn_decision(train, index, q, cfg)[0] == plaknn.classify(
            train, index, q, cfg
        )[0]


def aknn_oracle(train, x, config):
    """Literal per-query qualification rule: the reference for the batch form.

    Neighbors come from a full (distance, index) sort; the first step at
    which any label qualifies decides, smallest label first, and the most
    frequent label at the cap is the fallback.
    """
    n, c = train.n, train.label_space.c
    t_cap = min(config.T, n)
    d0 = None if config.mode == "pointwise" else config.d0 or train.dim + 1
    explicit = PlaknnConfig(c1=config.c1, delta=config.delta, mode=config.mode, d0=d0)
    sqd = ((train.features - x) ** 2).sum(axis=1)
    order = np.lexsort((np.arange(n), sqd))[:t_cap]
    counts = np.cumsum(train.membership_matrix()[order], axis=0)
    ks = np.arange(1, t_cap + 1, dtype=np.float64)
    deltas = np.array([explicit.threshold(n, k, c, train.dim) for k in range(1, t_cap + 1)])
    qualified = counts / ks[:, None] - 1.0 / c >= deltas[:, None]
    hits = qualified.any(axis=1)
    if hits.any():
        k0 = int(np.argmax(hits))
        return int(np.argmax(qualified[k0])) + 1, k0 + 1
    return int(np.argmax(counts[-1])) + 1, None


def _grid_dataset(rng, n, c):
    train = random_partial_dataset(rng, n, 2, c, extra_rate=0.4)
    return train.with_features(rng.integers(-3, 4, size=(n, 2)).astype(float))


AKNN_CASES = {
    "random": lambda rng: (
        random_partial_dataset(rng, 300, 2, 3), rng.normal(size=(80, 2)), PlaknnConfig(T=200)
    ),
    "grid_ties": lambda rng: (
        _grid_dataset(rng, 300, 4),
        rng.integers(-3, 4, size=(80, 2)).astype(float),
        PlaknnConfig(T=150),
    ),
    "t_above_n": lambda rng: (
        random_partial_dataset(rng, 40, 2, 2), rng.normal(size=(30, 2)), PlaknnConfig(T=100)
    ),
    "uniform": lambda rng: (
        random_partial_dataset(rng, 300, 3, 3),
        rng.normal(size=(80, 3)),
        PlaknnConfig(T=300, mode="uniform"),
    ),
    "cap_fallback": lambda rng: (
        random_partial_dataset(rng, 200, 2, 4), rng.normal(size=(60, 2)), PlaknnConfig(T=3)
    ),
}


class TestAknnOracle:
    @pytest.mark.filterwarnings("ignore:iteration cap")
    @pytest.mark.parametrize("case", sorted(AKNN_CASES))
    def test_batch_and_decision_match_oracle(self, case):
        train, queries, cfg = AKNN_CASES[case](np.random.default_rng(31))
        index = knn_index.build(train.features)
        expected = [aknn_oracle(train, q, cfg) for q in queries]
        batch = baselines.aknn_batch(train, index, queries, cfg)
        assert batch.tolist() == [label for label, _ in expected]
        decisions = [baselines.aknn_decision(train, index, q, cfg) for q in queries]
        assert decisions == expected
        if case == "cap_fallback":
            assert all(step is None for _, step in expected)
        else:
            assert any(step is not None for _, step in expected)


class TestQualifyingCounts:
    """aknn's qualifying counts, ``plaknn._smallest_count`` at shift ``1 / c``,
    equal the float rule ``q / k - 1 / c >= delta`` scanned over every count
    q of every step k."""

    @staticmethod
    def scanned(deltas, c):
        t = deltas.shape[0]
        ks = np.arange(1, t + 1)[:, None]
        q = np.arange(t + 1)[None, :]
        passes = (q <= ks) & (q / ks - 1.0 / c >= deltas[:, None])
        return np.where(passes.any(axis=1), passes.argmax(axis=1), ks[:, 0] + 1)

    @pytest.mark.parametrize("mode", ["pointwise", "uniform"])
    @pytest.mark.parametrize("c", [2, 3, 7, 10, 64])
    def test_every_step_matches_the_float_rule(self, mode, c):
        for c1 in (0.02, 0.1, 0.5, 1.7):
            for delta in (1e-3, 0.1, 0.6):
                for n, dim in ((10, 1), (400, 2), (400, 16), (10**6, 3)):
                    cfg = PlaknnConfig(c1=c1, delta=delta, mode=mode)
                    deltas = cfg.threshold(n, np.arange(1, min(n, 400) + 1), c, dim)
                    need = plaknn._smallest_count(deltas, 1.0 / c)
                    assert np.array_equal(need, self.scanned(deltas, c)), (c1, delta, n, dim)

    @pytest.mark.parametrize("c", [2, 3, 7, 10, 64])
    def test_thresholds_at_a_count_value(self, c):
        # a threshold equal to the float value of some count q at step k is
        # met by q itself; (delta + 1 / c) k may round to just above q
        # and one ulp above it is met only by q + 1, though it may round to q
        rng = np.random.default_rng(c)
        ks = np.arange(1, 401)
        at = (rng.random(400) * (ks + 1)).astype(int) / ks - 1.0 / c
        for deltas in (at, np.nextafter(at, np.inf)):
            need = plaknn._smallest_count(deltas, 1.0 / c)
            assert np.array_equal(need, self.scanned(deltas, c))

    def test_bounds(self):
        # a threshold no count reaches needs k + 1, one every count clears needs 0
        deltas = np.array([0.6, 5.0, np.inf, -1.0, -0.5])
        assert plaknn._smallest_count(deltas, 1.0 / 2).tolist() == [2, 3, 4, 0, 0]
        assert np.array_equal(plaknn._smallest_count(deltas, 1.0 / 2), self.scanned(deltas, 2))


class TestPrecomputedOrder:
    """``order=`` from ``knn_index.neighbor_blocks`` at a larger depth gives
    what searching gives, in all three batch functions: block by block, as
    ``bench run`` passes it, and stacked over several blocks."""

    @pytest.mark.filterwarnings("ignore:iteration cap")
    @pytest.mark.parametrize("n, T", [(40, 60), (300, 35)], ids=["T_above_n", "T_below_n"])
    def test_order_matches_search(self, n, T):
        rng = np.random.default_rng(n)
        train = random_partial_dataset(rng, n, 2, 4)
        index = knn_index.build(train.features)
        rows = knn_index._block_rows(min(T + 5, n), 2)
        m = 2 * rows + rows // 3
        queries = rng.normal(size=(m, 2))  # three blocks, the last one partial
        cfg = PlaknnConfig(T=T)
        blocks = list(knn_index.neighbor_blocks(index, queries, T + 5))
        assert len(blocks) == 3
        searched = plaknn.classify_batch_detail(train, index, queries, cfg)
        aknn = baselines.aknn_batch(train, index, queries, cfg)
        fixed = {k: baselines.fixed_k_batch(train, index, queries, k) for k in (1, 7, min(T, n))}
        stacked = (slice(0, m), np.concatenate([order for _, order, _ in blocks]), None)
        for rows, order, _ in blocks + [stacked]:
            q = queries[rows]
            given = plaknn.classify_batch_detail(train, index, q, cfg, order=order)
            assert np.array_equal(given.labels, searched.labels[rows])
            assert np.array_equal(given.iterations, searched.iterations[rows])
            assert np.array_equal(given.disambiguated, searched.disambiguated[rows])
            assert np.array_equal(baselines.aknn_batch(train, index, q, cfg, order=order), aknn[rows])
            for k, labels in fixed.items():
                assert np.array_equal(
                    baselines.fixed_k_batch(train, index, q, k, order=order), labels[rows]
                )

    @pytest.mark.parametrize(
        "classify, depth",
        [
            (plaknn.classify_batch_detail, PlaknnConfig(T=200)),
            (baselines.aknn_batch, PlaknnConfig(T=200)),
            (baselines.fixed_k_batch, 200),
        ],
        ids=["plaknn", "aknn", "fixed_k"],
    )
    def test_a_long_order_is_read_one_block_at_a_time(self, classify, depth):
        # 16 blocks of queries; gathering the bag rows of the whole order at
        # once peaked at 16.8 (fixed_k) to 57 (aknn) blocks' rows
        rng = np.random.default_rng(5)
        train = random_partial_dataset(rng, 400, 2, 10)
        index = knn_index.build(train.features)
        rows = knn_index._block_rows(200, 2)
        queries = rng.normal(size=(rows, 2))
        (_, order, _), = knn_index.neighbor_blocks(index, queries, 200)
        queries, order = np.tile(queries, (16, 1)), np.tile(order, (16, 1))
        block_rows = rows * 200 * 10  # bytes of one block's boolean bag rows
        tracemalloc.start()
        try:
            classify(train, index, queries, depth, order=order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * block_rows

    def test_bad_order_shapes(self):
        rng = np.random.default_rng(2)
        train = random_partial_dataset(rng, 50, 2, 3)
        index = knn_index.build(train.features)
        queries = rng.normal(size=(20, 2))
        cfg = PlaknnConfig(T=10)
        (_, order, _), = knn_index.neighbor_blocks(index, queries, 10)
        for bad in (order[:-1], order[:, :9], order[0], np.vstack([order, order])):
            with pytest.raises(ValueError, match="order of shape"):
                plaknn.classify_batch_detail(train, index, queries, cfg, order=bad)
            with pytest.raises(ValueError, match="order of shape"):
                baselines.aknn_batch(train, index, queries, cfg, order=bad)
        with pytest.raises(ValueError, match="order of shape"):
            baselines.fixed_k_batch(train, index, queries, 11, order=order)
        with pytest.raises(ValueError, match="index dimension"):
            baselines.fixed_k_batch(train, index, queries[:, :1], 4, order=order)
        assert np.array_equal(
            baselines.fixed_k_batch(train, index, queries, 4, order=order),
            baselines.fixed_k_batch(train, index, queries, 4),
        )


class TestOneBatching:
    """A search and a given order reach the kernels as the same int32
    batches of ``plaknn._batch_rows`` queries, so a search's memory follows
    the label count as a given order's does."""

    def test_kernels_see_the_same_batches(self, monkeypatch):
        # at c = 64 the batch rule gives 990 rows: batches of 990, 990 and 520
        # queries, where the search's one block holds all 2,500
        rng = np.random.default_rng(9)
        train = random_partial_dataset(rng, 300, 2, 64)
        index = knn_index.build(train.features)
        queries = rng.normal(size=(2500, 2))
        cfg = PlaknnConfig(T=35)
        order = np.concatenate([o for _, o, _ in knn_index.neighbor_blocks(index, queries, 35)])
        seen = []

        def recorder(kernel):
            def record(memb, block, table, *rest):
                seen[-1].append((kernel.__name__, block.shape, block.dtype))
                return kernel(memb, block, table, *rest)
            return record

        monkeypatch.setattr(plaknn, "_eliminate", recorder(plaknn._eliminate))
        monkeypatch.setattr(baselines, "_qualify", recorder(baselines._qualify))
        for given in (None, order.astype(np.int32)):
            seen.append([])
            plaknn.classify_batch_detail(train, index, queries, cfg, order=given)
            baselines.aknn_batch(train, index, queries, cfg, order=given)
        assert seen[0] == seen[1]
        assert [shape for _, shape, _ in seen[0]] == [(990, 35), (990, 35), (520, 35)] * 2

    def test_a_searched_batch_call_stays_small(self):
        # 20,000 queries in d = 2 are one 0.31 MB search block; the kernels'
        # O(c) state per query is not held for all of them at once
        rng = np.random.default_rng(4)
        train = random_partial_dataset(rng, 200, 2, 64)
        index = knn_index.build(train.features)
        queries = rng.normal(size=(20_000, 2))
        cfg = PlaknnConfig(T=2)
        plaknn.classify_batch_detail(train, index, queries[:10], cfg)  # lazy imports
        tracemalloc.start()
        try:
            plaknn.classify_batch_detail(train, index, queries, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestCapWarning:
    """A T above the training size warns once per call, and the warning
    points at the line that called the public function."""

    @pytest.mark.parametrize(
        "classifier, one_query",
        [
            (plaknn.classify, True),
            (plaknn.classify_batch, False),
            (plaknn.classify_batch_detail, False),
            (baselines.aknn_decision, True),
            (baselines.aknn_batch, False),
        ],
        ids=["classify", "classify_batch", "classify_batch_detail", "aknn_decision",
             "aknn_batch"],
    )
    def test_points_at_the_caller(self, classifier, one_query):
        train = random_partial_dataset(np.random.default_rng(1), 30, 2, 3)
        index = knn_index.build(train.features)
        queries = np.zeros((3, 2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            classifier(train, index, queries[0] if one_query else queries, PlaknnConfig(T=50))
        assert [(w.category, w.filename) for w in caught] == [(RuntimeWarning, __file__)]
        assert "T=50 exceeds the 30" in str(caught[0].message)


class TestThresholdCrossingContrast:
    """Deterministic crossing-point comparison of the two adaptive rules.

    With label frequencies (0.40, 0.30, 0.30), elimination works with a
    margin of 0.10 while qualification only has 0.40 - 1/3; the elimination
    rule therefore needs far fewer neighbors at the same confidence.
    """

    def test_elimination_crosses_before_qualification(self):
        n, c, delta = 10000, 3, 0.1
        config = PlaknnConfig(delta=delta)
        margin_elim = 0.10
        margin_qual = 0.40 - 1.0 / 3.0
        k_elim = next(k for k in range(1, n) if margin_elim >= config.threshold(n, k, c, 1))
        k_qual = next(k for k in range(1, n) if margin_qual >= config.threshold(n, k, c, 1))
        assert k_elim < k_qual
        a_const = 0.5 * math.sqrt(math.log(n) + math.log(c / delta))
        assert k_elim == math.ceil((a_const / margin_elim) ** 2)
