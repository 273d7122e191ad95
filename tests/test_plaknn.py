import math
import re

import numpy as np
import pytest

from plbag import knn_index, plaknn
from plbag.core import LabelSpace, PartialDataset
from plbag.plaknn import EliminationTrace, IterationRecord, PlaknnConfig, threshold

from _fixtures import random_partial_dataset


def threshold_oracle(n, k, delta, c, c1, d0):
    """The threshold formula in Python floats for one k."""
    scale = 1.0 if d0 is None else float(d0)
    return c1 * math.sqrt((scale * math.log(n) + math.log(c) - math.log(delta)) / k)


def classify_oracle(train, index, x, config):
    """Literal per-query elimination loop, independent of the batch kernel.

    Steps k = 1, 2, ... one neighbor at a time, fills the full margin matrix
    and disambiguates by its row-major argmin over the surviving labels.
    """
    n = train.n
    c = train.label_space.c
    t_cap = min(config.T, n)
    d0 = config.resolve_d0(train.dim)
    memb = train.membership_matrix()
    query = np.asarray(x, dtype=np.float64)[None, :]
    _, order, _ = next(knn_index.neighbor_blocks(index, query, t_cap))

    alive = np.ones(c, dtype=bool)
    tau = np.zeros(c, dtype=np.int64)
    margins = np.full((t_cap, c), np.inf)
    records = []
    k = 0
    while int(alive.sum()) > 1 and k < t_cap:
        k += 1
        l_k = order[0, k - 1]
        tau = tau + memb[l_k]
        delta_k = threshold(n, k, config.delta, c, config.c1, d0)
        capped = np.where(alive, tau, -1)
        m1 = int(capped.max())
        m2 = int(np.partition(capped, c - 2)[c - 2])
        row = math.sqrt(k) * (delta_k - (tau - m2) / k)
        margins[k - 1, alive] = row[alive]
        elim = alive & ((m1 - tau) / k >= delta_k)
        alive = alive & ~elim
        records.append(
            IterationRecord(
                k=k,
                neighbor=int(l_k),
                delta=delta_k,
                tau=tuple(int(v) for v in tau),
                survivors=frozenset(int(y) + 1 for y in np.flatnonzero(alive)),
                eliminated=tuple(int(y) + 1 for y in np.flatnonzero(elim)),
            )
        )

    if int(alive.sum()) == 1:
        label = int(np.flatnonzero(alive)[0]) + 1
        disambiguated = False
    else:
        masked = np.where(alive[None, :], margins[:k], np.inf)
        label = int(np.argmin(masked)) % c + 1
        disambiguated = True
    trace = EliminationTrace(
        n=n,
        label_space=train.label_space,
        records=records,
        margins=margins[:k],
        label=label,
        disambiguated=disambiguated,
    )
    return label, trace


def make_train(masks, positions=None, c=2):
    masks = np.asarray(masks, dtype=np.uint64)
    if positions is None:
        positions = np.arange(1, masks.shape[0] + 1, dtype=float)
    feats = np.asarray(positions, dtype=float).reshape(-1, 1)
    return PartialDataset(feats, masks, LabelSpace(c))


class TestThreshold:
    def test_log_n_vanishes_at_one(self):
        for k in (1, 2, 7):
            expected = 0.5 * math.sqrt(math.log(10 / 0.1) / k)
            assert threshold(1, k, 0.1, 10) == pytest.approx(expected, abs=1e-15)

    def test_formula_value(self):
        # 0.5 * sqrt((ln 100 + ln 100) / 4), high-precision value
        assert threshold(100, 4, 0.1, 10) == pytest.approx(0.7587135646925732, abs=1e-12)

    def test_uniform_with_unit_vc_matches_pointwise(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 5000))
            k = int(rng.integers(1, 400))
            delta = float(rng.uniform(0.01, 0.99))
            c = int(rng.integers(2, 12))
            assert threshold(n, k, delta, c, d0=1) == threshold(n, k, delta, c)

    def test_monotonicity(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(1, 10000))
            k = int(rng.integers(1, 1000))
            delta = float(rng.uniform(0.01, 0.99))
            c = int(rng.integers(2, 20))
            assert threshold(n, k + 1, delta, c) < threshold(n, k, delta, c)
            assert threshold(n + 1, k, delta, c) >= threshold(n, k, delta, c)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            threshold(0, 1, 0.1, 2)
        with pytest.raises(ValueError):
            threshold(1, 0, 0.1, 2)
        with pytest.raises(ValueError):
            threshold(1, 1, 1.0, 2)
        with pytest.raises(ValueError):
            threshold(1, 1, 0.1, 1)

    @pytest.mark.parametrize("c1", [0.0, -1.0, math.inf, math.nan])
    def test_c1_must_be_finite_and_positive(self, c1):
        # an infinite c1 makes every threshold infinite: nothing is ever eliminated
        with pytest.raises(ValueError, match="c1 must be finite and positive"):
            threshold(10, 1, 0.1, 2, c1)
        with pytest.raises(ValueError, match="c1 must be finite and positive"):
            PlaknnConfig(c1=c1)

    @pytest.mark.parametrize(
        "c1, d0, message",
        [
            (0.5, 10**400, "d0 must be in"),
            (0.5, 10**308, "overflow the threshold"),
            (1e308, None, "overflow the threshold"),
        ],
        ids=["d0_1e400", "d0_1e308", "c1_1e308"],
    )
    @pytest.mark.filterwarnings("error")
    def test_overflow_raises(self, c1, d0, message):
        # an infinite threshold eliminates nothing, and a d0 past the float
        # range has no float value
        with pytest.raises(ValueError, match=re.escape(message)):
            threshold(50, 1, 0.1, 2, c1, d0)
        with pytest.raises(ValueError, match=re.escape(message)):
            PlaknnConfig(c1=c1, mode="uniform", d0=d0)

    @pytest.mark.parametrize(
        "mode, d0", [("pointwise", None), ("uniform", None), ("uniform", 7)],
        ids=["pointwise", "uniform_dim", "uniform_d0"],
    )
    def test_array_of_k_equals_each_scalar(self, mode, d0):
        rng = np.random.default_rng(12)
        for n in (1, 37, 5000, 10**6):
            ks = np.arange(1, int(rng.integers(1, 5000)) + 1)
            config = PlaknnConfig(
                c1=float(rng.choice([0.05, 0.5, 3.0, 40.0])), delta=float(rng.uniform(0.001, 0.99)),
                mode=mode, d0=d0,
            )
            c, dim = int(rng.integers(2, 65)), int(rng.integers(1, 30))
            want = [
                threshold_oracle(n, k, config.delta, c, config.c1, config.resolve_d0(dim))
                for k in ks.tolist()
            ]
            assert config.threshold(n, ks, c, dim).tobytes() == np.array(want).tobytes()
            scalars = [config.threshold(n, k, c, dim) for k in ks[:400].tolist()]
            assert scalars == want[:400] and all(type(v) is float for v in scalars)

    def test_config_checks_the_largest_threshold(self):
        # d0 = 1e307 keeps the threshold finite at n = 10**6 but not at the
        # largest n an array can hold, so the config refuses it
        assert threshold(10**6, 1, 0.1, 2, 0.5, 10**307) < math.inf
        with pytest.raises(ValueError, match="overflow the threshold"):
            PlaknnConfig(mode="uniform", d0=10**307)
        assert PlaknnConfig(mode="uniform", d0=10**300).threshold(10**6, 1, 2, 1) < math.inf
        with pytest.raises(ValueError, match="d0 applies only in uniform mode"):
            PlaknnConfig(mode="pointwise", d0=10**400)


class TestConfig:
    def test_defaults(self):
        cfg = PlaknnConfig()
        assert cfg.c1 == 0.5 and cfg.delta == 0.1 and cfg.T == 400
        assert cfg.mode == "pointwise"

    def test_validation(self):
        with pytest.raises(ValueError):
            PlaknnConfig(delta=0.0)
        with pytest.raises(ValueError):
            PlaknnConfig(T=0)
        with pytest.raises(ValueError):
            PlaknnConfig(mode="other")
        # d0 is checked once, by the threshold's own range check
        with pytest.raises(ValueError, match=re.escape("d0 must be in [1, ")):
            PlaknnConfig(mode="uniform", d0=0)

    def test_uniform_d0_defaults_to_dim_plus_one(self):
        cfg = PlaknnConfig(mode="uniform")
        assert cfg.resolve_d0(2) == 3
        assert PlaknnConfig(mode="uniform", d0=7).resolve_d0(2) == 7
        assert PlaknnConfig().resolve_d0(2) is None


class TestClassifyHandTrace:
    def test_three_neighbor_trace(self):
        # bags {1},{1},{1,2} at distances 1,2,3: label 2 falls at k=2
        train = make_train([1, 1, 3])
        index = knn_index.build(train.features)
        label, trace = plaknn.classify(train, index, np.array([0.0]), PlaknnConfig(T=3))
        assert label == 1
        assert trace.iterations == 2
        assert trace.elimination_iteration(2) == 2
        assert trace.elimination_iteration(1) is None
        assert not trace.disambiguated
        assert trace.records[0].eliminated == ()
        assert trace.records[0].delta == pytest.approx(1.01172, abs=1e-4)
        assert trace.records[1].delta == pytest.approx(0.71540, abs=1e-4)
        assert trace.records[1].tau == (2, 0)

    def test_unanimous_singleton_bags(self):
        # all bags {2}: the rival margin is 1, so elimination lands at the
        # first k with threshold(n, k) <= 1, i.e. k = ceil(A^2)
        n = 30
        train = make_train([2] * n)
        index = knn_index.build(train.features)
        cfg = PlaknnConfig(T=n)
        label, trace = plaknn.classify(train, index, np.array([0.0]), cfg)
        assert label == 2
        a_const = 0.5 * math.sqrt(math.log(n) + math.log(2 / 0.1))
        expected_k = math.ceil(a_const**2)
        assert trace.elimination_iteration(1) == expected_k
        assert trace.iterations == expected_k

    def test_all_full_bags_disambiguates_to_smallest(self):
        train = make_train([7] * 6, c=3)
        index = knn_index.build(train.features)
        label, trace = plaknn.classify(train, index, np.array([0.0]), PlaknnConfig(T=5))
        assert label == 1
        assert trace.disambiguated
        assert trace.final_survivors == frozenset({1, 2, 3})
        # every filled margin equals the constant A, so the tie rule decides
        filled = trace.margins[np.isfinite(trace.margins)]
        np.testing.assert_allclose(filled, filled[0], atol=1e-12)

    def test_returned_label_in_final_survivors(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            train = random_partial_dataset(rng, 40, 2, 4)
            index = knn_index.build(train.features)
            label, trace = plaknn.classify(
                train, index, rng.normal(size=2), PlaknnConfig(T=20)
            )
            assert label in trace.final_survivors

    def test_t_clamped_with_warning(self):
        train = make_train([1, 2], c=2)
        index = knn_index.build(train.features)
        with pytest.warns(RuntimeWarning):
            _, trace = plaknn.classify(train, index, np.array([0.0]), PlaknnConfig(T=10))
        assert trace.iterations <= 2

    def test_uniform_mode_threshold_in_trace(self):
        rng = np.random.default_rng(31)
        train = random_partial_dataset(rng, 25, 3, 3)
        index = knn_index.build(train.features)
        cfg = PlaknnConfig(T=10, mode="uniform")
        _, trace = plaknn.classify(train, index, rng.normal(size=3), cfg)
        for rec in trace.records:
            expected = threshold(25, rec.k, 0.1, 3, d0=4)
            assert rec.delta == expected


class TestTraceInvariants:
    def _traces(self, seed, n=60, c=4, t=25, queries=15):
        rng = np.random.default_rng(seed)
        train = random_partial_dataset(rng, n, 2, c)
        index = knn_index.build(train.features)
        cfg = PlaknnConfig(T=t)
        return train, [
            plaknn.classify(train, index, rng.normal(size=2), cfg)[1]
            for _ in range(queries)
        ]

    def test_survivors_nonincreasing(self):
        _, traces = self._traces(41)
        for trace in traces:
            prev = frozenset(range(1, trace.label_space.c + 1))
            for rec in trace.records:
                assert rec.survivors <= prev
                prev = rec.survivors

    def test_survivor_property(self):
        # the label leading the count among candidates survives its iteration
        _, traces = self._traces(43)
        for trace in traces:
            prev = frozenset(range(1, trace.label_space.c + 1))
            for rec in trace.records:
                counts = {y: rec.tau[y - 1] for y in prev}
                top = max(counts.values())
                leaders = {y for y, v in counts.items() if v == top}
                assert leaders <= rec.survivors
                prev = rec.survivors

    def test_trace_replay(self):
        # independent recount: rebuild counters and eliminations from the
        # recorded neighbor sequence and the training bags
        train, traces = self._traces(47)
        memb = train.membership_matrix()
        c = train.label_space.c
        for trace in traces:
            tau = np.zeros(c, dtype=int)
            alive = set(range(1, c + 1))
            for rec in trace.records:
                tau += memb[rec.neighbor]
                assert tuple(tau) == rec.tau
                delta = threshold(trace.n, rec.k, 0.1, c)
                m = max(tau[y - 1] for y in alive)
                drop = {y for y in alive if (m - tau[y - 1]) / rec.k >= delta}
                assert tuple(sorted(drop)) == rec.eliminated
                alive -= drop
                assert frozenset(alive) == rec.survivors

    def test_unfilled_margins_are_infinite(self):
        _, traces = self._traces(53)
        for trace in traces:
            prev = frozenset(range(1, trace.label_space.c + 1))
            for rec in trace.records:
                row = trace.margins[rec.k - 1]
                for y in range(1, trace.label_space.c + 1):
                    if y in prev:
                        assert np.isfinite(row[y - 1])
                    else:
                        assert np.isinf(row[y - 1])
                prev = rec.survivors

    def test_disambiguation_matches_lexicographic_scan(self):
        # oracle: explicit (value, k, label) scan over the margin matrix
        train, traces = self._traces(59, t=6)
        for trace in traces:
            if not trace.disambiguated:
                continue
            best = None
            for k in range(1, trace.iterations + 1):
                for y in sorted(trace.final_survivors):
                    value = trace.margins[k - 1, y - 1]
                    if best is None or value < best[0]:
                        best = (value, k, y)
            assert trace.label == best[2]


class TestSeparableConsistency:
    def test_grid_agreement_with_bayes_on_margin_separated_classes(self):
        # truthful singleton bags over two classes separated by a margin:
        # with n >= 2000 the elimination rule must match the Bayes label on
        # nearly every grid point
        rng = np.random.default_rng(73)
        n = 2000
        side = rng.integers(0, 2, size=n)
        x1 = np.where(side == 1, rng.uniform(0.25, 2.0, n), rng.uniform(-2.0, -0.25, n))
        x2 = rng.uniform(-1.0, 1.0, size=n)
        truths = side.astype(np.int64) + 1
        train = PartialDataset(
            np.column_stack([x1, x2]),
            (np.uint64(1) << (truths - 1).astype(np.uint64)),
            LabelSpace(2),
        )
        index = knn_index.build(train.features)
        gx = np.concatenate([np.linspace(-2.0, -0.25, 20), np.linspace(0.25, 2.0, 20)])
        gy = np.linspace(-1.0, 1.0, 10)
        grid = np.array([(a, b) for a in gx for b in gy])
        bayes = np.where(grid[:, 0] < 0, 1, 2)
        preds = plaknn.classify_batch(train, index, grid, PlaknnConfig())
        assert float((preds == bayes).mean()) >= 0.99


class TestBatch:
    def test_empty_queries(self):
        train = make_train([1, 2])
        index = knn_index.build(train.features)
        out = plaknn.classify_batch(train, index, np.zeros((0, 1)), PlaknnConfig(T=2))
        assert out.shape == (0,)

    def test_index_must_match_training_set(self):
        train = make_train([1, 2, 3])
        cfg = PlaknnConfig(T=2)
        for points in (np.zeros((2, 1)), np.zeros((3, 2))):
            index = knn_index.build(points)
            with pytest.raises(ValueError, match="does not match the 3x1 training set"):
                plaknn.classify_batch(train, index, np.zeros((1, points.shape[1])), cfg)

    def test_single_query_matches_classify(self):
        rng = np.random.default_rng(61)
        train = random_partial_dataset(rng, 30, 2, 3)
        index = knn_index.build(train.features)
        cfg = PlaknnConfig(T=15)
        q = rng.normal(size=2)
        assert plaknn.classify_batch(train, index, q[None, :], cfg)[0] == classify_oracle(
            train, index, q, cfg
        )[0]

    def test_batch_equals_sequential_hundred(self):
        # determinism oracle: vectorized path is elementwise identical to the
        # per-query loop, including tie cases from duplicated points
        rng = np.random.default_rng(67)
        train = random_partial_dataset(rng, 120, 2, 5)
        dup = train.subset(np.concatenate([np.arange(120), rng.integers(0, 120, 30)]))
        index = knn_index.build(dup.features)
        cfg = PlaknnConfig(T=40)
        queries = np.concatenate([rng.normal(size=(80, 2)), dup.features[:20]])
        sequential = np.array(
            [classify_oracle(dup, index, q, cfg)[0] for q in queries]
        )
        batch = plaknn.classify_batch(dup, index, queries, cfg)
        assert np.array_equal(batch, sequential)

    def test_batch_iterations_match_traces(self):
        rng = np.random.default_rng(71)
        train = random_partial_dataset(rng, 50, 2, 3)
        index = knn_index.build(train.features)
        cfg = PlaknnConfig(T=20)
        queries = rng.normal(size=(25, 2))
        detail = plaknn.classify_batch_detail(train, index, queries, cfg)
        for i, q in enumerate(queries):
            _, trace = classify_oracle(train, index, q, cfg)
            assert detail.iterations[i] == trace.iterations
            assert detail.disambiguated[i] == trace.disambiguated


class TestKernelAgainstOracle:
    @staticmethod
    def _warned(clamped, fn, *args):
        if not clamped:
            return fn(*args)
        with pytest.warns(RuntimeWarning):
            return fn(*args)

    @pytest.mark.parametrize("lead", [1, 2])
    def test_equal_margins_break_by_first_step(self, lead):
        # the leader's margin is delta_1 - 1 at k = 1 (lead 1), 2 * delta_4 - 1
        # at k = 4 (lead 2) and 4 * delta_16 - 1 at k = 16 (lead 4): the same
        # float, since delta_{4k} = delta_k / 2 exactly.  `lead` holds it at
        # k = 1 and 16, the other label at k = 4; the earliest step wins.
        other = 3 - lead
        seq = [lead, other, other, other] + [lead] * 4 + [3, lead] + [3] * 5 + [lead]
        train = make_train(seq)
        index = knn_index.build(train.features)
        cfg = PlaknnConfig(T=16)
        x = np.array([0.0])
        label, trace = plaknn.classify(train, index, x, cfg)
        margins = trace.margins
        assert margins[0, lead - 1] == margins[3, other - 1] == margins[15, lead - 1]
        assert margins[0, lead - 1] == margins[np.isfinite(margins)].min()
        assert (label, trace.disambiguated) == (lead, True)
        assert classify_oracle(train, index, x, cfg)[0] == lead
        assert plaknn.classify_batch(train, index, x[None, :], cfg)[0] == lead

    def test_random_instances_match_oracle(self):
        # grid ties and duplicates, T > n, uniform mode, c = 2, cap hits and
        # one 600-query batch that spans several neighbor blocks
        rng = np.random.default_rng(79)
        cap_hits = disambiguated = 0
        for i in range(24):
            c = 2 if i % 3 == 0 else int(rng.integers(3, 7))
            n = int(rng.integers(5, 150))
            dim = int(rng.integers(1, 4))
            train = random_partial_dataset(rng, n, dim, c, extra_rate=0.5 if i % 2 else 0.1)
            if i % 2 == 0:
                train = PartialDataset(
                    rng.integers(0, 3, size=(n, dim)).astype(float),
                    train.bag_masks,
                    train.label_space,
                )
            clamped = i % 5 == 0
            cfg = PlaknnConfig(
                T=n + 5 if clamped else int(rng.integers(1, n + 1)),
                mode="uniform" if i % 4 == 1 else "pointwise",
                c1=0.1 if i % 3 == 2 else 0.5,
            )
            m = 600 if i == 0 else 30
            queries = np.concatenate(
                [rng.integers(-1, 4, size=(m // 2, dim)).astype(float),
                 rng.normal(size=(m - m // 2, dim))]
            )
            index = knn_index.build(train.features)
            detail = self._warned(
                clamped, plaknn.classify_batch_detail, train, index, queries, cfg
            )
            for q, x in enumerate(queries):
                label, expected = classify_oracle(train, index, x, cfg)
                assert detail.labels[q] == label
                assert detail.iterations[q] == expected.iterations
                assert detail.disambiguated[q] == expected.disambiguated
                if q % 10 == 0:
                    _, trace = self._warned(clamped, plaknn.classify, train, index, x, cfg)
                    assert trace.records == expected.records
                    assert trace.margins.tobytes() == expected.margins.tobytes()
                    assert trace.label == label
                    assert trace.disambiguated == expected.disambiguated
            cap_hits += int((detail.iterations == min(cfg.T, n)).sum())
            disambiguated += int(detail.disambiguated.sum())
        assert cap_hits > 0 and disambiguated > 0
