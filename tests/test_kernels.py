"""The elimination and aknn kernels, which read bag rows through a neighbor
order, against kernels over materialized (rows, T, c) bags."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plbag import baselines, knn_index, plaknn
from plbag.plaknn import IterationRecord, PlaknnConfig

from _fixtures import random_partial_dataset


def step_oracle(tau, alive, k, delta_k):
    """One step with the float elimination test ``(m1 - tau) / k >= delta_k``."""
    c = tau.shape[-1]
    capped = np.where(alive, tau, -1)
    m1 = capped.max(axis=-1, keepdims=True)
    m2 = np.partition(capped, c - 2, axis=-1)[..., c - 2 : c - 1]
    margin = np.sqrt(k) * (delta_k - (tau - m2) / k)
    return margin, alive & ((m1 - tau) / k >= delta_k)


def step_partition_oracle(tau, alive, k, delta_k, gap_k):
    """``_step`` with its former tuple-kth partition for the top two counts."""
    c = tau.shape[-1]
    top = np.partition(np.where(alive, tau, -1), (c - 2, c - 1), axis=-1)
    m2, m1 = top[..., c - 2 : c - 1], top[..., c - 1 :]
    margin = np.sqrt(k) * (delta_k - (tau - m2) / k)
    return margin, alive & (m1 - tau >= gap_k), (m1 - m2 >= gap_k)[..., 0]


def eliminate_oracle(nb, deltas):
    """Elimination over materialized bags, ``nb[q, k-1]`` being query q's k-th
    nearest bag row: labels, iterations, disambiguated flags and
    ``eliminated_at``.  Each finished query leaves the active set at once."""
    m, t_cap, c = nb.shape
    labels = np.empty(m, dtype=np.int64)
    iterations = np.empty(m, dtype=np.int64)
    disambiguated = np.empty(m, dtype=bool)
    eliminated_at = np.zeros((m, c), dtype=np.int64)
    rows = np.arange(m)
    tau = np.zeros((m, c), dtype=np.int64)
    alive = np.ones((m, c), dtype=bool)
    best = np.full((m, c), np.inf)
    best_k = np.zeros((m, c), dtype=np.int64)
    k = 0
    while rows.size:
        k += 1
        tau += nb[rows, k - 1]
        margin, elim = step_oracle(tau, alive, k, deltas[k - 1])
        better = alive & (margin < best)
        np.copyto(best, margin, where=better)
        np.copyto(best_k, k, where=better)
        alive &= ~elim
        q, y = np.nonzero(elim)
        eliminated_at[rows[q], y] = k
        single = alive.sum(axis=1) == 1
        done = single | (k == t_cap)
        if not done.any():
            continue
        score = np.where(alive[done], best[done], np.inf)
        tied = score == score.min(axis=1, keepdims=True)
        first = np.where(tied, best_k[done], t_cap + 1)
        out = rows[done]
        labels[out] = np.argmax(tied & (first == first.min(axis=1, keepdims=True)), axis=1) + 1
        iterations[out] = k
        disambiguated[out] = ~single[done]
        keep = ~done
        rows, tau, alive, best, best_k = rows[keep], tau[keep], alive[keep], best[keep], best_k[keep]
    return labels, iterations, disambiguated, eliminated_at


def aknn_oracle(bags, deltas):
    """Qualification over materialized bags, label by label with the float
    test ``q / k - 1 / c >= delta_k``: labels and steps (0: none qualified,
    and the most frequent label at the cap wins)."""
    m, t_cap, c = bags.shape
    ks = np.arange(1, t_cap + 1, dtype=np.float64)
    first = np.full(m, t_cap)
    best = np.zeros(m, dtype=np.int64)
    at_cap = np.empty((m, c), dtype=np.int64)
    for y in range(c):
        counts = np.cumsum(bags[:, :, y], axis=1)
        qualified = counts / ks - 1.0 / c >= deltas
        hit = np.where(qualified.any(axis=1), np.argmax(qualified, axis=1), t_cap)
        best = np.where(hit < first, y, best)
        first = np.minimum(hit, first)
        at_cap[:, y] = counts[:, -1]
    missed = first == t_cap
    best[missed] = np.argmax(at_cap[missed], axis=1)
    return best + 1, np.where(missed, 0, first + 1)


def random_case(seed, n, c, t, m, c1, density, extra):
    """Bags of n points, each query's order a random permutation cut after
    t + extra columns, and the thresholds of steps 1..t."""
    rng = np.random.default_rng(seed)
    # few distinct bag rows when dense, so that counts and margins tie
    pool = rng.random((max(2, n // 4), c)) < density
    memb = pool[rng.integers(0, pool.shape[0], size=n)]
    order = np.argsort(rng.random((m, n)), axis=1)[:, : t + extra]
    deltas = PlaknnConfig(c1=c1).threshold(n, np.arange(1, t + 1), c, 2)
    return memb, order, deltas


def run_kernels(memb, order, deltas):
    """Both kernels against their oracles; returns the oracles' outputs."""
    t, c = deltas.shape[0], memb.shape[1]
    nb = memb[order[:, :t]]
    eliminated = eliminate_oracle(nb, deltas)
    got = plaknn._eliminate(memb, order, deltas, plaknn._smallest_count(deltas, 0.0))
    assert all(np.array_equal(a, b) for a, b in zip(got, eliminated))
    qualified = aknn_oracle(nb, deltas)
    got = baselines._qualify(memb, order, plaknn._smallest_count(deltas, 1.0 / c))
    assert all(np.array_equal(a, b) for a, b in zip(got, qualified))
    return eliminated, qualified


CASE = dict(
    seed=st.integers(0, 2**32 - 1),
    c=st.integers(2, 10),
    m=st.integers(1, 40),
    c1=st.sampled_from([0.05, 0.2, 0.5, 1.0, 3.0]),
    density=st.sampled_from([0.1, 0.3, 0.6, 0.9]),
)


class TestKernelsAgainstMaterializedBags:
    """Labels, iterations, disambiguated flags, ``eliminated_at`` and aknn
    steps equal those of the kernels over (rows, T, c) bags."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 200), t=st.integers(1, 199), extra=st.integers(0, 3), **CASE)
    @example(n=200, t=150, extra=50, seed=1, c=10, m=40, c1=3.0, density=0.3)
    def test_t_below_n(self, n, t, extra, seed, c, m, c1, density):
        run_kernels(*random_case(seed, n, c, min(t, n - 1), m, c1, density, extra))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 200), **CASE)
    @example(n=150, seed=2, c=2, m=40, c1=3.0, density=0.6)
    def test_t_equals_n(self, n, seed, c, m, c1, density):
        run_kernels(*random_case(seed, n, c, n, m, c1, density, 0))

    def test_cases_reach_every_branch(self):
        # cases like the drawn ones hold queries that hit the cap, queries
        # settled by disambiguation, aknn queries that never qualify and ones
        # that qualify in a later chunk than the first
        rng = np.random.default_rng(0)
        cap = disambiguated = missed = late = 0
        for _ in range(30):
            n = int(rng.integers(100, 201))
            case = random_case(
                int(rng.integers(2**32)), n, int(rng.integers(2, 11)), n,
                40, float(rng.choice([0.2, 0.5, 1.0])), float(rng.choice([0.3, 0.6])), 0,
            )
            (_, iterations, dis, _), (_, steps) = run_kernels(*case)
            cap += int((iterations == n).sum())
            disambiguated += int(dis.sum())
            missed += int((steps == 0).sum())
            late += int((steps > baselines._FIRST_CHUNK).sum())
        assert min(cap, disambiguated, missed, late) > 0


    def test_a_wide_batch_reads_narrow_chunks(self):
        # 4,000 queries with c = 10: a chunk of 26 columns fills the byte
        # budget, so even the first chunk is narrower than _FIRST_CHUNK
        memb, order, deltas = random_case(5, 400, 10, 200, 4000, 1.2, 0.3, 0)
        assert plaknn._BATCH_BYTES // (4 * 10 * 4000) < baselines._FIRST_CHUNK
        _, (_, steps) = run_kernels(memb, order, deltas)
        assert (steps > 2 * baselines._FIRST_CHUNK).any() and (steps == 0).any()


class TestStepTopTwo:
    """``_step``'s sorted label axis gives the partition's top two counts, so
    its margins, eliminations and settled flags keep every bit."""

    @staticmethod
    def counts(rng, rows, c, dtype):
        """Counts with dead labels, all-tied rows, one alive label per row
        and rows whose leader ties its runner-up."""
        tau = rng.integers(0, 6, size=(rows, c)).astype(dtype)
        alive = rng.random((rows, c)) < 0.6
        tau[::5] = tau[::5, :1]  # every label tied
        alive[1::5] = True
        alive[2::5] = False
        alive[2::5, rng.integers(c)] = True  # one alive label
        alive[3::5] = False  # none: the kernel never gets here; the rule still holds
        return tau, alive

    @staticmethod
    def assert_same(got, expected):
        assert got[0].tobytes() == expected[0].tobytes()
        assert np.array_equal(got[1], expected[1]) and np.array_equal(got[2], expected[2])

    @pytest.mark.parametrize("c", [2, 3, 10, 64])
    def test_batch_step(self, c):
        # _eliminate's shapes: (rows, c) int32 counts, one step k for all rows
        rng = np.random.default_rng(c)
        tau, alive = self.counts(rng, 200, c, np.int32)
        for k, delta_k in ((1, 0.7), (5, 0.2), (400, 0.01)):
            gap_k = plaknn._smallest_count(np.full(k, delta_k), 0.0)[k - 1]
            self.assert_same(
                plaknn._step(tau, alive, k, delta_k, gap_k),
                step_partition_oracle(tau, alive, k, delta_k, gap_k),
            )

    @pytest.mark.parametrize("c", [2, 3, 10, 64])
    def test_replayed_steps(self, c):
        # classify's shapes: (steps, c) int64 cumulative counts against
        # (steps, 1) steps, thresholds and gaps
        rng = np.random.default_rng(100 + c)
        steps = 60
        tau = np.cumsum(rng.random((steps, c)) < 0.4, axis=0, dtype=np.int64)
        alive = np.ones((steps, c), dtype=bool)
        alive[steps // 3 :, : c // 2] = False
        ks = np.arange(1, steps + 1)[:, None]
        deltas = PlaknnConfig(c1=0.5).threshold(500, np.arange(1, steps + 1), c, 2)[:, None]
        gaps = plaknn._smallest_count(deltas[:, 0], 0.0)[:, None]
        for counts in (tau, np.zeros_like(tau)):
            self.assert_same(
                plaknn._step(counts, alive, ks, deltas, gaps),
                step_partition_oracle(counts, alive, ks, deltas, gaps),
            )


class TestGapTable:
    """``_smallest_count(deltas, 0.0)`` is the smallest integer gap g with
    ``g / k >= delta_k`` in floats, scanned over every g <= k."""

    @staticmethod
    def scanned(deltas):
        t = deltas.shape[0]
        ks = np.arange(1, t + 1)[:, None]
        g = np.arange(t + 1)[None, :]
        passes = (g <= ks) & (g / ks >= deltas[:, None])
        return np.where(passes.any(axis=1), passes.argmax(axis=1), ks[:, 0] + 1)

    @pytest.mark.parametrize("mode", ["pointwise", "uniform"])
    @pytest.mark.parametrize("c", [2, 3, 10, 64])
    def test_every_gap_matches_the_float_test(self, mode, c):
        for c1 in (0.02, 0.1, 0.5, 1.7):
            for delta in (1e-3, 0.1, 0.6):
                for n, dim in ((10, 1), (400, 2), (10**6, 3)):
                    cfg = PlaknnConfig(c1=c1, delta=delta, mode=mode)
                    deltas = cfg.threshold(n, np.arange(1, min(n, 400) + 1), c, dim)
                    gaps = plaknn._smallest_count(deltas, 0.0)
                    assert np.array_equal(gaps, self.scanned(deltas)), (c1, delta, n, dim)
                    # a threshold is positive, so the leader (gap 0) never falls
                    assert gaps.min() >= 1

    def test_thresholds_at_a_gap_value(self):
        # g / k itself is met by g; one ulp above it only by g + 1
        rng = np.random.default_rng(3)
        ks = np.arange(1, 401)
        at = (rng.random(400) * ks).astype(int).clip(1) / ks
        for deltas in (at, np.nextafter(at, np.inf)):
            assert np.array_equal(plaknn._smallest_count(deltas, 0.0), self.scanned(deltas))


class TestPinnedTrace:
    def test_one_rows_trace_is_unchanged(self):
        # two eliminations (label 2 at k = 1, label 1 at k = 6), then labels
        # 3 and 4 run to the cap and the smallest margin, label 4's at k = 2, wins
        rng = np.random.default_rng(3)
        train = random_partial_dataset(rng, 30, 2, 4, extra_rate=0.3)
        index = knn_index.build(train.features)
        cfg = PlaknnConfig(T=12, c1=0.3)
        label, trace = plaknn.classify(train, index, rng.normal(size=2), cfg)
        steps = [
            (21, (1, 0, 1, 1), {1, 3, 4}, (2,)),
            (25, (1, 0, 1, 2), {1, 3, 4}, ()),
            (27, (2, 0, 2, 2), {1, 3, 4}, ()),
            (6, (2, 0, 2, 3), {1, 3, 4}, ()),
            (7, (3, 0, 3, 4), {1, 3, 4}, ()),
            (15, (3, 1, 4, 5), {3, 4}, (1,)),
            (2, (4, 1, 5, 5), {3, 4}, ()),
            (19, (5, 1, 6, 5), {3, 4}, ()),
            (5, (5, 2, 7, 6), {3, 4}, ()),
            (22, (5, 2, 8, 7), {3, 4}, ()),
            (1, (6, 3, 9, 7), {3, 4}, ()),
            (11, (6, 3, 9, 8), {3, 4}, ()),
        ]
        assert trace.records == [
            IterationRecord(k, neighbor, cfg.threshold(30, k, 4, 2), tau, frozenset(left), fell)
            for k, (neighbor, tau, left, fell) in enumerate(steps, start=1)
        ]
        inf = math.inf
        margins = [
            [0.7988159457721461, 1.7988159457721462, 0.7988159457721461, 0.7988159457721461],
            [0.7988159457721462, inf, 0.7988159457721462, 0.0917091645855986],
            [0.798815945772146, inf, 0.798815945772146, 0.798815945772146],
            [0.7988159457721461, inf, 0.7988159457721461, 0.2988159457721461],
            [0.7988159457721462, inf, 0.7988159457721462, 0.35160235027218817],
            [1.2070642362360091, inf, 0.7988159457721461, 0.3905676553082832],
            [inf, inf, 0.7988159457721461, 0.7988159457721461],
            [inf, inf, 0.44526255517887237, 0.7988159457721462],
            [inf, inf, 0.46548261243881267, 0.798815945772146],
            [inf, inf, 0.48258817975530804, 0.798815945772146],
            [inf, inf, 0.19579325661661878, 0.7988159457721461],
            [inf, inf, 0.5101408111773332, 0.798815945772146],
        ]
        assert trace.margins.tobytes() == np.array(margins).tobytes()
        assert (label, trace.label, trace.disambiguated) == (4, 4, True)
