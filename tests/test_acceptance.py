"""Acceptance suite: one test per release criterion.

Each test prints a single pass line (visible with ``pytest -s``) including
the measured runtime of the operation under test; with ``pytest -v`` the
test names themselves give the per-criterion pass/fail listing.  Stated
runtime budgets are asserted.  Sub-millisecond budgets are measured as the
best of three calls so a cold cache cannot flake the suite.
"""

import math
import time

import numpy as np
import pytest

from plbag import knn_index, plaknn, preprocess
from plbag.baselines import aknn_decision
from plbag.bench_cli import ExperimentConfig, emit, run
from plbag.core import (
    LabelSpace,
    PartialDataset,
    bag_marginal,
    bayes_rule,
)
from plbag.plaknn import PlaknnConfig, threshold
from plbag.synth import analytic_scenario
from plbag.theory import (
    advantage_report,
    find_ambiguous_pair,
    flip_distribution,
    is_label_aligned_dist,
    is_reconstructible,
)

from _fixtures import (
    aligned_point_dist,
    deficient_baggen,
    inclusion_pair,
    misaligned_point_dist,
    random_baggen,
    random_discrete_distribution,
    random_partial_dataset,
)
from test_theory import advantage_oracle


def timed(fn, repeats=3):
    """Best-of-n wall time in seconds, plus the last return value."""
    best = math.inf
    out = None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return out, best


def report(criterion, detail, seconds):
    print(f"[criterion {criterion}] PASS ({seconds * 1e3:.3f} ms) {detail}")


def test_criterion_01_identical_bag_marginals_different_bayes_labels():
    """Two inclusion-probability scenarios share the bag distribution
    (2/9, 3/9, 4/9) exactly while their Bayes labels disagree."""
    first, second = inclusion_pair()
    target = np.array([2 / 9, 3 / 9, 4 / 9])

    def op():
        return (
            bag_marginal(first, 0),
            bag_marginal(second, 0),
            bayes_rule(first),
            bayes_rule(second),
        )

    (m1, m2, b1, b2), seconds = timed(op)
    assert np.abs(m1 - target).max() <= 1e-12
    assert np.abs(m2 - target).max() <= 1e-12
    assert np.abs(m1 - m2).max() <= 1e-12
    assert b1 == (frozenset({1}),)
    assert b2 == (frozenset({2}),)
    assert seconds < 1e-3
    report(1, f"shared marginal dev {np.abs(m1 - target).max():.2e}, labels 1 vs 2", seconds)


def test_criterion_02_alignment_fixture_and_flip():
    """The single-point pair: aligned for truth 1, misaligned for truth 3;
    flipping the misaligned one restores alignment at the same marginal."""
    aligned = aligned_point_dist()
    misaligned = misaligned_point_dist()

    def op():
        return (
            is_label_aligned_dist(aligned),
            is_label_aligned_dist(misaligned),
            flip_distribution(misaligned),
        )

    (ok_aligned, ok_misaligned, flipped), seconds = timed(op)
    assert ok_aligned is True
    assert ok_misaligned is False
    assert is_label_aligned_dist(flipped)
    gap = np.abs(bag_marginal(flipped, 0) - bag_marginal(misaligned, 0)).max()
    assert gap <= 1e-12
    assert seconds < 1e-3
    report(2, f"flip marginal dev {gap:.2e}", seconds)


def test_criterion_03_reconstructibility_roundtrip_thousand_matrices():
    """Rank test and ambiguous-pair construction agree on 1000 processes."""
    rng = np.random.default_rng(2024)

    def full_rank(c):
        for _ in range(50):
            m = random_baggen(rng, c)
            s = np.linalg.svd(m.entries, compute_uv=False)
            if s[-1] > 1e-6 * s[0]:
                return m
        raise AssertionError("could not draw a full-rank process")

    start = time.perf_counter()
    checked_pairs = 0
    for trial in range(500):
        c = 2 + trial % 5
        m = full_rank(c)
        assert is_reconstructible(m)
        assert find_ambiguous_pair(m) is None
    for trial in range(500):
        c = 2 + trial % 5
        m = deficient_baggen(rng, c)
        assert not is_reconstructible(m)
        pair = find_ambiguous_pair(m)
        assert pair is not None
        q1, q2 = pair
        assert np.abs(m.entries @ (q1.probs - q2.probs)).max() <= 1e-7
        assert q1.argmax_set() != q2.argmax_set()
        checked_pairs += 1
    seconds = time.perf_counter() - start
    assert checked_pairs == 500
    assert seconds < 5.0
    report(3, "1000 matrices, c in 2..6", seconds)


def test_criterion_04_elimination_hand_trace():
    """Three neighbors with bags {1},{1},{1,2}: label 2 falls at k=2 where
    the threshold is ~0.71540, and label 1 is returned."""
    feats = np.array([[1.0], [2.0], [3.0]])
    masks = np.array([1, 1, 3], dtype=np.uint64)
    train = PartialDataset(feats, masks, LabelSpace(2))
    index = knn_index.build(train.features)
    config = PlaknnConfig(T=3)

    (label, trace), seconds = timed(
        lambda: plaknn.classify(train, index, np.array([0.0]), config)
    )
    assert label == 1
    assert trace.elimination_iteration(2) == 2
    assert trace.iterations == 2
    assert trace.records[1].delta == pytest.approx(0.71540, abs=1e-4)
    assert seconds < 1e-3
    report(4, f"delta(k=2)={trace.records[1].delta:.5f}", seconds)


def test_criterion_05_consistency_trend_two_gaussians():
    """With truthful singleton bags, mean error shrinks with n and lands
    within 0.05 of the grid-integrated Bayes risk at n=8000."""
    start = time.perf_counter()
    means = {}
    for n in (500, 2000, 8000):
        config = ExperimentConfig(
            scenario="two_gaussians",
            methods=("plaknn",),
            noise_grid=(0.0,),
            repetitions=20,
            base_seed=0,
            n_samples=n,
            plaknn=PlaknnConfig(),
        )
        means[n] = run(config).summary[0].mean_error
    risk = analytic_scenario("two_gaussians").bayes_risk(400)
    seconds = time.perf_counter() - start
    assert risk == pytest.approx(0.15866, abs=5e-4)
    assert means[500] >= means[2000] >= means[8000]
    assert abs(means[8000] - risk) <= 0.05
    assert seconds < 300.0
    report(
        5,
        f"errors {means[500]:.4f} >= {means[2000]:.4f} >= {means[8000]:.4f}, "
        f"bayes {risk:.5f}",
        seconds,
    )


def test_criterion_06_relaxed_alignment_limit_bound():
    """A strip of mass 0.1 feeds swapped bags with posterior gap <= 0.05;
    the error stays within theta * P(G) + slack of the Bayes risk."""
    start = time.perf_counter()
    scenario = analytic_scenario("relaxed_two_gaussians")
    assert scenario.region_mass_exact() == pytest.approx(0.1, abs=1e-9)
    config = ExperimentConfig(
        scenario="relaxed_two_gaussians",
        methods=("plaknn",),
        noise_grid=(0.0,),
        repetitions=20,
        base_seed=0,
        n_samples=8000,
        plaknn=PlaknnConfig(),
    )
    mean_error = run(config).summary[0].mean_error
    risk = scenario.bayes_risk(400)
    bound = risk + scenario.theta * 0.1 + 0.03
    seconds = time.perf_counter() - start
    assert mean_error <= bound
    assert seconds < 300.0
    report(6, f"error {mean_error:.5f} <= {risk:.5f} + 0.005 + 0.03", seconds)


def test_criterion_07_beats_fixed_ten_nn_on_cluster_scenario():
    """Ten Gaussian clusters with cluster-varying ambiguous bags: the
    adaptive classifier's mean error does not exceed 10-NN's, and the paired
    95% interval excludes any 10-NN edge larger than 0.01."""
    start = time.perf_counter()
    config = ExperimentConfig(
        scenario="gaussian_clusters",
        methods=("plaknn", "fixed_k"),
        fixed_k=10,
        noise_grid=(0.0, 0.3),
        repetitions=50,
        base_seed=0,
        n_samples=5000,
        plaknn=PlaknnConfig(),
    )
    result = run(config, threads=2)
    seconds = time.perf_counter() - start
    details = []
    for noise in (0.0, 0.3):
        adaptive = np.array(
            [r.error_rate for r in result.rows if r.method == "plaknn" and r.noise == noise]
        )
        fixed = np.array(
            [r.error_rate for r in result.rows if r.method == "fixed_k" and r.noise == noise]
        )
        assert adaptive.mean() <= fixed.mean()
        paired = adaptive - fixed
        half = 1.96 * paired.std(ddof=1) / math.sqrt(paired.shape[0])
        upper = paired.mean() + half
        assert upper < 0.01
        details.append(f"noise {noise}: diff {paired.mean():.4f}, upper {upper:.4f}")
    report(7, "; ".join(details), seconds)


def _singleton_stream(rng, profile, n):
    labels = rng.choice(3, size=n, p=profile) + 1
    masks = np.uint64(1) << (labels - 1).astype(np.uint64)
    feats = np.arange(1, n + 1, dtype=float).reshape(-1, 1)
    return PartialDataset(feats, masks, LabelSpace(3))


def test_criterion_08_elimination_precedes_qualification():
    """On i.i.d. bag streams with frequencies (0.50, 0.49, 0.01) and
    (0.40, 0.30, 0.30), dropping the weak label happens strictly before the
    qualification rule fires, in at least 95% of 200 trials."""
    start = time.perf_counter()
    n, trials = 10_000, 200
    config = PlaknnConfig(T=400)
    sharp = np.array([0.50, 0.49, 0.01])
    flat = np.array([0.40, 0.30, 0.30])
    query = np.array([0.0])
    wins = 0
    for t in range(trials):
        rng = np.random.default_rng(5000 + t)
        train_sharp = _singleton_stream(rng, sharp, n)
        index_sharp = knn_index.build(train_sharp.features)
        _, trace = plaknn.classify(train_sharp, index_sharp, query, config)
        elim_k = trace.elimination_iteration(3)
        _, qual_sharp = aknn_decision(train_sharp, index_sharp, query, config)
        train_flat = _singleton_stream(rng, flat, n)
        index_flat = knn_index.build(train_flat.features)
        _, qual_flat = aknn_decision(train_flat, index_flat, query, config)
        if (
            elim_k is not None
            and (qual_sharp is None or elim_k < qual_sharp)
            and (qual_flat is None or elim_k < qual_flat)
        ):
            wins += 1
    seconds = time.perf_counter() - start
    assert wins >= 0.95 * trials
    report(8, f"{wins}/{trials} trials", seconds)


def test_criterion_09_invariant_suites():
    """Threshold monotonicity, trace invariants, the advantage brute-force
    equivalence, preprocessing hygiene, and byte-identical reruns."""
    start = time.perf_counter()

    # threshold monotonicity over 10^4 random (n, k, delta, c) draws
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        n = int(rng.integers(1, 100_000))
        k = int(rng.integers(1, 2_000))
        delta = float(rng.uniform(0.001, 0.999))
        c = int(rng.integers(2, 40))
        assert threshold(n, k + 1, delta, c) < threshold(n, k, delta, c)
        assert threshold(n + 1, k, delta, c) >= threshold(n, k, delta, c)

    # survivor property and membership of the answer on recorded traces
    for trial in range(40):
        train = random_partial_dataset(rng, 50, 2, int(rng.integers(2, 6)))
        index = knn_index.build(train.features)
        label, trace = plaknn.classify(
            train, index, rng.normal(size=2), PlaknnConfig(T=25)
        )
        survivors = frozenset(range(1, train.label_space.c + 1))
        for rec in trace.records:
            leaders = {
                y for y in survivors if rec.tau[y - 1] == max(rec.tau[v - 1] for v in survivors)
            }
            assert leaders <= rec.survivors
            survivors = rec.survivors
        assert label in survivors

    # advantage equals the independent brute force on 100 ten-atom instances
    for _ in range(100):
        d = random_discrete_distribution(rng, n_atoms=10, c=3)
        atom = int(rng.integers(d.n_atoms))
        cap = float(rng.uniform(0.3, 1.0))
        exact = advantage_report(d, cap).entries[atom].advantage
        assert abs(exact - advantage_oracle(d, atom, cap)) <= 1e-9

    # preprocessing: weights normalize, fitting leaks nothing
    raw = rng.normal(size=(60, 4))
    cfg = preprocess.PipelineConfig("vision", smoothing_k=5, density_k=8)
    fitted = preprocess.fit(raw, cfg)
    for _ in range(50):
        dist = rng.uniform(0.01, 3.0, size=cfg.smoothing_k)
        w = preprocess.gaussian_weights(dist, float(np.median(dist)))
        assert np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-9
    probe = rng.normal(size=(6, 4))
    before = preprocess.transform(fitted, probe)
    preprocess.transform(fitted, rng.normal(size=(100, 4)) * 9.0)
    np.testing.assert_array_equal(before, preprocess.transform(fitted, probe))
    refit = preprocess.fit(raw, cfg)
    np.testing.assert_array_equal(refit.transformed_train, fitted.transformed_train)

    # seed determinism: rerunning one config yields byte-identical CSVs
    import tempfile
    from pathlib import Path

    config = ExperimentConfig(
        scenario="two_gaussians",
        methods=("plaknn", "fixed_k"),
        fixed_k=5,
        noise_grid=(0.0, 0.25),
        repetitions=3,
        base_seed=11,
        n_samples=80,
        plaknn=PlaknnConfig(T=15),
    )
    with tempfile.TemporaryDirectory() as tmp:
        emit(run(config), Path(tmp) / "a")
        emit(run(config), Path(tmp) / "b")
        for name in ("results.csv", "summary.csv"):
            first = (Path(tmp) / "a" / name).read_bytes()
            second = (Path(tmp) / "b" / name).read_bytes()
            assert first == second

    seconds = time.perf_counter() - start
    report(9, "monotonicity, traces, advantage oracle, pipeline, determinism", seconds)
