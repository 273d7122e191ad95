import math
import re
from dataclasses import replace

import numpy as np
import pytest

from plbag.core import LabelSpace, masks_to_membership
from plbag.synth import (
    SynthBagConfig,
    analytic_scenario,
    bag_clusters,
    draw_bags,
    kmeans_labels,
    make_bags,
    normal_cdf,
    remove_truth_noise,
    sample_bag_masks,
)


def cluster_features(rng, n):
    centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
    which = rng.integers(0, 3, size=n)
    return centers[which] + 0.3 * rng.standard_normal((n, 2))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SynthBagConfig(alpha_max=1.2)
        with pytest.raises(ValueError):
            SynthBagConfig(noise_nu=-0.1)
        with pytest.raises(ValueError):
            SynthBagConfig(n_clusters=0)


def kmeans_oracle(points, k, rng, restarts=10, max_iter=100):
    """``kmeans_labels`` with its former (n, k, d) difference tensors."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    k = min(k, n)
    best_assign = None
    best_inertia = np.inf
    for _ in range(restarts):
        centers = points[rng.choice(n, size=k, replace=False)].copy()
        assign = np.full(n, -1, dtype=np.int64)
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
        for _ in range(max_iter):
            new_assign = d2.argmin(axis=1)
            if np.array_equal(new_assign, assign):
                break
            assign = new_assign
            for j in range(k):
                members = assign == j
                if members.any():
                    centers[j] = points[members].mean(axis=0)
            d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
        inertia = float(d2[np.arange(n), assign].sum())
        if inertia < best_inertia:
            best_inertia = inertia
            best_assign = assign.copy()
    return best_assign


class TestKmeansOracle:
    @pytest.mark.parametrize("d", [2, 16])
    def test_matches_tensor_oracle(self, d):
        rng = np.random.default_rng(40 + d)
        cases = [
            (rng.normal(size=(400, d)) * rng.uniform(0.1, 10.0, size=d), 5),
            (rng.integers(-2, 3, size=(300, d)).astype(float), 6),  # ties and duplicates
            (rng.normal(size=(7, d)), 9),  # k clamped to n
        ]
        for seed, (feats, k) in enumerate(cases):
            got = kmeans_labels(feats, k, np.random.default_rng(seed))
            assert np.array_equal(got, kmeans_oracle(feats, k, np.random.default_rng(seed)))


class TestKmeans:
    def test_recovers_separated_blobs(self):
        rng = np.random.default_rng(1)
        feats = cluster_features(rng, 90)
        assign = kmeans_labels(feats, 3, np.random.default_rng(7))
        # points from one blob share an id; blobs get distinct ids
        blob = (feats[:, 0] > 4).astype(int) + 2 * (feats[:, 1] > 4).astype(int)
        for b in np.unique(blob):
            assert len(set(assign[blob == b])) == 1
        assert len(set(assign)) == 3

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(50, 2))
        a = kmeans_labels(feats, 5, np.random.default_rng(3))
        b = kmeans_labels(feats, 5, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_clamps_to_n(self):
        feats = np.array([[0.0], [1.0]])
        assign = kmeans_labels(feats, 5, np.random.default_rng(4))
        assert assign.shape == (2,)


class TestMakeBags:
    def test_zero_alpha_zero_noise_gives_singletons(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(50, 2))
        truths = rng.integers(1, 5, size=50)
        data = make_bags(feats, truths, LabelSpace(4), SynthBagConfig(alpha_max=0.0, seed=9))
        expected = np.uint64(1) << (truths - 1).astype(np.uint64)
        assert np.array_equal(data.bag_masks, expected)
        assert np.array_equal(data.truths, truths)

    def test_full_corruption_uniform_anchor(self):
        rng = np.random.default_rng(6)
        n = 4000
        feats = rng.normal(size=(n, 2))
        truths = np.ones(n, dtype=np.int64)
        data = make_bags(
            feats, truths, LabelSpace(2), SynthBagConfig(alpha_max=0.0, noise_nu=1.0, seed=11)
        )
        # all bags are singleton anchors, uniform over both labels
        assert set(np.unique(data.bag_masks)) == {1, 2}
        share = float((data.bag_masks == 2).mean())
        assert abs(share - 0.5) <= 3.0 * math.sqrt(0.25 / n)

    def test_noiseless_truth_always_in_bag(self):
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(300, 2))
        truths = rng.integers(1, 6, size=300)
        data = make_bags(feats, truths, LabelSpace(5), SynthBagConfig(seed=13))
        memb = data.membership_matrix()
        assert memb[np.arange(300), truths - 1].all()

    def test_determinism_byte_for_byte(self):
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(80, 2))
        truths = rng.integers(1, 4, size=80)
        cfg = SynthBagConfig(noise_nu=0.2, seed=17)
        a = make_bags(feats, truths, LabelSpace(3), cfg)
        b = make_bags(feats, truths, LabelSpace(3), cfg)
        assert np.array_equal(a.bag_masks, b.bag_masks)
        assert a.features.tobytes() == b.features.tobytes()

    def test_truth_out_of_range(self):
        with pytest.raises(ValueError):
            make_bags(np.zeros((2, 1)), np.array([1, 9]), LabelSpace(3), SynthBagConfig())


class TestBagSteps:
    """The clustering step followed by the drawing step is make_bags, and one
    clustering serves any number of draws."""

    @pytest.mark.parametrize("seed", [0, 3, 2**40 + 7])
    def test_steps_equal_make_bags(self, seed):
        rng = np.random.default_rng(seed)
        feats = cluster_features(rng, 150)
        truths = rng.integers(1, 5, size=150)
        space = LabelSpace(4)
        cfg = SynthBagConfig(n_clusters=4, alpha_max=0.7, seed=seed)
        clustered = bag_clusters(feats, truths, space, cfg)
        for noise in (0.3, 0.0, 1.0, 0.3):
            want = make_bags(feats, truths, space, replace(cfg, noise_nu=noise))
            got = draw_bags(clustered, replace(cfg, noise_nu=noise))
            assert got.bag_masks.tobytes() == want.bag_masks.tobytes()
            assert got.features.tobytes() == want.features.tobytes()
            assert np.array_equal(got.truths, want.truths)

    def test_clustering_step_checks_inputs(self):
        with pytest.raises(ValueError, match="truth labels"):
            bag_clusters(np.zeros((2, 1)), np.array([1, 9]), LabelSpace(3), SynthBagConfig())

    @pytest.mark.parametrize(
        "features, truths, message",
        [
            (np.zeros((0, 1)), [], "features must be a nonempty (n, d) matrix"),
            (np.zeros((2, 1)), [1], "one truth per example is required"),
        ],
        ids=["empty_features", "truth_count"],
    )
    def test_clustering_step_checks_shapes(self, features, truths, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            bag_clusters(features, np.array(truths), LabelSpace(3), SynthBagConfig())


class TestBagSamplerStatistics:
    """Frequency checks against the known inclusion probabilities."""

    def test_expected_bag_size(self):
        # constant alpha: E[|bag|] = 1 + (c-1) * alpha
        rng = np.random.default_rng(19)
        n, c, alpha = 100_000, 6, 0.37
        anchors = rng.integers(1, c + 1, size=n)
        clusters = np.zeros(n, dtype=np.int64)
        masks = sample_bag_masks(anchors, clusters, np.full((c, 1), alpha), rng, c)
        sizes = masks_to_membership(masks, c).sum(axis=1)
        expected = 1.0 + (c - 1) * alpha
        se = math.sqrt((c - 1) * alpha * (1 - alpha) / n)
        assert abs(float(sizes.mean()) - expected) <= 3.0 * se

    def test_membership_is_bernoulli_alpha(self):
        # per (anchor, cluster) pair, each non-anchor label appears with its
        # own alpha; check empirical frequencies at 3 sigma
        rng = np.random.default_rng(23)
        n, c, k = 100_000, 4, 2
        alphas = np.array(
            [[0.1, 0.7], [0.4, 0.2], [0.05, 0.5], [0.6, 0.3]]
        )
        anchors = rng.integers(1, c + 1, size=n)
        clusters = rng.integers(0, k, size=n)
        masks = sample_bag_masks(anchors, clusters, alphas, rng, c)
        memb = masks_to_membership(masks, c)
        for a in range(1, c + 1):
            for j in range(k):
                rows = (anchors == a) & (clusters == j)
                m = int(rows.sum())
                alpha = alphas[a - 1, j]
                sigma = math.sqrt(alpha * (1 - alpha) / m)
                for y in range(1, c + 1):
                    freq = float(memb[rows, y - 1].mean())
                    if y == a:
                        assert freq == 1.0
                    else:
                        assert abs(freq - alpha) <= 3.5 * sigma


class TestRemoveTruthNoise:
    def _dataset(self, masks, truths, c=3):
        masks = np.asarray(masks, dtype=np.uint64)
        feats = np.arange(masks.shape[0], dtype=float).reshape(-1, 1)
        from plbag.core import PartialDataset

        return PartialDataset(feats, masks, LabelSpace(c), truths=np.asarray(truths))

    def test_rate_zero_is_identity(self):
        data = self._dataset([0b011, 0b100, 0b001], [1, 3, 1])
        out = remove_truth_noise(data, 0.0, seed=5)
        assert np.array_equal(out.bag_masks, data.bag_masks)

    def test_forced_removal(self):
        data = self._dataset([0b011], [1])  # bag {1,2}, truth 1
        out = remove_truth_noise(data, 1.0, seed=5)
        assert out.bag_masks[0] == 0b010

    def test_singleton_substitution_is_uniform(self):
        n = 10_000
        data = self._dataset([0b001] * n, [1] * n)  # singleton truth, c = 3
        out = remove_truth_noise(data, 1.0, seed=7)
        values, counts = np.unique(out.bag_masks, return_counts=True)
        assert set(values.tolist()) == {0b010, 0b100}
        # binomial z-test at 3 sigma around the even split
        assert abs(counts[0] - n / 2) <= 3.0 * math.sqrt(n / 4)

    def test_truthless_bags_untouched(self):
        data = self._dataset([0b110, 0b010], [1, 1])
        out = remove_truth_noise(data, 1.0, seed=9)
        assert np.array_equal(out.bag_masks, data.bag_masks)

    def test_requires_truths(self):
        from plbag.core import PartialDataset

        data = PartialDataset(np.zeros((1, 1)), np.array([1], dtype=np.uint64), LabelSpace(2))
        with pytest.raises(ValueError):
            remove_truth_noise(data, 0.5, seed=1)

    def test_rate_above_one(self):
        data = self._dataset([0b011], [1])
        with pytest.raises(ValueError, match=r"rate must be in \[0, 1\], got 1.5"):
            remove_truth_noise(data, 1.5, seed=1)


class TestTwoGaussianScenario:
    def test_bayes_risk_matches_overlap_integral(self):
        # oracle: the 1D overlap of two unit Gaussians at +-1 is Phi(-1)
        scenario = analytic_scenario("two_gaussians")
        exact = normal_cdf(-1.0)
        assert exact == pytest.approx(0.15865525393145707, abs=1e-12)
        assert scenario.bayes_risk(400) == pytest.approx(exact, abs=2e-4)

    def test_grid_mass_near_one(self):
        scenario = analytic_scenario("two_gaussians")
        assert abs(scenario.grid_total_mass(400) - 1.0) <= 1e-3

    def test_identity_process_field_equals_posterior(self):
        scenario = analytic_scenario("two_gaussians")
        pts = np.random.default_rng(3).normal(size=(50, 2))
        np.testing.assert_array_equal(
            scenario.bag_frequency_field(pts), scenario.posterior(pts)
        )

    def test_sample_bags_are_singleton_truths(self):
        scenario = analytic_scenario("two_gaussians")
        data = scenario.sample(200, seed=11)
        expected = np.uint64(1) << (data.truths - 1).astype(np.uint64)
        assert np.array_equal(data.bag_masks, expected)

    def test_sampling_deterministic(self):
        scenario = analytic_scenario("two_gaussians")
        a = scenario.sample(100, seed=13)
        b = scenario.sample(100, seed=13)
        assert a.features.tobytes() == b.features.tobytes()
        assert np.array_equal(a.bag_masks, b.bag_masks)


class TestRelaxedScenario:
    def test_constructed_mass_and_gap(self):
        scenario = analytic_scenario("relaxed_two_gaussians")
        assert scenario.theta == 0.05
        assert scenario.region_mass_exact() == pytest.approx(0.1, abs=1e-9)
        assert scenario.region_mass(1600) == pytest.approx(0.1, abs=5e-3)
        # gap at the strip edge equals theta: gap(x1) = tanh(mu * x1)
        mu = float(scenario.means[1, 0])
        assert math.tanh(mu * scenario.swap_halfwidth) == pytest.approx(0.05, abs=1e-12)

    def test_field_swapped_only_inside_strip(self):
        scenario = analytic_scenario("relaxed_two_gaussians")
        a = scenario.swap_halfwidth
        inside = np.array([[0.5 * a, 0.3]])
        outside = np.array([[3.0 * a, -0.2]])
        post_in, post_out = scenario.posterior(inside), scenario.posterior(outside)
        field_in = scenario.bag_frequency_field(inside)
        field_out = scenario.bag_frequency_field(outside)
        np.testing.assert_array_equal(field_in, post_in[:, ::-1])
        np.testing.assert_array_equal(field_out, post_out)

    def test_sampled_bags_swapped_in_strip(self):
        scenario = analytic_scenario("relaxed_two_gaussians")
        data = scenario.sample(2000, seed=17)
        inside = np.abs(data.features[:, 0]) <= scenario.swap_halfwidth
        anchors = data.truths.copy()
        anchors[inside] = 3 - anchors[inside]
        expected = np.uint64(1) << (anchors - 1).astype(np.uint64)
        assert np.array_equal(data.bag_masks, expected)


class TestScenarioFactory:
    def test_cluster_scenario_shape(self):
        scenario = analytic_scenario("gaussian_clusters")
        assert scenario.label_space.c == 10
        assert not scenario.has_bag_process
        np.testing.assert_allclose(np.linalg.norm(scenario.means, axis=1), 3.0)
        post = scenario.posterior(np.random.default_rng(5).normal(size=(10, 2)))
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            analytic_scenario("mystery")

    def test_corruption_rate_applies_to_anchor(self):
        scenario = analytic_scenario("two_gaussians")
        rng = np.random.default_rng(19)
        x = np.zeros((20_000, 2))
        y = np.ones(20_000, dtype=np.int64)
        masks = scenario.bag_masks_for(x, y, rng, noise_nu=1.0)
        share = float((masks == 2).mean())
        assert abs(share - 0.5) <= 3.0 * math.sqrt(0.25 / 20_000)

    def test_negative_corruption_rate(self):
        scenario = analytic_scenario("two_gaussians")
        x = np.zeros((4, 2))
        y = np.ones(4, dtype=np.int64)
        with pytest.raises(ValueError, match=r"noise_nu must be in \[0, 1\], got -0.1"):
            scenario.bag_masks_for(x, y, np.random.default_rng(0), noise_nu=-0.1)


class TestScenarioBranches:
    """Only a scenario with a bag process draws bags, and only a positive
    ``swap_halfwidth`` swaps them or carries strip mass."""

    @pytest.mark.parametrize("name", ["two_gaussians", "gaussian_clusters"])
    def test_no_strip_mass_without_a_swap(self, name):
        scenario = analytic_scenario(name)
        assert scenario.region_mass() == 0.0
        assert scenario.region_mass_exact() == 0.0

    def test_cluster_field_equals_posterior(self):
        scenario = analytic_scenario("gaussian_clusters")
        pts = np.random.default_rng(23).normal(scale=3.0, size=(50, 2))
        np.testing.assert_array_equal(
            scenario.bag_frequency_field(pts), scenario.posterior(pts)
        )

    def test_identity_bags_on_the_boundary_are_truths(self):
        # |x1| <= 0.0 holds at x1 == 0.0, so a strip of half-width 0 would
        # swap these anchors; at noise_nu = 0 every bag is the truth
        scenario = analytic_scenario("two_gaussians")
        x = np.zeros((100, 2))
        y = np.random.default_rng(29).integers(1, 3, size=100)
        masks = scenario.bag_masks_for(x, y, np.random.default_rng(31), noise_nu=0.0)
        assert np.array_equal(masks, np.uint64(1) << (y - 1).astype(np.uint64))

    def test_cluster_scenario_draws_no_bags(self):
        scenario = analytic_scenario("gaussian_clusters")
        x = np.zeros((4, 2))
        y = np.ones(4, dtype=np.int64)
        with pytest.raises(ValueError, match="'gaussian_clusters'"):
            scenario.bag_masks_for(x, y, np.random.default_rng(0))
