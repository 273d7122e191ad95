import numpy as np
import pytest

from plbag.preprocess import (
    FittedPipeline,
    PipelineConfig,
    _neighbor_distances,
    _signed_cube_root,
    _unit_rows,
    fit,
    gaussian_weights,
    transform,
)


class TestConfig:
    def test_variant_defaults(self):
        vision = PipelineConfig.vision()
        assert (vision.smoothing_alpha, vision.smoothing_k, vision.density_k) == (0.25, 10, 50)
        real = PipelineConfig.realworld()
        assert (real.smoothing_alpha, real.smoothing_k, real.density_k) == (0.1, 10, 100)

    def test_overrides(self):
        cfg = PipelineConfig.vision(smoothing_alpha=0.0, density_k=3)
        assert cfg.smoothing_alpha == 0.0 and cfg.density_k == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig("other", 0.1)
        with pytest.raises(ValueError):
            PipelineConfig("vision", 1.5)


class TestSteps:
    def test_unit_normalization(self):
        np.testing.assert_allclose(_unit_rows(np.array([[3.0, 4.0]])), [[0.6, 0.8]])

    def test_signed_cube_root(self):
        np.testing.assert_allclose(
            _signed_cube_root(np.array([[-8.0, 27.0]])), [[-2.0, 3.0]], atol=1e-12
        )

    def test_gaussian_weights_normalized(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dist = rng.uniform(0.01, 2.0, size=10)
            w = gaussian_weights(dist, float(np.median(dist)))
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) <= 1e-9

    def test_gaussian_weights_degenerate_sigma(self):
        w = gaussian_weights(np.zeros(4), 0.0)
        np.testing.assert_allclose(w, 0.25)

    def test_density_division(self):
        # two antipodal unit vectors: each point's single neighbor sits at
        # distance 2, so the density step halves the coordinates
        cfg = PipelineConfig.vision(smoothing_alpha=0.0, smoothing_k=1, density_k=1)
        fitted = fit(np.array([[3.0, 0.0], [-3.0, 0.0]]), cfg)
        np.testing.assert_allclose(
            fitted.transformed_train, [[0.5, 0.0], [-0.5, 0.0]], atol=1e-12
        )


class TestFit:
    def _data(self, n=40, d=6, seed=11):
        return np.random.default_rng(seed).normal(size=(n, d)) * 3.0

    def test_alpha_zero_reduces_to_center_normalize_density(self):
        x = self._data()
        cfg = PipelineConfig.vision(smoothing_alpha=0.0, smoothing_k=3, density_k=5)
        fitted = fit(x, cfg)
        manual = _unit_rows(x - x.mean(axis=0))
        np.testing.assert_allclose(fitted.smoothed_train, manual, atol=1e-12)
        norms = np.linalg.norm(fitted.smoothed_train, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_pre_density_rows_unit_norm(self):
        x = self._data()
        fitted = fit(x, PipelineConfig.vision(smoothing_k=5, density_k=7))
        norms = np.linalg.norm(fitted.smoothed_train, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_realworld_uses_cube_root_not_mean(self):
        x = self._data()
        cfg = PipelineConfig.realworld(smoothing_alpha=0.0, smoothing_k=3, density_k=5)
        fitted = fit(x, cfg)
        assert fitted.mean is None
        manual = _unit_rows(_signed_cube_root(x))
        np.testing.assert_allclose(fitted.smoothed_train, manual, atol=1e-12)

    def test_needs_enough_points(self):
        with pytest.raises(ValueError):
            fit(np.zeros((5, 2)), PipelineConfig.vision())

    def test_duplicate_points_use_fallback_radius(self):
        x = np.array([[1.0, 0.0]] * 3 + [[0.0, 2.0], [0.0, 3.0], [4.0, 4.0]])
        cfg = PipelineConfig.vision(smoothing_alpha=0.0, smoothing_k=2, density_k=2)
        fitted = fit(x, cfg)
        assert np.all(np.isfinite(fitted.transformed_train))
        assert fitted.density_fallback > 0.0

    def test_deterministic(self):
        x = self._data()
        cfg = PipelineConfig.vision(smoothing_k=4, density_k=6)
        a, b = fit(x, cfg), fit(x, cfg)
        np.testing.assert_array_equal(a.transformed_train, b.transformed_train)
        np.testing.assert_array_equal(a.density_radii, b.density_radii)


class TestTransform:
    def _fitted(self, seed=13, alpha=0.25):
        x = np.random.default_rng(seed).normal(size=(50, 5))
        cfg = PipelineConfig.vision(smoothing_alpha=alpha, smoothing_k=4, density_k=6)
        return x, fit(x, cfg)

    def test_training_point_reproduced_when_alpha_zero(self):
        x, fitted = self._fitted(alpha=0.0)
        out = transform(fitted, x[7:8])
        np.testing.assert_allclose(out[0], fitted.transformed_train[7], atol=1e-6)

    def test_whole_training_set_reproduced_when_alpha_zero(self):
        x, fitted = self._fitted(alpha=0.0)
        out = transform(fitted, x)
        np.testing.assert_allclose(out, fitted.transformed_train, atol=1e-6)

    def test_dimension_checked(self):
        _, fitted = self._fitted()
        with pytest.raises(ValueError):
            transform(fitted, np.zeros((1, 3)))

    def test_no_leakage_fit_is_pure(self):
        # transforming test sets must not change the fitted state or the
        # transform of other points
        x, fitted = self._fitted()
        rng = np.random.default_rng(17)
        probe = rng.normal(size=(5, 5))
        before = transform(fitted, probe)
        transform(fitted, rng.normal(size=(200, 5)) * 10.0)
        after = transform(fitted, probe)
        np.testing.assert_array_equal(before, after)
        refit = fit(x, fitted.config)
        np.testing.assert_array_equal(refit.transformed_train, fitted.transformed_train)

    def test_smoothing_pulls_test_points_toward_train(self):
        x, fitted = self._fitted(alpha=0.25)
        far = np.full((1, 5), 4.0)
        out = transform(fitted, far)
        assert np.all(np.isfinite(out))

    def test_transform_does_not_mutate_pipeline(self):
        x, fitted = self._fitted()
        snapshot = fitted.smoothed_train.copy()
        transform(fitted, np.random.default_rng(19).normal(size=(10, 5)))
        np.testing.assert_array_equal(fitted.smoothed_train, snapshot)
        assert isinstance(fitted, FittedPipeline)


class TestNeighborTies:
    """Among rows tied at the k-th distance the lowest index wins, as in
    every other neighbor search of the package."""

    @staticmethod
    def _oracle(reference, query, k, excluded):
        sqd = ((reference - query) ** 2).sum(axis=1)
        order = np.lexsort((np.arange(reference.shape[0]), sqd))
        order = order[order != excluded][:k]
        return order, np.sqrt(sqd[order])

    def _grid(self):
        return np.random.default_rng(23).integers(-2, 3, size=(200, 2)).astype(float)

    def test_self_mode(self):
        ref = self._grid()
        idx, dist = _neighbor_distances(ref, ref, 7, "self")
        for i in range(ref.shape[0]):
            order, d = self._oracle(ref, ref[i], 7, i)
            assert idx[i].tolist() == order.tolist()
            np.testing.assert_array_equal(dist[i], d)

    def test_one_zero_mode(self):
        ref = self._grid()
        queries = np.vstack([ref[:60], ref[:60] + 0.5])
        idx, dist = _neighbor_distances(ref, queries, 7, "one_zero")
        for i, q in enumerate(queries):
            zeros = np.flatnonzero(((ref - q) ** 2).sum(axis=1) == 0.0)
            order, d = self._oracle(ref, q, 7, zeros[0] if zeros.size else -1)
            assert idx[i].tolist() == order.tolist()
            np.testing.assert_array_equal(dist[i], d)
