"""Feature pipeline tests.

``fit_oracle`` and ``transform_oracle`` are the earlier implementation: the
chain written out twice, with training-side searches that drop the query's
own index and test-side searches that drop one zero-distance row.  The
one-chain ``fit``/``transform`` must give the same bytes on every input
without coordinate gaps small enough to underflow a squared distance.
"""

import contextlib
import io
import re
import tracemalloc

import numpy as np
import pytest

from plbag import knn_index, preprocess
from plbag.bench_cli import main
from plbag.core import LabelSpace, save_dataset
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
from plbag.synth import SynthBagConfig, make_bags


class TestConfig:
    def test_variant_defaults(self):
        vision = PipelineConfig("vision")
        assert (vision.smoothing_alpha, vision.smoothing_k, vision.density_k) == (0.25, 10, 50)
        real = PipelineConfig("realworld")
        assert (real.smoothing_alpha, real.smoothing_k, real.density_k) == (0.1, 10, 100)

    def test_overrides(self):
        cfg = PipelineConfig("vision", smoothing_alpha=0.0, density_k=3)
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
        cfg = PipelineConfig("vision", smoothing_alpha=0.0, smoothing_k=1, density_k=1)
        fitted = fit(np.array([[3.0, 0.0], [-3.0, 0.0]]), cfg)
        np.testing.assert_allclose(
            fitted.transformed_train, [[0.5, 0.0], [-0.5, 0.0]], atol=1e-12
        )


class TestFit:
    def _data(self, n=40, d=6, seed=11):
        return np.random.default_rng(seed).normal(size=(n, d)) * 3.0

    def test_alpha_zero_reduces_to_center_normalize_density(self):
        x = self._data()
        cfg = PipelineConfig("vision", smoothing_alpha=0.0, smoothing_k=3, density_k=5)
        fitted = fit(x, cfg)
        manual = _unit_rows(x - x.mean(axis=0))
        np.testing.assert_allclose(fitted.smoothed_train, manual, atol=1e-12)
        norms = np.linalg.norm(fitted.smoothed_train, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_pre_density_rows_unit_norm(self):
        x = self._data()
        fitted = fit(x, PipelineConfig("vision", smoothing_k=5, density_k=7))
        norms = np.linalg.norm(fitted.smoothed_train, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_realworld_uses_cube_root_not_mean(self):
        x = self._data()
        cfg = PipelineConfig(
            "realworld", smoothing_alpha=0.0, smoothing_k=3, density_k=5
        )
        fitted = fit(x, cfg)
        assert fitted.mean is None
        manual = _unit_rows(_signed_cube_root(x))
        np.testing.assert_allclose(fitted.smoothed_train, manual, atol=1e-12)

    @pytest.mark.parametrize(
        "x, message",
        [
            (np.zeros(60), "train features must be an (n, d) matrix"),
            (np.full((60, 2), np.nan), "train features must be finite"),
        ],
        ids=["one_dimensional", "non_finite"],
    )
    def test_feature_refusals(self, x, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            fit(x, PipelineConfig("vision"))

    def test_needs_enough_points(self):
        with pytest.raises(ValueError):
            fit(np.zeros((5, 2)), PipelineConfig("vision"))

    def test_duplicate_points_use_fallback_radius(self):
        x = np.array([[1.0, 0.0]] * 3 + [[0.0, 2.0], [0.0, 3.0], [4.0, 4.0]])
        cfg = PipelineConfig("vision", smoothing_alpha=0.0, smoothing_k=2, density_k=2)
        fitted = fit(x, cfg)
        assert np.all(np.isfinite(fitted.transformed_train))
        assert fitted.density_fallback > 0.0

    def test_deterministic(self):
        x = self._data()
        cfg = PipelineConfig("vision", smoothing_k=4, density_k=6)
        a, b = fit(x, cfg), fit(x, cfg)
        np.testing.assert_array_equal(a.transformed_train, b.transformed_train)
        np.testing.assert_array_equal(a.density_radii, b.density_radii)


class TestTransform:
    def _fitted(self, seed=13, alpha=0.25):
        x = np.random.default_rng(seed).normal(size=(50, 5))
        cfg = PipelineConfig(
            "vision", smoothing_alpha=alpha, smoothing_k=4, density_k=6
        )
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

    @staticmethod
    def stacked(reference, queries, k):
        """``_neighbor_distances``' chunks, checked to cover the queries in
        order, stacked into (m, k) indices and distances."""
        chunks = list(_neighbor_distances(reference, queries, k))
        assert [(rows.start, rows.stop) for rows, _, _ in chunks] == [
            (s, min(s + preprocess._SMOOTH_ROWS, queries.shape[0]))
            for s in range(0, queries.shape[0], preprocess._SMOOTH_ROWS)
        ]
        return np.concatenate([c[1] for c in chunks]), np.concatenate([c[2] for c in chunks])

    def test_self_mode(self):
        # which of several exact duplicates stands for the query is not
        # fixed; the distances and the neighbor vectors are
        ref = self._grid()
        idx, dist = self.stacked(ref, ref, 7)
        for i in range(ref.shape[0]):
            order, d = self._oracle(ref, ref[i], 7, i)
            np.testing.assert_array_equal(ref[idx[i]], ref[order])
            np.testing.assert_array_equal(dist[i], d)

    def test_one_zero_mode(self):
        ref = self._grid()
        queries = np.vstack([ref[:60], ref[:60] + 0.5])
        idx, dist = self.stacked(ref, queries, 7)
        for i, q in enumerate(queries):
            zeros = np.flatnonzero(((ref - q) ** 2).sum(axis=1) == 0.0)
            order, d = self._oracle(ref, q, 7, zeros[0] if zeros.size else -1)
            assert idx[i].tolist() == order.tolist()
            np.testing.assert_array_equal(dist[i], d)

    def test_chunks_match_one_search(self):
        # 600 queries in three chunks of _SMOOTH_ROWS against the oracle's
        # one search of them all
        ref = self._grid()
        rng = np.random.default_rng(24)
        queries = np.vstack([ref, ref[::-1], rng.integers(-3, 4, size=(200, 2)) * 0.5])
        idx, dist = self.stacked(ref, queries, 7)
        want_idx, want_dist = neighbor_distances_oracle(ref, queries, 7, "one_zero")
        assert np.array_equal(idx, want_idx)
        assert dist.tobytes() == want_dist.tobytes()

    def test_no_step_holds_the_neighbor_arrays(self):
        # realworld on 6,000 x 16 rows: the fit's (4800, 100) indices and
        # distances alone would be 7.68 MB; searching and reading 256 rows at
        # a time keeps the whole fit and transform below that
        rng = np.random.default_rng(25)
        x = rng.normal(size=(6000, 16))
        config = PipelineConfig("realworld")
        transform(fit(x[:300], config), x[:10])  # lazy imports
        tracemalloc.start()
        try:
            transform(fit(x[:4800], config), x[4800:])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert config.density_k == 100 and peak < 4800 * 100 * 16


# ---------------------------------------------------------------------------
# The earlier two-mode implementation, kept as an oracle
# ---------------------------------------------------------------------------


def neighbor_distances_oracle(reference, queries, k, exclude):
    """``exclude="self"`` drops the same-index row, ``"one_zero"`` the first
    row when it lies at distance 0; otherwise the last row is dropped."""
    m = queries.shape[0]
    order = np.empty((m, k + 1), dtype=np.int64)
    sqd = np.empty(order.shape)
    knn_index.search(knn_index.build(reference), queries, order, sqd)
    if exclude == "self":
        drop = order == np.arange(m)[:, None]
    else:
        drop = np.zeros(order.shape, dtype=bool)
        drop[:, 0] = sqd[:, 0] == 0.0
    drop[~drop.any(axis=1), -1] = True
    return order[~drop].reshape(-1, k), np.sqrt(sqd[~drop]).reshape(-1, k)


def gaussian_weights_oracle(dist, sigma):
    """The weights of one row, as ``gaussian_weights`` once computed them."""
    if sigma == 0.0:
        return np.full(dist.shape[0], 1.0 / dist.shape[0])
    w = np.exp(-(dist**2) / (2.0 * sigma**2))
    return w / w.sum()


def smooth_oracle(vectors, reference, alpha, k, exclude):
    if alpha == 0.0:
        return vectors.copy()
    idx, dist = neighbor_distances_oracle(reference, vectors, k, exclude)
    sigma = np.median(dist, axis=1)
    out = np.empty_like(vectors)
    for i in range(vectors.shape[0]):
        w = gaussian_weights_oracle(dist[i], float(sigma[i]))
        out[i] = (1.0 - alpha) * vectors[i] + alpha * (w @ reference[idx[i]])
    return out


def fit_oracle(train_features, config):
    x = np.asarray(train_features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("train features must be an (n, d) matrix")
    if not np.all(np.isfinite(x)):
        raise ValueError("train features must be finite")
    n = x.shape[0]
    if n <= config.smoothing_k or n <= config.density_k:
        raise ValueError(
            f"need more than {max(config.smoothing_k, config.density_k)} training points, got {n}"
        )
    if config.variant == "vision":
        mean = x.mean(axis=0)
        x = x - mean
    else:
        mean = None
        x = _signed_cube_root(x)
    x = _unit_rows(x)
    x = smooth_oracle(x, x, config.smoothing_alpha, config.smoothing_k, "self")
    x = _unit_rows(x)
    _, dist = neighbor_distances_oracle(x, x, config.density_k, "self")
    radii = dist.mean(axis=1)
    positive = radii[radii > 0.0]
    if positive.size == 0:
        raise ValueError("all training points coincide; density scaling is undefined")
    fallback = float(positive.min())
    safe = np.where(radii > 0.0, radii, fallback)
    return FittedPipeline(
        config=config,
        mean=None if mean is None else mean.copy(),
        smoothed_train=x,
        density_radii=safe,
        density_fallback=fallback,
        transformed_train=x / safe[:, None],
    )


def transform_oracle(pipeline, test_features):
    x = np.asarray(test_features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != pipeline.smoothed_train.shape[1]:
        raise ValueError("test features must match the training dimension")
    cfg = pipeline.config
    if cfg.variant == "vision":
        x = x - pipeline.mean
    else:
        x = _signed_cube_root(x)
    x = _unit_rows(x)
    x = smooth_oracle(x, pipeline.smoothed_train, cfg.smoothing_alpha, cfg.smoothing_k, "one_zero")
    x = _unit_rows(x)
    _, dist = neighbor_distances_oracle(pipeline.smoothed_train, x, cfg.density_k, "one_zero")
    radii = dist.mean(axis=1)
    safe = np.where(radii > 0.0, radii, pipeline.density_fallback)
    return x / safe[:, None]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _random_case(rng):
    """Training and test features plus a config: Gaussian or integer-grid
    features (the grid repeats rows exactly), test rows that copy training
    rows, sit on the grid or are fresh, alpha 0 or random."""
    n, d = int(rng.integers(8, 120)), int(rng.integers(1, 5))
    grid = rng.random() < 0.5
    if grid:
        train = rng.integers(-2, 3, size=(n, d)).astype(float)
        fresh = rng.integers(-3, 4, size=(n, d)).astype(float)
    else:
        train = rng.normal(size=(n, d)) * rng.uniform(0.1, 5.0)
        fresh = rng.normal(size=(n, d))
    test = np.vstack([train[rng.integers(n, size=n // 2)], fresh[: n // 2 + 1]])
    alpha = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 1.0))
    config = PipelineConfig(
        str(rng.choice(["vision", "realworld"])),
        smoothing_alpha=alpha,
        smoothing_k=int(rng.integers(1, n)),
        density_k=int(rng.integers(1, n)),
    )
    return train, test, config


def _assert_same_bytes(train, test, config):
    got, want = _outcome(fit, train, config), _outcome(fit_oracle, train, config)
    if isinstance(want, str):
        assert got == want
        return
    for name in ("smoothed_train", "density_radii", "transformed_train"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.density_fallback == want.density_fallback
    assert (got.mean is None) == (want.mean is None)
    if got.mean is not None:
        assert got.mean.tobytes() == want.mean.tobytes()
    assert transform(got, test).tobytes() == transform_oracle(want, test).tobytes()


class TestAgainstOracle:
    """Byte-equal fits and transforms on random inputs, exact duplicates
    included, both variants, alpha 0 and random alpha."""

    def test_random_inputs(self):
        rng = np.random.default_rng(101)
        for _ in range(120):
            _assert_same_bytes(*_random_case(rng))

    @pytest.mark.parametrize("variant", ["vision", "realworld"])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_searches_cross_a_block_boundary(self, variant, alpha):
        # 300 training rows and 600 test rows: each search spans chunks of
        # _SMOOTH_ROWS queries
        rng = np.random.default_rng(7)
        train = rng.integers(-2, 3, size=(300, 3)).astype(float)
        test = np.vstack([train[::-1], rng.integers(-3, 4, size=(300, 3)).astype(float)])
        config = PipelineConfig(variant, smoothing_alpha=alpha, density_k=40)
        _assert_same_bytes(train, test, config)


class TestSmoothingRows:
    """``gaussian_weights`` over rows and ``_smooth``'s stacked neighbor
    means equal the row-by-row oracle byte for byte."""

    def test_weights_per_row(self):
        rng = np.random.default_rng(61)
        for k in (1, 2, 7, 8, 9, 16, 17, 50, 130):
            dist = np.sqrt(rng.uniform(0.0, 2.0, size=(40, k)))
            dist[:5] = 0.0  # sigma 0: uniform weights
            dist[5:10] = rng.integers(0, 3, size=(5, k))
            sigma = np.median(dist, axis=1)
            got = gaussian_weights(dist, sigma)
            for i in range(dist.shape[0]):
                want = gaussian_weights_oracle(dist[i], float(sigma[i]))
                assert got[i].tobytes() == want.tobytes(), (k, i)

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 16, 17, 33, 64, 127, 130])
    def test_smooth_at_every_width(self, d):
        rng = np.random.default_rng(62 + d)
        config = PipelineConfig("vision", smoothing_alpha=0.3, smoothing_k=9)
        for reference in (rng.normal(size=(300, d)), rng.integers(-1, 2, size=(300, d)) * 1.0):
            reference = _unit_rows(reference)
            reference[100:140] = reference[:40]  # exact duplicates, some at distance 0
            vectors = _unit_rows(np.vstack([reference[:30], rng.normal(size=(290, d))]))
            got = preprocess._smooth(vectors, reference, config)
            want = smooth_oracle(vectors, reference, 0.3, 9, "one_zero")
            assert got.tobytes() == want.tobytes()


def _underflow_features():
    """Integer-grid columns plus one column of multiples of 1e-170, with
    truths: rows that share their grid coordinates differ by gaps whose
    squares underflow to 0."""
    rng = np.random.default_rng(41)
    truths = rng.integers(1, 4, size=200)
    grid = rng.integers(-1, 2, size=(200, 2)) + np.eye(3)[truths - 1, :2]
    tiny = rng.integers(0, 4, size=(200, 1)) * 1e-170
    return np.hstack([grid, tiny]), truths


class TestUnderflowGap:
    """Rows that differ only by gaps below ~1.5e-162 sit at squared
    distance 0, so ``fit`` may drop a near-duplicate in place of the row
    itself.  The fitted arrays then differ from the oracle's only in
    entries below 1e-160, and the ``bench run`` output does not change."""

    def test_fitted_entries_differ_below_1e160(self):
        features, _ = _underflow_features()
        config = PipelineConfig("vision", density_k=30)
        got, want = fit(features, config), fit_oracle(features, config)
        for name in ("smoothed_train", "transformed_train"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=0, atol=1e-160)
        np.testing.assert_array_equal(got.density_radii, want.density_radii)

    def test_bench_run_csvs_match_oracle_pipeline(self, tmp_path, monkeypatch):
        data = make_bags(*_underflow_features(), LabelSpace(3), SynthBagConfig(n_clusters=3))
        save_dataset(data, tmp_path / "gap.csv")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"[experiment]\ndataset = {tmp_path / 'gap.csv'}\nmethods = plaknn,fixed_k,aknn\n"
            "noise_grid = 0.0,0.2\nrepetitions = 2\n[plaknn]\nT = 60\n"
            "[pipeline]\nvariant = vision\ndensity_k = 30\n"
        )

        def bench_run(out):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["run", "--config", str(cfg), "--out", str(out),
                             "--dump-predictions"]) == 0

        bench_run(tmp_path / "got")
        monkeypatch.setattr(preprocess, "fit", fit_oracle)
        monkeypatch.setattr(preprocess, "transform", transform_oracle)
        bench_run(tmp_path / "want")
        for name in ("results.csv", "summary.csv", "predictions.csv"):
            assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()
