"""Feature pipelines for Euclidean nearest-neighbor retrieval.

Both variants share the same chain: a first transform (mean centering for
the ``vision`` variant, an elementwise signed cube root for ``realworld``),
unit normalization, Gaussian-weighted smoothing over each point's nearest
neighbors with a re-normalization, and finally a division by the local
density radius (mean distance to the density neighbors) that counters
hubness.  Every statistic is fitted on training data only; test vectors are
smoothed and density-scaled against the already-smoothed training matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import knn_index


@dataclass(frozen=True)
class PipelineConfig:
    variant: str
    smoothing_alpha: float
    smoothing_k: int = 10
    density_k: int = 50

    def __post_init__(self) -> None:
        if self.variant not in ("vision", "realworld"):
            raise ValueError(f"variant must be 'vision' or 'realworld', got {self.variant!r}")
        if not 0.0 <= self.smoothing_alpha <= 1.0:
            raise ValueError(f"smoothing_alpha must be in [0, 1], got {self.smoothing_alpha}")
        if self.smoothing_k < 1 or self.density_k < 1:
            raise ValueError("neighbor counts must be >= 1")

    @classmethod
    def vision(cls, **overrides) -> "PipelineConfig":
        base = dict(variant="vision", smoothing_alpha=0.25, smoothing_k=10, density_k=50)
        base.update(overrides)
        return cls(**base)

    @classmethod
    def realworld(cls, **overrides) -> "PipelineConfig":
        base = dict(variant="realworld", smoothing_alpha=0.1, smoothing_k=10, density_k=100)
        base.update(overrides)
        return cls(**base)


@dataclass(frozen=True)
class FittedPipeline:
    """Training statistics plus the transformed training matrix.

    ``smoothed_train`` (unit-norm, pre-density) is the reference set for all
    test-time neighbor searches; ``transformed_train`` is what classifiers
    should index.
    """

    config: PipelineConfig
    mean: np.ndarray | None
    smoothed_train: np.ndarray
    density_radii: np.ndarray
    density_fallback: float
    transformed_train: np.ndarray


def _unit_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(norms == 0.0, 1.0, norms)


def _signed_cube_root(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.abs(x) ** (1.0 / 3.0)


def _neighbor_distances(
    reference: np.ndarray, queries: np.ndarray, k: int, exclude: str
) -> tuple[np.ndarray, np.ndarray]:
    """k nearest reference rows per query: (indices, Euclidean distances).

    ``exclude="self"`` drops the same-index row (training-side searches,
    where queries are the reference).  ``exclude="one_zero"`` drops the
    lowest-index exact-zero-distance row, if any (test-side searches), so a
    test point that coincides with a training point sees exactly the
    neighbor set that training point saw and gets the identical transform.
    Among rows tied at the k-th distance the lowest index wins.
    """
    m = queries.shape[0]
    idx = np.empty((m, k), dtype=np.int64)
    dist = np.empty((m, k))
    index = knn_index.build(reference)
    for rows, order, sqd in knn_index.neighbor_blocks(index, queries, k + 1):
        if exclude == "self":
            drop = order == np.arange(rows.start, rows.stop)[:, None]
        else:
            drop = np.zeros(order.shape, dtype=bool)
            drop[:, 0] = sqd[:, 0] == 0.0
        drop[~drop.any(axis=1), -1] = True
        idx[rows] = order[~drop].reshape(-1, k)
        dist[rows] = np.sqrt(sqd[~drop]).reshape(-1, k)
    return idx, dist


def gaussian_weights(dist: np.ndarray, sigma: float) -> np.ndarray:
    """Normalized Gaussian neighbor weights; uniform when sigma degenerates."""
    if sigma == 0.0:
        return np.full(dist.shape[0], 1.0 / dist.shape[0])
    w = np.exp(-(dist**2) / (2.0 * sigma**2))
    return w / w.sum()


def _smooth(
    vectors: np.ndarray,
    reference: np.ndarray,
    alpha: float,
    k: int,
    exclude: str,
) -> np.ndarray:
    """Convex combination of each vector with the Gaussian-weighted mean of
    its k nearest reference vectors; bandwidth is the per-point median
    neighbor distance."""
    if alpha == 0.0:
        return vectors.copy()
    idx, dist = _neighbor_distances(reference, vectors, k, exclude)
    sigma = np.median(dist, axis=1)
    out = np.empty_like(vectors)
    for i in range(vectors.shape[0]):
        w = gaussian_weights(dist[i], float(sigma[i]))
        out[i] = (1.0 - alpha) * vectors[i] + alpha * (w @ reference[idx[i]])
    return out


def _density_radii(
    reference: np.ndarray, queries: np.ndarray, k: int, exclude: str
) -> np.ndarray:
    _, dist = _neighbor_distances(reference, queries, k, exclude)
    return dist.mean(axis=1)


def fit(train_features: np.ndarray, config: PipelineConfig) -> FittedPipeline:
    """Fit the pipeline on training features and transform them."""
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
    x = _smooth(x, x, config.smoothing_alpha, config.smoothing_k, exclude="self")
    x = _unit_rows(x)

    radii = _density_radii(x, x, config.density_k, exclude="self")
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


def transform(pipeline: FittedPipeline, test_features: np.ndarray) -> np.ndarray:
    """Apply the fitted chain to test features without touching the fit."""
    x = np.asarray(test_features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != pipeline.smoothed_train.shape[1]:
        raise ValueError("test features must match the training dimension")
    cfg = pipeline.config
    if cfg.variant == "vision":
        x = x - pipeline.mean
    else:
        x = _signed_cube_root(x)
    x = _unit_rows(x)
    x = _smooth(x, pipeline.smoothed_train, cfg.smoothing_alpha, cfg.smoothing_k, exclude="one_zero")
    x = _unit_rows(x)
    radii = _density_radii(pipeline.smoothed_train, x, cfg.density_k, exclude="one_zero")
    safe = np.where(radii > 0.0, radii, pipeline.density_fallback)
    return x / safe[:, None]
