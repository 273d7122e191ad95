"""Feature pipelines for Euclidean nearest-neighbor retrieval.

Both variants share one chain: a first transform (mean centering for the
``vision`` variant, an elementwise signed cube root for ``realworld``),
unit normalization, Gaussian-weighted smoothing over each point's nearest
neighbors with a re-normalization, and finally a division by the local
density radius (mean distance to the density neighbors) that counters
hubness.  Every statistic is fitted on training data only; test vectors are
smoothed and density-scaled against the already-smoothed training matrix.

Every neighbor search drops the first of a query's k + 1 nearest reference
rows when it lies at distance 0, and the last otherwise.  In ``fit`` that
first row is the query itself or a lower-index exact duplicate with the same
distances and vector, so no row is its own neighbor; the exception is rows
whose coordinates differ only by gaps below about 1.5e-162, whose squared
distance underflows to 0 (fitted entries below 1e-160 may then differ).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import knn_index

# Each variant's defaults: PipelineConfig fills every unset value from its
# variant's row.
_VARIANTS = {
    "vision": dict(smoothing_alpha=0.25, smoothing_k=10, density_k=50),
    "realworld": dict(smoothing_alpha=0.1, smoothing_k=10, density_k=100),
}
# Queries per neighbor search of the chain: _smooth gathers their (rows,
# smoothing_k, d) neighbor vectors at once, and no step holds an (m, k)
# neighbor array; all rows at once would hold smoothing_k copies of the data.
_SMOOTH_ROWS = 256


@dataclass(frozen=True)
class PipelineConfig:
    variant: str
    smoothing_alpha: float | None = None
    smoothing_k: int | None = None
    density_k: int | None = None

    def __post_init__(self) -> None:
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown pipeline variant {self.variant!r}")
        for name, default in _VARIANTS[self.variant].items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        if not 0.0 <= self.smoothing_alpha <= 1.0:
            raise ValueError(f"smoothing_alpha must be in [0, 1], got {self.smoothing_alpha}")
        if self.smoothing_k < 1 or self.density_k < 1:
            raise ValueError("neighbor counts must be >= 1")


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
    reference: np.ndarray, queries: np.ndarray, k: int
) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """``(rows, indices, distances)``: the k nearest reference rows of the
    queries ``rows``, searched ``_SMOOTH_ROWS`` queries at a time, with their
    Euclidean distances.

    Of the k + 1 nearest rows the first is dropped when it lies at distance
    0, else the last.  A query equal to a reference row gets that row's
    neighbors; a reference row is not its own neighbor, since an exact
    duplicate dropped in its place has the same distances and vector (bar
    coordinate gaps below ~1.5e-162, whose squared distance underflows to 0).
    Among rows tied at the k-th distance the lowest index wins.
    """
    index = knn_index.build(reference)
    for start in range(0, queries.shape[0], _SMOOTH_ROWS):
        rows = slice(start, min(start + _SMOOTH_ROWS, queries.shape[0]))
        order = np.empty((rows.stop - start, k + 1), dtype=np.int64)
        sqd = np.empty(order.shape)
        knn_index.search(index, queries[rows], order, sqd)
        zero = sqd[:, :1] == 0.0
        dist = np.sqrt(np.where(zero, sqd[:, 1:], sqd[:, :-1]))
        yield rows, np.where(zero, order[:, 1:], order[:, :-1]), dist


def gaussian_weights(dist: np.ndarray, sigma: float | np.ndarray) -> np.ndarray:
    """Normalized Gaussian weights over the last axis of ``dist``, one
    bandwidth per row (``sigma`` has the shape of ``dist`` less that axis);
    uniform where sigma is 0."""
    dist = np.asarray(dist, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    # a Python float's ** 2 rounds through C pow, which numpy's square does
    # not match in every last bit
    var = 2.0 * np.array([s**2 for s in sigma.ravel().tolist()]).reshape(sigma.shape)
    flat = (sigma == 0.0)[..., None]
    w = np.exp(-(dist**2) / np.where(flat, 1.0, var[..., None]))
    w /= w.sum(axis=-1, keepdims=True)
    return np.where(flat, 1.0 / dist.shape[-1], w)


def _smooth(vectors: np.ndarray, reference: np.ndarray, config: PipelineConfig) -> np.ndarray:
    """Convex combination of each vector with the Gaussian-weighted mean of
    its ``smoothing_k`` nearest reference vectors, weighted by
    ``smoothing_alpha``; bandwidth is the per-point median neighbor distance.
    The neighbors are searched and gathered ``_SMOOTH_ROWS`` rows at a time."""
    alpha = config.smoothing_alpha
    if alpha == 0.0:
        return vectors
    means = np.empty_like(vectors)
    for rows, idx, dist in _neighbor_distances(reference, vectors, config.smoothing_k):
        w = gaussian_weights(dist, np.median(dist, axis=1))
        means[rows] = np.matmul(w[:, None, :], reference[idx])[:, 0]
    return (1.0 - alpha) * vectors + alpha * means


def _chain(
    x: np.ndarray, config: PipelineConfig, mean: np.ndarray | None, reference: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """The smoothed unit rows of ``x`` and their density radii, both taken
    against ``reference`` (the smoothed training matrix), or against the
    rows themselves when ``reference`` is None."""
    x = x - mean if config.variant == "vision" else _signed_cube_root(x)
    x = _unit_rows(x)
    x = _unit_rows(_smooth(x, x if reference is None else reference, config))
    radii = np.empty(x.shape[0])
    density = _neighbor_distances(x if reference is None else reference, x, config.density_k)
    for rows, _, dist in density:
        radii[rows] = dist.mean(axis=1)
    return x, radii


def fit(train_features: np.ndarray, config: PipelineConfig) -> FittedPipeline:
    """Fit the pipeline on training features and transform them."""
    x = np.asarray(train_features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("train features must be an (n, d) matrix")
    if not np.all(np.isfinite(x)):
        raise ValueError("train features must be finite")
    k = max(config.smoothing_k, config.density_k)
    if x.shape[0] <= k:
        raise ValueError(f"need more than {k} training points, got {x.shape[0]}")

    mean = x.mean(axis=0) if config.variant == "vision" else None
    x, radii = _chain(x, config, mean, None)
    positive = radii[radii > 0.0]
    if positive.size == 0:
        raise ValueError("all training points coincide; density scaling is undefined")
    fallback = float(positive.min())
    safe = np.where(radii > 0.0, radii, fallback)
    return FittedPipeline(
        config=config,
        mean=mean,
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
    x, radii = _chain(x, pipeline.config, pipeline.mean, pipeline.smoothed_train)
    safe = np.where(radii > 0.0, radii, pipeline.density_fallback)
    return x / safe[:, None]
