"""Synthetic partial-label scenarios.

Two families live here:

* ``make_bags`` turns any labeled feature set into a partial-label training
  set: features are clustered, each (label, cluster) pair draws its own
  probability of admitting every incorrect label into the bag, and an
  optional corruption rate swaps the anchor label for a uniform one before
  the bag is generated.  The anchor always enters the bag; the original
  truth column is kept for evaluation.  Its clustering step
  (:func:`bag_clusters`) and drawing step (:func:`draw_bags`) are public
  so that many draws can share one clustering.

* :class:`AnalyticScenario` wraps small 2D Gaussian-mixture models whose
  posterior, bag-frequency field and Bayes risk are available in closed or
  grid-integrated form, so experiment error rates can be compared against an
  exact target.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import knn_index
from .core import LabelSpace, PartialDataset, membership_to_masks

# Most k-means clusters; kmeans_labels holds an (n, k) float64 distance matrix.
MAX_CLUSTERS = 256


@dataclass(frozen=True)
class SynthBagConfig:
    """Knobs for cluster-varying bag generation."""

    n_clusters: int = 5
    alpha_max: float = 0.8
    noise_nu: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {self.n_clusters}")
        if self.n_clusters > MAX_CLUSTERS:
            raise ValueError(f"n_clusters must be <= {MAX_CLUSTERS}, got {self.n_clusters}")
        if not 0.0 <= self.alpha_max <= 1.0:
            raise ValueError(f"alpha_max must be in [0, 1], got {self.alpha_max}")
        if not 0.0 <= self.noise_nu <= 1.0:
            raise ValueError(f"noise_nu must be in [0, 1], got {self.noise_nu}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def kmeans_labels(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
    restarts: int = 10,
    max_iter: int = 100,
) -> np.ndarray:
    """Seeded Lloyd clustering; best inertia over restarts wins."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    k = min(k, n)
    best_assign: np.ndarray | None = None
    best_inertia = np.inf
    for _ in range(restarts):
        centers = points[rng.choice(n, size=k, replace=False)].copy()
        assign = np.full(n, -1, dtype=np.int64)
        d2 = knn_index.sq_distance_chunk(knn_index.build(centers), points)
        for _ in range(max_iter):
            new_assign = d2.argmin(axis=1)
            if np.array_equal(new_assign, assign):
                break
            assign = new_assign
            for j in range(k):
                members = assign == j
                if members.any():
                    centers[j] = points[members].mean(axis=0)
            d2 = knn_index.sq_distance_chunk(knn_index.build(centers), points)
        inertia = float(d2[np.arange(n), assign].sum())
        if inertia < best_inertia:
            best_inertia = inertia
            best_assign = assign.copy()
    assert best_assign is not None
    return best_assign


def sample_bag_masks(
    anchors: np.ndarray,
    cluster_ids: np.ndarray,
    alphas: np.ndarray,
    rng: np.random.Generator,
    c: int,
) -> np.ndarray:
    """Draw one bag per example: the anchor plus independent extras.

    Label y != anchor joins the bag of an example with anchor a in cluster j
    with probability ``alphas[a-1, j]``.
    """
    anchors = np.asarray(anchors, dtype=np.int64)
    n = anchors.shape[0]
    probs = alphas[anchors - 1, cluster_ids]
    include = rng.random((n, c)) < probs[:, None]
    include[np.arange(n), anchors - 1] = True
    return membership_to_masks(include)


@dataclass(frozen=True)
class BagClusters:
    """The clustering step of :func:`make_bags`.

    Holds the checked features and truths, the k-means cluster id of every
    example and the generator as k-means left it.  :func:`draw_bags` draws
    from a copy of that generator, so one clustering serves any number of
    draws, each continuing the same stream.
    """

    features: np.ndarray
    truths: np.ndarray
    label_space: LabelSpace
    clusters: np.ndarray
    rng: np.random.Generator


def bag_clusters(
    features: np.ndarray,
    truths: np.ndarray,
    label_space: LabelSpace,
    config: SynthBagConfig,
) -> BagClusters:
    """Check the inputs and cluster the features, seeded by ``config.seed``."""
    features = np.asarray(features, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.int64)
    c = label_space.c
    if features.ndim != 2 or features.shape[0] == 0:
        raise ValueError("features must be a nonempty (n, d) matrix")
    if truths.shape != (features.shape[0],):
        raise ValueError("one truth per example is required")
    if np.any((truths < 1) | (truths > c)):
        raise ValueError("truth labels must lie in 1..c")
    rng = np.random.default_rng(config.seed)
    clusters = kmeans_labels(features, config.n_clusters, rng)
    return BagClusters(features, truths, label_space, clusters, rng)


def draw_bags(clustered: BagClusters, config: SynthBagConfig) -> PartialDataset:
    """Draw the bags of :func:`make_bags` after its clustering step.

    Uses ``config.alpha_max`` and ``config.noise_nu``; the seed and the
    cluster count were spent by :func:`bag_clusters`.
    """
    rng = copy.deepcopy(clustered.rng)
    c = clustered.label_space.c
    n = clustered.truths.shape[0]
    n_clusters = int(clustered.clusters.max()) + 1
    alphas = rng.uniform(0.0, config.alpha_max, size=(c, n_clusters))
    corrupted = rng.random(n) < config.noise_nu
    uniform_labels = rng.integers(1, c + 1, size=n)
    anchors = np.where(corrupted, uniform_labels, clustered.truths)
    masks = sample_bag_masks(anchors, clustered.clusters, alphas, rng, c)
    return PartialDataset(clustered.features, masks, clustered.label_space, truths=clustered.truths)


def make_bags(
    features: np.ndarray,
    truths: np.ndarray,
    label_space: LabelSpace,
    config: SynthBagConfig,
) -> PartialDataset:
    """Generate a partial-label dataset from labeled features.

    With corruption probability ``noise_nu`` the anchor used for bag
    generation is a uniform draw over all c labels (the original label
    included); the anchor, corrupted or not, is always in the bag.  The
    returned dataset keeps the original truths.  This is
    :func:`bag_clusters` followed by :func:`draw_bags`.
    """
    return draw_bags(bag_clusters(features, truths, label_space, config), config)


def remove_truth_noise(dataset: PartialDataset, rate: float, seed: int) -> PartialDataset:
    """Independently drop the true label from a fraction of the bags.

    A hit on a bag that strictly contains the truth removes the truth; a hit
    on the singleton truth bag substitutes one uniform wrong label, so bags
    stay nonempty.  Bags that never contained the truth are untouched.
    """
    if dataset.truths is None:
        raise ValueError("truth-removal noise needs ground-truth labels")
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    rng = np.random.default_rng(seed)
    n = dataset.n
    c = dataset.label_space.c
    hit = rng.random(n) < rate
    other_pick = rng.integers(0, c - 1, size=n)

    masks = dataset.bag_masks.copy()
    truth0 = (dataset.truths - 1).astype(np.uint64)
    truth_bit = np.uint64(1) << truth0
    has_truth = (masks & truth_bit) != 0
    is_singleton = masks == truth_bit

    drop = hit & has_truth & ~is_singleton
    masks[drop] &= ~truth_bit[drop]

    substitute = hit & is_singleton
    other0 = other_pick + (other_pick >= (dataset.truths - 1))
    masks[substitute] = np.uint64(1) << other0[substitute].astype(np.uint64)
    return dataset.with_bags(masks)


# ---------------------------------------------------------------------------
# Analytic 2D mixture scenarios
# ---------------------------------------------------------------------------


def normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _strip_mass(mu: float, a: float) -> float:
    # mass of |x1| <= a under the balanced mixture of N(-mu, 1) and N(mu, 1)
    left = normal_cdf(a - mu) - normal_cdf(-a - mu)
    right = normal_cdf(a + mu) - normal_cdf(-a + mu)
    return 0.5 * (left + right)


def _solve_swap_region(region_mass: float, theta: float) -> tuple[float, float]:
    """Mean offset mu and strip half-width a with P(|x1|<=a) = region_mass
    and posterior gap exactly theta at the strip edge (gap = tanh(mu*x1))."""
    if not 0.0 < region_mass < 1.0:
        raise ValueError(f"region_mass must be in (0, 1), got {region_mass}")
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must be in (0, 1), got {theta}")
    half_gap = math.atanh(theta)
    lo, hi = 1e-4, 60.0
    f = lambda mu: _strip_mass(mu, half_gap / mu) - region_mass
    if not (f(lo) > 0.0 > f(hi)):
        raise ValueError("no mean offset realizes the requested region mass and gap")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    return mu, half_gap / mu


@dataclass(frozen=True)
class AnalyticScenario:
    """A 2D Gaussian mixture with a known bag process.

    Acts both as an i.i.d. sampler of (x, y, bag) triples and as an oracle
    for the posterior, the per-label bag frequencies, and the Bayes rule and
    risk (grid-integrated).  For ``process == "swap12"`` bags inside the
    strip ``|x1| <= swap_halfwidth`` are generated from the swapped anchor
    (1 <-> 2), which misleads bag frequencies there by at most ``theta``.
    """

    name: str
    means: np.ndarray
    sigma: float
    label_space: LabelSpace
    weights: np.ndarray | None = None
    process: str | None = "identity"
    swap_halfwidth: float = 0.0
    theta: float = 0.0
    region_mass_target: float = 0.0
    grid_extent: float = 8.0

    def __post_init__(self) -> None:
        means = np.asarray(self.means, dtype=np.float64)
        if means.shape != (self.label_space.c, 2):
            raise ValueError("means must have shape (c, 2)")
        object.__setattr__(self, "means", means)
        weights = (
            np.full(self.label_space.c, 1.0 / self.label_space.c)
            if self.weights is None
            else np.asarray(self.weights, dtype=np.float64)
        )
        if weights.shape != (self.label_space.c,) or abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be a length-c probability vector")
        object.__setattr__(self, "weights", weights)
        if self.process not in ("identity", "swap12", None):
            raise ValueError(f"unknown bag process {self.process!r}")

    @property
    def c(self) -> int:
        return self.label_space.c

    @property
    def has_bag_process(self) -> bool:
        return self.process is not None

    # -- sampling -----------------------------------------------------------

    def sample_points(
        self, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        labels = rng.choice(self.c, size=n, p=self.weights) + 1
        x = self.means[labels - 1] + self.sigma * rng.standard_normal((n, 2))
        return x, labels

    def bag_masks_for(
        self,
        x: np.ndarray,
        labels: np.ndarray,
        rng: np.random.Generator,
        noise_nu: float = 0.0,
    ) -> np.ndarray:
        if self.process is None:
            raise ValueError(f"scenario {self.name!r} has no built-in bag process")
        if not 0.0 <= noise_nu <= 1.0:
            raise ValueError(f"noise_nu must be in [0, 1], got {noise_nu}")
        labels = np.asarray(labels, dtype=np.int64)
        n = labels.shape[0]
        corrupted = rng.random(n) < noise_nu
        uniform_labels = rng.integers(1, self.c + 1, size=n)
        anchors = np.where(corrupted, uniform_labels, labels)
        if self.process == "swap12":
            in_region = np.abs(np.asarray(x)[:, 0]) <= self.swap_halfwidth
            swap = in_region & (anchors <= 2)
            anchors = np.where(swap, 3 - anchors, anchors)
        return (np.uint64(1) << (anchors - 1).astype(np.uint64)).astype(np.uint64)

    def sample(
        self, n: int, seed: int | np.random.Generator, noise_nu: float = 0.0
    ) -> PartialDataset:
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        x, labels = self.sample_points(n, rng)
        masks = self.bag_masks_for(x, labels, rng, noise_nu)
        return PartialDataset(x, masks, self.label_space, truths=labels)

    # -- oracle -------------------------------------------------------------

    def _component_densities(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        var = self.sigma**2
        d2 = ((x[:, None, :] - self.means[None, :, :]) ** 2).sum(axis=-1)
        return np.exp(-d2 / (2.0 * var)) * self.weights[None, :] / (2.0 * math.pi * var)

    def density(self, x: np.ndarray) -> np.ndarray:
        return self._component_densities(x).sum(axis=1)

    def posterior(self, x: np.ndarray) -> np.ndarray:
        """P(y | x) for every label, rows summing to 1."""
        comp = self._component_densities(x)
        return comp / comp.sum(axis=1, keepdims=True)

    def bag_frequency_field(self, x: np.ndarray) -> np.ndarray:
        """P(S_y | x): the probability each label appears in the bag at x."""
        post = self.posterior(x)
        if self.process == "swap12":
            x = np.atleast_2d(np.asarray(x, dtype=np.float64))
            in_region = np.abs(x[:, 0]) <= self.swap_halfwidth
            swapped = post.copy()
            swapped[:, [0, 1]] = post[:, [1, 0]]
            post = np.where(in_region[:, None], swapped, post)
        return post

    def _grid(self, resolution: int) -> tuple[np.ndarray, float]:
        step = 2.0 * self.grid_extent / resolution
        centers = -self.grid_extent + step * (np.arange(resolution) + 0.5)
        gx, gy = np.meshgrid(centers, centers, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        return pts, step * step

    def grid_total_mass(self, resolution: int = 400) -> float:
        pts, cell = self._grid(resolution)
        return float(self.density(pts).sum() * cell)

    def bayes_risk(self, resolution: int = 400) -> float:
        """Grid-integrated error probability of the most-probable-label rule."""
        pts, cell = self._grid(resolution)
        comp = self._component_densities(pts)
        return float((comp.sum(axis=1) - comp.max(axis=1)).sum() * cell)

    def region_mass(self, resolution: int = 400) -> float:
        """Grid-integrated mass of the misleading strip (swap scenarios)."""
        if self.process != "swap12":
            return 0.0
        pts, cell = self._grid(resolution)
        inside = np.abs(pts[:, 0]) <= self.swap_halfwidth
        return float(self.density(pts[inside]).sum() * cell)

    def region_mass_exact(self) -> float:
        """Closed-form strip mass for the symmetric two-component swap layout."""
        if self.process != "swap12":
            return 0.0
        mu = float(self.means[1, 0])
        return _strip_mass(mu / self.sigma, self.swap_halfwidth / self.sigma)


def analytic_scenario(name: str, params: dict | None = None) -> AnalyticScenario:
    """Build a named scenario.

    ``two_gaussians``: balanced pair of isotropic Gaussians at ``(+-sep/2, 0)``
    with singleton-truth bags.  ``relaxed_two_gaussians``: same shape, but the
    means are placed so that a strip around the decision boundary carries
    exactly ``region_mass`` probability and a posterior gap of at most
    ``theta``; bags inside the strip come from the swapped label.
    ``gaussian_clusters``: c equal Gaussian blobs on a circle, no built-in bag
    process (pair it with :func:`make_bags`).
    """
    params = dict(params or {})

    def take(key: str, default):
        return params.pop(key, default)

    if name == "two_gaussians":
        sep = float(take("separation", 2.0))
        sigma = float(take("sigma", 1.0))
        scenario = AnalyticScenario(
            name=name,
            means=np.array([[-sep / 2.0, 0.0], [sep / 2.0, 0.0]]),
            sigma=sigma,
            label_space=LabelSpace(2),
            process="identity",
        )
    elif name == "relaxed_two_gaussians":
        mass = float(take("region_mass", 0.1))
        theta = float(take("theta", 0.05))
        mu, halfwidth = _solve_swap_region(mass, theta)
        scenario = AnalyticScenario(
            name=name,
            means=np.array([[-mu, 0.0], [mu, 0.0]]),
            sigma=1.0,
            label_space=LabelSpace(2),
            process="swap12",
            swap_halfwidth=halfwidth,
            theta=theta,
            region_mass_target=mass,
        )
    elif name == "gaussian_clusters":
        c = int(take("c", 10))
        radius = float(take("radius", 3.0))
        sigma = float(take("sigma", 1.0))
        angles = 2.0 * math.pi * np.arange(c) / c
        means = radius * np.column_stack([np.cos(angles), np.sin(angles)])
        scenario = AnalyticScenario(
            name=name,
            means=means,
            sigma=sigma,
            label_space=LabelSpace(c),
            process=None,
        )
    else:
        raise ValueError(f"unknown scenario {name!r}")
    if params:
        raise ValueError(f"unknown scenario parameters: {sorted(params)}")
    return scenario
