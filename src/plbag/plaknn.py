"""Adaptive nearest-neighbor classification over bags of candidate labels.

The classifier grows the neighborhood one neighbor at a time.  At step k it
counts, for every label, how many of the k nearest bags contain it, and
removes every still-candidate label whose count trails the leading count by
at least ``k * threshold(n, k, delta)``.  Few neighbors suffice when one
label clearly leads; close races automatically draw in more neighbors.  If
more than one candidate survives after T steps, the label that came closest
to eliminating all others wins.

Two entry points are provided: :func:`classify` is the literal per-query
loop and also returns a full :class:`EliminationTrace`; :func:`classify_batch`
is a vectorized implementation that returns exactly the labels the per-query
loop would, query by query.  Both read their neighbors from
:func:`knn_index.neighbor_blocks`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import knn_index
from .core import LabelSpace, PartialDataset


def threshold(
    n: int, k: int, delta: float, c: int, c1: float = 0.5, d0: int | None = None
) -> float:
    """Elimination threshold at neighborhood size k.

    Pointwise form (``d0 is None``)::

        c1 * sqrt((ln n + ln(c / delta)) / k)

    With ``d0`` given, the ``ln n`` term is scaled by ``d0`` (the VC dimension
    of balls in the feature space), which makes the guarantee hold uniformly
    over queries instead of per query.  Natural logarithms throughout.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if c < 2:
        raise ValueError(f"c must be >= 2, got {c}")
    if c1 <= 0.0:
        raise ValueError(f"c1 must be positive, got {c1}")
    if d0 is not None and d0 < 1:
        raise ValueError(f"d0 must be >= 1, got {d0}")
    scale = 1.0 if d0 is None else float(d0)
    # ln(c) - ln(delta) is ln(c / delta) without the division's rounding
    return c1 * math.sqrt((scale * math.log(n) + math.log(c) - math.log(delta)) / k)


@dataclass(frozen=True)
class PlaknnConfig:
    """Classifier hyperparameters.

    ``T`` caps the neighborhood size: bags of very distant neighbors say
    little about the query.  ``mode`` selects the pointwise or uniform
    threshold; in uniform mode ``d0`` defaults to ``dim + 1`` (the VC
    dimension of Euclidean balls) when left unset.
    """

    c1: float = 0.5
    delta: float = 0.1
    T: int = 400
    mode: str = "pointwise"
    d0: int | None = None

    def __post_init__(self) -> None:
        if self.c1 <= 0.0:
            raise ValueError(f"c1 must be positive, got {self.c1}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if self.mode not in ("pointwise", "uniform"):
            raise ValueError(f"mode must be 'pointwise' or 'uniform', got {self.mode!r}")
        if self.d0 is not None and self.d0 < 1:
            raise ValueError(f"d0 must be >= 1, got {self.d0}")

    def resolve_d0(self, dim: int) -> int | None:
        if self.mode == "pointwise":
            return None
        return self.d0 if self.d0 is not None else dim + 1

    def threshold(self, n: int, k: int, c: int, dim: int = 1) -> float:
        return threshold(n, k, self.delta, c, self.c1, self.resolve_d0(dim))


@dataclass(frozen=True)
class IterationRecord:
    """State after one neighborhood-growth step."""

    k: int
    neighbor: int
    delta: float
    tau: tuple[int, ...]
    survivors: frozenset[int]
    eliminated: tuple[int, ...]


@dataclass
class EliminationTrace:
    """Full record of one classification run.

    ``margins[k-1, y-1]`` holds ``sqrt(k) * (delta_k - (tau_y - m2) / k)``
    for labels that were still candidates at step k (the distance-to-
    elimination score used for final disambiguation); unfilled entries are
    ``+inf``, never zero, so they can never win the argmin.
    """

    n: int
    label_space: LabelSpace
    config: PlaknnConfig
    records: list[IterationRecord]
    margins: np.ndarray
    label: int
    disambiguated: bool

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def final_survivors(self) -> frozenset[int]:
        return self.records[-1].survivors

    def elimination_iteration(self, y: int) -> int | None:
        """Step at which label y was removed, or None if it survived."""
        for rec in self.records:
            if y in rec.eliminated:
                return rec.k
        return None


def _require_matching_index(train: PartialDataset, index: knn_index.NeighborIndex) -> None:
    if index.n != train.n or index.dim != train.dim:
        raise ValueError(
            f"index over {index.n}x{index.dim} points does not match the "
            f"{train.n}x{train.dim} training set"
        )


def _effective_t(t: int, n: int) -> int:
    if t > n:
        warnings.warn(
            f"iteration cap T={t} exceeds the {n} available neighbors; using T={n}",
            RuntimeWarning,
            stacklevel=3,
        )
        return n
    return t


def _disambiguate(margins: np.ndarray, alive: np.ndarray) -> int:
    """Argmin of the margin matrix over surviving labels.

    Row-major argmin realizes the (value, then k, then label) tie order.
    """
    masked = np.where(alive[None, :], margins, np.inf)
    flat = int(np.argmin(masked))
    return flat % alive.shape[0] + 1


def classify(
    train: PartialDataset,
    index: knn_index.NeighborIndex,
    x: np.ndarray,
    config: PlaknnConfig,
) -> tuple[int, EliminationTrace]:
    """Classify one query, returning the label and the elimination trace."""
    _require_matching_index(train, index)
    n = train.n
    c = train.label_space.c
    t_cap = _effective_t(config.T, n)
    d0 = config.resolve_d0(train.dim)
    memb = train.membership_matrix()
    query = np.asarray(x, dtype=np.float64)[None, :]
    _, order, _ = next(knn_index.neighbor_blocks(index, query, t_cap))

    alive = np.ones(c, dtype=bool)
    tau = np.zeros(c, dtype=np.int64)
    margins = np.full((t_cap, c), np.inf)
    records: list[IterationRecord] = []
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
        label = _disambiguate(margins[:k], alive)
        disambiguated = True
    trace = EliminationTrace(
        n=n,
        label_space=train.label_space,
        config=config,
        records=records,
        margins=margins[:k],
        label=label,
        disambiguated=disambiguated,
    )
    return label, trace


@dataclass
class BatchResult:
    """Labels plus per-query bookkeeping from a vectorized run."""

    labels: np.ndarray
    iterations: np.ndarray
    disambiguated: np.ndarray


def classify_batch(
    train: PartialDataset,
    index: knn_index.NeighborIndex,
    queries: np.ndarray,
    config: PlaknnConfig,
) -> np.ndarray:
    """Labels for a batch of queries; elementwise equal to :func:`classify`."""
    return classify_batch_detail(train, index, queries, config).labels


def classify_batch_detail(
    train: PartialDataset,
    index: knn_index.NeighborIndex,
    queries: np.ndarray,
    config: PlaknnConfig,
) -> BatchResult:
    _require_matching_index(train, index)
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != train.dim:
        raise ValueError("queries must be an (m, d) matrix matching the training dimension")
    n = train.n
    c = train.label_space.c
    t_cap = _effective_t(config.T, n)
    d0 = config.resolve_d0(train.dim)
    memb = train.membership_matrix()
    deltas = [threshold(n, k, config.delta, c, config.c1, d0) for k in range(1, t_cap + 1)]

    m_total = queries.shape[0]
    labels = np.empty(m_total, dtype=np.int64)
    iterations = np.empty(m_total, dtype=np.int64)
    disambiguated = np.zeros(m_total, dtype=bool)
    for rows, order, _ in knn_index.neighbor_blocks(index, queries, t_cap):
        labels[rows], iterations[rows], disambiguated[rows] = _classify_chunk(memb[order], deltas)
    return BatchResult(labels, iterations, disambiguated)


def _classify_chunk(
    nb: np.ndarray, deltas: list[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elimination over a block; ``nb[q, k-1]`` is query q's k-th nearest bag row."""
    m, t_cap, c = nb.shape
    tau = np.zeros((m, c), dtype=np.int64)
    alive = np.ones((m, c), dtype=bool)
    active = np.ones(m, dtype=bool)
    iters = np.zeros(m, dtype=np.int64)
    margins = np.full((m, t_cap, c), np.inf)
    for k in range(1, t_cap + 1):
        if not active.any():
            break
        tau += nb[:, k - 1, :]
        delta_k = deltas[k - 1]
        capped = np.where(alive, tau, -1)
        m1 = capped.max(axis=1)
        m2 = np.partition(capped, c - 2, axis=1)[:, c - 2]
        row = math.sqrt(k) * (delta_k - (tau - m2[:, None]) / k)
        update = active[:, None] & alive
        margins[:, k - 1, :] = np.where(update, row, margins[:, k - 1, :])
        elim = update & ((m1[:, None] - tau) / k >= delta_k)
        alive &= ~elim
        iters[active] = k
        active &= alive.sum(axis=1) > 1

    labels = np.empty(m, dtype=np.int64)
    single = alive.sum(axis=1) == 1
    labels[single] = np.argmax(alive[single], axis=1) + 1
    for q in np.flatnonzero(~single):
        labels[q] = _disambiguate(margins[q, : iters[q]], alive[q])
    return labels, iters, ~single
