"""Shared builders for test distributions and datasets."""

from __future__ import annotations

import numpy as np

from plbag import knn_index
from plbag.core import (
    Atom,
    BagGenMatrix,
    DiscreteDistribution,
    LabelDistribution,
    LabelSpace,
    PartialDataset,
    membership_to_masks,
)

# Single-point bag table that is label-aligned when the true label is 1 and
# misaligned when it is 3: frequencies come out (0.6, 0.5, 0.4) either way.
MISALIGNMENT_TABLE = {
    0b001: 0.1,  # {1}
    0b011: 0.5,  # {1,2}
    0b100: 0.4,  # {3}
}


def single_atom(label_probs, baggen, dim: int = 1) -> DiscreteDistribution:
    probs = np.asarray(label_probs, dtype=float)
    return DiscreteDistribution(
        (Atom(np.zeros(dim), 1.0, LabelDistribution(probs), baggen),),
        LabelSpace(probs.shape[0]),
    )


def table_process(c: int, true_label: int, table: dict[int, float]) -> BagGenMatrix:
    """Bag process using `table` for one label and singletons for the rest."""
    entries = np.zeros(((1 << c) - 1, c))
    for mask, prob in table.items():
        entries[mask - 1, true_label - 1] = prob
    for y in range(1, c + 1):
        if y != true_label:
            entries[(1 << (y - 1)) - 1, y - 1] = 1.0
    return BagGenMatrix(entries)


def aligned_point_dist() -> DiscreteDistribution:
    """Deterministic label 1 with MISALIGNMENT_TABLE bags: label-aligned."""
    return single_atom([1.0, 0.0, 0.0], table_process(3, 1, MISALIGNMENT_TABLE))


def misaligned_point_dist() -> DiscreteDistribution:
    """Deterministic label 3 with the same bag table: frequencies still favor
    label 1, so the most probable label is not the most frequent one."""
    return single_atom([0.0, 0.0, 1.0], table_process(3, 3, MISALIGNMENT_TABLE))


def inclusion_pair() -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """Two independent-inclusion scenarios with identical bag marginals
    (2/9, 3/9, 4/9) but opposite Bayes labels."""
    first = single_atom(
        [2 / 3, 1 / 3],
        BagGenMatrix.independent_inclusion(np.array([[1.0, 2 / 3], [0.0, 1.0]])),
    )
    second = single_atom(
        [1 / 3, 2 / 3],
        BagGenMatrix.independent_inclusion(np.array([[1.0, 1 / 3], [0.5, 1.0]])),
    )
    return first, second


def random_label_dist(rng: np.random.Generator, c: int) -> LabelDistribution:
    probs = rng.dirichlet(np.ones(c))
    return LabelDistribution(probs / probs.sum())


def random_baggen(rng: np.random.Generator, c: int) -> BagGenMatrix:
    """Random full-column process; generic draws are full rank."""
    cols = rng.dirichlet(np.ones((1 << c) - 1), size=c).T
    return BagGenMatrix(cols / cols.sum(axis=0, keepdims=True))


def deficient_baggen(rng: np.random.Generator, c: int) -> BagGenMatrix:
    """Rank-deficient process: one column duplicated or averaged.

    The rewritten column only ever mixes *other* columns, so it always lies
    in their span and the rank drops.
    """
    m = random_baggen(rng, c)
    entries = m.entries.copy()
    i = int(rng.integers(c))
    others = [j for j in range(c) if j != i]
    if rng.random() < 0.5:
        entries[:, i] = entries[:, int(rng.choice(others))]
    else:
        j, k = rng.choice(others, size=2, replace=len(others) < 2)
        entries[:, i] = 0.5 * (entries[:, int(j)] + entries[:, int(k)])
    return BagGenMatrix(entries)


def random_discrete_distribution(
    rng: np.random.Generator, n_atoms: int, c: int, dim: int = 2
) -> DiscreteDistribution:
    masses = rng.dirichlet(np.ones(n_atoms))
    atoms = tuple(
        Atom(rng.normal(size=dim), float(masses[i]), random_label_dist(rng, c), random_baggen(rng, c))
        for i in range(n_atoms)
    )
    return DiscreteDistribution(atoms, LabelSpace(c))


def random_partial_dataset(
    rng: np.random.Generator, n: int, dim: int, c: int, extra_rate: float = 0.3
) -> PartialDataset:
    features = rng.normal(size=(n, dim))
    truths = rng.integers(1, c + 1, size=n)
    membership = rng.random((n, c)) < extra_rate
    membership[np.arange(n), truths - 1] = True
    return PartialDataset(
        features, membership_to_masks(membership), LabelSpace(c), truths=truths
    )


def neighbor_order(index: knn_index.NeighborIndex, queries: np.ndarray, t: int) -> np.ndarray:
    """The (m, t) int64 neighbor order of ``queries`` from one search call."""
    order = np.empty((np.shape(queries)[0], t), dtype=np.int64)
    knn_index.search(index, queries, order)
    return order


def sample_distribution(dist: DiscreteDistribution, n: int, rng: np.random.Generator) -> PartialDataset:
    """n draws from ``dist``: the atom by mass, the label from the atom's
    ``LabelDistribution`` and the bag from that label's column of the atom's
    ``BagGenMatrix`` (row r is the bag of mask r + 1)."""
    c = dist.label_space.c
    masses = np.array([atom.mass for atom in dist.atoms])
    which = rng.choice(masses.shape[0], size=n, p=masses / masses.sum())
    truths = np.zeros(n, dtype=np.int64)
    masks = np.zeros(n, dtype=np.uint64)
    for i, atom in enumerate(dist.atoms):
        rows = np.flatnonzero(which == i)
        probs = atom.label_dist.probs
        truths[rows] = rng.choice(c, size=rows.shape[0], p=probs / probs.sum()) + 1
        for y in range(1, c + 1):
            drawn = rows[truths[rows] == y]
            column = atom.baggen.entries[:, y - 1]
            masks[drawn] = rng.choice(column.shape[0], size=drawn.shape[0], p=column / column.sum()) + 1
    locations = np.array([atom.location for atom in dist.atoms])
    return PartialDataset(locations[which], masks, dist.label_space, truths=truths)
