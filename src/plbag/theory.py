"""Executable learnability diagnostics for bag generation processes.

A bag generation process is *reconstructible* when no two label
distributions that induce the same bag marginal disagree on their most
probable label; on a finite bag enumeration this reduces to linear
independence of the per-label bag-probability columns, decided here by a
singular-value ratio test.  When columns are dependent, the null space
yields an explicit ambiguous pair of label distributions.

A distribution is *label-aligned* when, at every support point, the labels
most frequent in bags coincide with the most probable labels.
:func:`check_relaxed` decides it, with an empty relaxed region.  Alignment
of a *process* is a universally quantified statement over all label
distributions, so only a falsifier is provided: simplex vertices, edge
midpoints and then Dirichlet samples are probed for a violation, stopping
at the first one.

The *advantage* of a support point quantifies how far the leading bag
frequencies stay ahead of the rest over growing neighborhoods.
:func:`advantage_report` computes it exactly for every atom, from one table
of per-atom bag frequencies, by one cumulative sweep over the distinct ball
radii around each atom.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .core import (
    PROB_TOL,
    Atom,
    BagGenMatrix,
    DiscreteDistribution,
    LabelDistribution,
    argmax_set,
    bag_frequencies_at,
    label_frequencies,
)

# Smallest-to-largest singular-value ratio at or below which a bag process's
# columns count as linearly dependent.
RANK_TOL = 1e-8

# Flat-Dirichlet label distributions, drawn from seed 0, that probe a
# process's alignment after the simplex vertices and edge midpoints.
ALIGNMENT_PROBES = 200


def is_reconstructible(m: BagGenMatrix) -> bool:
    """True iff the per-label bag-probability columns are linearly independent.

    Deciding by the ratio of smallest to largest singular value keeps the
    test meaningful on floating-point probabilities.
    """
    s = np.linalg.svd(m.entries, compute_uv=False)
    return bool(s[-1] > RANK_TOL * s[0])


def find_ambiguous_pair(m: BagGenMatrix) -> tuple[LabelDistribution, LabelDistribution] | None:
    """Two label distributions with equal bag marginals but disjoint argmax.

    Returns None when the process is reconstructible.  Otherwise each null
    vector of the column matrix, from the smallest singular value up, is
    split into its positive and negative parts; normalizing each part gives
    distributions whose argmax sets live on disjoint supports.  The first
    pair whose marginals agree within ``10 * RANK_TOL`` is returned; if none
    does, the pair from the smallest singular value is.
    """
    _, s, vt = np.linalg.svd(m.entries, full_matrices=False)
    smax = float(s[0])
    if float(s[-1]) > RANK_TOL * smax:
        return None
    candidates = [vt[i] for i in range(len(s) - 1, -1, -1) if float(s[i]) <= RANK_TOL * smax]
    best: tuple[LabelDistribution, LabelDistribution] | None = None
    for q in candidates:
        positive = np.clip(q, 0.0, None)
        negative = np.clip(-q, 0.0, None)
        q1 = LabelDistribution(positive / positive.sum())
        q2 = LabelDistribution(negative / negative.sum())
        gap = float(np.abs(m.entries @ (q1.probs - q2.probs)).max())
        if gap <= 10.0 * RANK_TOL:
            return q1, q2
        if best is None:
            best = (q1, q2)
    return best


def is_label_aligned_dist(d: DiscreteDistribution) -> bool:
    """Exact alignment check on a finite-support distribution.

    At every atom the full argmax set of the per-label bag frequencies must
    equal the full argmax set of the label probabilities: :func:`check_relaxed`
    with an empty relaxed region.
    """
    return check_relaxed(d, RelaxedSpec(frozenset(), 0.0))


@dataclass(frozen=True)
class ProcessProbe:
    """Outcome of probing a process for alignment violations.

    ``aligned_so_far`` means no probed label distribution violated
    alignment; it is evidence, not a proof, since alignment of a process
    quantifies over the whole simplex.
    """

    aligned_so_far: bool
    counterexample: LabelDistribution | None


def _default_probe_rows(c: int) -> Iterator[np.ndarray]:
    """Vertices, edge midpoints, then Dirichlet rows, drawn only when reached."""
    yield from np.eye(c)
    for i, j in itertools.combinations(range(c), 2):
        probs = np.zeros(c)
        probs[i] = probs[j] = 0.5
        yield probs
    draws = np.random.default_rng(0).dirichlet(np.ones(c), size=ALIGNMENT_PROBES)
    for row in draws:
        yield row / row.sum()


def is_label_aligned_process(m: BagGenMatrix) -> ProcessProbe:
    """Falsify process-level alignment by probing label distributions.

    The probes are every simplex vertex, every edge midpoint, and
    ``ALIGNMENT_PROBES`` flat-Dirichlet samples (from seed 0), tested in that
    order as plain probability rows; the samples are drawn only once the
    vertices and midpoints pass.  The first violation of alignment under the
    induced bag marginal is returned as a counterexample.
    """
    for row in _default_probe_rows(m.c):
        if argmax_set(label_frequencies(m.entries @ row)) != argmax_set(row):
            return ProcessProbe(False, LabelDistribution(row))
    return ProcessProbe(True, None)


@dataclass(frozen=True)
class AtomAdvantage:
    """Advantage of one support point with its witnessing (p, gamma) pair.

    ``advantage`` is 1 exactly when every label ties for the top bag
    frequency; then no witness applies and p and gamma are None.
    """

    atom_index: int
    top_labels: tuple[int, ...]
    advantage: float
    p: float | None
    gamma: float | None

    def text_fields(self) -> str:
        """``advantage=.. p=.. gamma=.. top_labels=..``, as every report prints them."""
        return (
            f"advantage={_g12(self.advantage)} p={_g12(self.p)} gamma={_g12(self.gamma)} "
            f"top_labels={';'.join(str(y) for y in self.top_labels)}"
        )


def _g12(value: float | None) -> str:
    return "" if value is None else format(value, ".12g")


def _frequency_table(d: DiscreteDistribution) -> np.ndarray:
    """(A, c) per-label bag frequencies, one row per atom."""
    return np.stack([bag_frequencies_at(d, i) for i in range(d.n_atoms)])


def _atom_advantage(
    atom_index: int,
    freqs: np.ndarray,
    masses: np.ndarray,
    locations: np.ndarray,
    mass_cap: float,
) -> AtomAdvantage:
    """One atom's advantage as one cumulative sweep over the distinct radii.

    Balls centered at the atom change content only at the distinct
    atom-to-atom distances.  Atoms are sorted by distance (stable, so ties
    keep their index order) and ``np.cumsum`` accumulates their masses and
    mass-weighted frequencies in that order, the same sequential additions as
    adding one atom at a time; indexing the sums at the last atom of each
    radius gives every prefix ball.  gamma at a level is the running minimum
    of the lead of the top labels over the rest, and the witness is the first
    level with the largest ``p * gamma**2``.  Levels past the first ball of
    mass ``mass_cap`` need no exclusion: their p is ``mass_cap`` too and their
    gamma is no larger, so they never beat it and ``argmax`` keeps the first.
    """
    c = freqs.shape[1]
    top = argmax_set(freqs[atom_index])
    top_sorted = tuple(sorted(top))
    if len(top) == c:
        return AtomAdvantage(atom_index, top_sorted, 1.0, None, None)

    sqd = ((locations - locations[atom_index][None, :]) ** 2).sum(axis=1)
    order = np.argsort(sqd, kind="stable")
    sorted_d = sqd[order]
    ends = np.append(np.flatnonzero(np.diff(sorted_d) > 0), len(order) - 1)
    cum_mass = np.cumsum(masses[order])[ends]
    weighted = np.cumsum(masses[order, None] * freqs[order], axis=0)[ends]
    ball_freqs = weighted / cum_mass[:, None]

    top_idx = np.array(top_sorted) - 1
    rest_idx = np.array([y - 1 for y in range(1, c + 1) if y not in top])
    margins = ball_freqs[:, top_idx].min(axis=1) - ball_freqs[:, rest_idx].max(axis=1)
    gamma = np.maximum(np.minimum.accumulate(margins), 0.0)
    p_level = np.minimum(cum_mass, mass_cap)
    values = p_level * gamma * gamma
    best = int(np.argmax(values))
    if not values[best] > 0.0:
        return AtomAdvantage(
            atom_index, top_sorted, 0.0, float(min(masses[atom_index], mass_cap)), 0.0
        )
    return AtomAdvantage(
        atom_index, top_sorted, float(values[best]), float(p_level[best]), float(gamma[best])
    )


@dataclass(frozen=True)
class AdvantageReport:
    """Per-atom advantage entries for a whole distribution."""

    entries: tuple[AtomAdvantage, ...]

    def write_csv(self, path: str | Path) -> None:
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["atom_index", "advantage", "p", "gamma"])
            for e in self.entries:
                writer.writerow([e.atom_index, _g12(e.advantage), _g12(e.p), _g12(e.gamma)])


def advantage_report(d: DiscreteDistribution, mass_cap: float = 1.0) -> AdvantageReport:
    """Exact advantage of every atom by enumeration of prefix balls.

    gamma at mass level p is the smallest lead of the top bag-frequency
    labels over all other labels across every ball of mass up to p, and the
    advantage is the best ``p * gamma**2`` over levels p up to ``mass_cap``.
    ``entries[i]`` is atom i's; all atoms share one frequency table.
    """
    if not 0.0 < mass_cap <= 1.0:
        raise ValueError(f"mass_cap must be in (0, 1], got {mass_cap}")
    freqs, masses, locations = _frequency_table(d), d.masses(), d.locations()
    return AdvantageReport(
        tuple(_atom_advantage(i, freqs, masses, locations, mass_cap) for i in range(d.n_atoms))
    )


@dataclass(frozen=True)
class RelaxedSpec:
    """A tolerated misalignment region: atom indices plus the allowed gap."""

    g_atoms: frozenset[int]
    theta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must be in [0, 1], got {self.theta}")
        object.__setattr__(self, "g_atoms", frozenset(int(i) for i in self.g_atoms))


def near_optimal_labels(label_dist: LabelDistribution, theta: float) -> frozenset[int]:
    """Labels whose probability is within theta of the most probable one."""
    probs = label_dist.probs
    top = float(probs.max())
    return frozenset(int(i) + 1 for i in np.flatnonzero(probs >= top - theta - PROB_TOL))


def check_relaxed(d: DiscreteDistribution, spec: RelaxedSpec) -> bool:
    """Alignment holds exactly outside G; inside G the top bag-frequency
    labels need only be near-optimal (within theta) for the label
    distribution.  Atoms are checked in index order up to the first failure;
    with G empty this is :func:`is_label_aligned_dist`."""
    for idx in spec.g_atoms:
        if not 0 <= idx < d.n_atoms:
            raise IndexError(f"relaxed-region atom index {idx} out of range")
    for idx, atom in enumerate(d.atoms):
        top_f = argmax_set(bag_frequencies_at(d, idx))
        if idx in spec.g_atoms:
            if not top_f <= near_optimal_labels(atom.label_dist, spec.theta):
                return False
        elif top_f != atom.label_dist.argmax_set():
            return False
    return True


def flip_distribution(d: DiscreteDistribution) -> DiscreteDistribution:
    """Swap the misaligned mass onto the bag-frequency winner, atom by atom.

    On every atom where the label argmax and the bag-frequency argmax are
    disjoint, the label probabilities of the two winners are exchanged along
    with their bag-process columns.  The bag marginal of every atom is
    unchanged (the mixture just reorders terms), while the Bayes label on
    flipped atoms moves to the bag-frequency winner, making the result
    label-aligned.
    """
    new_atoms: list[Atom] = []
    for idx, atom in enumerate(d.atoms):
        top_f = argmax_set(bag_frequencies_at(d, idx))
        top_p = atom.label_dist.argmax_set()
        if top_f & top_p:
            new_atoms.append(atom)
            continue
        y1 = min(top_p)
        y2 = min(top_f)
        probs = atom.label_dist.probs.copy()
        probs[[y1 - 1, y2 - 1]] = probs[[y2 - 1, y1 - 1]]
        entries = atom.baggen.entries.copy()
        entries[:, [y1 - 1, y2 - 1]] = entries[:, [y2 - 1, y1 - 1]]
        new_atoms.append(
            Atom(atom.location, atom.mass, LabelDistribution(probs), BagGenMatrix(entries))
        )
    return DiscreteDistribution(tuple(new_atoms), d.label_space)
