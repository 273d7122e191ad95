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
of per-atom bag frequencies, by a cumulative sweep over the distinct ball
radii around each atom, run over a block of atoms at a time.
"""

from __future__ import annotations

import csv
import functools
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import knn_index
from .core import (
    PROB_TOL,
    Atom,
    BagGenMatrix,
    DiscreteDistribution,
    LabelDistribution,
    _freeze,
    argmax_set,
    bag_frequencies_at,
    bag_membership_matrix,
)

# Smallest-to-largest singular-value ratio at or below which a bag process's
# columns count as linearly dependent.
RANK_TOL = 1e-8

# Flat-Dirichlet label distributions, drawn from seed 0, that probe a
# process's alignment after the simplex vertices and edge midpoints.
ALIGNMENT_PROBES = 200
# Dirichlet probes tested per stacked product: the vertices and midpoints
# fail most processes, and a Dirichlet failure tends to come early.
_PROBE_CHUNK = 32

# Bytes of one (block, A) float64 array of the advantage sweep: a block
# holds as many atoms as fit, at least one.  A dozen such arrays are alive
# at once, so a larger budget shows in the process's peak memory.
_SWEEP_BYTES = 64 * 1024


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


@functools.cache
def _simplex_probes(c: int) -> tuple[np.ndarray, np.ndarray, tuple[LabelDistribution, ...]]:
    """The c vertices, then the edge midpoints, of the simplex: their rows
    and argmax masks, read-only, and the label distributions a failure at
    each returns, built once per c (checking a ``LabelDistribution`` costs
    more than probing a process with all of them)."""
    pairs = list(itertools.combinations(range(c), 2))
    midpoints = np.zeros((len(pairs), c))
    for k, (i, j) in enumerate(pairs):
        midpoints[k, [i, j]] = 0.5
    rows = _freeze(np.concatenate([np.eye(c), midpoints]))
    return rows, _freeze(_argmax_mask(rows)), tuple(LabelDistribution(row) for row in rows)


def _argmax_mask(values: np.ndarray) -> np.ndarray:
    """:func:`argmax_set` of every row, as a boolean mask over the last axis."""
    return values >= values.max(axis=-1, keepdims=True) - PROB_TOL


def _first_violation(m: BagGenMatrix, rows: np.ndarray, tops: np.ndarray) -> int | None:
    """Index of the first probe row whose bag frequencies under ``m`` have
    another argmax set than the row's mask in ``tops``, or None.

    numpy runs each stacked product as one gemv per row, the call that
    ``m.entries @ row`` and ``core.label_frequencies`` make, so the
    frequencies carry the same bits; one GEMM over all rows would not.
    """
    marginals = np.matmul(m.entries, rows[:, :, None])
    freqs = marginals.transpose(0, 2, 1) @ bag_membership_matrix(m.c)
    bad = (_argmax_mask(freqs[:, 0]) != tops).any(axis=1)
    return int(np.argmax(bad)) if bad.any() else None


def is_label_aligned_process(m: BagGenMatrix) -> ProcessProbe:
    """Falsify process-level alignment by probing label distributions.

    The probes are every simplex vertex, every edge midpoint, and
    ``ALIGNMENT_PROBES`` flat-Dirichlet samples (from seed 0), tested in that
    order as plain probability rows, the vertices and midpoints in one
    stacked product and the samples ``_PROBE_CHUNK`` at a time; the samples
    are drawn only once the vertices and midpoints pass.  The first
    violation of alignment under the induced bag marginal is returned as a
    counterexample.
    """
    rows, tops, probes = _simplex_probes(m.c)
    hit = _first_violation(m, rows, tops)
    if hit is not None:
        return ProcessProbe(False, probes[hit])
    draws = np.random.default_rng(0).dirichlet(np.ones(m.c), size=ALIGNMENT_PROBES)
    draws /= draws.sum(axis=1, keepdims=True)
    for start in range(0, ALIGNMENT_PROBES, _PROBE_CHUNK):
        chunk = draws[start : start + _PROBE_CHUNK]
        hit = _first_violation(m, chunk, _argmax_mask(chunk))
        if hit is not None:
            return ProcessProbe(False, LabelDistribution(chunk[hit]))
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


def _block_sweep(
    index: knn_index.NeighborIndex,
    atoms: np.ndarray,
    freqs: np.ndarray,
    top: np.ndarray,
    masses: np.ndarray,
    mass_cap: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(advantage, p, gamma) of each atom in ``atoms``, none a full tie, by
    one cumulative sweep over the distinct radii around each.

    Balls centered at an atom change content only at the distinct
    atom-to-atom distances.  Each row's atoms are sorted by distance (stable,
    so ties keep their index order; a row without ties has only one sorting
    permutation, so only rows with ties are sorted again by a stable sort)
    and ``np.cumsum`` accumulates their masses and mass-weighted frequencies
    in that order, the same sequential additions as adding one atom at a
    time; the last position of each radius closes a prefix ball.  One label
    at a time, the lead of the top labels over the rest is the smallest top
    frequency less the largest other one.  gamma at a level is the running
    minimum of that lead over the balls, and the witness is the first level
    with the largest ``p * gamma**2``: positions inside a tie get an infinite
    lead and a value of -inf, so the running minimum and ``argmax`` see only
    ball ends.  Levels past the first ball of mass ``mass_cap`` need no
    exclusion: their p is ``mass_cap`` too and their gamma is no larger, so
    they never beat it.
    """
    # an overflow is reported below as ValueError, not as a numpy warning
    with np.errstate(over="ignore"):
        sqd = knn_index.sq_distance_chunk(index, index.points[atoms])
    order = np.argsort(sqd, axis=1)
    sorted_sqd = np.take_along_axis(sqd, order, axis=1)
    # locations are distinct, so only the atom's own squared distance may be
    # 0; a subnormal one has lost the precision that orders the balls
    tiny = np.finfo(np.float64).tiny
    bad = ~(sorted_sqd[:, -1] < np.inf) | (sorted_sqd[:, 1:2] < tiny).any(axis=1)
    if bad.any():
        raise ValueError(
            f"atom {atoms[np.argmax(bad)]}: squared distances to the other atoms"
            " underflow or overflow"
        )
    inside = np.diff(sorted_sqd, axis=1) == 0.0
    ties = inside.any(axis=1)
    if ties.any():
        order[ties] = np.argsort(sqd[ties], axis=1, kind="stable")
    mass = masses[order]
    cum_mass = np.cumsum(mass, axis=1)
    top_min = np.full(sqd.shape, np.inf)
    rest_max = np.full(sqd.shape, -np.inf)
    for y, column in enumerate(freqs.T):
        ball = np.cumsum(mass * column[order], axis=1) / cum_mass
        is_top = top[atoms, y, None]
        np.minimum(top_min, np.where(is_top, ball, np.inf), out=top_min)
        np.maximum(rest_max, np.where(is_top, -np.inf, ball), out=rest_max)
    margins = top_min - rest_max
    margins[:, :-1][inside] = np.inf
    gamma = np.maximum(np.minimum.accumulate(margins, axis=1), 0.0)
    p_level = np.minimum(cum_mass, mass_cap)
    values = p_level * gamma * gamma
    values[:, :-1][inside] = -np.inf
    at = np.arange(len(atoms)), np.argmax(values, axis=1)
    # no positive level: the atom alone, scoring 0
    found = values[at] > 0.0
    return (
        np.where(found, values[at], 0.0),
        np.where(found, p_level[at], np.minimum(masses[atoms], mass_cap)),
        np.where(found, gamma[at], 0.0),
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
    ``entries[i]`` is atom i's; all atoms share one frequency table, and the
    atoms that are not full ties are swept in blocks of ``_SWEEP_BYTES`` per
    (block, A) array (:func:`_block_sweep`).  The first atom, in index order,
    whose squared distances to the others underflow or overflow raises
    ``ValueError``; a full tie needs no distances and raises nothing.
    """
    if not 0.0 < mass_cap <= 1.0:
        raise ValueError(f"mass_cap must be in (0, 1], got {mass_cap}")
    freqs, masses, locations = _frequency_table(d), d.masses(), d.locations()
    top = _argmax_mask(freqs)
    tied = top.all(axis=1)
    live = np.flatnonzero(~tied)
    # a lone atom may have no coordinates; one zero coordinate keeps its distance 0
    index = knn_index.build(locations if locations.shape[1] else np.zeros((1, 1)))
    advantage, p, gamma = np.empty(d.n_atoms), np.empty(d.n_atoms), np.empty(d.n_atoms)
    rows = max(1, _SWEEP_BYTES // (8 * d.n_atoms))
    for start in range(0, live.size, rows):
        atoms = live[start : start + rows]
        advantage[atoms], p[atoms], gamma[atoms] = _block_sweep(
            index, atoms, freqs, top, masses, mass_cap
        )
    entries = []
    for i, row in enumerate(top.tolist()):
        labels = tuple(y for y, is_top in enumerate(row, 1) if is_top)
        if tied[i]:
            entries.append(AtomAdvantage(i, labels, 1.0, None, None))
        else:
            entries.append(
                AtomAdvantage(i, labels, float(advantage[i]), float(p[i]), float(gamma[i]))
            )
    return AdvantageReport(tuple(entries))


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
