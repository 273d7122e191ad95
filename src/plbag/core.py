"""Domain types for learning from bags of candidate labels.

A training example carries a *bag*: a nonempty subset of the label space
``{1, ..., c}`` that may or may not contain the ground truth.  This module
holds the shared value types (label spaces, and datasets that store each
bag as one mask), finite-support joint distributions over (instance,
label, bag) with their per-instance bag generation matrices, and the basic
probability arithmetic on top of them: bag marginals, per-label bag
frequencies, Bayes rule and Bayes risk.

Conventions used throughout the package:

* labels are 1-based integers in ``1..c``;
* a bag is a bitmask with bit ``y - 1`` set iff label ``y`` is a member;
* the canonical enumeration of nonempty bags is ascending bitmask value,
  so bag index ``j`` (0-based) corresponds to mask ``j + 1``;
* probability comparisons use absolute tolerance ``PROB_TOL`` unless an
  operation documents otherwise.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence, TextIO

import numpy as np

PROB_TOL = 1e-9

# A bag is one 64-bit mask, so labels run from 1 to 64 at most.
MAX_LABELS = 64

# Full bag enumeration (2^c - 1 masks) is a desk-scale tool; classifiers
# never build it.  Keep it small enough for exact linear algebra.
MAX_ENUMERABLE_LABELS = 12


class DataFormatError(ValueError):
    """A dataset file or serialized object violates its documented format."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    """``arr`` read-only and C-contiguous.  An array that already is, and owns
    its data, is shared; a writable array or a view is copied."""
    if not arr.flags.writeable and arr.flags.owndata and arr.flags.c_contiguous:
        return arr
    out = np.ascontiguousarray(arr)
    if out is arr:
        out = arr.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class LabelSpace:
    """The label set ``{1, ..., c}``; ``c`` is capped so a bag fits one word."""

    c: int

    def __post_init__(self) -> None:
        if not isinstance(self.c, int) or isinstance(self.c, bool):
            raise TypeError(f"label count must be an int, got {type(self.c).__name__}")
        if not 2 <= self.c <= MAX_LABELS:
            raise ValueError(f"label count must be in [2, {MAX_LABELS}], got {self.c}")


def canonical_bag_masks(c: int) -> np.ndarray:
    """All nonempty bag masks for ``c`` labels, ascending (canonical order)."""
    if c > MAX_ENUMERABLE_LABELS:
        raise ValueError(
            f"bag enumeration requires c <= {MAX_ENUMERABLE_LABELS}, got {c}"
        )
    return np.arange(1, (1 << c), dtype=np.uint64)


@functools.cache
def bag_membership_matrix(c: int) -> np.ndarray:
    """Boolean matrix of shape (2^c - 1, c): row j marks the labels in mask j+1.

    Built once per c and returned read-only.
    """
    return _freeze(masks_to_membership(canonical_bag_masks(c), c))


def masks_to_membership(masks: np.ndarray, c: int) -> np.ndarray:
    masks = np.asarray(masks, dtype=np.uint64)
    shifts = np.arange(c, dtype=np.uint64)
    return ((masks[:, None] >> shifts[None, :]) & np.uint64(1)).astype(bool)


def membership_to_masks(membership: np.ndarray) -> np.ndarray:
    membership = np.asarray(membership, dtype=bool)
    c = membership.shape[1]
    powers = np.uint64(1) << np.arange(c, dtype=np.uint64)
    return (membership.astype(np.uint64) * powers[None, :]).sum(axis=1, dtype=np.uint64)


class PartialDataset:
    """Instances with bags, and optionally ground truths for evaluation.

    Features are stored as one (n, d) float64 matrix and bags as a uint64
    mask vector; both are immutable after construction.
    """

    __slots__ = ("features", "bag_masks", "truths", "label_space")

    def __init__(
        self,
        features: np.ndarray,
        bag_masks: np.ndarray,
        label_space: LabelSpace,
        truths: np.ndarray | None = None,
    ) -> None:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] == 0 or features.shape[1] == 0:
            raise ValueError("features must be a nonempty (n, d) matrix")
        if not np.all(np.isfinite(features)):
            raise ValueError("features must be finite")
        masks = np.asarray(bag_masks, dtype=np.uint64)
        if masks.shape != (features.shape[0],):
            raise ValueError("one bag mask per example is required")
        if np.any(masks == 0):
            raise ValueError("bags must be nonempty")
        if label_space.c < 64 and np.any(masks >= np.uint64(1 << label_space.c)):
            raise ValueError(f"bag contains a label above c={label_space.c}")
        if truths is not None:
            truths = np.asarray(truths, dtype=np.int64)
            if truths.shape != (features.shape[0],):
                raise ValueError("one truth per example is required")
            if np.any((truths < 1) | (truths > label_space.c)):
                raise ValueError("ground-truth labels must lie in 1..c")
            truths = _freeze(truths)
        self.features = _freeze(features)
        self.bag_masks = _freeze(masks)
        self.truths = truths
        self.label_space = label_space

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def membership_matrix(self) -> np.ndarray:
        """(n, c) boolean matrix: entry (l, y-1) is 1 iff label y is in bag l."""
        return masks_to_membership(self.bag_masks, self.label_space.c)

    def subset(self, indices: np.ndarray) -> "PartialDataset":
        indices = np.asarray(indices, dtype=np.int64)
        return PartialDataset(
            self.features[indices],
            self.bag_masks[indices],
            self.label_space,
            None if self.truths is None else self.truths[indices],
        )

    def with_features(self, features: np.ndarray) -> "PartialDataset":
        return PartialDataset(features, self.bag_masks, self.label_space, self.truths)

    def with_bags(self, bag_masks: np.ndarray) -> "PartialDataset":
        return PartialDataset(self.features, bag_masks, self.label_space, self.truths)


@dataclass(frozen=True)
class LabelDistribution:
    """A probability vector over the c labels."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.shape[0] < 2:
            raise ValueError("label distribution needs at least two entries")
        if not np.isfinite(probs).all():
            raise ValueError("label probabilities must be finite")
        if np.any(probs < -1e-12) or np.any(probs > 1.0 + 1e-12):
            raise ValueError("label probabilities must lie in [0, 1]")
        if abs(float(probs.sum()) - 1.0) > PROB_TOL:
            raise ValueError(f"label probabilities sum to {probs.sum()}, not 1")
        object.__setattr__(self, "probs", _freeze(np.clip(probs, 0.0, 1.0)))

    @property
    def c(self) -> int:
        return self.probs.shape[0]

    def argmax_set(self) -> frozenset[int]:
        return argmax_set(self.probs)


def argmax_set(values: np.ndarray) -> frozenset[int]:
    """1-based indices whose value is within ``PROB_TOL`` of the maximum."""
    values = np.asarray(values, dtype=np.float64)
    top = float(values.max())
    return frozenset(int(i) + 1 for i in np.flatnonzero(values >= top - PROB_TOL))


@dataclass(frozen=True)
class BagGenMatrix:
    """The (2^c - 1, c) matrix of bag probabilities given each true label.

    Column ``y - 1`` is the distribution over nonempty bags (canonical order)
    when the true label is ``y``; every column sums to 1.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=np.float64)
        if entries.ndim != 2:
            raise ValueError("bag generation matrix must be two-dimensional")
        n_bags, c = entries.shape
        if c < 2 or c > MAX_ENUMERABLE_LABELS:
            raise ValueError(
                f"bag generation matrices need 2 <= c <= {MAX_ENUMERABLE_LABELS}"
            )
        if n_bags != (1 << c) - 1:
            raise ValueError(
                f"expected {(1 << c) - 1} bag rows for c={c}, got {n_bags}"
            )
        if not np.isfinite(entries).all():
            raise ValueError("bag probabilities must be finite")
        if np.any(entries < -1e-12) or np.any(entries > 1.0 + 1e-12):
            raise ValueError("bag probabilities must lie in [0, 1]")
        col_sums = entries.sum(axis=0)
        if np.any(np.abs(col_sums - 1.0) > PROB_TOL):
            raise ValueError(f"every column must sum to 1, got sums {col_sums}")
        object.__setattr__(self, "entries", _freeze(np.clip(entries, 0.0, 1.0)))

    @property
    def c(self) -> int:
        return self.entries.shape[1]

    def marginal(self, label_dist: LabelDistribution) -> np.ndarray:
        """Bag distribution induced by mixing columns with label weights."""
        if label_dist.c != self.c:
            raise ValueError("label distribution and matrix disagree on c")
        return self.entries @ label_dist.probs

    @classmethod
    def identity(cls, c: int) -> "BagGenMatrix":
        """Each bag is the singleton of the true label."""
        return cls.permutation(range(1, c + 1))

    @classmethod
    def constant_full(cls, c: int) -> "BagGenMatrix":
        """Every bag is the full label set, whatever the true label."""
        entries = np.zeros(((1 << c) - 1, c))
        entries[(1 << c) - 2, :] = 1.0
        return cls(entries)

    @classmethod
    def permutation(cls, perm: Sequence[int]) -> "BagGenMatrix":
        """Each bag is the singleton of a permuted label: s = {perm[y]}."""
        c = len(perm)
        if sorted(perm) != list(range(1, c + 1)):
            raise ValueError("perm must be a permutation of 1..c")
        entries = np.zeros(((1 << c) - 1, c))
        for y in range(1, c + 1):
            entries[(1 << (perm[y - 1] - 1)) - 1, y - 1] = 1.0
        return cls(entries)

    @classmethod
    def independent_inclusion(cls, q: np.ndarray) -> "BagGenMatrix":
        """Process where label j joins the bag of true label i with probability q[i-1, j-1].

        Requires ``q[i, i] == 1`` so the true label is always present and the
        empty bag has probability zero.
        """
        q = np.asarray(q, dtype=np.float64)
        c = q.shape[0]
        if q.shape != (c, c):
            raise ValueError("q must be square")
        if np.any((q < 0.0) | (q > 1.0)):
            raise ValueError("inclusion probabilities must lie in [0, 1]")
        if np.any(np.abs(np.diag(q) - 1.0) > 0):
            raise ValueError("q[i, i] must equal 1 so bags are never empty")
        membership = bag_membership_matrix(c)
        entries = np.empty(((1 << c) - 1, c))
        for i in range(c):
            inc = np.where(membership, q[i][None, :], 1.0 - q[i][None, :])
            entries[:, i] = inc.prod(axis=1)
        return cls(entries)


@dataclass(frozen=True)
class Atom:
    """One support point of a finite joint distribution."""

    location: np.ndarray
    mass: float
    label_dist: LabelDistribution
    baggen: BagGenMatrix

    def __post_init__(self) -> None:
        loc = np.asarray(self.location, dtype=np.float64)
        if loc.ndim != 1:
            raise ValueError("atom locations must be vectors")
        if not np.isfinite(loc).all():
            raise ValueError("atom locations must be finite")
        object.__setattr__(self, "location", _freeze(loc))
        if not 0.0 < self.mass <= 1.0:
            raise ValueError("atom mass must lie in (0, 1]")
        if self.label_dist.c != self.baggen.c:
            raise ValueError("label distribution and bag process disagree on c")


@dataclass(frozen=True)
class DiscreteDistribution:
    """A finite-support joint over (instance, label, bag).

    Finite support keeps every downstream quantity exactly computable, which
    is what the identifiability and advantage oracles rely on.
    """

    atoms: tuple[Atom, ...]
    label_space: LabelSpace

    def __post_init__(self) -> None:
        atoms = tuple(self.atoms)
        if not atoms:
            raise ValueError("a distribution needs at least one atom")
        object.__setattr__(self, "atoms", atoms)
        c = self.label_space.c
        for a in atoms:
            if a.label_dist.c != c:
                raise ValueError("atom label distribution disagrees with label space")
        total = sum(a.mass for a in atoms)
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"atom masses sum to {total}, not 1")
        dims = {a.location.shape[0] for a in atoms}
        if len(dims) != 1:
            raise ValueError("atom locations must share one dimension")
        # equal rows are adjacent in lexicographic order (-0.0 sorts and
        # compares equal to 0.0)
        locs = np.stack([a.location for a in atoms])
        ordered = locs[np.lexsort(locs.T[::-1])] if locs.shape[1] else locs
        if np.any((ordered[1:] == ordered[:-1]).all(axis=1)):
            raise ValueError("atom locations must be pairwise distinct")

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def locations(self) -> np.ndarray:
        return np.stack([a.location for a in self.atoms])

    def masses(self) -> np.ndarray:
        return np.array([a.mass for a in self.atoms])


def bag_marginal(d: DiscreteDistribution, atom_index: int) -> np.ndarray:
    """P(s | x) over all nonempty bags in canonical order, at one atom."""
    if not 0 <= atom_index < d.n_atoms:
        raise IndexError(f"atom index {atom_index} out of range")
    atom = d.atoms[atom_index]
    return atom.baggen.marginal(atom.label_dist)


def label_frequencies(marginal: np.ndarray) -> np.ndarray:
    """Per-label bag frequencies: component y sums the bags containing y.

    The label count is inferred from the marginal length, which must be
    2^c - 1 for some c.
    """
    marginal = np.asarray(marginal, dtype=np.float64)
    size = marginal.shape[0]
    c = (size + 1).bit_length() - 1
    if (1 << c) - 1 != size:
        raise ValueError(f"marginal length {size} is not 2^c - 1 for any c")
    return marginal @ bag_membership_matrix(c)


def bag_frequencies_at(d: DiscreteDistribution, atom_index: int) -> np.ndarray:
    """P(S_y | x) for every label y at one atom."""
    return label_frequencies(bag_marginal(d, atom_index))


def bayes_rule(d: DiscreteDistribution) -> tuple[frozenset[int], ...]:
    """Per-atom argmax set of the label distribution (ties kept)."""
    return tuple(a.label_dist.argmax_set() for a in d.atoms)


def bayes_risk(d: DiscreteDistribution) -> float:
    """Error probability of always predicting the most probable label."""
    return float(sum(a.mass * (1.0 - float(a.label_dist.probs.max())) for a in d.atoms))


# ---------------------------------------------------------------------------
# Dataset CSV format: header x1,...,xd,bag[,y]; bag is a ';'-separated list
# of 1-based labels; the optional y column is the ground truth.
# ---------------------------------------------------------------------------


def _parse_bag_field(text: str, row: int) -> int:
    text = text.strip()
    if not text:
        raise DataFormatError(f"row {row}: empty bag field")
    mask = 0
    for part in text.split(";"):
        part = part.strip()
        if not part:
            raise DataFormatError(f"row {row}: malformed bag field {text!r}")
        try:
            y = int(part)
        except ValueError as exc:
            raise DataFormatError(f"row {row}: non-integer label {part!r}") from exc
        # checked before the label sizes a bit shift
        if not 1 <= y <= MAX_LABELS:
            raise DataFormatError(f"row {row}: label {y} out of range 1..{MAX_LABELS}")
        mask |= 1 << (y - 1)
    return mask


def _csv_records(path: Path, fh: TextIO) -> Iterator[list[str]]:
    """The records of an open CSV file; unreadable text is a format error."""
    try:
        yield from csv.reader(fh)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: unreadable CSV: {exc}") from exc


def load_dataset(path: str | Path) -> PartialDataset:
    """Read a dataset CSV.  The label count c is inferred as the largest label
    mentioned in any bag or truth column (at least 2).  Labels above
    ``MAX_LABELS`` are a format error."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = _csv_records(path, fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if "bag" not in header:
            raise DataFormatError(f"{path}: header must contain a 'bag' column")
        bag_col = header.index("bag")
        expected = [f"x{i + 1}" for i in range(bag_col)]
        if header[:bag_col] != expected:
            raise DataFormatError(f"{path}: feature columns must be x1..xd, got {header[:bag_col]}")
        has_truth = header[bag_col + 1 :] == ["y"]
        if header[bag_col + 1 :] not in ([], ["y"]):
            raise DataFormatError(f"{path}: unexpected trailing columns {header[bag_col + 1:]}")
        dim = bag_col
        if dim == 0:
            raise DataFormatError(f"{path}: at least one feature column is required")

        features: list[list[float]] = []
        masks: list[int] = []
        truths: list[int] = []
        for rownum, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(header):
                raise DataFormatError(f"{path}: row {rownum} has {len(rec)} fields, expected {len(header)}")
            try:
                features.append([float(v) for v in rec[:dim]])
            except ValueError as exc:
                raise DataFormatError(f"{path}: row {rownum}: bad feature value") from exc
            try:
                masks.append(_parse_bag_field(rec[bag_col], rownum))
            except DataFormatError as exc:
                raise DataFormatError(f"{path}: {exc}") from exc
            if has_truth:
                try:
                    y = int(rec[bag_col + 1])
                except ValueError as exc:
                    raise DataFormatError(f"{path}: row {rownum}: bad truth value") from exc
                if not 1 <= y <= MAX_LABELS:
                    raise DataFormatError(f"{path}: row {rownum}: truth {y} out of range 1..{MAX_LABELS}")
                truths.append(y)

    if not features:
        raise DataFormatError(f"{path}: no data rows")
    top = max(m.bit_length() for m in masks)
    if truths:
        top = max(top, max(truths))
    try:
        return PartialDataset(
            np.asarray(features),
            np.asarray(masks, dtype=np.uint64),
            LabelSpace(max(top, 2)),
            np.asarray(truths, dtype=np.int64) if truths else None,
        )
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def save_dataset(dataset: PartialDataset, path: str | Path) -> None:
    """Write a dataset in the CSV format accepted by :func:`load_dataset`."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = [f"x{i + 1}" for i in range(dataset.dim)] + ["bag"]
        if dataset.truths is not None:
            header.append("y")
        writer.writerow(header)
        for i in range(dataset.n):
            row = [repr(float(v)) for v in dataset.features[i]]
            mask = int(dataset.bag_masks[i])
            row.append(";".join(str(y + 1) for y in range(mask.bit_length()) if mask >> y & 1))
            if dataset.truths is not None:
                row.append(str(int(dataset.truths[i])))
            writer.writerow(row)
