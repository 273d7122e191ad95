import csv
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from plbag import knn_index, plaknn, theory
from plbag.bench_cli import load_distribution
from plbag.core import (
    Atom,
    BagGenMatrix,
    DiscreteDistribution,
    LabelDistribution,
    LabelSpace,
    argmax_set,
    bag_frequencies_at,
    bag_marginal,
    bayes_rule,
    label_frequencies,
)
from plbag.theory import (
    AdvantageReport,
    AtomAdvantage,
    ProcessProbe,
    RelaxedSpec,
    advantage_report,
    check_relaxed,
    find_ambiguous_pair,
    flip_distribution,
    is_label_aligned_dist,
    is_label_aligned_process,
    is_reconstructible,
)

from _fixtures import (
    aligned_point_dist,
    deficient_baggen,
    misaligned_point_dist,
    random_baggen,
    random_discrete_distribution,
    random_label_dist,
    sample_distribution,
    single_atom,
)


def mixed_identity_full(c: int, w: float = 0.9) -> BagGenMatrix:
    """Singleton of the truth with probability w, else the full set."""
    entries = w * BagGenMatrix.identity(c).entries + (1 - w) * BagGenMatrix.constant_full(c).entries
    return BagGenMatrix(entries)


def advantage_loop_oracle(
    d: DiscreteDistribution, atom_index: int, mass_cap: float = 1.0
) -> AtomAdvantage:
    """The prefix-ball loop that the advantage computation ran before its sweep.

    Restacks every atom's frequencies, then adds one atom at a time in
    stable distance order and scores each distinct radius with Python floats.
    The sweep must return equal entries.
    """
    c = d.label_space.c
    freqs = np.stack([bag_frequencies_at(d, i) for i in range(d.n_atoms)])
    here = freqs[atom_index]
    top = argmax_set(here)
    top_sorted = tuple(sorted(top))
    if len(top) == c:
        return AtomAdvantage(atom_index, top_sorted, 1.0, None, None)

    masses = d.masses()
    sqd = ((d.locations() - d.atoms[atom_index].location[None, :]) ** 2).sum(axis=1)
    order = np.argsort(sqd, kind="stable")
    sorted_d = sqd[order]
    boundaries = np.flatnonzero(np.diff(sorted_d) > 0)
    prefix_ends = np.append(boundaries + 1, len(order))

    top_idx = np.array(sorted(top)) - 1
    rest_idx = np.array([y - 1 for y in range(1, c + 1) if y not in top])
    cum_mass = 0.0
    weighted = np.zeros(c)
    best_val, best_p, best_gamma = 0.0, float(min(masses[atom_index], mass_cap)), 0.0
    running_gamma = np.inf
    prev_mass = 0.0
    start = 0
    for end in prefix_ends:
        for i in order[start:end]:
            cum_mass += float(masses[i])
            weighted += masses[i] * freqs[i]
        start = end
        ball_freqs = weighted / cum_mass
        margin = float(ball_freqs[top_idx].min() - ball_freqs[rest_idx].max())
        running_gamma = min(running_gamma, margin)
        if prev_mass < mass_cap:
            p_level = min(cum_mass, mass_cap)
            gamma = max(running_gamma, 0.0)
            val = p_level * gamma * gamma
            if val > best_val:
                best_val, best_p, best_gamma = val, p_level, gamma
        prev_mass = cum_mass
    return AtomAdvantage(atom_index, top_sorted, best_val, best_p, best_gamma)


def probe_oracle(m: BagGenMatrix) -> ProcessProbe:
    """``is_label_aligned_process`` as it was before its probes became lazy
    rows: every probe is a validated ``LabelDistribution``, built up front
    (the 200 Dirichlet rows from seed 0 included), then tested in order."""
    c = m.c
    rng = np.random.default_rng(0)
    probes = [LabelDistribution(np.eye(c)[i]) for i in range(c)]
    for i in range(c):
        for j in range(i + 1, c):
            probs = np.zeros(c)
            probs[i] = probs[j] = 0.5
            probes.append(LabelDistribution(probs))
    draws = rng.dirichlet(np.ones(c), size=200)
    probes += [LabelDistribution(row / row.sum()) for row in draws]
    for q in probes:
        freqs = label_frequencies(m.marginal(q))
        if argmax_set(freqs) != q.argmax_set():
            return ProcessProbe(False, q)
    return ProcessProbe(True, None)


def aligned_dist_oracle(d: DiscreteDistribution) -> bool:
    """``is_label_aligned_dist`` as its own loop, before it became
    ``check_relaxed`` with an empty region."""
    for idx, atom in enumerate(d.atoms):
        freqs = bag_frequencies_at(d, idx)
        if argmax_set(freqs) != atom.label_dist.argmax_set():
            return False
    return True


def text_fields_oracle(e: AtomAdvantage) -> str:
    """One entry's ``advantage= p= gamma= top_labels=`` fields as reports
    formatted them before the fields were shared with ``bench theory``."""
    return (
        f"advantage={e.advantage:.12g} "
        f"p={'' if e.p is None else format(e.p, '.12g')} "
        f"gamma={'' if e.gamma is None else format(e.gamma, '.12g')} "
        f"top_labels={';'.join(str(y) for y in e.top_labels)}"
    )


def symmetric_inclusion(rng: np.random.Generator, c: int) -> BagGenMatrix:
    """Inclusion process with q[i, j] == q[j, i]: at every edge midpoint the
    two labels tie in bag frequency, so vertices and midpoints pass and only
    interior probes can falsify alignment."""
    q = np.triu(rng.uniform(0.0, 0.45, size=(c, c)), 1)
    return BagGenMatrix.independent_inclusion(q + q.T + np.eye(c))


def mixed_process(rng: np.random.Generator, c: int) -> BagGenMatrix:
    kind = int(rng.integers(5))
    if kind == 0:
        return BagGenMatrix.identity(c)
    if kind == 1:
        return mixed_identity_full(c, float(rng.uniform(0.3, 1.0)))
    if kind == 2:
        return symmetric_inclusion(rng, c)
    if kind == 3:
        return BagGenMatrix.permutation([int(y) for y in rng.permutation(c) + 1])
    return random_baggen(rng, c)


def tie_heavy_distribution(
    rng: np.random.Generator, n_atoms: int, c: int, grid: bool
) -> DiscreteDistribution:
    """Atoms at distinct integer-grid points (many equal distances) or
    Gaussian points, with uniform label distributions under the identity
    process (every label ties) and equal-mass mirror pairs whose pooled
    frequencies tie exactly (zero margins) mixed in."""
    dim = int(rng.integers(1, 4))
    if grid:
        side = max(2, int(np.ceil(n_atoms ** (1.0 / dim))) + 1)
        cells = rng.choice(side**dim, size=n_atoms, replace=False)
        locations = np.stack(np.unravel_index(cells, (side,) * dim), axis=1).astype(float)
    else:
        locations = rng.normal(size=(n_atoms, dim))
    masses = rng.dirichlet(np.ones(n_atoms))
    dists, processes = [], []
    i = 0
    while i < n_atoms:
        kind = int(rng.integers(4))
        if kind == 0:
            dists.append(LabelDistribution(np.full(c, 1.0 / c)))
            processes.append(BagGenMatrix.identity(c))
        elif kind == 1 and i + 1 < n_atoms:
            probs = rng.dirichlet(np.ones(c))
            swapped = probs.copy()
            swapped[[0, 1]] = swapped[[1, 0]]
            dists += [LabelDistribution(probs), LabelDistribution(swapped)]
            processes += [BagGenMatrix.identity(c)] * 2
            masses[i + 1] = masses[i]
            i += 1
        else:
            dists.append(random_label_dist(rng, c))
            processes.append(mixed_process(rng, c))
        i += 1
    masses /= masses.sum()
    atoms = tuple(
        Atom(locations[k], float(masses[k]), dists[k], processes[k]) for k in range(n_atoms)
    )
    return DiscreteDistribution(atoms, LabelSpace(c))


def advantage_oracle(d: DiscreteDistribution, atom_index: int, mass_cap: float = 1.0) -> float:
    """Independent brute force over (radius, mass level) pairs.

    Recomputes ball frequencies from scratch and scans every interval
    endpoint plus a ten-times finer grid of mass levels.
    """
    c = d.label_space.c
    freqs = np.stack([label_frequencies(bag_marginal(d, i)) for i in range(d.n_atoms)])
    here = freqs[atom_index]
    top = sorted(argmax_set(here))
    if len(top) == c:
        return 1.0
    rest = [y for y in range(1, c + 1) if y not in top]
    masses = d.masses()
    center = d.atoms[atom_index].location
    sqd = ((d.locations() - center[None, :]) ** 2).sum(axis=1)
    radii = np.unique(sqd)
    cums, margins = [], []
    for r in radii:
        ball = sqd <= r
        mass = float(masses[ball].sum())
        ball_freq = (masses[ball, None] * freqs[ball]).sum(axis=0) / mass
        margin = min(
            float(ball_freq[i - 1] - ball_freq[j - 1]) for i in top for j in rest
        )
        cums.append(mass)
        margins.append(margin)
    levels = {min(cm, mass_cap) for cm in cums}
    fine = mass_cap * (np.arange(1, 10 * len(radii) + 1) / (10 * len(radii)))
    levels.update(float(p) for p in fine)
    best = 0.0
    for p in sorted(levels):
        if p <= 0.0 or p > mass_cap:
            continue
        t = int(np.searchsorted(np.asarray(cums), p, side="left"))
        gamma = max(min(margins[: t + 1]), 0.0)
        best = max(best, p * gamma * gamma)
    return best


class TestReconstructible:
    def test_identity_process(self):
        assert is_reconstructible(BagGenMatrix.identity(3))

    def test_constant_process(self):
        assert not is_reconstructible(BagGenMatrix.constant_full(3))

    def test_permutation_process(self):
        assert is_reconstructible(BagGenMatrix.permutation([3, 1, 2]))

    def test_mixed_process(self):
        assert is_reconstructible(mixed_identity_full(4))


class TestAmbiguousPair:
    def test_constant_pair_is_vertex_pair(self):
        pair = find_ambiguous_pair(BagGenMatrix.constant_full(2))
        assert pair is not None
        q1, q2 = pair
        assert {q1.argmax_set(), q2.argmax_set()} == {frozenset({1}), frozenset({2})}

    def test_identity_has_no_pair(self):
        assert find_ambiguous_pair(BagGenMatrix.identity(3)) is None

    def test_roundtrip_property(self):
        # reconstructible <=> no ambiguous pair; returned pairs share the
        # bag marginal and disagree on the argmax
        rng = np.random.default_rng(33)
        for trial in range(200):
            c = int(rng.integers(2, 7))
            m = random_baggen(rng, c) if trial % 2 == 0 else deficient_baggen(rng, c)
            pair = find_ambiguous_pair(m)
            assert (pair is None) == is_reconstructible(m)
            if pair is not None:
                q1, q2 = pair
                gap = np.abs(m.entries @ (q1.probs - q2.probs)).max()
                assert gap <= 1e-7
                assert q1.argmax_set() != q2.argmax_set()


class TestAlignmentDist:
    def test_aligned_fixture(self):
        assert is_label_aligned_dist(aligned_point_dist())

    def test_misaligned_fixture(self):
        assert not is_label_aligned_dist(misaligned_point_dist())

    def test_identity_process_always_aligned(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            d = single_atom(rng.dirichlet(np.ones(4)), BagGenMatrix.identity(4))
            assert is_label_aligned_dist(d)


class TestAlignmentProcess:
    def test_identity_aligned(self):
        probe = is_label_aligned_process(BagGenMatrix.identity(3))
        assert probe.aligned_so_far and probe.counterexample is None

    def test_scaled_identity_aligned(self):
        probe = is_label_aligned_process(mixed_identity_full(3))
        assert probe.aligned_so_far

    def test_permutation_falsified_at_vertex(self):
        probe = is_label_aligned_process(BagGenMatrix.permutation([2, 1]))
        assert not probe.aligned_so_far
        # the counterexample is a deterministic label distribution
        assert probe.counterexample.probs.max() == 1.0


class TestCorollaryDirection:
    def test_probed_aligned_implies_reconstructible(self):
        rng = np.random.default_rng(41)
        processes = [
            BagGenMatrix.identity(3),
            mixed_identity_full(3, 0.8),
            mixed_identity_full(4, 0.5),
            BagGenMatrix.constant_full(3),
            BagGenMatrix.permutation([2, 3, 1]),
        ] + [random_baggen(rng, int(rng.integers(2, 5))) for _ in range(30)]
        passed = 0
        for m in processes:
            probe = is_label_aligned_process(m)
            if probe.aligned_so_far:
                passed += 1
                assert is_reconstructible(m)
        assert passed >= 3  # the implication was exercised, not vacuous


class TestAdvantage:
    def test_single_atom_margin(self):
        d = single_atom([0.6, 0.4], BagGenMatrix.identity(2))
        entry = advantage_report(d, 1.0).entries[0]
        assert entry.advantage == pytest.approx(0.04, abs=1e-12)
        assert entry.p == pytest.approx(1.0)
        assert entry.gamma == pytest.approx(0.2, abs=1e-12)
        assert entry.top_labels == (1,)

    def test_full_tie_has_advantage_one(self):
        d = single_atom([0.5, 0.5], BagGenMatrix.identity(2))
        entry = advantage_report(d).entries[0]
        assert entry.advantage == 1.0
        assert entry.p is None and entry.gamma is None

    def test_two_atom_line(self):
        m = BagGenMatrix.identity(2)
        atoms = (
            Atom(np.array([0.0]), 0.5, LabelDistribution(np.array([0.9, 0.1])), m),
            Atom(np.array([1.0]), 0.5, LabelDistribution(np.array([0.1, 0.9])), m),
        )
        d = DiscreteDistribution(atoms, LabelSpace(2))
        entry = advantage_report(d, 1.0).entries[0]
        assert entry.advantage == pytest.approx(0.32, abs=1e-12)
        assert entry.p == pytest.approx(0.5)
        assert entry.gamma == pytest.approx(0.8, abs=1e-12)

    @staticmethod
    def _three_atoms(locations):
        m = BagGenMatrix.identity(2)
        atoms = tuple(
            Atom(np.array([x]), mass, LabelDistribution(np.array(probs)), m)
            for x, mass, probs in zip(locations, (0.5, 0.1, 0.4), ([0.9, 0.1], [0.1, 0.9], [0.5, 0.5]))
        )
        return DiscreteDistribution(atoms, LabelSpace(2))

    @pytest.mark.parametrize(
        "locations",
        [(0.0, 1e-170, 1.0), (0.0, 1e-160, 1.0), (1e200, -1e200, 0.0)],
        ids=["underflow_to_zero", "subnormal", "overflow"],
    )
    def test_squared_distances_must_be_normal_and_finite(self, locations):
        # a square that underflows merges the first two balls, one that
        # overflows ties every far atom
        with pytest.raises(ValueError, match="atom 0: squared distances to the other atoms"):
            advantage_report(self._three_atoms(locations))

    def test_small_distances_keep_their_balls(self):
        entries = advantage_report(self._three_atoms((0.0, 1e-10, 1.0))).entries
        assert (entries[0].advantage, entries[0].p) == pytest.approx((0.32, 0.5), abs=1e-12)
        assert entries[1].advantage == pytest.approx(0.064, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            d = random_discrete_distribution(rng, n_atoms=10, c=3)
            cap = float(rng.uniform(0.2, 1.0))
            for i in range(d.n_atoms):
                got = advantage_report(d, cap).entries[i].advantage
                assert got == pytest.approx(advantage_oracle(d, i, cap), abs=1e-9)

    def test_positive_for_aligned_distinct_argmax(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            masses = rng.dirichlet(np.ones(5))
            atoms = tuple(
                Atom(
                    rng.normal(size=2),
                    float(masses[i]),
                    random_label_dist(rng, 3),
                    BagGenMatrix.identity(3),
                )
                for i in range(5)
            )
            d = DiscreteDistribution(atoms, LabelSpace(3))
            for i in range(5):
                if len(argmax_set(bag_frequencies_at(d, i))) < 3:
                    assert advantage_report(d).entries[i].advantage > 0.0

    def test_report_serialization(self, tmp_path):
        d = random_discrete_distribution(np.random.default_rng(53), 4, 3)
        report = advantage_report(d)
        assert len(report.entries) == 4
        path = tmp_path / "adv.csv"
        report.write_csv(path)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["atom_index", "advantage", "p", "gamma"]
        assert len(rows) == 5


class TestAdvantageSweep:
    """The cumulative sweep against the loop it replaced: equal entries and
    equal report bytes, not approximately equal numbers."""

    def test_random_distributions_match_loop(self):
        rng = np.random.default_rng(67)
        full_ties = deeper = capped = 0
        for trial in range(72):
            c = int(rng.integers(2, 7))
            n_atoms = int(rng.integers(1, 15))
            d = tie_heavy_distribution(rng, n_atoms, c, grid=trial % 4 != 0)
            cap = (1.0, float(rng.uniform(0.05, 1.0)), 1e-3)[trial % 3]
            expected = tuple(advantage_loop_oracle(d, i, cap) for i in range(n_atoms))
            report = advantage_report(d, cap)
            assert report.entries == expected
            assert [e.text_fields().encode() for e in report.entries] == [
                text_fields_oracle(e).encode() for e in expected
            ]
            i = int(rng.integers(n_atoms))
            assert advantage_report(d, cap).entries[i] == expected[i]
            masses = d.masses()
            for e in expected:
                full_ties += e.p is None
                deeper += e.p is not None and e.p > masses[e.atom_index]
                capped += e.p is not None and e.p == cap < masses[e.atom_index]
        # the cases the sweep could get wrong were exercised, not vacuous
        assert full_ties >= 10 and deeper >= 10 and capped >= 5

    def test_equal_distances_enter_one_ball(self):
        # from the center, four atoms sit at distance 1 and four at sqrt(2);
        # each radius must be scored once, with all of its atoms inside
        rng = np.random.default_rng(71)
        for _ in range(20):
            c = int(rng.integers(2, 7))
            locations = [(x, y) for x in (-1.0, 0.0, 1.0) for y in (-1.0, 0.0, 1.0)]
            masses = rng.dirichlet(np.ones(9))
            atoms = tuple(
                Atom(np.array(loc), float(m), random_label_dist(rng, c), mixed_process(rng, c))
                for loc, m in zip(locations, masses)
            )
            d = DiscreteDistribution(atoms, LabelSpace(c))
            for cap in (1.0, float(rng.uniform(0.05, 0.6))):
                assert advantage_report(d, cap).entries == tuple(
                    advantage_loop_oracle(d, i, cap) for i in range(9)
                )

    def test_zero_margin_ball(self):
        # equal masses with swapped label probabilities: the pooled ball ties
        # exactly, so gamma drops to 0 there and the witness is the atom alone
        m = BagGenMatrix.identity(2)
        atoms = (
            Atom(np.array([0.0]), 0.5, LabelDistribution(np.array([0.7, 0.3])), m),
            Atom(np.array([1.0]), 0.5, LabelDistribution(np.array([0.3, 0.7])), m),
        )
        d = DiscreteDistribution(atoms, LabelSpace(2))
        entry = advantage_report(d).entries[0]
        assert entry == advantage_loop_oracle(d, 0)
        assert entry.p == 0.5 and entry.gamma == float(np.float64(0.7) - np.float64(0.3))

    def test_equal_values_keep_the_first_level(self):
        # dyadic numbers: the atom alone scores (1/64) * (18/64)**2 and the
        # pooled ball 1 * (9/256)**2, the same float; the first level wins
        m = BagGenMatrix.identity(2)
        atoms = (
            Atom(np.array([0.0]), 1 / 64, LabelDistribution(np.array([41 / 64, 23 / 64])), m),
            Atom(np.array([1.0]), 63 / 64, LabelDistribution(np.array([33 / 64, 31 / 64])), m),
        )
        d = DiscreteDistribution(atoms, LabelSpace(2))
        entry = advantage_report(d).entries[0]
        assert entry == advantage_loop_oracle(d, 0)
        assert entry == AtomAdvantage(0, (1,), 81 / 65536, 1 / 64, 18 / 64)

    def test_no_positive_level_falls_back(self):
        # labels 1 and 3 tie within PROB_TOL, label 2 sits one ulp below
        # label 3; at mass m the ball frequencies (m * f) / m round the two
        # onto one value, so the only open level (mass_cap = m) scores 0
        x = 0.3 - 1e-9
        y = float(np.nextafter(x, 0.0))
        probs = np.array([0.3, y, x, 1.0 - 0.3 - x - y])
        mass = next(
            m for m in np.linspace(0.8, 0.95, 151) if (m * x) / m == (m * y) / m
        )
        ident = BagGenMatrix.identity(4)
        atoms = (
            Atom(np.array([0.0]), float(mass), LabelDistribution(probs), ident),
            Atom(np.array([1.0]), float(1.0 - mass), random_label_dist(np.random.default_rng(0), 4), ident),
        )
        d = DiscreteDistribution(atoms, LabelSpace(4))
        entry = advantage_report(d, float(mass)).entries[0]
        assert entry == advantage_loop_oracle(d, 0, float(mass))
        assert entry == AtomAdvantage(0, (1, 3), 0.0, float(mass), 0.0)

    def test_argument_checks(self):
        d = aligned_point_dist()
        for cap in (0.0, 1.5):
            with pytest.raises(ValueError):
                advantage_report(d, cap).entries[0]
            with pytest.raises(ValueError):
                advantage_report(d, mass_cap=cap)


def record_blocks(monkeypatch, rows: int, n_atoms: int) -> list[int]:
    """Cut the advantage sweep into blocks of ``rows`` atoms; the returned
    list fills with the size of each block as it is swept."""
    monkeypatch.setattr(theory, "_SWEEP_BYTES", rows * 8 * n_atoms)
    sizes: list[int] = []
    sweep = theory._block_sweep

    def recording(index, atoms, *args):
        sizes.append(len(atoms))
        return sweep(index, atoms, *args)

    monkeypatch.setattr(theory, "_block_sweep", recording)
    return sizes


class TestAdvantageBlocks:
    """The sweep over blocks of atoms against the per-atom loop, entry for
    entry, with blocks far smaller than the budget makes them."""

    @pytest.mark.parametrize("grid", [False, True], ids=["gaussian", "integer_grid"])
    def test_several_blocks_match_loop(self, monkeypatch, grid):
        rng = np.random.default_rng(79 + grid)
        full_ties = tied_radii = capped = 0
        for trial in range(12):
            c = int(rng.integers(2, 7))
            d = tie_heavy_distribution(rng, int(rng.integers(16, 30)), c, grid)
            cap = (1.0, float(rng.uniform(0.05, 0.6)), 1e-3)[trial % 3]
            expected = tuple(advantage_loop_oracle(d, i, cap) for i in range(d.n_atoms))
            live = sum(e.p is not None for e in expected)
            # at least 3 blocks, the last one partial
            rows = next(r for r in range(2, live) if live % r and live > 2 * r)
            sizes = record_blocks(monkeypatch, rows, d.n_atoms)
            assert advantage_report(d, cap).entries == expected
            assert len(sizes) >= 3 and sizes[:-1] == [rows] * (len(sizes) - 1)
            assert 0 < sizes[-1] < rows and sum(sizes) == live
            full_ties += live < d.n_atoms
            capped += cap < 1.0
            sqd = ((d.locations()[:, None] - d.locations()[None]) ** 2).sum(axis=2)
            tied_radii += any(len(np.unique(row)) < d.n_atoms for row in sqd)
        assert full_ties >= 6 and capped == 8
        assert tied_radii == (12 if grid else 0)

    def test_one_atom(self, monkeypatch):
        sizes = record_blocks(monkeypatch, 1, 1)
        rng = np.random.default_rng(83)
        for c in range(2, 7):
            for probs in (rng.dirichlet(np.ones(c)), np.full(c, 1.0 / c)):
                for dim in (0, 1, 3):
                    d = single_atom(probs / probs.sum(), mixed_process(rng, c), dim)
                    for cap in (1.0, 0.4):
                        assert advantage_report(d, cap).entries == (advantage_loop_oracle(d, 0, cap),)
        # the uniform-label atoms tie under some processes only
        assert 30 <= len(sizes) < 60 and set(sizes) == {1}

    def test_only_full_ties_sweep_nothing(self, monkeypatch):
        sizes = record_blocks(monkeypatch, 2, 5)
        atoms = tuple(
            Atom(np.array([float(x)]), 0.2, LabelDistribution(np.full(3, 1 / 3)), BagGenMatrix.identity(3))
            for x in range(5)
        )
        d = DiscreteDistribution(atoms, LabelSpace(3))
        assert advantage_report(d).entries == tuple(advantage_loop_oracle(d, i) for i in range(5))
        assert sizes == []

    @staticmethod
    def _near_pair(tied: tuple[bool, bool]) -> DiscreteDistribution:
        """Atoms 0-4 at x = 1..5, atoms 5 and 6 at 0 and 1e-170, whose squared
        distance underflows to 0; ``tied`` makes atom 5 or 6 a full tie."""
        rng = np.random.default_rng(89)
        ident = BagGenMatrix.identity(3)
        locations = [1.0, 2.0, 3.0, 4.0, 5.0, 0.0, 1e-170]
        flags = (False,) * 5 + tied
        atoms = tuple(
            Atom(
                np.array([x]),
                1 / 7,
                LabelDistribution(np.full(3, 1 / 3)) if flag else random_label_dist(rng, 3),
                ident,
            )
            for x, flag in zip(locations, flags)
        )
        return DiscreteDistribution(atoms, LabelSpace(3))

    @pytest.mark.parametrize(("tied", "first"), [((False, False), 5), ((True, False), 6)])
    def test_distance_error_names_the_first_failing_atom(self, monkeypatch, tied, first):
        # blocks of 2 live atoms: the third one, the last swept, raises
        sizes = record_blocks(monkeypatch, 2, 7)
        with pytest.raises(ValueError, match=f"^atom {first}: squared distances to the other"):
            advantage_report(self._near_pair(tied))
        assert sizes == [2, 2, 2]

    def test_full_ties_whose_distances_underflow_raise_nothing(self, monkeypatch):
        d = self._near_pair((True, True))
        sizes = record_blocks(monkeypatch, 2, 7)
        assert advantage_report(d).entries == tuple(advantage_loop_oracle(d, i) for i in range(7))
        assert sizes == [2, 2, 1]

    def test_peak_memory_follows_the_budget(self):
        # a dozen (block, A) arrays of the budget are alive at once; besides
        # them the report holds O(A c): the frequency table, the rows it is
        # stacked from, the masks and the entries.  One (A, A) float64 array
        # alone would be 32 MB.
        n_atoms = 2000
        d = random_discrete_distribution(np.random.default_rng(97), n_atoms, 5)
        tracemalloc.start()
        try:
            advantage_report(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 16 * theory._SWEEP_BYTES + 512 * n_atoms
        assert peak < bound < 8 * n_atoms**2


class TestProbesAgainstOracle:
    """Lazy probe rows against the up-front ``LabelDistribution`` probes:
    the same verdict and the same counterexample bytes."""

    @staticmethod
    def _where(probe: ProcessProbe) -> str:
        if probe.aligned_so_far:
            return "aligned"
        top = probe.counterexample.probs.max()
        return "vertex" if top == 1.0 else "midpoint" if top == 0.5 else "dirichlet"

    def test_random_processes_match_oracle(self):
        rng = np.random.default_rng(73)
        seen = {"aligned": 0, "vertex": 0, "midpoint": 0, "dirichlet": 0}
        for trial in range(240):
            c = int(rng.integers(2, 7))
            m = deficient_baggen(rng, c) if trial % 7 == 0 else mixed_process(rng, c)
            # the probe count and seed these trials once drew: kept, so the
            # generator yields the same processes
            rng.choice([1, 5, 60, 300])
            rng.integers(1000)
            got = is_label_aligned_process(m)
            want = probe_oracle(m)
            assert got.aligned_so_far == want.aligned_so_far
            if want.counterexample is None:
                assert got.counterexample is None
            else:
                assert got.counterexample.probs.tobytes() == want.counterexample.probs.tobytes()
            seen[self._where(want)] += 1
        assert min(seen.values()) >= 5, seen

    def test_midpoint_failure(self):
        # inclusion with q[1, 2] != q[2, 1]: both vertices pass, the midpoint
        # does not
        m = BagGenMatrix.independent_inclusion(np.array([[1.0, 2 / 3], [0.0, 1.0]]))
        probe = is_label_aligned_process(m)
        want = probe_oracle(m)
        assert probe.counterexample.probs.tobytes() == want.counterexample.probs.tobytes()
        assert self._where(probe) == "midpoint"

    def test_caller_probes_must_match_c(self):
        # a probe distribution of another label count is refused by the marginal
        with pytest.raises(ValueError, match="disagree on c"):
            BagGenMatrix.identity(3).marginal(LabelDistribution(np.array([0.5, 0.5])))

    @pytest.mark.parametrize("c", range(2, 7))
    def test_every_label_count_matches_oracle(self, c):
        rng = np.random.default_rng(101 + c)
        processes = [
            BagGenMatrix.identity(c),
            mixed_identity_full(c, 0.4),
            BagGenMatrix.permutation(list(range(c, 0, -1))),
        ]
        processes += [symmetric_inclusion(rng, c) for _ in range(8)]
        processes += [random_baggen(rng, c) for _ in range(4)]
        seen = set()
        for m in processes:
            got, want = is_label_aligned_process(m), probe_oracle(m)
            assert got.aligned_so_far == want.aligned_so_far
            if want.counterexample is None:
                assert got.counterexample is None
            else:
                assert got.counterexample.probs.tobytes() == want.counterexample.probs.tobytes()
            seen.add(self._where(want))
        assert {"aligned", "vertex"} <= seen
        rows, tops, _ = theory._simplex_probes(c)
        assert not rows.flags.writeable and not tops.flags.writeable

    @pytest.mark.parametrize("chunk", [1, 7, 200])
    def test_chunk_size_does_not_change_the_verdict(self, monkeypatch, chunk):
        # symmetric processes pass the vertices and midpoints and fail at a
        # Dirichlet probe; identities pass every probe
        rng = np.random.default_rng(103)
        processes = [symmetric_inclusion(rng, int(rng.integers(3, 7))) for _ in range(40)]
        processes += [BagGenMatrix.identity(c) for c in (2, 5)]
        want = [probe_oracle(m) for m in processes]
        monkeypatch.setattr(theory, "_PROBE_CHUNK", chunk)
        for m, w in zip(processes, want):
            got = is_label_aligned_process(m)
            assert got.aligned_so_far == w.aligned_so_far
            if w.counterexample is not None:
                assert got.counterexample.probs.tobytes() == w.counterexample.probs.tobytes()
        # failures inside the first chunk of 7 and past the default chunk of 32
        at = []
        for m, w in zip(processes, want):
            if w.counterexample is not None:
                draws = np.random.default_rng(0).dirichlet(np.ones(m.c), size=theory.ALIGNMENT_PROBES)
                rows = [row.tobytes() for row in draws / draws.sum(axis=1, keepdims=True)]
                at.append(rows.index(w.counterexample.probs.tobytes()))
        assert len(at) == 40 and min(at) < 7 and max(at) >= 32

    def test_dirichlet_rows_drawn_only_when_reached(self, monkeypatch):
        # a vertex fails first, so the generator is never asked for samples
        calls = []
        original = np.random.default_rng

        def counting_rng(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        probe = is_label_aligned_process(BagGenMatrix.permutation([2, 1, 3]))
        assert not probe.aligned_so_far and calls == []
        assert is_label_aligned_process(BagGenMatrix.identity(3)).aligned_so_far
        assert len(calls) == 1


class TestRelaxed:
    def test_empty_region_equals_alignment(self):
        rng = np.random.default_rng(59)
        spec = RelaxedSpec(frozenset(), theta=0.3)
        for d in (
            aligned_point_dist(),
            misaligned_point_dist(),
            random_discrete_distribution(rng, 4, 3),
        ):
            assert check_relaxed(d, spec) == aligned_dist_oracle(d)
            assert is_label_aligned_dist(d) == aligned_dist_oracle(d)

    def test_alignment_stops_at_the_first_misaligned_atom(self, monkeypatch):
        # the bag-frequency count perfbench reports for the theory workload
        # depends on where the check stops: at the oracle's first failure
        aligned = aligned_point_dist().atoms[0]
        misaligned = misaligned_point_dist().atoms[0]
        atoms = tuple(
            Atom(np.array([float(i)]), 0.25, a.label_dist, a.baggen)
            for i, a in enumerate((aligned, aligned, misaligned, aligned))
        )
        d = DiscreteDistribution(atoms, LabelSpace(3))
        visited = []

        def recording(dist, idx):
            visited.append(idx)
            return bag_frequencies_at(dist, idx)

        monkeypatch.setattr(theory, "bag_frequencies_at", recording)
        assert not is_label_aligned_dist(d)
        assert visited == [0, 1, 2]
        assert not aligned_dist_oracle(d)

    def test_theta_one_is_vacuous_on_region(self):
        d = misaligned_point_dist()
        assert check_relaxed(d, RelaxedSpec(frozenset({0}), theta=1.0))

    def test_zero_theta_requires_exact_argmax(self):
        # the bag-frequency winner (label 1) is not in the exact argmax {3}
        d = misaligned_point_dist()
        assert not check_relaxed(d, RelaxedSpec(frozenset({0}), theta=0.0))

    def test_small_gap_is_tolerated(self):
        # frequencies favor label 2 while probabilities barely favor label 1
        d = single_atom([0.52, 0.48], BagGenMatrix.permutation([2, 1]))
        assert not is_label_aligned_dist(d)
        assert check_relaxed(d, RelaxedSpec(frozenset({0}), theta=0.05))
        assert not check_relaxed(d, RelaxedSpec(frozenset({0}), theta=0.03))

    def test_bad_index(self):
        with pytest.raises(IndexError):
            check_relaxed(aligned_point_dist(), RelaxedSpec(frozenset({5}), 0.1))

    def test_theta_above_one(self):
        with pytest.raises(ValueError, match=r"theta must be in \[0, 1\], got 1.5"):
            RelaxedSpec(frozenset(), theta=1.5)


class TestFlip:
    def test_aligned_input_unchanged(self):
        d = aligned_point_dist()
        flipped = flip_distribution(d)
        assert flipped.atoms[0] is d.atoms[0]

    def test_misaligned_fixture_flips_to_aligned(self):
        d = misaligned_point_dist()
        flipped = flip_distribution(d)
        assert is_label_aligned_dist(flipped)
        np.testing.assert_allclose(
            bag_marginal(flipped, 0), bag_marginal(d, 0), atol=1e-12
        )
        assert bayes_rule(flipped) == (frozenset({1}),)

    def test_two_atom_mixed(self):
        aligned_atom = Atom(
            np.array([0.0]),
            0.5,
            LabelDistribution(np.array([0.8, 0.1, 0.1])),
            BagGenMatrix.identity(3),
        )
        misaligned = misaligned_point_dist().atoms[0]
        shifted = Atom(np.array([1.0]), 0.5, misaligned.label_dist, misaligned.baggen)
        d = DiscreteDistribution((aligned_atom, shifted), LabelSpace(3))
        flipped = flip_distribution(d)
        for i in range(2):
            np.testing.assert_allclose(
                bag_marginal(flipped, i), bag_marginal(d, i), atol=1e-12
            )
        assert bayes_rule(flipped)[0] == bayes_rule(d)[0]
        assert bayes_rule(flipped)[1] != bayes_rule(d)[1]
        assert is_label_aligned_dist(flipped)

    def test_random_flips_align_and_preserve_marginals(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            d = random_discrete_distribution(rng, n_atoms=4, c=4)
            flipped = flip_distribution(d)
            assert is_label_aligned_dist(flipped)
            for i in range(d.n_atoms):
                np.testing.assert_allclose(
                    bag_marginal(flipped, i), bag_marginal(d, i), atol=1e-12
                )


class TestClassifierAgainstOracle:
    """PL A-kNN at each atom of a finite-support distribution converges to
    the atom's top bag-frequency labels (``advantage_report``), faster where
    the advantage is larger; where the process is not label-aligned those
    labels need not be the Bayes labels.  The distribution is the ``bench
    theory`` golden: 12 atoms on an integer grid, c = 4."""

    SIZES = (2_000, 5_000, 20_000)
    # atoms 11 (3.2e-4) and 7 (3.6e-5) lie below it: at n = 20,000 they get
    # a top label in 4 and 1 of the 5 seeds
    ADVANTAGE_FLOOR = 5e-4

    def test_labels_reach_the_top_labels(self):
        # about 0.2 s for 5 seeds at the three sizes, sampling included
        dist = load_distribution(Path(__file__).parent / "golden" / "theory" / "distribution.txt")
        entries = advantage_report(dist).entries
        locations = np.array([atom.location for atom in dist.atoms])
        labels = {}
        for n in self.SIZES:
            for seed in range(5):
                train = sample_distribution(dist, n, np.random.default_rng(seed))
                index = knn_index.build(train.features)
                config = plaknn.PlaknnConfig(T=min(400, n))
                labels[n, seed] = plaknn.classify_batch(train, index, locations, config)
        agree = [
            sum(int(y) in e.top_labels for seed in range(5) for y, e in zip(labels[n, seed], entries))
            for n in self.SIZES
        ]
        assert agree == sorted(agree) and agree[0] < agree[-1]
        largest = [labels[self.SIZES[-1], seed] for seed in range(5)]
        for i, e in enumerate(entries):
            if e.advantage > self.ADVANTAGE_FLOOR:
                assert all(int(got[i]) in e.top_labels for got in largest), i
        # not label-aligned: the top label is 1 against Bayes label 3 at
        # atom 2, and 2 against 1 at atom 5
        bayes = bayes_rule(dist)
        for i in (2, 5):
            (top,) = entries[i].top_labels
            assert top not in bayes[i]
            assert all(int(got[i]) == top for got in largest), i
