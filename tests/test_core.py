import re

import numpy as np
import pytest

from plbag.core import (
    Atom,
    BagGenMatrix,
    DataFormatError,
    DiscreteDistribution,
    LabelDistribution,
    LabelSpace,
    PartialDataset,
    argmax_set,
    bag_marginal,
    bag_membership_matrix,
    bayes_risk,
    bayes_rule,
    canonical_bag_masks,
    label_frequencies,
    load_dataset,
    masks_to_membership,
    membership_to_masks,
    save_dataset,
)

from _fixtures import (
    aligned_point_dist,
    inclusion_pair,
    misaligned_point_dist,
    random_discrete_distribution,
    single_atom,
)


class TestLabelSpace:
    def test_bounds(self):
        assert LabelSpace(2).c == 2
        assert LabelSpace(64).c == 64
        with pytest.raises(ValueError):
            LabelSpace(1)
        with pytest.raises(ValueError):
            LabelSpace(65)
        with pytest.raises(TypeError, match="label count must be an int, got str"):
            LabelSpace("3")


class TestCanonicalOrder:
    def test_masks_ascending(self):
        assert canonical_bag_masks(2).tolist() == [1, 2, 3]

    def test_enumeration_bound(self):
        assert canonical_bag_masks(12).shape == (4095,)
        with pytest.raises(ValueError, match="bag enumeration requires c <= 12, got 13"):
            canonical_bag_masks(13)

    def test_membership_rows(self):
        memb = bag_membership_matrix(3)
        assert memb.shape == (7, 3)
        # mask 5 = {1,3} lives at row index 4
        assert memb[4].tolist() == [True, False, True]

    def test_mask_helpers_invert(self):
        rng = np.random.default_rng(3)
        memb = rng.random((20, 6)) < 0.5
        memb[:, 0] |= ~memb.any(axis=1)
        back = masks_to_membership(membership_to_masks(memb), 6)
        assert np.array_equal(memb, back)


class TestLabelDistribution:
    def test_validation(self):
        LabelDistribution(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            LabelDistribution(np.array([0.6, 0.6]))
        with pytest.raises(ValueError):
            LabelDistribution(np.array([1.2, -0.2]))

    def test_one_entry(self):
        with pytest.raises(ValueError, match="label distribution needs at least two entries"):
            LabelDistribution(np.array([1.0]))

    def test_argmax_set_ties(self):
        dist = LabelDistribution(np.array([0.4, 0.4, 0.2]))
        assert dist.argmax_set() == frozenset({1, 2})


class TestBagGenMatrix:
    def test_identity_columns(self):
        m = BagGenMatrix.identity(3)
        assert m.entries[0, 0] == 1.0  # {1} given label 1
        assert m.entries[1, 1] == 1.0  # {2} given label 2
        assert m.entries[3, 2] == 1.0  # {3} given label 3
        np.testing.assert_allclose(m.entries.sum(axis=0), 1.0)

    def test_constant_full(self):
        m = BagGenMatrix.constant_full(2)
        assert m.entries[2].tolist() == [1.0, 1.0]

    def test_permutation(self):
        m = BagGenMatrix.permutation([2, 1])
        assert m.entries[1, 0] == 1.0  # label 1 emits {2}
        assert m.entries[0, 1] == 1.0

    def test_column_sum_enforced(self):
        bad = np.zeros((3, 2))
        bad[0, 0] = 0.9
        bad[1, 1] = 1.0
        with pytest.raises(ValueError):
            BagGenMatrix(bad)

    def test_inclusion_needs_certain_anchor(self):
        with pytest.raises(ValueError):
            BagGenMatrix.independent_inclusion(np.array([[0.9, 0.1], [0.0, 1.0]]))

    @pytest.mark.parametrize(
        "entries, message",
        [
            (np.ones(3), "bag generation matrix must be two-dimensional"),
            (np.ones((1, 1)), "bag generation matrices need 2 <= c <= 12"),
            (np.zeros((3, 13)), "bag generation matrices need 2 <= c <= 12"),
            (np.zeros((4, 2)), "expected 3 bag rows for c=2, got 4"),
            # the column sums to 1, but its entries leave [0, 1]
            (np.array([[1.5, 0.0], [0.0, 1.0], [-0.5, 0.0]]), "bag probabilities must lie in [0, 1]"),
        ],
        ids=["one_dimensional", "c_1", "c_13", "row_count", "entry_range"],
    )
    def test_shape_and_range_refusals(self, entries, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            BagGenMatrix(entries)

    def test_permutation_refuses_a_repeat(self):
        with pytest.raises(ValueError, match=re.escape("perm must be a permutation of 1..c")):
            BagGenMatrix.permutation([1, 1])

    @pytest.mark.parametrize(
        "q, message",
        [
            (np.ones((2, 3)), "q must be square"),
            (np.array([[1.0, 1.5], [0.0, 1.0]]), "inclusion probabilities must lie in [0, 1]"),
        ],
        ids=["not_square", "out_of_range"],
    )
    def test_inclusion_refusals(self, q, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            BagGenMatrix.independent_inclusion(q)


class TestBagMarginal:
    def test_inclusion_pair_marginal(self):
        # two different scenarios, same bag distribution (2/9, 3/9, 4/9)
        target = np.array([2 / 9, 3 / 9, 4 / 9])
        for dist in inclusion_pair():
            np.testing.assert_allclose(bag_marginal(dist, 0), target, atol=1e-12)

    def test_identity_process_matches_label_dist(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            probs = rng.dirichlet(np.ones(3))
            d = single_atom(probs, BagGenMatrix.identity(3))
            marg = bag_marginal(d, 0)
            np.testing.assert_allclose(marg[[0, 1, 3]], probs, atol=1e-12)
            assert marg[[2, 4, 5, 6]].sum() == 0.0

    def test_misalignment_table_frequencies(self):
        freqs = label_frequencies(bag_marginal(aligned_point_dist(), 0))
        np.testing.assert_allclose(freqs, [0.6, 0.5, 0.4], atol=1e-12)

    def test_index_out_of_range(self):
        d = aligned_point_dist()
        with pytest.raises(IndexError):
            bag_marginal(d, 1)


class TestLabelFrequencies:
    def test_full_bag(self):
        marg = np.array([0.0, 0.0, 1.0])  # all mass on {1,2}
        np.testing.assert_allclose(label_frequencies(marg), [1.0, 1.0])

    def test_hand_sum(self):
        freqs = label_frequencies(np.array([2 / 9, 3 / 9, 4 / 9]))
        np.testing.assert_allclose(freqs, [6 / 9, 7 / 9], atol=1e-15)

    def test_singleton(self):
        marg = np.zeros(7)
        marg[1] = 1.0  # {2}
        np.testing.assert_allclose(label_frequencies(marg), [0.0, 1.0, 0.0])

    def test_bad_length(self):
        with pytest.raises(ValueError):
            label_frequencies(np.ones(5) / 5)


class TestBayes:
    def test_strict_argmax(self):
        d = single_atom([0.7, 0.3], BagGenMatrix.identity(2))
        assert bayes_rule(d) == (frozenset({1}),)

    def test_tie_returns_full_set(self):
        d = single_atom([0.5, 0.5], BagGenMatrix.identity(2))
        assert bayes_rule(d) == (frozenset({1, 2}),)

    def test_misaligned_point_bayes(self):
        assert bayes_rule(misaligned_point_dist()) == (frozenset({3}),)

    def test_risk_deterministic_zero(self):
        d = single_atom([1.0, 0.0], BagGenMatrix.identity(2))
        assert bayes_risk(d) == 0.0

    def test_risk_single_atom(self):
        d = single_atom([0.6, 0.4], BagGenMatrix.identity(2))
        assert bayes_risk(d) == pytest.approx(0.4, abs=1e-12)

    def test_risk_two_atoms_hand_value(self):
        m = BagGenMatrix.identity(2)
        atoms = (
            Atom(np.array([0.0]), 0.5, LabelDistribution(np.array([0.9, 0.1])), m),
            Atom(np.array([1.0]), 0.5, LabelDistribution(np.array([0.5, 0.5])), m),
        )
        d = DiscreteDistribution(atoms, LabelSpace(2))
        assert bayes_risk(d) == pytest.approx(0.3, abs=1e-12)


class TestDistributionInvariants:
    """Properties that must hold for any finite-support distribution."""

    def test_marginal_sums_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = random_discrete_distribution(rng, n_atoms=4, c=4)
            for i in range(d.n_atoms):
                assert abs(bag_marginal(d, i).sum() - 1.0) <= 1e-9

    def test_frequencies_match_double_sum(self):
        # oracle: explicit double sum over bags containing y and labels
        rng = np.random.default_rng(13)
        for _ in range(10):
            d = random_discrete_distribution(rng, n_atoms=3, c=4)
            for i in range(d.n_atoms):
                atom = d.atoms[i]
                freqs = label_frequencies(bag_marginal(d, i))
                masks = canonical_bag_masks(4)
                for y in range(1, 5):
                    total = 0.0
                    for j, mask in enumerate(masks):
                        if not (int(mask) >> (y - 1)) & 1:
                            continue
                        for lab in range(1, 5):
                            total += float(
                                atom.baggen.entries[j, lab - 1] * atom.label_dist.probs[lab - 1]
                            )
                    assert abs(freqs[y - 1] - total) <= 1e-12

    def test_risk_matches_exhaustive_rule(self):
        # oracle: risk of the argmax rule by enumeration over atoms x labels
        rng = np.random.default_rng(17)
        for _ in range(10):
            d = random_discrete_distribution(rng, n_atoms=5, c=3)
            rule = bayes_rule(d)
            total = 0.0
            for atom, labels in zip(d.atoms, rule):
                pick = min(labels)
                total += atom.mass * (1.0 - float(atom.label_dist.probs[pick - 1]))
            assert abs(bayes_risk(d) - total) <= 1e-12

    def test_mass_scaling_leaves_bayes_rule_unchanged(self):
        rng = np.random.default_rng(19)
        d = random_discrete_distribution(rng, n_atoms=4, c=3)
        scaled_masses = d.masses() * 3.7
        scaled_masses /= scaled_masses.sum()
        atoms = tuple(
            Atom(a.location, float(m), a.label_dist, a.baggen)
            for a, m in zip(d.atoms, scaled_masses)
        )
        d2 = DiscreteDistribution(atoms, d.label_space)
        assert bayes_rule(d) == bayes_rule(d2)


class TestDistinctLocations:
    @staticmethod
    def _dist(locations) -> DiscreteDistribution:
        m = BagGenMatrix.identity(2)
        mass = 1.0 / len(locations)
        return DiscreteDistribution(
            tuple(
                Atom(np.array(loc, dtype=float), mass, LabelDistribution(np.array([0.5, 0.5])), m)
                for loc in locations
            ),
            LabelSpace(2),
        )

    def test_duplicate_far_apart_in_input_order(self):
        # an 8 x 8 grid with one point repeated at both ends of the input; the
        # seven other points that share its x (or y) lie between the copies
        grid = [(float(i), float(j)) for i in range(8) for j in range(8)]
        assert self._dist(grid).n_atoms == 64
        dup = (3.0, 4.0)
        rest = [grid[k] for k in np.random.default_rng(5).permutation(64) if grid[k] != dup]
        with pytest.raises(ValueError, match="atom locations must be pairwise distinct"):
            self._dist([dup] + rest + [dup])

    def test_signed_zero_is_a_duplicate(self):
        with pytest.raises(ValueError, match="atom locations must be pairwise distinct"):
            self._dist([(0.0, 1.0), (3.0, 0.0), (-0.0, 1.0)])

    def test_shared_coordinates_are_not_duplicates(self):
        d = self._dist([(1.0, 2.0, 3.0), (1.0, 2.0, -3.0), (1.0, -2.0, 3.0), (-1.0, 2.0, 3.0)])
        assert d.n_atoms == 4

    def test_atom_refusals(self):
        half = LabelDistribution(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="atom locations must be vectors"):
            Atom(np.zeros((1, 2)), 1.0, half, BagGenMatrix.identity(2))
        with pytest.raises(ValueError, match="label distribution and bag process disagree on c"):
            Atom(np.zeros(1), 1.0, half, BagGenMatrix.identity(3))

    def test_distribution_refusals(self):
        with pytest.raises(ValueError, match="a distribution needs at least one atom"):
            DiscreteDistribution((), LabelSpace(2))
        with pytest.raises(ValueError, match="atom label distribution disagrees with label space"):
            DiscreteDistribution(self._dist([(0.0,)]).atoms, LabelSpace(3))
        mixed = self._dist([(0.0,), (1.0,)]).atoms[:1] + self._dist([(0.0, 1.0), (2.0, 3.0)]).atoms[1:]
        with pytest.raises(ValueError, match="atom locations must share one dimension"):
            DiscreteDistribution(mixed, LabelSpace(2))

    def test_nan_location_is_rejected(self):
        # the rows never reach the duplicate check, where NaN equals nothing
        with pytest.raises(ValueError, match="atom locations must be finite"):
            self._dist([(np.nan, 1.0), (np.nan, 1.0)])


class TestPartialDataset:
    def test_empty_bag_rejected(self):
        with pytest.raises(ValueError, match="bags must be nonempty"):
            PartialDataset(np.zeros((2, 1)), np.array([1, 0], dtype=np.uint64), LabelSpace(2))

    @pytest.mark.parametrize(
        "features, masks, truths, message",
        [
            (np.zeros((0, 1)), [], None, "features must be a nonempty (n, d) matrix"),
            (np.zeros((2, 1)), [1], None, "one bag mask per example is required"),
            (np.zeros((2, 1)), [1, 2], [1], "one truth per example is required"),
        ],
        ids=["empty_features", "mask_count", "truth_count"],
    )
    def test_shape_refusals(self, features, masks, truths, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            PartialDataset(features, np.array(masks, dtype=np.uint64), LabelSpace(2), truths=truths)

    def test_bag_above_c_rejected(self):
        with pytest.raises(ValueError):
            PartialDataset(np.zeros((1, 1)), np.array([4], dtype=np.uint64), LabelSpace(2))

    def test_truth_range_checked(self):
        with pytest.raises(ValueError):
            PartialDataset(
                np.zeros((1, 1)),
                np.array([1], dtype=np.uint64),
                LabelSpace(2),
                truths=np.array([3]),
            )

    def test_subset_keeps_alignment(self):
        rng = np.random.default_rng(23)
        from _fixtures import random_partial_dataset

        data = random_partial_dataset(rng, 10, 3, 4)
        sub = data.subset(np.array([7, 1, 4]))
        assert np.array_equal(sub.features[0], data.features[7])
        assert sub.bag_masks[2] == data.bag_masks[4]
        assert sub.truths[1] == data.truths[1]

    def test_immutable(self):
        data = PartialDataset(np.zeros((1, 1)), np.array([1], dtype=np.uint64), LabelSpace(2))
        with pytest.raises(ValueError):
            data.features[0, 0] = 5.0

    def test_frozen_arrays_are_shared(self):
        data = PartialDataset(
            np.zeros((3, 2)), np.array([1, 2, 3], dtype=np.uint64), LabelSpace(2), truths=[1, 2, 1]
        )
        rebagged = data.with_bags(np.array([3, 3, 3], dtype=np.uint64))
        assert np.shares_memory(rebagged.features, data.features)
        assert np.shares_memory(rebagged.truths, data.truths)
        frozen = np.ones((3, 2))
        frozen.flags.writeable = False
        assert np.shares_memory(data.with_features(frozen).features, frozen)

    def test_writable_inputs_and_views_are_copied(self):
        masks = np.array([1, 2, 3], dtype=np.uint64)
        writable = np.zeros((3, 2))
        read_only_view = writable.view()
        read_only_view.flags.writeable = False
        for features in (writable, read_only_view, writable[:, ::-1]):
            data = PartialDataset(features, masks, LabelSpace(2))
            assert not np.shares_memory(data.features, writable)
        data = PartialDataset(read_only_view, masks, LabelSpace(2))
        writable[0, 0] = 5.0
        assert data.features[0, 0] == 0.0


class TestArgmaxSet:
    def test_tolerance(self):
        assert argmax_set(np.array([0.5, 0.5 - 5e-10, 0.1])) == frozenset({1, 2})
        assert argmax_set(np.array([0.5, 0.4, 0.1])) == frozenset({1})


class TestCsvFormat:
    def _sample(self):
        rng = np.random.default_rng(29)
        from _fixtures import random_partial_dataset

        return random_partial_dataset(rng, 12, 3, 4)

    def test_roundtrip(self, tmp_path):
        data = self._sample()
        path = tmp_path / "data.csv"
        save_dataset(data, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.features, data.features)
        assert np.array_equal(loaded.bag_masks, data.bag_masks)
        assert np.array_equal(loaded.truths, data.truths)

    def test_bag_field_lists_labels_ascending(self, tmp_path):
        masks = np.array([1, 0b1101, 1 << 63 | 1, (1 << 64) - 1], dtype=np.uint64)
        data = PartialDataset(np.zeros((4, 1)), masks, LabelSpace(64))
        path = tmp_path / "data.csv"
        save_dataset(data, path)
        fields = [line.split(",")[1] for line in path.read_text().splitlines()[1:]]
        assert fields == ["1", "1;3;4", "1;64", ";".join(str(y) for y in range(1, 65))]
        assert np.array_equal(load_dataset(path).bag_masks, masks)

    def test_reemission_is_byte_identical(self, tmp_path):
        data = self._sample()
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(data, first)
        save_dataset(load_dataset(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_rejects_empty_bag(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,bag,y\n0.0,,1\n")
        with pytest.raises(DataFormatError):
            load_dataset(path)

    def test_rejects_out_of_range_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        for label in (0, 65):
            path.write_text(f"x1,bag,y\n0.0,1;{label},1\n")
            with pytest.raises(DataFormatError, match="out of range 1..64"):
                load_dataset(path)

    def test_rejects_label_above_max_labels(self, tmp_path):
        # the label is checked before it sizes a mask or a uint64 conversion
        path = tmp_path / "wide.csv"
        for text in ("x1,bag\n0.0,1;100\n1.0,2\n", "x1,bag\n0.0,1;99999999999999999999\n",
                     "x1,bag,y\n0.0,1,99999999999999999999\n"):
            path.write_text(text)
            with pytest.raises(DataFormatError, match="wide.csv: row 2"):
                load_dataset(path)

    def test_rejects_undecodable_bytes(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"x1,bag\n0.0,\xff\n")
        with pytest.raises(DataFormatError, match="bad.csv"):
            load_dataset(path)

    def test_rejects_trailing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,bag,y,z\n0.0,1,1,0\n")
        with pytest.raises(DataFormatError, match=re.escape("unexpected trailing columns ['y', 'z']")):
            load_dataset(path)

    def test_rejects_bad_truth_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,bag,y\n0.0,1,one\n")
        with pytest.raises(DataFormatError, match="bad.csv: row 2: bad truth value"):
            load_dataset(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_feature(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"x1,x2,bag\n0.0,1.0,1\n1.0,{value},2\n")
        with pytest.raises(DataFormatError, match="bad.csv: features must be finite"):
            load_dataset(path)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,bag\n0.0,0.0,1\n")
        with pytest.raises(DataFormatError):
            load_dataset(path)

    def test_infers_label_count(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x1,bag\n0.0,1;3\n1.0,2\n")
        data = load_dataset(path)
        assert data.label_space.c == 3
        assert data.truths is None
