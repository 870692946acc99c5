"""Evaluation metrics: hand-computed values and structural properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from hbum.errors import ValidationError
from hbum.lattice import Lattice
from hbum.metrics import (
    ConfusionMatrix,
    align_clusters,
    aligned_cluster_accuracy,
    cohen_kappa,
    rgmse,
)
from hbum.model import AbundanceMatrix, LabelField


def field(values, domain, width=None):
    values = np.asarray(values, dtype=np.int32)
    width = width or values.size
    return LabelField(values, domain, Lattice(values.size // width, width))


class TestRgmse:
    def test_identical_matrices(self):
        a = AbundanceMatrix(np.random.default_rng(0).random((3, 5)))
        assert rgmse(a, AbundanceMatrix(a.data.copy())) == 0.0

    def test_single_entry(self):
        a = AbundanceMatrix(np.array([[0.7]]))
        b = AbundanceMatrix(np.array([[0.5]]))
        assert rgmse(a, b) == pytest.approx(0.2)

    def test_hand_computed_two_by_two(self):
        # difference matrix of all 0.1 entries: sqrt((1/4) * 4 * 0.01) = 0.1
        a = AbundanceMatrix(np.full((2, 2), 0.6))
        b = AbundanceMatrix(np.full((2, 2), 0.5))
        assert rgmse(a, b) == pytest.approx(0.1)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            rgmse(AbundanceMatrix(np.ones((2, 3))), AbundanceMatrix(np.ones((3, 2))))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        x, y, z = (AbundanceMatrix(rng.normal(size=(3, 4))) for _ in range(3))
        assert rgmse(x, z) <= rgmse(x, y) + rgmse(y, z) + 1e-12


class TestCohenKappa:
    def test_perfect_agreement(self):
        assert cohen_kappa(ConfusionMatrix(np.diag([7, 3, 5]))) == pytest.approx(1.0)

    def test_chance_agreement(self):
        cm = ConfusionMatrix(np.array([[25, 25], [25, 25]]))
        assert cohen_kappa(cm) == pytest.approx(0.0)

    def test_hand_computed_value(self):
        # p_o = 0.9, p_e = 0.5 -> kappa = 0.8
        cm = ConfusionMatrix(np.array([[45, 5], [5, 45]]))
        assert cohen_kappa(cm) == pytest.approx(0.8)

    def test_relabeling_invariance(self):
        counts = np.array([[40, 3, 7], [2, 30, 8], [5, 5, 50]])
        perm = np.array([2, 0, 1])
        permuted = counts[np.ix_(perm, perm)]
        assert cohen_kappa(ConfusionMatrix(permuted)) == pytest.approx(
            cohen_kappa(ConfusionMatrix(counts))
        )

    def test_kappa_one_iff_diagonal(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            counts = rng.integers(0, 20, size=(3, 3))
            if counts.sum() == 0:
                continue
            kappa = cohen_kappa(ConfusionMatrix(counts))
            off_diag = counts.sum() - np.trace(counts)
            if off_diag == 0:
                assert kappa == pytest.approx(1.0)
            else:
                assert kappa < 1.0

    def test_single_class_both_axes(self):
        cm = ConfusionMatrix(np.array([[10, 0], [0, 0]]))
        assert cohen_kappa(cm) == 1.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValidationError):
            cohen_kappa(ConfusionMatrix(np.zeros((2, 2), dtype=int)))


class TestConfusionMatrix:
    def test_from_labels_counts(self):
        truth = field([0, 0, 1, 1], 2)
        pred = field([0, 1, 1, 1], 2)
        cm = ConfusionMatrix.from_labels(truth, pred)
        np.testing.assert_array_equal(cm.counts, [[1, 1], [0, 2]])
        assert cm.n_total == 4

    def test_pixel_subset(self):
        truth = field([0, 0, 1, 1], 2)
        pred = field([0, 1, 1, 0], 2)
        cm = ConfusionMatrix.from_labels(truth, pred, np.array([0, 2]))
        np.testing.assert_array_equal(cm.counts, [[1, 0], [0, 1]])


class TestAlignClusters:
    def test_identity_when_equal(self):
        z = field([0, 1, 2, 0, 1, 2], 3)
        np.testing.assert_array_equal(align_clusters(z, z), [0, 1, 2])

    def test_recovers_swap(self):
        true = field([0, 1, 0, 1, 2, 2], 3)
        swapped = field([1, 0, 1, 0, 2, 2], 3)
        np.testing.assert_array_equal(align_clusters(swapped, true), [1, 0, 2])
        assert aligned_cluster_accuracy(swapped, true) == pytest.approx(1.0)

    def test_field_size_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="field sizes"):
            align_clusters(field([0, 1, 2, 0], 3), field([0, 1, 2, 0, 1, 2], 3))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    def test_matched_fraction_at_least_uniform(self, seed, n_clusters):
        rng = np.random.default_rng(seed)
        n = 60
        true = field(rng.integers(0, n_clusters, n), n_clusters)
        pred = field(rng.integers(0, n_clusters, n), n_clusters)
        assert aligned_cluster_accuracy(pred, true) >= 1.0 / n_clusters - 1e-12

    @pytest.mark.parametrize(
        "z_hat, n_hat, n_true, perm, accuracy",
        [
            # K_hat < K_true: true cluster 1 is left unmatched.
            ([1, 1, 0, 0, 0, 1], 2, 3, [2, 0], 4 / 6),
            # K_hat > K_true: estimated label 2 maps to -1 and counts as wrong.
            ([0, 0, 2, 1, 1, 1], 3, 2, [0, 1, -1], 5 / 6),
        ],
        ids=["fewer_estimated", "more_estimated"],
    )
    def test_rectangular_alignment(self, z_hat, n_hat, n_true, perm, accuracy):
        true = field([0, 0, 1, 2, 2, 2], 3) if n_true == 3 else field([0, 0, 0, 1, 1, 1], 2)
        np.testing.assert_array_equal(align_clusters(field(z_hat, n_hat), true), perm)
        assert aligned_cluster_accuracy(field(z_hat, n_hat), true) == pytest.approx(accuracy)

    def test_matched_count_is_scipy_optimum(self):
        # 3 000 count matrices of 1-13 estimated by 1-13 true labels, one in
        # five a single row or a single column, with counts of 0-4 so that
        # ties abound. The pixels of each are laid out as the fields whose
        # co-occurrence counts they are.
        rng = np.random.default_rng(30)
        shapes = set()
        for trial in range(3000):
            n_hat, n_true = rng.integers(1, 14, size=2)
            if trial % 10 == 0:
                n_hat = 1
            elif trial % 10 == 1:
                n_true = 1
            co = rng.integers(0, rng.integers(1, 6), size=(n_hat, n_true))
            co.flat[rng.integers(co.size)] += 1  # a field holds at least one pixel
            cells = np.repeat(np.arange(co.size), co.ravel())
            z_hat, z_true = field(cells // n_true, n_hat), field(cells % n_true, n_true)
            perm = align_clusters(z_hat, z_true)
            kept = np.flatnonzero(perm >= 0)
            assert perm.shape == (n_hat,) and kept.size == min(n_hat, n_true)
            assert np.unique(perm[kept]).size == kept.size  # injective
            assert -1 <= perm.min() and perm.max() < n_true
            rows, cols = linear_sum_assignment(co, maximize=True)
            assert co[kept, perm[kept]].sum() == co[rows, cols].sum()
            assert aligned_cluster_accuracy(z_hat, z_true) == co[rows, cols].sum() / co.sum()
            shapes.add((np.sign(n_hat - n_true), n_hat == 1, n_true == 1))
        assert {(-1, True, False), (1, False, True), (-1, False, False), (1, False, False),
                (0, False, False), (0, True, True)} <= shapes
