"""Domain-type invariants and the local prior evaluations."""

import dataclasses

import numpy as np
import pytest

from hbum.errors import ValidationError
from hbum.lattice import Lattice, neighbor_value_counts
from hbum.model import (
    AbundanceMatrix,
    ChainState,
    ClusterParams,
    EndmemberMatrix,
    InteractionMatrix,
    LabelField,
    ModelConfig,
    NoiseModel,
    ObservationMatrix,
    SupervisionData,
    class_log_prior_matrix,
)
from hbum.sampler import _make_precomp
from oracles import log_prior_class, potts_neighbor_count


def make_sup(labeled_idx, c, eta, n_classes, n_pixels, **kw):
    return SupervisionData.from_labels(
        np.array(labeled_idx), np.array(c), eta, n_classes, n_pixels, **kw
    )


def chain_state(**parts) -> ChainState:
    """A sound state on a 1x3 grid, with R = 2, K = 3 and J = 2, with
    ``parts`` put in place of its own."""
    lat = Lattice(1, 3)
    state = ChainState(
        A=AbundanceMatrix(np.full((2, 3), 0.5)),
        noise=NoiseModel(0.5),
        clusters=ClusterParams(np.full((3, 2), 0.5), np.ones((3, 2))),
        z=LabelField(np.array([0, 1, 2], dtype=np.int32), 3, lat),
        q=InteractionMatrix(np.full((3, 2), 1.0 / 3.0)),
        omega=LabelField(np.array([0, 1, 0], dtype=np.int32), 2, lat),
    )
    return dataclasses.replace(state, **parts)


class TestTypeInvariants:
    def test_observation_shape_must_match_lattice(self):
        obs = ObservationMatrix(np.ones((4, 5)), Lattice(2, 3))
        with pytest.raises(ValidationError):
            obs.validate()

    def test_observation_rejects_non_finite(self):
        # validate checks the shape; Y's values are checked where the scene
        # statistics read them.
        data = np.ones((2, 4))
        data[0, 1] = np.nan
        obs = ObservationMatrix(data, Lattice(2, 2))
        obs.validate()
        with pytest.raises(ValidationError, match="observations contain non-finite entries"):
            _make_precomp(obs, EndmemberMatrix(np.eye(2)))

    def test_endmembers_reject_wide_matrix(self):
        with pytest.raises(ValidationError):
            EndmemberMatrix(np.ones((2, 3))).validate()

    def test_endmembers_reject_zero_column(self):
        data = np.ones((4, 2))
        data[:, 1] = 0.0
        with pytest.raises(ValidationError):
            EndmemberMatrix(data).validate()

    def test_noise_variance_positive(self):
        with pytest.raises(ValidationError, match="noise variance must be positive"):
            chain_state(noise=NoiseModel(0.0)).validate()
        chain_state(noise=NoiseModel(0.5)).validate()

    def test_cluster_means_must_be_on_simplex(self):
        psi = np.array([[0.6, 0.6], [0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValidationError, match="cluster mean matrix rows must sum to 1"):
            chain_state(clusters=ClusterParams(psi, np.ones((3, 2)))).validate()

    def test_cluster_variances_positive(self):
        sigma2 = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValidationError, match="cluster variances must be positive"):
            chain_state(clusters=ClusterParams(np.full((3, 2), 0.5), sigma2)).validate()

    def test_label_field_range(self):
        lat = Lattice(1, 3)
        chain_state(z=LabelField(np.array([0, 1, 2], dtype=np.int32), 3, lat)).validate()
        for labels in ([0, 1, 3], [0, -1, 2]):
            z = LabelField(np.array(labels, dtype=np.int32), 3, lat)
            with pytest.raises(ValidationError, match=r"labels must lie in \[0, 3\)"):
                chain_state(z=z).validate()

    def test_interaction_columns_must_be_simplex(self):
        q = np.array([[0.25, 1.0], [0.75, 0.0], [0.0, 0.0]])
        chain_state(q=InteractionMatrix(q)).validate()
        q = np.array([[0.5, 1.0], [0.6, 0.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="interaction matrix column rows must sum"):
            chain_state(q=InteractionMatrix(q)).validate()

    def test_abundances_must_cover_the_grid(self):
        with pytest.raises(ValidationError, match="abundance columns do not match"):
            chain_state(A=AbundanceMatrix(np.full((2, 2), 0.5))).validate()

    def test_z_and_omega_share_one_grid(self):
        # Same pixel count, other shape: the fields disagree on every neighbour.
        omega = LabelField(np.array([0, 1, 0], dtype=np.int32), 2, Lattice(3, 1))
        with pytest.raises(ValidationError, match="z and omega lie on different grids"):
            chain_state(omega=omega).validate()

    def test_state_holds_only_the_parameters(self):
        names = [f.name for f in dataclasses.fields(ChainState)]
        assert names == ["A", "noise", "clusters", "z", "q", "omega"]


class TestSupervisionData:
    def test_pi_computed_from_labels(self):
        sup = make_sup([0, 1, 2, 3], [0, 0, 0, 1], 0.9, 2, 10)
        np.testing.assert_allclose(sup.pi, [0.75, 0.25])

    def test_missing_class_rejected(self):
        with pytest.raises(ValidationError):
            make_sup([0, 1], [0, 0], 0.9, 2, 10)

    def test_missing_class_allowed_when_relaxed(self):
        sup = make_sup([0, 1], [0, 0], 0.9, 2, 10, require_all_classes=False)
        np.testing.assert_allclose(sup.pi, [1.0, 0.0])

    def test_confidence_strictly_inside_unit_interval(self):
        with pytest.raises(ValidationError):
            make_sup([0, 1], [0, 1], 1.0, 2, 10)
        with pytest.raises(ValidationError):
            make_sup([0, 1], [0, 1], 0.0, 2, 10)

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValidationError):
            make_sup([3, 3], [0, 1], 0.9, 2, 10)

    def test_indices_sorted_with_labels(self):
        sup = make_sup([5, 2], [1, 0], [0.9, 0.8], 2, 10)
        assert sup.labeled_idx.tolist() == [2, 5]
        assert sup.c.tolist() == [0, 1]
        np.testing.assert_allclose(sup.eta, [0.8, 0.9])


class TestPottsNeighborCount:
    """The vectorised counts of the label sweeps; the scalar reference's
    own argument check is the last case."""

    def test_uniform_field_interior(self):
        counts = neighbor_value_counts(np.zeros((3, 3), dtype=np.int32), 2)
        assert counts[0, 1, 1] == 4

    def test_checkerboard_field_own_label(self):
        rows, cols = np.indices((3, 3))
        grid = ((rows + cols) % 2).astype(np.int32)
        counts = neighbor_value_counts(grid, 2)
        assert counts[grid[1, 1], 1, 1] == 0
        assert counts[1 - grid[1, 1], 1, 1] == 4

    def test_absent_value_counts_zero(self):
        counts = neighbor_value_counts(np.zeros((2, 2), dtype=np.int32), 5)
        assert counts[3, 0, 0] == 0

    def test_invalid_value_rejected(self):
        lat = Lattice(2, 2)
        field = LabelField(np.zeros(4, dtype=np.int32), 2, lat)
        with pytest.raises(ValidationError):
            potts_neighbor_count(field, 0, 2)


class TestClassLogPrior:
    """The (J, P) matrix the class sweeps use, checked entry by entry
    against the per-pixel reference in the last case."""

    def test_labeled_pixel_matching_label(self):
        sup = make_sup([0, 1], [0, 1], 0.95, 2, 4)
        assert class_log_prior_matrix(sup)[0, 0] == pytest.approx(np.log(0.95))

    def test_labeled_pixel_other_label_two_classes(self):
        sup = make_sup([0, 1], [0, 1], 0.95, 2, 4)
        assert class_log_prior_matrix(sup)[1, 0] == pytest.approx(np.log(0.05))

    def test_unlabeled_pixel_uses_proportions(self):
        sup = make_sup([0, 1], [0, 1], 0.95, 2, 4)
        mat = class_log_prior_matrix(sup)
        assert mat[0, 3] == pytest.approx(np.log(0.5))
        assert mat[1, 3] == pytest.approx(np.log(0.5))

    def test_labeled_weights_normalize(self):
        sup = make_sup([0, 1, 2], [0, 1, 2], 0.8, 3, 6)
        assert np.exp(class_log_prior_matrix(sup)[:, 0]).sum() == pytest.approx(1.0)

    def test_unseen_class_gets_minus_inf_when_unlabeled(self):
        sup = make_sup([0, 1], [0, 0], 0.9, 2, 6, require_all_classes=False)
        assert class_log_prior_matrix(sup)[1, 5] == -np.inf

    def test_matrix_matches_scalar(self):
        sup = make_sup([1, 4, 5], [2, 0, 1], [0.9, 0.7, 0.8], 3, 8)
        mat = class_log_prior_matrix(sup)
        for p in range(8):
            for j in range(3):
                assert mat[j, p] == pytest.approx(log_prior_class(p, j, sup))


class TestModelConfig:
    def test_defaults_valid(self):
        cfg = ModelConfig(n_clusters=3, n_classes=2, n_endmembers=3)
        cfg.validate()
        np.testing.assert_allclose(cfg.zeta, np.ones(3))
        assert cfg.xi == 1.0 and cfg.gamma == 0.1

    def test_scalar_zeta_broadcast(self):
        cfg = ModelConfig(n_clusters=4, n_classes=2, n_endmembers=3, zeta=2.0)
        np.testing.assert_allclose(cfg.zeta, np.full(4, 2.0))

    def test_invalid_fields_rejected(self):
        bad = [
            dict(n_clusters=0, n_classes=2, n_endmembers=3),
            dict(n_clusters=3, n_classes=2, n_endmembers=3, beta1=-0.1),
            dict(n_clusters=3, n_classes=2, n_endmembers=3, zeta=np.zeros(3)),
            dict(n_clusters=3, n_classes=2, n_endmembers=3, zeta=np.ones(2)),
            dict(n_clusters=3, n_classes=2, n_endmembers=3, gamma=0.0),
            dict(n_clusters=3, n_classes=2, n_endmembers=3, n_mc=0),
            dict(n_clusters=3, n_classes=2, n_endmembers=3, n_burnin=-1),
            dict(n_clusters=3, n_classes=2, n_endmembers=3, seed=-1),
        ]
        for kwargs in bad:
            with pytest.raises(ValidationError):
                ModelConfig(**kwargs).validate()
