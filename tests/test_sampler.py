"""Gibbs sampler conditionals, initialization and the chain driver.

Conditional draws are checked against their analytic moments (or medians
where the tail is too heavy for a mean test) and against scipy reference
distributions through Kolmogorov-Smirnov tests, all at fixed seeds.
"""

import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import hbum
import hbum.sampler as sampler_mod
from hbum.distributions import make_rng
from hbum.errors import NumericalDegeneracyError, ValidationError
from hbum.lattice import Lattice
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
from hbum.sampler import (
    _class_log_partition,
    _make_precomp,
    _sample_abundances_all,
    _sample_noise_fast,
    initialize_state,
    run_chain,
    sample_class_labels,
    sample_cluster_labels,
    sample_cluster_means,
    sample_cluster_variances,
    sample_interaction_matrix,
)
from hbum.synthgen import (
    SceneSpec,
    TrainingSplit,
    default_cluster_means,
    generate_scene,
    make_endmembers,
    split_training,
)
from oracles import abundance_posterior, index, potts_neighbor_count, residual_mean_square


def build_state(a, s2, psi, sigma2, z, q, omega, lat):
    state = ChainState(
        A=AbundanceMatrix(np.array(a, dtype=np.float64)),
        noise=NoiseModel(s2),
        clusters=ClusterParams(np.array(psi, float), np.array(sigma2, float)),
        z=LabelField(np.array(z, dtype=np.int32), np.array(psi).shape[0], lat),
        q=InteractionMatrix(np.array(q, float)),
        omega=LabelField(np.array(omega, dtype=np.int32), np.array(q).shape[1], lat),
    )
    state.validate()
    return state


def tiny_problem(seed=0, height=12, width=12, n_mc=20, n_burnin=5, snr_db=25.0, **config_kw):
    """Small but complete scene plus matching config, for chain-level tests."""
    spec = SceneSpec(
        height=height,
        width=width,
        n_clusters=3,
        n_classes=2,
        n_endmembers=3,
        cluster_to_class=np.array([0, 0, 1]),
        dirichlet_means=default_cluster_means(3, 3),
        concentration=30.0,
        snr_db=snr_db,
        potts_beta=0.9,
        potts_sweeps=15,
        seed=seed,
    )
    M = make_endmembers(24, 3, make_rng(seed, 1), min_angle_deg=15.0)
    Y, a_true, z_true, omega_true, _ = generate_scene(spec, M, make_rng(seed, 2))
    sup = split_training(omega_true, TrainingSplit("top_rows", 0.25, 0.95))
    kwargs = dict(
        n_clusters=3, n_classes=2, n_endmembers=3,
        beta1=0.8, beta2=0.8, n_mc=n_mc, n_burnin=n_burnin, seed=seed + 50,
    )
    kwargs.update(config_kw)
    return Y, M, sup, ModelConfig(**kwargs)


def draw_abundance(state, pre, rng):
    """One abundance sweep; returns a copy of the first pixel's draw."""
    _sample_abundances_all(state, pre, rng)
    return state.A.data[:, 0].copy()


class _FixedNormals:
    """Generator stand-in whose standard normals are a given (P, R) matrix."""

    def __init__(self, normals):
        self.normals = normals

    def standard_normal(self, size):
        assert size == self.normals.shape
        return self.normals.copy()


class TestAbundanceConditional:
    def test_identity_closed_form(self):
        # with identity mixing, unit noise and unit cluster covariance the
        # posterior splits the difference: mean (y + psi)/2, covariance I/2.
        # Four copies of one pixel take the normal rows 0, e_1, e_2, e_3: the
        # first draw is the mean and the others minus it are the columns of
        # the factor L^-T, whose product with its transpose is the covariance.
        y = np.array([0.8, 0.1, 0.4])
        psi = np.array([0.2, 0.5, 0.3])
        lat = Lattice(1, 4)
        state = build_state(
            a=np.zeros((3, 4)), s2=1.0, psi=[psi], sigma2=[np.ones(3)],
            z=[0] * 4, q=[[1.0]], omega=[0] * 4, lat=lat,
        )
        pre = _make_precomp(ObservationMatrix(np.tile(y[:, None], (1, 4)), lat),
                            EndmemberMatrix(np.eye(3)))
        normals = np.vstack([np.zeros((1, 3)), np.eye(3)])
        _sample_abundances_all(state, pre, _FixedNormals(normals))
        mean = state.A.data[:, 0]
        factor = state.A.data[:, 1:] - mean[:, None]
        np.testing.assert_allclose(mean, (y + psi) / 2.0, atol=1e-12)
        np.testing.assert_allclose(factor @ factor.T, np.eye(3) / 2.0, atol=1e-12)
        ref_mean, ref_cov = abundance_posterior(y, np.eye(3), 1.0, psi, np.ones(3))
        np.testing.assert_allclose(ref_mean, (y + psi) / 2.0, atol=1e-12)
        np.testing.assert_allclose(ref_cov, np.eye(3) / 2.0, atol=1e-12)

    def test_prior_dominates_when_cluster_variance_vanishes(self):
        lat = Lattice(1, 1)
        psi = np.array([[0.3, 0.7]])
        state = build_state(
            a=[[0.5], [0.5]], s2=1.0, psi=psi, sigma2=[[1e-12, 1e-12]],
            z=[0], q=[[1.0]], omega=[0], lat=lat,
        )
        Y = ObservationMatrix(np.array([[5.0], [-3.0]]), lat)
        pre = _make_precomp(Y, EndmemberMatrix(np.eye(2)))
        draw = draw_abundance(state, pre, make_rng(0))
        np.testing.assert_allclose(draw, psi[0], atol=1e-4)

    def test_likelihood_dominates_when_noise_vanishes(self):
        lat = Lattice(1, 1)
        state = build_state(
            a=[[0.5], [0.5]], s2=1e-14, psi=[[0.5, 0.5]], sigma2=[[1.0, 1.0]],
            z=[0], q=[[1.0]], omega=[0], lat=lat,
        )
        y = np.array([0.9, 0.25])
        Y = ObservationMatrix(y[:, None], lat)
        pre = _make_precomp(Y, EndmemberMatrix(np.eye(2)))
        draw = draw_abundance(state, pre, make_rng(1))
        np.testing.assert_allclose(draw, y, atol=1e-5)

    def test_draw_moments_match_posterior(self):
        lat = Lattice(1, 1)
        y = np.array([0.9, 0.2])
        state = build_state(
            a=[[0.0], [0.0]], s2=0.5, psi=[[0.6, 0.4]], sigma2=[[0.2, 0.05]],
            z=[0], q=[[1.0]], omega=[0], lat=lat,
        )
        Y = ObservationMatrix(y[:, None], lat)
        M = EndmemberMatrix(np.array([[1.0, 0.3], [0.1, 0.8]]))
        pre = _make_precomp(Y, M)
        mean, cov = abundance_posterior(
            y, M.data, 0.5, state.clusters.psi[0], state.clusters.sigma2[0]
        )
        rng = make_rng(2)
        draws = np.array([draw_abundance(state, pre, rng) for _ in range(20_000)])
        tol = 4.0 * np.sqrt(np.diag(cov).max() / 20_000)
        np.testing.assert_allclose(draws.mean(axis=0), mean, atol=tol)
        np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.01)

    def test_draw_moments_match_posterior_per_pixel_across_clusters(self):
        # Three occupied clusters of unequal size with covariances a decade
        # apart, and cluster 1 empty: a block drawn for the wrong pixels or
        # with another cluster's covariance misses some pixel's moments.
        lat = Lattice(2, 3)
        z = [3, 0, 3, 2, 0, 3]
        psi = np.array([[0.6, 0.3, 0.1], [1 / 3] * 3, [0.1, 0.2, 0.7], [0.2, 0.6, 0.2]])
        sigma2 = np.array([[0.5, 0.2, 0.3], [1.0] * 3, [0.05, 0.02, 0.04], [0.005, 0.01, 0.002]])
        state = build_state(
            a=np.zeros((3, 6)), s2=0.3, psi=psi, sigma2=sigma2,
            z=z, q=[[0.25]] * 4, omega=[0] * 6, lat=lat,
        )
        m = np.array([[1.0, 0.3, 0.2], [0.1, 0.8, 0.3], [0.2, 0.1, 0.9], [0.5, 0.5, 0.4]])
        y = np.random.default_rng(8).uniform(0.0, 1.0, size=(4, 6))
        pre = _make_precomp(ObservationMatrix(y, lat), EndmemberMatrix(m))
        rng = make_rng(9)
        n_draws = 20_000
        draws = np.empty((n_draws, 3, 6))
        for i in range(n_draws):
            _sample_abundances_all(state, pre, rng)
            draws[i] = state.A.data
        for p, k in enumerate(z):
            mean, cov = abundance_posterior(y[:, p], m, 0.3, psi[k], sigma2[k])
            scale = np.diag(cov).max()
            # Five standard errors of a mean and of a sample covariance entry.
            np.testing.assert_allclose(
                draws[:, :, p].mean(axis=0), mean, atol=5.0 * np.sqrt(scale / n_draws)
            )
            np.testing.assert_allclose(
                np.cov(draws[:, :, p].T), cov, atol=5.0 * scale * np.sqrt(2.0 / n_draws)
            )


class TestNoiseConditional:
    def base_state(self, a, lat):
        return build_state(
            a=a, s2=1.0, psi=[[1.0]], sigma2=[[1.0]],
            z=[0] * lat.n_pixels, q=[[1.0]], omega=[0] * lat.n_pixels, lat=lat,
        )

    def test_single_pixel_single_band_median(self):
        # residual^2 = 2 gives IG(1.5, 1): analytic median 0.8453178681,
        # three median standard errors at n = 2e4 are 0.0202
        lat = Lattice(1, 1)
        state = self.base_state([[0.0]], lat)
        Y = ObservationMatrix(np.array([[np.sqrt(2.0)]]), lat)
        pre = _make_precomp(Y, EndmemberMatrix(np.array([[1.0]])))
        rng = make_rng(3)
        draws = np.array([_sample_noise_fast(state, pre, rng) for _ in range(20_000)])
        assert abs(np.median(draws) - 0.8453178681) < 0.0202
        result = stats.kstest(draws, stats.invgamma(1.5, scale=1.0).cdf)
        assert result.pvalue > 0.01

    def test_mean_for_larger_problem(self):
        # P*d = 8 gives shape 5; residual fixed by construction
        lat = Lattice(2, 2)
        a = np.zeros((1, 4))
        state = self.base_state(a, lat)
        Y = ObservationMatrix(np.full((2, 4), 0.5), lat)
        pre = _make_precomp(Y, EndmemberMatrix(np.ones((2, 1))))
        total_sq = 8 * 0.25
        scale = total_sq / 2.0
        expected_mean = scale / (5.0 - 1.0)
        rng = make_rng(4)
        draws = np.array([_sample_noise_fast(state, pre, rng) for _ in range(20_000)])
        sd = stats.invgamma(5.0, scale=scale).std()
        assert abs(draws.mean() - expected_mean) < 3.0 * sd / np.sqrt(20_000)

    def test_zero_residual_floors_scale(self):
        # M = e_1 makes the QR, QᵀY and the fit exact, so the residual is 0.
        lat = Lattice(1, 2)
        a = np.array([[0.25, 0.75]])
        state = self.base_state(a, lat)
        M = EndmemberMatrix(np.array([[1.0], [0.0]]))
        pre = _make_precomp(ObservationMatrix(M.data @ a, lat), M)
        assert pre.resid0 == 0.0 and sampler_mod._residual_sq(pre, a) == 0.0
        draw = _sample_noise_fast(state, pre, make_rng(5))
        assert 0.0 < draw < 1e-250

    def test_scale_matches_direct_residual_at_140_db(self, monkeypatch):
        # The expanded ||Y||² - 2<A, MᵀY> + <A, MᵀMA> cancels here by more
        # than the tolerance; the QR form does not.
        Y, M, sup, config = tiny_problem(seed=9, snr_db=140.0, n_mc=3, n_burnin=2)
        y, m = Y.data, M.data
        direct, expanded, scales = [], [], []
        real_noise, real_draw = sampler_mod._sample_noise_fast, sampler_mod.sample_inverse_gamma

        def noise_spy(state, pre, rng):
            a = state.A.data
            direct.append(residual_mean_square(y, m, a) * y.size / 2.0)
            total = np.sum(y * y) - 2.0 * np.sum(a * (m.T @ y)) + np.sum(a * (m.T @ m @ a))
            expanded.append(total / 2.0)
            return real_noise(state, pre, rng)

        def draw_spy(rng, shape, scale):
            scales.append(scale)
            return real_draw(rng, shape, scale)

        monkeypatch.setattr(sampler_mod, "_sample_noise_fast", noise_spy)
        monkeypatch.setattr(sampler_mod, "sample_inverse_gamma", draw_spy)
        run_chain(Y, M, sup, config)
        assert len(scales) == len(direct) == 5
        np.testing.assert_allclose(scales, direct, rtol=1e-6)
        assert np.max(np.abs(np.subtract(expanded, direct)) / direct) > 1e-6


class TestClusterVarianceConditional:
    def test_empty_cluster_draws_from_prior(self):
        # defaults xi = 1, gamma = 0.1: IG(1, 0.1) median 0.1442695041,
        # three median standard errors at n = 2e4 are 0.0044
        lat = Lattice(1, 4)
        state = build_state(
            a=[[0.2, 0.4, 0.6, 0.8]], s2=1.0, psi=[[1.0], [1.0]],
            sigma2=[[1.0], [1.0]], z=[0, 0, 0, 0], q=[[0.5], [0.5]],
            omega=[0] * 4, lat=lat,
        )
        config = ModelConfig(n_clusters=2, n_classes=1, n_endmembers=1)
        rng = make_rng(6)
        draws = []
        for _ in range(20_000):
            state.clusters.sigma2 = np.ones((2, 1))
            draws.append(sample_cluster_variances(state, config, rng)[1, 0])
        draws = np.array(draws)
        assert abs(np.median(draws) - 0.1442695041) < 0.0044
        result = stats.kstest(draws, stats.invgamma(1.0, scale=0.1).cdf)
        assert result.pvalue > 0.01

    def test_zero_spread_members_give_prior_scale(self):
        # four members exactly on the cluster mean: IG(3, 0.1), mean 0.05
        lat = Lattice(1, 4)
        state = build_state(
            a=[[1.0, 1.0, 1.0, 1.0]], s2=1.0, psi=[[1.0]], sigma2=[[1.0]],
            z=[0] * 4, q=[[1.0]], omega=[0] * 4, lat=lat,
        )
        config = ModelConfig(n_clusters=1, n_classes=1, n_endmembers=1)
        rng = make_rng(7)
        draws = []
        for _ in range(20_000):
            state.clusters.sigma2 = np.ones((1, 1))
            draws.append(sample_cluster_variances(state, config, rng)[0, 0])
        draws = np.array(draws)
        sd = stats.invgamma(3.0, scale=0.1).std()
        assert abs(draws.mean() - 0.05) < 3.0 * sd / np.sqrt(20_000)
        result = stats.kstest(draws, stats.invgamma(3.0, scale=0.1).cdf)
        assert result.pvalue > 0.01

    def test_posterior_tightens_with_spread(self):
        # members spread around the mean enlarge the scale: check against
        # the analytic conditional IG(n/2 + 1, 0.1 + ssq/2) by KS
        lat = Lattice(1, 4)
        a = np.array([[0.1, 0.3, 0.7, 0.9]])
        psi = np.array([[1.0]])
        state = build_state(
            a=a, s2=1.0, psi=psi, sigma2=[[1.0]],
            z=[0] * 4, q=[[1.0]], omega=[0] * 4, lat=lat,
        )
        config = ModelConfig(n_clusters=1, n_classes=1, n_endmembers=1)
        ssq = float(((a - 1.0) ** 2).sum())
        rng = make_rng(8)
        draws = []
        for _ in range(20_000):
            draws.append(sample_cluster_variances(state, config, rng)[0, 0])
        result = stats.kstest(
            np.array(draws), stats.invgamma(3.0, scale=0.1 + ssq / 2.0).cdf
        )
        assert result.pvalue > 0.01


class TestClusterMeanConditional:
    def test_concentrates_on_member_mean(self):
        n = 400
        lat = Lattice(1, n)
        target = np.array([0.2, 0.5, 0.3])
        a = np.tile(target[:, None], (1, n))
        state = build_state(
            a=a, s2=1.0, psi=[[1 / 3] * 3], sigma2=[[0.01] * 3],
            z=[0] * n, q=[[1.0]], omega=[0] * n, lat=lat,
        )
        config = ModelConfig(n_clusters=1, n_classes=1, n_endmembers=3)
        psi = sample_cluster_means(state, config, make_rng(9))
        np.testing.assert_allclose(psi[0], target, atol=3e-2)

    def test_single_dimension_forced_to_one(self):
        lat = Lattice(1, 2)
        state = build_state(
            a=[[0.7, 0.4]], s2=1.0, psi=[[1.0]], sigma2=[[1.0]],
            z=[0, 0], q=[[1.0]], omega=[0, 0], lat=lat,
        )
        config = ModelConfig(n_clusters=1, n_classes=1, n_endmembers=1)
        psi = sample_cluster_means(state, config, make_rng(10))
        assert psi[0, 0] == pytest.approx(1.0)

    def test_empty_cluster_uniform_prior(self):
        lat = Lattice(1, 2)
        rng = make_rng(11)
        draws = []
        for _ in range(3000):
            state = build_state(
                a=[[0.5, 0.5], [0.5, 0.5]], s2=1.0,
                psi=[[0.5, 0.5], [0.5, 0.5]], sigma2=np.ones((2, 2)),
                z=[0, 0], q=[[0.5], [0.5]], omega=[0, 0], lat=lat,
            )
            config = ModelConfig(n_clusters=2, n_classes=1, n_endmembers=2)
            draws.append(sample_cluster_means(state, config, rng)[1])
        draws = np.array(draws)
        # uniform simplex in 2 dims: component mean 1/2, var 1/12
        assert abs(draws[:, 0].mean() - 0.5) < 3.0 * np.sqrt(1.0 / 12.0 / 3000)

    def test_rows_stay_on_simplex(self):
        Y, M, sup, config = tiny_problem(seed=1)
        rng = make_rng(12)
        state = initialize_state(_make_precomp(Y, M), sup, config, rng)
        for _ in range(10):
            psi = sample_cluster_means(state, config, rng)
            assert np.all(psi >= 0.0)
            np.testing.assert_allclose(psi.sum(axis=1), 1.0, atol=1e-9)


class TestClusterLabelConditional:
    def test_reduces_to_mixture_responsibilities(self):
        # single pixel, flat interaction weights, no spatial coupling
        lat = Lattice(1, 1)
        a = np.array([[0.35], [0.65]])
        psi = np.array([[0.2, 0.8], [0.5, 0.5]])
        sigma2 = np.array([[0.04, 0.04], [0.09, 0.09]])
        loglik = np.array(
            [
                stats.multivariate_normal(psi[k], np.diag(sigma2[k])).logpdf(a[:, 0])
                for k in range(2)
            ]
        )
        expected = np.exp(loglik - loglik.max())
        expected /= expected.sum()
        rng = make_rng(13)
        hits = 0
        n = 4000
        for _ in range(n):
            state = build_state(
                a=a, s2=1.0, psi=psi, sigma2=sigma2,
                z=[0], q=[[0.5], [0.5]], omega=[0], lat=lat,
            )
            hits += int(sample_cluster_labels(state, rng, 0.0).labels[0] == 0)
        se = np.sqrt(expected[0] * (1 - expected[0]) / n)
        assert abs(hits / n - expected[0]) < 3.0 * se

    def test_zero_interaction_weight_never_drawn(self):
        lat = Lattice(1, 1)
        rng = make_rng(14)
        for _ in range(300):
            state = build_state(
                a=[[0.5], [0.5]], s2=1.0,
                psi=[[0.5, 0.5], [0.5, 0.5]], sigma2=np.ones((2, 2)),
                z=[0], q=[[0.0], [1.0]], omega=[0], lat=lat,
            )
            assert sample_cluster_labels(state, rng, 0.0).labels[0] == 1

    def test_strong_coupling_follows_neighborhood_majority(self):
        # 3x3 grid, all-equal likelihood and interaction terms, center
        # surrounded by label 1: exact conditional puts e^40 / (e^40 + 1)
        # on the majority at coupling 10
        lat = Lattice(3, 3)
        rng = make_rng(15)
        center = index(lat, 1, 1)
        for _ in range(300):
            labels = np.ones(9, dtype=np.int32)
            labels[center] = 0
            state = build_state(
                a=np.full((2, 9), 0.5), s2=1.0,
                psi=[[0.5, 0.5], [0.5, 0.5]], sigma2=np.ones((2, 2)),
                z=labels, q=[[0.5], [0.5]], omega=[0] * 9, lat=lat,
            )
            assert sample_cluster_labels(state, rng, 10.0).labels[center] == 1

    def test_dead_site_error_names_the_pixel(self):
        # pixel 13 of a 4x4 grid is the seventh site of its colour; its
        # class has an all-zero interaction column, so every cluster
        # log-weight there is -inf
        lat = Lattice(4, 4)
        omega = np.zeros(16, dtype=np.int32)
        omega[13] = 1
        state = build_state(
            a=np.full((2, 16), 0.5), s2=1.0,
            psi=[[0.5, 0.5], [0.5, 0.5]], sigma2=np.ones((2, 2)),
            z=[0] * 16, q=np.full((2, 2), 0.5), omega=omega, lat=lat,
        )
        state.q.q[:, 1] = 0.0
        with pytest.raises(NumericalDegeneracyError, match=r"cluster .*pixel 13\)$"):
            sample_cluster_labels(state, make_rng(16), 0.0)


class TestInteractionConditional:
    def test_posterior_mean_matches_counts(self):
        # z/omega joint counts for class 0 are (2, 0, 1): Dir(3, 1, 2)
        lat = Lattice(1, 3)
        config = ModelConfig(n_clusters=3, n_classes=1, n_endmembers=1)
        rng = make_rng(17)
        draws = []
        for _ in range(10_000):
            state = build_state(
                a=np.full((1, 3), 0.5), s2=1.0,
                psi=[[1.0]] * 3, sigma2=[[1.0]] * 3,
                z=[0, 0, 2], q=[[1 / 3]] * 3, omega=[0, 0, 0], lat=lat,
            )
            draws.append(sample_interaction_matrix(state, config, rng).q[:, 0])
        draws = np.array(draws)
        alpha = np.array([3.0, 1.0, 2.0])
        mean = alpha / alpha.sum()
        se = np.sqrt(mean * (1 - mean) / (alpha.sum() + 1) / 10_000)
        np.testing.assert_allclose(draws.mean(axis=0), mean, atol=(3 * se).max())

    def test_class_without_pixels_gets_uniform_column(self):
        lat = Lattice(1, 2)
        config = ModelConfig(n_clusters=2, n_classes=2, n_endmembers=1)
        rng = make_rng(18)
        draws = []
        for _ in range(5000):
            state = build_state(
                a=np.full((1, 2), 0.5), s2=1.0,
                psi=[[1.0]] * 2, sigma2=[[1.0]] * 2,
                z=[0, 1], q=np.full((2, 2), 0.5), omega=[0, 0], lat=lat,
            )
            draws.append(sample_interaction_matrix(state, config, rng).q[:, 1])
        draws = np.array(draws)
        assert abs(draws[:, 0].mean() - 0.5) < 3.0 * np.sqrt(1.0 / 12.0 / 5000)

    def test_columns_stay_on_simplex(self):
        lat = Lattice(1, 3)
        config = ModelConfig(n_clusters=2, n_classes=2, n_endmembers=1)
        state = build_state(
            a=np.full((1, 3), 0.5), s2=1.0, psi=[[1.0]] * 2, sigma2=[[1.0]] * 2,
            z=[0, 1, 1], q=np.full((2, 2), 0.5), omega=[0, 1, 0], lat=lat,
        )
        q = sample_interaction_matrix(state, config, make_rng(19)).q
        np.testing.assert_allclose(q.sum(axis=0), 1.0, atol=1e-12)


def three_pixel_supervision():
    """1x3 strip: pixels 0 and 1 labeled with classes 0 and 1, pixel 2 free."""
    return SupervisionData.from_labels(
        np.array([0, 1]), np.array([0, 1]), 0.9, 2, 3
    )


class TestClassLabelConditional:
    def test_unlabeled_weights_proportional_to_q_times_pi(self):
        lat = Lattice(1, 3)
        w1 = class_log_prior_matrix(three_pixel_supervision())
        q = np.array([[0.7, 0.2], [0.3, 0.8]])
        config = ModelConfig(n_clusters=2, n_classes=2, n_endmembers=1, beta2=0.0)
        # pixel 2 sits in cluster 1: P(class 1) = 0.8 / (0.3 + 0.8)
        expected = 0.8 / 1.1
        rng = make_rng(20)
        hits = 0
        n = 5000
        for _ in range(n):
            state = build_state(
                a=np.full((1, 3), 0.5), s2=1.0, psi=[[1.0]] * 2,
                sigma2=[[1.0]] * 2, z=[0, 1, 1], q=q, omega=[0, 1, 0], lat=lat,
            )
            hits += int(sample_class_labels(state, config, rng, w1, 0.0).labels[2] == 1)
        assert abs(hits / n - expected) < 3.0 * np.sqrt(expected * (1 - expected) / n)

    def test_total_confidence_pins_expert_labels(self):
        lat = Lattice(1, 3)
        sup = SupervisionData.from_labels(
            np.array([0, 1]), np.array([0, 1]), 1.0 - 1e-9, 2, 3
        )
        w1 = class_log_prior_matrix(sup)
        q = np.array([[0.5, 0.5], [0.5, 0.5]])
        config = ModelConfig(n_clusters=2, n_classes=2, n_endmembers=1, beta2=0.0)
        rng = make_rng(21)
        for _ in range(2000):
            state = build_state(
                a=np.full((1, 3), 0.5), s2=1.0, psi=[[1.0]] * 2,
                sigma2=[[1.0]] * 2, z=[0, 1, 0], q=q, omega=[1, 0, 0], lat=lat,
            )
            omega = sample_class_labels(state, config, rng, w1, 0.0)
            assert omega.labels[0] == 0 and omega.labels[1] == 1

    def test_cluster_side_normalizer_is_one_without_coupling(self):
        lat = Lattice(2, 2)
        state = build_state(
            a=np.full((1, 4), 0.5), s2=1.0, psi=[[1.0]] * 3, sigma2=[[1.0]] * 3,
            z=[0, 1, 2, 0], q=np.array([[0.2, 0.5], [0.3, 0.25], [0.5, 0.25]]),
            omega=[0, 1, 0, 1], lat=lat,
        )
        log_partition = _class_log_partition(state, 0.0)
        np.testing.assert_allclose(log_partition, 0.0, atol=1e-12)

    def test_cluster_side_normalizer_matches_brute_force(self):
        rng = np.random.default_rng(22)
        lat = Lattice(3, 4)
        n_clusters, n_classes = 3, 2
        z = rng.integers(0, n_clusters, lat.n_pixels).astype(np.int32)
        q_cols = rng.dirichlet(np.ones(n_clusters), size=n_classes).T
        state = build_state(
            a=np.full((1, lat.n_pixels), 0.5), s2=1.0,
            psi=[[1.0]] * n_clusters, sigma2=[[1.0]] * n_clusters,
            z=z, q=q_cols, omega=[0] * lat.n_pixels, lat=lat,
        )
        beta1 = 0.8
        log_partition = _class_log_partition(state, beta1)
        for p in range(lat.n_pixels):
            for j in range(n_classes):
                total = sum(
                    q_cols[k, j]
                    * np.exp(beta1 * potts_neighbor_count(state.z, p, k))
                    for k in range(n_clusters)
                )
                assert log_partition[j, p] == pytest.approx(np.log(total), rel=1e-10)

    def test_all_zero_interaction_row_raises(self):
        lat = Lattice(1, 3)
        sup = three_pixel_supervision()
        config = ModelConfig(n_clusters=2, n_classes=2, n_endmembers=1, beta2=0.0)
        state = build_state(
            a=np.full((1, 3), 0.5), s2=1.0, psi=[[1.0]] * 2, sigma2=[[1.0]] * 2,
            z=[1, 1, 1], q=np.array([[1.0, 1.0], [0.0, 0.0]]),
            omega=[0, 1, 0], lat=lat,
        )
        with pytest.raises(NumericalDegeneracyError):
            sample_class_labels(state, config, make_rng(23), class_log_prior_matrix(sup), 0.0)


class TestInitializeState:
    def test_expert_labels_seed_omega(self):
        Y, M, sup, config = tiny_problem(seed=2)
        state = initialize_state(_make_precomp(Y, M), sup, config, make_rng(24))
        np.testing.assert_array_equal(state.omega.labels[sup.labeled_idx], sup.c)

    def test_cluster_means_on_simplex(self):
        Y, M, sup, config = tiny_problem(seed=3)
        state = initialize_state(_make_precomp(Y, M), sup, config, make_rng(25))
        assert np.all(state.clusters.psi >= 0.0)
        np.testing.assert_allclose(state.clusters.psi.sum(axis=1), 1.0, atol=1e-9)

    def test_fixed_seed_reproducible(self):
        Y, M, sup, config = tiny_problem(seed=4)
        pre = _make_precomp(Y, M)
        a = initialize_state(pre, sup, config, make_rng(26))
        b = initialize_state(pre, sup, config, make_rng(26))
        assert np.array_equal(a.A.data, b.A.data)
        assert np.array_equal(a.z.labels, b.z.labels)
        assert np.array_equal(a.q.q, b.q.q)
        assert np.array_equal(a.omega.labels, b.omega.labels)

    def test_more_clusters_than_pixels_rejected(self):
        lat = Lattice(2, 2)
        Y = ObservationMatrix(np.random.default_rng(0).random((3, 4)), lat)
        M = EndmemberMatrix(np.random.default_rng(1).random((3, 2)) + 0.1)
        sup = SupervisionData.from_labels(np.array([0, 1]), np.array([0, 1]), 0.9, 2, 4)
        bad = ModelConfig(
            n_clusters=5, n_classes=2, n_endmembers=2, n_mc=1, n_burnin=0
        )
        with pytest.raises(ValidationError):
            initialize_state(_make_precomp(Y, M), sup, bad, make_rng(27))


class TestRunChain:
    def test_two_runs_identical(self):
        Y, M, sup, config = tiny_problem(seed=6)
        est1, trace1 = run_chain(Y, M, sup, config)
        est2, trace2 = run_chain(Y, M, sup, config)
        assert np.array_equal(est1.A.data, est2.A.data)
        assert np.array_equal(est1.z.labels, est2.z.labels)
        assert np.array_equal(est1.omega.labels, est2.omega.labels)
        assert np.array_equal(trace1.z_counts, trace2.z_counts)
        assert est1.noise.s2 == est2.noise.s2

    def test_single_recorded_sweep_is_the_estimate(self):
        # replicate the chain by hand (same seed, documented op order: the
        # abundance normals from child 0 of the chain generator's seed sequence,
        # every other draw from the chain generator) and check the one
        # recorded sample is returned untouched
        Y, M, sup, config = tiny_problem(seed=7, n_mc=1, n_burnin=2)
        est, trace = run_chain(Y, M, sup, config)
        assert trace.n_recorded == 1

        rng = make_rng(config.seed)
        normals = make_rng(config.seed).spawn(1)[0]
        pre = sampler_mod._make_precomp(Y, M)
        state = initialize_state(pre, sup, config, rng)
        w1 = class_log_prior_matrix(sup)
        for it in range(3):
            beta1 = config.beta1 if it < 2 else 0.0
            sampler_mod._sample_abundances_all(state, pre, normals)
            sampler_mod._sample_noise_fast(state, pre, rng)
            sample_cluster_means(state, config, rng)
            sample_cluster_variances(state, config, rng)
            sample_cluster_labels(state, rng, beta1)
            sample_interaction_matrix(state, config, rng)
            sample_class_labels(state, config, rng, w1, beta1)
        assert np.array_equal(est.A.data, state.A.data)
        assert est.noise.s2 == state.noise.s2
        assert np.array_equal(est.z.labels, state.z.labels)
        assert np.array_equal(est.omega.labels, state.omega.labels)
        assert np.array_equal(est.q.q, state.q.q)

    @pytest.mark.parametrize("seed, n_mc, n_burnin", [(7, 6, 3), (8, 1, 0), (9, 4, 1), (10, 2, 5)])
    def test_pass_two_on_the_helper_changes_nothing(self, monkeypatch, seed, n_mc, n_burnin):
        # Pass 2 of the statistics run on the helper during init, or already
        # run in this thread (as sweep-corruption's parent does before its
        # pool forks): every bit and the chain generator's end state agree,
        # and each sweep draws its normals inline with no other thread alive.
        import threading

        Y, M, sup, config = tiny_problem(seed=seed, n_mc=n_mc, n_burnin=n_burnin)
        seen = []
        original = sampler_mod._sample_abundances_all

        def spy(state, pre, normals):
            seen.append((type(normals).__name__, threading.active_count()))
            return original(state, pre, normals)

        monkeypatch.setattr(sampler_mod, "_sample_abundances_all", spy)
        start = threading.active_count()
        runs = []
        for formed in (False, True):
            pre = sampler_mod._make_precomp(Y, M)
            if formed:
                pre.resid0
            rng = make_rng(config.seed)
            seen.clear()
            est, trace = run_chain(pre, None, sup, config, rng)
            assert seen == [("Generator", start)] * (n_mc + n_burnin)
            runs.append((est, trace, rng.bit_generator.state))
        (est0, trace0, state0), (est, trace, state) = runs
        for got, want in [
            (est.A.data, est0.A.data), (est.clusters.psi, est0.clusters.psi),
            (est.clusters.sigma2, est0.clusters.sigma2), (est.q.q, est0.q.q),
            (est.z.labels, est0.z.labels), (est.omega.labels, est0.omega.labels),
            (trace.z_counts, trace0.z_counts), (trace.omega_counts, trace0.omega_counts),
            (trace.a_sum, trace0.a_sum),
        ]:
            assert got.tobytes() == want.tobytes()
        assert est.noise.s2 == est0.noise.s2
        assert state == state0

    def test_helper_thread_ends_on_return_and_on_error(self, monkeypatch):
        import threading

        # Pass 2 of the scene statistics runs on the helper while init runs;
        # the helper is joined before the first sweep, so none outlives init.
        Y, M, sup, config = tiny_problem(seed=7, n_mc=3, n_burnin=2)
        start = threading.active_count()
        in_init, during = [], []
        kmeans_labels, original = sampler_mod._kmeans_labels, sampler_mod.sample_cluster_means

        def counted_kmeans(a, n_clusters, rng):
            in_init.append(threading.active_count())
            return kmeans_labels(a, n_clusters, rng)

        def means(state, config, rng):
            during.append(threading.active_count())
            return original(state, config, rng)

        monkeypatch.setattr(sampler_mod, "_kmeans_labels", counted_kmeans)
        monkeypatch.setattr(sampler_mod, "sample_cluster_means", means)
        run_chain(Y, M, sup, config)
        assert in_init == [start + 1]
        assert during == [start] * 5
        assert threading.active_count() == start

        # Statistics whose residual is already formed start no helper.
        pre = sampler_mod._make_precomp(Y, M)
        pre.resid0
        in_init.clear()
        run_chain(pre, None, sup, config)
        assert in_init == [start]

        sweeps = []

        def failing(state, config, rng):
            sweeps.append(rng)
            if len(sweeps) == 3:  # the third sweep, sweep 2
                raise NumericalDegeneracyError("cluster means degenerate")
            return original(state, config, rng)

        monkeypatch.setattr(sampler_mod, "sample_cluster_means", failing)
        with pytest.raises(NumericalDegeneracyError,
                           match=r"^sweep 2, cluster_means: cluster means degenerate$"):
            run_chain(Y, M, sup, config)
        assert threading.active_count() == start

        # initialize_state fails while pass 2 of the scene statistics, slowed
        # down after its last block, is still running on the helper.
        blocks, passes, done = ObservationMatrix.band_blocks, [], threading.Event()

        def slow_blocks(self, n_rows):
            passes.append(threading.current_thread())
            yield from blocks(self, n_rows)
            if len(passes) == 2:
                time.sleep(0.3)
                done.set()

        def kmeans(a, n_clusters, rng):
            assert not done.is_set() and threading.active_count() == start + 1
            raise ValidationError("k-means failed")

        monkeypatch.setattr(ObservationMatrix, "band_blocks", slow_blocks)
        monkeypatch.setattr(sampler_mod, "_kmeans_labels", kmeans)
        with pytest.raises(ValidationError, match="^k-means failed$"):
            run_chain(Y, M, sup, config)
        assert done.is_set() and passes == [threading.main_thread()] * 2
        assert threading.active_count() == start

    def test_concurrent_chains_under_a_short_switch_interval(self):
        # Three chains on three threads, each handing pass 2 of its scene
        # statistics to its own helper, with the interpreter switching threads
        # every microsecond: every chain still gives the bits of a plain run.
        import sys
        import threading

        Y, M, sup, config = tiny_problem(seed=9, n_mc=8, n_burnin=2)
        want = run_chain(Y, M, sup, config)[0].A.data.tobytes()
        results = []

        def one_chain():
            results.append(run_chain(Y, M, sup, config)[0].A.data.tobytes())

        threads = [threading.Thread(target=one_chain) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [want] * 3

    def test_rerun_from_a_restored_generator_repeats_the_chain(self):
        # The normals come from child 0 of the generator's seed sequence
        # however often it was spawned from: restoring the bit-generator
        # state replays the chain, and run_chain spawns nothing.
        Y, M, sup, config = tiny_problem(seed=7, n_mc=3, n_burnin=2)
        rng = make_rng(config.seed)
        saved = rng.bit_generator.state
        first = run_chain(Y, M, sup, config, rng)[0].A.data.tobytes()
        rng.bit_generator.state = saved
        assert run_chain(Y, M, sup, config, rng)[0].A.data.tobytes() == first
        assert rng.bit_generator.seed_seq.n_children_spawned == 0

    def test_rank_deficient_endmembers_run_to_the_end(self):
        Y, M, sup, config = tiny_problem(seed=10, n_mc=5, n_burnin=2)
        m = M.data.copy()
        m[:, 1] = m[:, 0]
        est, trace = run_chain(Y, EndmemberMatrix(m), sup, config)
        assert trace.n_recorded == 5
        assert np.isfinite(est.A.data).all() and est.noise.s2 > 0.0

    def test_trace_counts_sum_to_recorded(self):
        Y, M, sup, config = tiny_problem(seed=8, n_mc=13, n_burnin=4)
        _, trace = run_chain(Y, M, sup, config)
        assert trace.n_recorded == 13
        np.testing.assert_array_equal(trace.z_counts.sum(axis=0), 13)
        np.testing.assert_array_equal(trace.omega_counts.sum(axis=0), 13)
        freq = trace.omega_frequencies()
        np.testing.assert_allclose(freq.sum(axis=0), 1.0, atol=1e-12)

    def test_estimates_satisfy_invariants(self):
        Y, M, sup, config = tiny_problem(seed=9)
        est, _ = run_chain(Y, M, sup, config)
        est.validate()
        np.testing.assert_allclose(est.q.q.sum(axis=0), 1.0, atol=1e-9)

    def test_coupling_dropped_after_burn_in(self, monkeypatch):
        Y, M, sup, config = tiny_problem(seed=10, n_mc=3, n_burnin=2)
        seen = []
        original = sampler_mod.sample_cluster_labels

        def spy(state, rng, beta1):
            seen.append(beta1)
            return original(state, rng, beta1)

        monkeypatch.setattr(sampler_mod, "sample_cluster_labels", spy)
        run_chain(Y, M, sup, config)
        assert seen == [config.beta1, config.beta1, 0.0, 0.0, 0.0]

    def test_neighbor_counts_called_through_sampler(self, monkeypatch):
        # Profilers count neighbor-count calls by wrapping this module's
        # name. A burn-in sweep makes two calls for the cluster field, one
        # for the class-side normalizer and two for the class field; a
        # recorded sweep (beta1 off) makes the two class-field calls. A
        # field's calls count one colour each; the normalizer counts the
        # whole grid.
        Y, M, sup, config = tiny_problem(seed=10, n_mc=3, n_burnin=2)
        assert config.beta1 > 0.0 and config.beta2 > 0.0
        original = sampler_mod.neighbor_value_counts
        calls = []

        def spy(grid, n_values, color=None):
            calls.append(color)
            return original(grid, n_values, color)

        monkeypatch.setattr(sampler_mod, "neighbor_value_counts", spy)
        run_chain(Y, M, sup, config)
        assert len(calls) == 2 * 5 + 3 * 2
        assert calls[:5] == [0, 1, None, 0, 1] and calls[-2:] == [0, 1]

    def test_debug_validation_runs_clean(self):
        Y, M, sup, config = tiny_problem(seed=11, n_mc=5, n_burnin=2)
        run_chain(Y, M, sup, config, debug_validate=True)

    def test_dimension_mismatch_rejected(self):
        Y, M, sup, config = tiny_problem(seed=12)
        bad = ModelConfig(n_clusters=3, n_classes=2, n_endmembers=2, n_mc=2, n_burnin=0)
        for observed in (Y, _make_precomp(Y, M)):
            with pytest.raises(ValidationError, match="config expects 2 endmembers"):
                run_chain(observed, M, sup, bad)

    def test_scene_statistics_validate_y_and_m(self):
        Y, M, _, _ = tiny_problem(seed=12)
        with pytest.raises(ValidationError, match="24 bands but endmembers have 23"):
            _make_precomp(Y, EndmemberMatrix(M.data[:-1]))
        with pytest.raises(ValidationError, match="more endmembers"):
            _make_precomp(ObservationMatrix(Y.data[:2], Y.lattice), EndmemberMatrix(M.data[:2]))
        with pytest.raises(ValidationError, match="non-finite"):
            _make_precomp(ObservationMatrix(Y.data * np.inf, Y.lattice), M)

    @pytest.mark.parametrize("override", [None, [0.2, 0.8]])
    def test_scene_statistics_stand_in_for_y(self, override):
        # A chain handed _make_precomp(Y, M) gives the bits of one handed Y.
        Y, M, sup, config = tiny_problem(seed=15, n_mc=3, n_burnin=1)
        config.pi_override = None if override is None else np.array(override)
        est, trace = run_chain(Y, M, sup, config)
        shared, shared_trace = run_chain(_make_precomp(Y, M), M, sup, config)
        for got, want in [
            (shared.A.data, est.A.data), (shared.clusters.psi, est.clusters.psi),
            (shared.clusters.sigma2, est.clusters.sigma2), (shared.q.q, est.q.q),
            (shared.z.labels, est.z.labels), (shared.omega.labels, est.omega.labels),
            (shared_trace.a_sum, trace.a_sum), (shared_trace.psi_sum, trace.psi_sum),
            (shared_trace.sigma2_sum, trace.sigma2_sum), (shared_trace.q_sum, trace.q_sum),
            (shared_trace.z_counts, trace.z_counts),
            (shared_trace.omega_counts, trace.omega_counts),
        ]:
            assert got.tobytes() == want.tobytes()
        assert shared.noise.s2 == est.noise.s2
        assert shared_trace.s2_sum == trace.s2_sum
        assert shared_trace.n_recorded == trace.n_recorded == 3

    def test_pi_override_used(self):
        # The override must act exactly as a supervision set carrying it.
        Y, M, sup, config = tiny_problem(seed=14, n_mc=3, n_burnin=1)
        override = np.array([0.2, 0.8])
        assert not np.allclose(sup.pi, override)
        plain, _ = run_chain(Y, M, sup, config)
        config.pi_override = override
        est, _ = run_chain(Y, M, sup, config)
        est.validate()
        config.pi_override = None
        replaced = SupervisionData(
            sup.labeled_idx, sup.c, sup.eta, override, sup.n_classes, sup.n_pixels
        )
        ref, _ = run_chain(Y, M, replaced, config)
        for got, want in [
            (est.A.data, ref.A.data), (est.clusters.psi, ref.clusters.psi),
            (est.clusters.sigma2, ref.clusters.sigma2), (est.q.q, ref.q.q),
            (est.z.labels, ref.z.labels), (est.omega.labels, ref.omega.labels),
        ]:
            assert got.tobytes() == want.tobytes()
        assert est.noise.s2 == ref.noise.s2
        assert est.omega.labels.tobytes() != plain.omega.labels.tobytes()


def run_child_script(script, **env):
    """``python -c script`` in a fresh process that imports this ``hbum``;
    returns its stdout."""
    env = dict(os.environ, **env)
    src = str(Path(hbum.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


CHAIN_SCRIPT = """
import numpy as np
from hbum.lattice import Lattice
from hbum.model import EndmemberMatrix, ModelConfig, ObservationMatrix, SupervisionData
from hbum.sampler import _make_precomp, _residual_sq, run_chain

gen = np.random.default_rng(1)
lat = Lattice({height}, {width})
n = lat.n_pixels
m = gen.uniform(0.05, 1.0, size=({bands}, {dims}))
a = gen.dirichlet(np.ones({dims}), size=n).T
y = m @ a + gen.normal(scale=0.01, size=({bands}, n))
pre = _make_precomp(ObservationMatrix(y, lat), EndmemberMatrix(m))
sup = SupervisionData.from_labels(np.arange(0, n, 4), np.arange(n // 4) % {classes}, 0.9,
                                  {classes}, n)
config = ModelConfig(n_clusters={clusters}, n_classes={classes}, n_endmembers={dims},
                     n_burnin=1, n_mc=2)
"""


class TestChainInChildProcesses:
    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
    def test_results_ignore_the_blas_thread_count(self):
        # OpenBLAS splits a long dot product across its threads, so a sum of
        # squares by np.vdot took other last bits on one thread than on two.
        script = CHAIN_SCRIPT.format(height=100, width=100, bands=64, dims=3, clusters=3,
                                     classes=2) + (
            "est, _ = run_chain(pre, None, sup, config)\n"
            "print(pre.resid0.hex(), _residual_sq(pre, a).hex(), est.noise.s2.hex())\n"
            "for arr in (est.A.data, est.clusters.psi, est.clusters.sigma2, est.q.q,\n"
            "            est.z.labels, est.omega.labels):\n"
            "    print(np.ascontiguousarray(arr).tobytes().hex())\n"
        )
        outs = [run_child_script(script, OPENBLAS_NUM_THREADS=t) for t in ("1", "2")]
        assert outs[0] == outs[1]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc's page faults")
    def test_second_chain_reuses_heap_pages(self):
        # glibc's mmap threshold decides whether the sweeps' temporaries
        # reuse heap pages or fault in fresh ones on every sweep. Over a
        # scene-2-sized chain (P = 40 000, K = 12, R = 9) of three sweeps,
        # a second chain took about 200 minor faults with run_chain's freed
        # 28 MiB block and about 5 000 without it.
        script = CHAIN_SCRIPT.format(height=200, width=200, bands=16, dims=9, clusters=12,
                                     classes=5) + (
            "import resource\n"
            "run_chain(pre, None, sup, config)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "run_chain(pre, None, sup, config)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        faults = int(run_child_script(script).split()[-1])
        assert faults < 1500
