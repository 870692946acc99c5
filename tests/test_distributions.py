"""Sampling primitives: reproducibility, distributional correctness and
parameter validation.

Statistical checks run at fixed seeds with tolerances of three standard
errors of the tested statistic (or a Kolmogorov-Smirnov test at the 1%
level), so they are deterministic in CI.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hbum.distributions import (
    make_rng,
    project_to_simplex,
    sample_categorical_gumbel,
    sample_categorical_log_many,
    sample_dirichlet,
    sample_gaussian_simplex_truncated_batch,
    sample_inverse_gamma,
)
from hbum.errors import InvalidParameterError
from oracles import sample_truncated_normal


def simplex_draw(rng, mean, var_diag, **kw):
    """One simplex-truncated draw: the batch sampler on a single row."""
    return sample_gaussian_simplex_truncated_batch(
        rng, np.asarray(mean)[None, :], np.asarray(var_diag)[None, :], **kw
    )[0]


def quadrature_truncnorm_cdf(mean, sd, lo, hi, n_grid=40001):
    """Brute-force CDF of a Gaussian restricted to [lo, hi], built by
    trapezoidal quadrature of the unnormalized density. Independent of the
    inverse-CDF machinery inside the sampler."""
    grid = np.linspace(lo, hi, n_grid)
    density = np.exp(-0.5 * ((grid - mean) / sd) ** 2)
    cum = np.concatenate([[0.0], np.cumsum((density[1:] + density[:-1]) * np.diff(grid) / 2.0)])
    cum /= cum[-1]

    def cdf(x):
        return np.interp(x, grid, cum)

    return cdf


class TestRngStreams:
    def test_same_seed_same_stream(self):
        a = make_rng(123).random(100)
        b = make_rng(123).random(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = make_rng(123, 0).random(100)
        b = make_rng(123, 1).random(100)
        assert not np.array_equal(a, b)

    def test_all_samplers_reproducible(self):
        def draw_everything(rng):
            return (
                sample_dirichlet(rng, np.array([2.0, 3.0, 1.0])),
                sample_inverse_gamma(rng, 2.0, 1.0),
                sample_categorical_log_many(rng, np.array([[0.0], [-1.0], [0.5]])),
                sample_truncated_normal(rng, 0.2, 1.0, 0.0, 1.0),
                simplex_draw(rng, np.array([0.4, 0.3, 0.3]), np.array([0.05, 0.05, 0.05])),
            )

        first = draw_everything(make_rng(9))
        second = draw_everything(make_rng(9))
        for x, y in zip(first, second):
            assert np.array_equal(x, y)


class TestDirichlet:
    def test_symmetric_mean(self):
        rng = make_rng(0)
        draws = np.array([sample_dirichlet(rng, np.ones(3)) for _ in range(100_000)])
        # component variance (1/3)(2/3)/4; three standard errors of the mean
        np.testing.assert_allclose(draws.mean(axis=0), 1.0 / 3.0, atol=2.3e-3)

    def test_count_posterior_mean(self):
        # counts (2, 0, 1) with unit prior weights: Dir(3, 1, 2)
        rng = make_rng(1)
        alpha = np.array([3.0, 1.0, 2.0])
        draws = np.array([sample_dirichlet(rng, alpha) for _ in range(100_000)])
        np.testing.assert_allclose(
            draws.mean(axis=0), alpha / alpha.sum(), atol=1.9e-3
        )

    def test_single_component_degenerate(self):
        assert sample_dirichlet(make_rng(2), np.array([5.0])) == pytest.approx(1.0)

    def test_invalid_parameters_rejected(self):
        rng = make_rng(3)
        with pytest.raises(InvalidParameterError):
            sample_dirichlet(rng, np.array([1.0, 0.0]))
        with pytest.raises(InvalidParameterError):
            sample_dirichlet(rng, np.array([1.0, -2.0]))
        with pytest.raises(InvalidParameterError):
            sample_dirichlet(rng, np.array([]))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0.05, 50.0), min_size=1, max_size=8),
        st.integers(0, 2**32 - 1),
    )
    def test_output_on_simplex(self, alpha, seed):
        draw = sample_dirichlet(make_rng(seed), np.array(alpha))
        assert np.all(draw >= 0.0)
        assert abs(draw.sum() - 1.0) <= 1e-12


class TestInverseGamma:
    def test_mean_for_finite_variance_shape(self):
        # IG(3, 2): mean 1, sd 1; three standard errors over 1e5 draws
        rng = make_rng(4)
        draws = np.array([sample_inverse_gamma(rng, 3.0, 2.0) for _ in range(100_000)])
        assert abs(draws.mean() - 1.0) < 9.5e-3

    def test_median_for_heavy_tailed_shape(self):
        # IG(2, 2) has infinite variance, so the mean check is replaced by
        # the median: analytic value 1.1916486948, three standard errors of
        # the sample median at n = 1e5 are 0.0107.
        rng = make_rng(5)
        draws = np.array([sample_inverse_gamma(rng, 2.0, 2.0) for _ in range(100_000)])
        assert abs(np.median(draws) - 1.1916486948) < 0.0107
        assert abs(draws.mean() - 2.0) < 0.25  # loose sanity bound on the heavy tail

    def test_reciprocal_is_gamma(self):
        rng = make_rng(6)
        draws = np.array([sample_inverse_gamma(rng, 3.0, 2.0) for _ in range(20_000)])
        # 1/X has a Gamma(shape, rate=scale) law
        result = stats.kstest(1.0 / draws, stats.gamma(a=3.0, scale=1.0 / 2.0).cdf)
        assert result.pvalue > 0.01

    def test_positive_output(self):
        rng = make_rng(7)
        assert all(sample_inverse_gamma(rng, 0.5, 0.1) > 0 for _ in range(100))

    def test_invalid_parameters_rejected(self):
        rng = make_rng(8)
        for shape, scale in [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)]:
            with pytest.raises(InvalidParameterError):
                sample_inverse_gamma(rng, shape, scale)


class TestCategoricalLog:
    """The chain's inverse-CDF draw; :class:`TestCategoricalGumbel` runs the
    same cases on the Gumbel-max draw of scene generation."""

    draw = staticmethod(sample_categorical_log_many)

    def test_zero_probability_entry_never_drawn(self):
        draws = self.draw(make_rng(9), np.tile([[0.0], [-np.inf]], (1, 200)))
        assert set(draws.tolist()) == {0}

    def test_equal_weights_are_fair(self):
        n = 100_000
        draws = self.draw(make_rng(10), np.zeros((2, n)))
        # three standard errors of a fair-coin frequency
        assert abs(draws.mean() - 0.5) < 3.0 * 0.5 / np.sqrt(n)

    def test_shift_invariance_is_exact(self):
        lw = np.array([[0.3], [-0.7], [1.1]])
        a = [self.draw(make_rng(11, i), lw)[0] for i in range(500)]
        b = [self.draw(make_rng(11, i), lw + 1000.0)[0] for i in range(500)]
        assert a == b

    def test_all_minus_inf_rejected(self):
        with pytest.raises(InvalidParameterError):
            self.draw(make_rng(12), np.array([[-np.inf], [-np.inf]]))
        with pytest.raises(InvalidParameterError):
            self.draw(make_rng(12), np.array([[0.0, -np.inf], [0.0, -np.inf]]))

    def test_nan_and_positive_inf_rejected(self):
        rng = make_rng(13)
        with pytest.raises(InvalidParameterError):
            self.draw(rng, np.array([[0.0], [np.nan]]))
        with pytest.raises(InvalidParameterError):
            self.draw(rng, np.array([[0.0], [np.inf]]))

    def test_batch_matches_scalar_distribution(self):
        lw = np.array([0.0, np.log(3.0)])
        n = 50_000
        rng = make_rng(14)
        draws = self.draw(rng, np.tile(lw[:, None], (1, n)))
        assert abs(draws.mean() - 0.75) < 3.0 * np.sqrt(0.75 * 0.25 / n)

    def test_frequencies_match_probabilities(self):
        # Five categories, one at zero weight and one 30 below the peak
        # (probability 9e-14, never drawn here): a chi-square test at 1%.
        lw = np.log(np.array([0.1, 1.0, 0.2, 0.3, 0.4, 0.4]))
        lw[1] = -np.inf
        lw[5] -= 30.0
        n = 200_000
        draws = self.draw(make_rng(15), np.tile(lw[:, None], (1, n)))
        counts = np.bincount(draws, minlength=lw.size)
        assert counts[1] == 0 and counts[5] == 0
        assert stats.chisquare(counts[[0, 2, 3, 4]], n * np.array([0.1, 0.2, 0.3, 0.4])).pvalue > 0.01


class TestCategoricalGumbel(TestCategoricalLog):
    draw = staticmethod(sample_categorical_gumbel)


class TestTruncatedNormal:
    def test_bounds_respected(self):
        rng = make_rng(15)
        draws = sample_truncated_normal(
            rng, np.zeros(10_000), np.ones(10_000), -0.5, 0.25
        )
        assert draws.min() >= -0.5 and draws.max() <= 0.25

    def test_central_interval_against_quadrature_oracle(self):
        rng = make_rng(16)
        draws = sample_truncated_normal(
            rng, np.full(20_000, 0.5), np.full(20_000, np.sqrt(0.5)), 0.0, 1.0
        )
        cdf = quadrature_truncnorm_cdf(0.5, np.sqrt(0.5), 0.0, 1.0)
        assert stats.kstest(draws, cdf).pvalue > 0.01

    def test_far_tail_against_quadrature_oracle(self):
        # interval entirely beyond +7 sigma exercises the rejection branch
        rng = make_rng(17)
        draws = sample_truncated_normal(
            rng, np.zeros(20_000), np.ones(20_000), 7.0, 9.0
        )
        assert draws.min() >= 7.0 and draws.max() <= 9.0
        cdf = quadrature_truncnorm_cdf(0.0, 1.0, 7.0, 9.0)
        assert stats.kstest(draws, cdf).pvalue > 0.01

    def test_left_tail_mirrors_right_tail(self):
        rng = make_rng(18)
        draws = sample_truncated_normal(
            rng, np.zeros(5_000), np.ones(5_000), -np.inf, -8.0
        )
        assert np.all(draws <= -8.0)
        assert np.all(np.isfinite(draws))

    def test_degenerate_interval_returns_bound(self):
        rng = make_rng(19)
        assert sample_truncated_normal(rng, 0.3, 1.0, 0.7, 0.7) == pytest.approx(0.7)

    def test_invalid_parameters_rejected(self):
        rng = make_rng(20)
        with pytest.raises(InvalidParameterError):
            sample_truncated_normal(rng, 0.0, 0.0, 0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            sample_truncated_normal(rng, 0.0, 1.0, 1.0, 0.0)


class TestSimplexTruncatedGaussian:
    def test_singleton_simplex(self):
        draw = simplex_draw(make_rng(21), np.array([0.4]), np.array([2.0]))
        assert draw == pytest.approx([1.0])

    def test_tiny_variance_concentrates_at_mean(self):
        center = np.full(4, 0.25)
        draw = simplex_draw(make_rng(22), center, np.full(4, 1e-8))
        np.testing.assert_allclose(draw, center, atol=1e-3)

    def test_two_component_marginal_against_oracle(self):
        # For mean (0.5, 0.5) and unit variances, the first coordinate of
        # the restricted Gaussian is a 1-D Gaussian with mean 0.5 and
        # variance 0.5 truncated to [0, 1].
        rng = make_rng(23)
        draws = np.array(
            [simplex_draw(rng, np.array([0.5, 0.5]), np.array([1.0, 1.0]))[0]
             for _ in range(20_000)]
        )
        cdf = quadrature_truncnorm_cdf(0.5, np.sqrt(0.5), 0.0, 1.0)
        assert stats.kstest(draws, cdf).pvalue > 0.01

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 6),
        st.integers(0, 2**32 - 1),
    )
    def test_output_on_simplex(self, n_dims, seed):
        rng = make_rng(seed)
        mean = rng.normal(0.3, 0.5, size=n_dims)
        var = rng.uniform(1e-4, 2.0, size=n_dims)
        draw = simplex_draw(make_rng(seed, 1), mean, var)
        assert np.all(draw >= 0.0)
        assert abs(draw.sum() - 1.0) <= 1e-12

    def test_invalid_parameters_rejected(self):
        rng = make_rng(24)
        with pytest.raises(InvalidParameterError):
            simplex_draw(rng, np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        with pytest.raises(InvalidParameterError):
            simplex_draw(rng, np.array([0.5, 0.5]), np.array([1.0, 1.0]), inner_iters=0)


class TestSimplexProjection:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=8))
    def test_projection_lands_on_simplex(self, values):
        out = project_to_simplex(np.array(values))
        assert np.all(out >= 0.0)
        assert abs(out.sum() - 1.0) <= 1e-9

    def test_interior_point_fixed(self):
        x = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(project_to_simplex(x), x, atol=1e-12)
