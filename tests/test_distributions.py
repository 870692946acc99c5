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
from scipy.special import erfc, erfcinv

from hbum.distributions import (
    _TAIL_THRESHOLD,
    _truncnorm_central,
    _truncnorm_tail,
    make_rng,
    project_to_simplex,
    sample_categorical_log_many,
    sample_dirichlet,
    sample_gaussian_simplex_truncated_batch,
    sample_inverse_gamma,
)
from hbum.errors import InvalidParameterError, NumericalDegeneracyError
import oracles
from oracles import sample_truncated_normal


def simplex_draw(rng, mean, var_diag, inner_iters=5):
    """One simplex-truncated draw: the batch sampler on a single row, started
    from the mean's projection onto the simplex."""
    mean = np.asarray(mean)
    return sample_gaussian_simplex_truncated_batch(
        rng, mean[None, :], np.asarray(var_diag)[None, :], inner_iters,
        project_to_simplex(mean)[None, :],
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
        with pytest.raises(InvalidParameterError):
            sample_dirichlet(rng, np.array([[1.0, 2.0], [1.0, np.nan]]))
        with pytest.raises(InvalidParameterError):
            sample_dirichlet(rng, np.ones((2, 2, 2)))

    @pytest.mark.parametrize("n_dims", [2, 3, 12])
    def test_matrix_draw_equals_sequential_rows(self, n_dims):
        alpha = np.random.default_rng(n_dims).uniform(0.2, 5.0, size=(40, n_dims))
        rng_rows, rng_seq = make_rng(n_dims), make_rng(n_dims)
        rows = sample_dirichlet(rng_rows, alpha)
        seq = np.stack([sample_dirichlet(rng_seq, a) for a in alpha])
        assert rows.tobytes() == seq.tobytes()
        assert rng_rows.bit_generator.state == rng_seq.bit_generator.state

    def test_only_an_underflowed_row_is_redrawn(self):
        class UnderflowOnce:
            """Generator stand-in whose first Gamma draws of row 1 are all 0."""

            def __init__(self, seed):
                self._rng = make_rng(seed)
                self.shapes = []

            def standard_gamma(self, shape):
                self.shapes.append(np.array(shape))
                g = self._rng.standard_gamma(shape)
                if len(self.shapes) == 1:
                    g[1] = 0.0
                return g

        alpha = np.array([[2.0, 3.0, 1.0], [0.5, 0.5, 0.5], [4.0, 1.0, 1.0]])
        stub, ref = UnderflowOnce(4), make_rng(4)
        out = sample_dirichlet(stub, alpha)
        first, redraw = ref.standard_gamma(alpha), ref.standard_gamma(alpha[[1]])
        first[1] = redraw[0]
        assert len(stub.shapes) == 2 and stub.shapes[1].tobytes() == alpha[[1]].tobytes()
        assert out.tobytes() == (first / first.sum(axis=1, keepdims=True)).tobytes()

    def test_underflow_everywhere_raises(self):
        with pytest.raises(NumericalDegeneracyError, match="underflowed"):
            sample_dirichlet(make_rng(6), np.full((3, 2), 1e-300))

    @pytest.mark.parametrize("alpha", [np.array([5.0]), np.full((4, 1), 0.3)])
    def test_single_component_uses_no_draws(self, alpha):
        rng = make_rng(2)
        state = rng.bit_generator.state
        assert sample_dirichlet(rng, alpha).tobytes() == np.ones(alpha.shape).tobytes()
        assert rng.bit_generator.state == state

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
    same cases on the Gumbel-max reference draw that the Potts maps of scene
    generation are checked against."""

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
    draw = staticmethod(oracles.categorical_gumbel)


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


def erfcinv_truncnorm(u, lo, hi):
    """Inverse-CDF truncated-normal draws for given uniforms, through scipy's
    erfc and erfcinv on the upper-tail probabilities."""
    pl = 0.5 * erfc(lo / np.sqrt(2.0))  # P(X > lo)
    pu = 0.5 * erfc(hi / np.sqrt(2.0))
    return np.sqrt(2.0) * erfcinv(2.0 * (pl - (pl - pu) * u))


def central_draws(rng, lo, hi):
    """``_truncnorm_central`` on (n,) bounds, one uniform each."""
    return np.array([_truncnorm_central(a, b, u) for a, b, u in zip(lo, hi, rng.random(lo.size))])


def standard_draws(rng, lo, hi, n):
    """``n`` standard-normal draws on [lo, hi], by the primitive the simplex
    sampler's scan picks for that interval."""
    if lo > _TAIL_THRESHOLD:
        return np.array([_truncnorm_tail(rng, lo, hi) for _ in range(n)])
    if hi < -_TAIL_THRESHOLD:
        return -np.array([_truncnorm_tail(rng, -hi, -lo) for _ in range(n)])
    return central_draws(rng, np.full(n, lo), np.full(n, hi))


class ConstantUniforms:
    """Stands in for a generator whose every uniform is ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self, size):
        return np.full(size, self.value)


class TestTruncatedNormalQuantiles:
    """The central draws take their upper-tail probabilities from
    ``math.erfc`` and their quantiles from ``NormalDist.inv_cdf``; they
    agree with the erfc/erfcinv formula and with scipy's truncated normal."""

    N = 4000
    gen = np.random.default_rng(20)
    lo = gen.uniform(-6.0, 6.0, N)
    INTERVALS = {
        "central": (lo, lo + gen.exponential(2.0, N)),
        "upper one-sided": (lo, np.full(N, np.inf)),
        "lower one-sided": (np.full(N, -np.inf), lo),
        "narrow": (lo, lo + 1e-8),
        "bounds at +-6": (np.full(N, -6.0), np.full(N, 6.0)),
    }

    @pytest.mark.parametrize("case", list(INTERVALS))
    def test_matches_erfcinv_formula(self, case):
        lo, hi = self.INTERVALS[case]
        expected = erfcinv_truncnorm(make_rng(7).random(lo.size), lo, hi)
        actual = central_draws(make_rng(7), lo, hi)
        np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12)

    def test_certain_edges_give_infinities_like_erfcinv(self):
        # An upper-tail probability of 0 or 1 has no finite quantile.
        lo, hi = np.array([40.0, -np.inf]), np.array([np.inf, -40.0])
        actual = central_draws(make_rng(1), lo, hi)
        assert actual.tolist() == [np.inf, -np.inf]
        assert erfcinv_truncnorm(make_rng(1).random(2), lo, hi).tolist() == [np.inf, -np.inf]

    @pytest.mark.parametrize("u, expected", [(0.0, [0.0, 1.0]), (1.0, [1.0, 0.0])])
    def test_infinite_draws_are_clipped_to_the_bounds(self, u, expected):
        # sd is 7e-4, so each bound is hundreds of sd away: P(X > lo) = 1 and
        # P(X > hi) = 0, and the uniform 0 (or 1) gives q = 1 (or 0).
        means = np.array([[0.45, 0.55]])  # on the simplex: its own start
        draw = sample_gaussian_simplex_truncated_batch(
            ConstantUniforms(u), means, np.full((1, 2), 1e-6), 5, means
        )
        assert draw.tolist() == [expected]

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (-1.0, 2.0),
            (0.5, np.inf),
            (-np.inf, -0.3),
            (0.3, 0.3 + 1e-8),
            (-6.0, 6.0),
            (30.0, np.inf),
            (-31.0, -30.0),
        ],
    )
    def test_ks_against_scipy_truncnorm(self, lo, hi):
        n = 4000
        draws = standard_draws(make_rng(5), lo, hi, n)
        assert np.all((draws >= lo) & (draws <= hi))
        assert stats.kstest(draws, stats.truncnorm(lo, hi).cdf).pvalue > 0.01


    @pytest.mark.parametrize("side", ["right", "left"])
    def test_simplex_tail_draws_against_scipy_truncnorm(self, side):
        # With the start (0, 1) and one scan, each row's first coordinate is
        # one draw from N(mean, 5e-7) on [0, 1], its mean 14 sd outside.
        n = 4000
        m0, m1 = (-0.01, 1.01) if side == "right" else (1.01, -0.01)
        means, var = np.tile([m0, m1], (n, 1)), np.full((n, 2), 1e-6)
        x = sample_gaussian_simplex_truncated_batch(
            make_rng(6), means, var, inner_iters=1, init=np.tile([0.0, 1.0], (n, 1))
        )[:, 0]
        mean, sd = 0.5 * (m0 + 1.0 - m1), np.sqrt(5e-7)
        lo, hi = (0.0 - mean) / sd, (1.0 - mean) / sd
        assert min(abs(lo), abs(hi)) > _TAIL_THRESHOLD
        assert np.all((x >= 0.0) & (x <= 1.0))
        assert stats.kstest((x - mean) / sd, stats.truncnorm(lo, hi).cdf).pvalue > 0.01


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_init_rejected(self, bad):
        # A non-finite start would propagate into the draw without a warning.
        init = np.array([[0.2, 0.3, 0.5], [bad, 0.5, 0.5]])
        rng = make_rng(25)
        state = rng.bit_generator.state
        with pytest.raises(InvalidParameterError, match="init must be finite"):
            sample_gaussian_simplex_truncated_batch(
                rng, np.full((2, 3), 0.3), np.full((2, 3), 0.1), 5, init
            )
        assert rng.bit_generator.state == state


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
