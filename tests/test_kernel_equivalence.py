"""The optimised hot-path kernels against their references in ``oracles``.

Every case runs the kernel and its reference on generators with the same
seed and requires the same generator state after. Kernels that only move
or re-lay values must return the same bits. The abundance draw and the
cluster log-likelihood run their arithmetic as GEMMs, so they are held to
a tolerance from the rounding analysis of that arithmetic instead.
"""

import copy

import numpy as np
import pytest

import oracles
import hbum.sampler as sampler_mod
from hbum.distributions import (
    make_rng,
    project_to_simplex,
    sample_categorical_log_many,
    sample_gaussian_simplex_truncated_batch,
)
from hbum.errors import InvalidParameterError, NumericalDegeneracyError, ValidationError
from hbum.io import ObservationFile, write_matrix
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
)
from hbum.sampler import (
    SIGMA2_FLOOR,
    _gaussian_cluster_loglik,
    _make_precomp,
    _residual_sq,
    _sample_abundances_all,
    initialize_state,
    Trace,
    run_chain,
    sample_class_labels,
    sample_cluster_labels,
    sample_cluster_variances,
    sample_interaction_matrix,
)

SHAPES = [(1, 1), (1, 9), (5, 7), (12, 12)]
CHOICES = [1, 2, 12]


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def log_weights(n_choices, n_sites, seed, minus_inf_share=0.0):
    gen = np.random.default_rng(seed)
    lw = gen.normal(scale=3.0, size=(n_choices, n_sites)) - 40.0
    if minus_inf_share and n_choices > 1:
        dead = gen.random((n_choices, n_sites)) < minus_inf_share
        dead[gen.integers(n_choices, size=n_sites), np.arange(n_sites)] = False
        lw[dead] = -np.inf
    return lw


class TestCategorical:
    @pytest.mark.parametrize(
        "bad, message",
        [(np.nan, r"\[-inf, inf\)"), (np.inf, r"\[-inf, inf\)"), (-np.inf, "all categorical")],
    )
    def test_same_errors_and_no_draws_consumed(self, bad, message):
        lw = log_weights(3, 4, seed=1)
        lw[:, 2] = bad
        for kernel in (
            sample_categorical_log_many, oracles.categorical_inverse_cdf,
            oracles.categorical_gumbel,
        ):
            rng = make_rng(9)
            state = rng.bit_generator.state
            with pytest.raises(InvalidParameterError, match=message):
                kernel(rng, lw)
            assert rng.bit_generator.state == state


class TestCategoricalInverseCdf:
    @pytest.mark.parametrize("n_choices", CHOICES)
    @pytest.mark.parametrize("n_sites", [0, 1, 7, 5000])
    @pytest.mark.parametrize("minus_inf_share", [0.0, 0.4])
    @pytest.mark.parametrize("scale", [3.0, 800.0])
    def test_matches_cumsum_reference(self, n_choices, n_sites, minus_inf_share, scale):
        # At scale 800 most shifted log-weights sit below the -700 floor.
        lw = log_weights(n_choices, n_sites, seed=n_sites, minus_inf_share=minus_inf_share)
        lw *= scale / 3.0
        before = lw.copy()
        rng_new, rng_ref = make_rng(7 + n_choices), make_rng(7 + n_choices)
        assert_same_bits(
            sample_categorical_log_many(rng_new, lw), oracles.categorical_inverse_cdf(rng_ref, lw)
        )
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        assert_same_bits(lw, before)  # the caller's weights are left alone

    @pytest.mark.parametrize("dead", ["first", "middle", "last"])
    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
    def test_zero_weight_never_drawn_at_extreme_uniforms(self, dead, u):
        class ConstantUniform:
            """Generator stand-in whose every uniform is ``u``."""

            def random(self, size):
                return np.full(size, u)

        # Sites: comparable log-weights; one row at the peak and the others
        # below the -700 floor; comparable log-weights with a run of two
        # -inf rows. Every site has the row named by ``dead`` at -inf.
        lw = np.array([
            [-1.0, -900.0, -2.0],
            [-0.5, 0.0, -1.0],
            [-2.0, -750.0, -0.5],
            [-1.5, -1e5, -1.5],
            [-0.2, -800.0, -2.5],
        ])
        row = {"first": 0, "middle": 2, "last": 4}[dead]
        lw[row] = -np.inf
        lw[row + (1 if row == 0 else -1), 2] = -np.inf
        draws = sample_categorical_log_many(ConstantUniform(), lw)
        assert_same_bits(draws, oracles.categorical_inverse_cdf(ConstantUniform(), lw))
        finite = lw > -np.inf
        assert np.all(finite[draws, np.arange(3)])
        if u == 0.0:  # the first row with any weight
            assert_same_bits(draws, np.argmax(finite, axis=0))
        else:  # the last one, where no row is below the floor
            last = lw.shape[0] - 1 - np.argmax(finite[::-1], axis=0)
            assert draws[0] == last[0] and draws[2] == last[2]
            assert draws[1] == 1

    def test_no_warnings_past_the_double_range(self):
        # A finite log-weight more than DBL_MAX below its site's maximum.
        lw = np.array([[1e308, 0.0], [-1e308, -np.inf], [0.0, 1.0]])
        with np.errstate(all="raise"):
            draws = sample_categorical_log_many(make_rng(3), lw)
        assert draws.tolist() == [0, 2]


class TestCategoricalScratch:
    """Drawing on weights the caller hands over as scratch, and handing out
    the uniforms in a given site order."""

    @pytest.mark.parametrize("n_choices", [1, 2, 3, 12])
    @pytest.mark.parametrize("n_sites", [1, 7, 5000])
    @pytest.mark.parametrize("minus_inf_share", [0.0, 0.4])
    def test_scratch_draw_matches_copy_draw(self, n_choices, n_sites, minus_inf_share):
        lw = log_weights(n_choices, n_sites, seed=n_sites + n_choices,
                         minus_inf_share=minus_inf_share)
        lw[:, ::3] *= 800.0 / 3.0  # below the -700 floor
        scratch = lw.copy()
        rng_new, rng_ref = make_rng(n_choices), make_rng(n_choices)
        got = sample_categorical_log_many(rng_new, scratch, overwrite=True)
        assert got.dtype == np.intp
        assert_same_bits(got, sample_categorical_log_many(rng_ref, lw))
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        assert not np.array_equal(scratch, lw)  # the weights were formed in place

    @pytest.mark.parametrize("n_choices", [1, 2, 3, 12])
    def test_uniforms_go_out_in_order(self, n_choices):
        # One draw with ``order`` equals a draw per block of ``order``, in turn.
        lw = log_weights(n_choices, 101, seed=n_choices, minus_inf_share=0.4)
        order = np.random.default_rng(n_choices).permutation(101)
        rng_new, rng_ref = make_rng(5), make_rng(5)
        got = sample_categorical_log_many(rng_new, lw.copy(), overwrite=True, order=order)
        want = np.empty(101, dtype=np.intp)
        for block in (order[:40], order[40:]):
            want[block] = sample_categorical_log_many(rng_ref, lw[:, block])
        assert_same_bits(got, want)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("ordered", [False, True])
    def test_rejected_call_leaves_weights_and_generator(self, bad, ordered):
        lw = log_weights(3, 6, seed=2, minus_inf_share=0.3)
        if bad == -np.inf:
            lw[:, 4] = bad  # a site with no finite weight
        else:
            lw[1, 4] = bad
        scratch, rng = lw.copy(), make_rng(9)
        state = rng.bit_generator.state
        with pytest.raises(InvalidParameterError):
            sample_categorical_log_many(
                rng, scratch, overwrite=True, order=np.arange(6)[::-1] if ordered else None
            )
        assert_same_bits(scratch, lw)
        assert rng.bit_generator.state == state


class TestCategoricalLayout:
    @pytest.mark.parametrize("n_choices", CHOICES)
    def test_draws_do_not_depend_on_layout(self, n_choices):
        wide = log_weights(n_choices, 1002, seed=n_choices, minus_inf_share=0.3)
        lw = wide[:, ::2].copy()
        layouts = {"C": lw, "F": np.asfortranarray(lw), "strided": wide[:, ::2]}
        assert n_choices == 1 or not layouts["F"].flags.c_contiguous
        results = {}
        for name, weights in layouts.items():
            rng = make_rng(4)
            results[name] = (sample_categorical_log_many(rng, weights), rng.bit_generator.state)
        for name in ("F", "strided"):
            assert_same_bits(results[name][0], results["C"][0])
            assert results[name][1] == results["C"][1]


class TestSimplexTruncated:
    """The batch sampler's row-wise scan against two references that form
    each coordinate's conditional afresh. Without a draw past the tail
    threshold it must give the bits and the generator state of the
    by-coordinate reference, whose uniform order it keeps; with one, those
    of the row-wise reference, whose tail draws follow the uniform block."""

    @staticmethod
    def case(n_batch, n_dims, seed, var_range=(1e-6, 2.0), dirichlet=False):
        gen = np.random.default_rng(seed)
        if dirichlet:  # means on the simplex, as a chain's cluster means are
            means = gen.dirichlet(np.ones(n_dims), size=n_batch)
        else:
            means = gen.normal(0.3, 0.6, size=(n_batch, n_dims))
        # Log-uniform variances down to 1e-6 put many standardized bounds
        # beyond the +-6 tail threshold.
        var = np.exp(gen.uniform(*np.log(var_range), size=(n_batch, n_dims)))
        if seed % 3:
            init = gen.dirichlet(np.ones(n_dims), size=n_batch)
        else:  # the means' projection onto the simplex
            init = np.stack([project_to_simplex(m) for m in means])
        return means, var, init

    @pytest.mark.parametrize("n_batch, n_dims, var_range, dirichlet", [
        pytest.param(3, 3, (1e-6, 2.0), False, id="3-3"),
        pytest.param(12, 9, (1e-6, 2.0), False, id="12-9"),
        # Scene 2: 12 cluster means over 9 endmembers, variances sigma2 / n_k.
        pytest.param(12, 9, (5e-6, 2e-5), False, id="12-9-scene2"),
        # Means on the simplex: most cases make no tail draw.
        pytest.param(3, 3, (1e-5, 1e-2), True, id="3-3-simplex"),
        pytest.param(12, 9, (1e-3, 1.0), True, id="12-9-simplex"),
    ])
    def test_same_bits(self, monkeypatch, n_batch, n_dims, var_range, dirichlet):
        import hbum.distributions as dist

        tails = []
        tail = dist._truncnorm_tail

        def counting_tail(rng, lo, hi):
            tails.append(lo)
            return tail(rng, lo, hi)

        monkeypatch.setattr(dist, "_truncnorm_tail", counting_tail)
        without_tails = 0
        for seed in range(200):
            means, var, init = self.case(n_batch, n_dims, seed, var_range, dirichlet)
            before = len(tails)
            rng_new, rng_rows = make_rng(seed), make_rng(seed)
            got = sample_gaussian_simplex_truncated_batch(rng_new, means, var, 3, init)
            ref = oracles.sample_gaussian_simplex_truncated_rows(rng_rows, means, var, 3, init)
            assert_same_bits(got, ref)
            assert rng_new.bit_generator.state == rng_rows.bit_generator.state
            if len(tails) == before:
                without_tails += 1
                rng_ref = make_rng(seed)
                ref = oracles.sample_gaussian_simplex_truncated_batch(rng_ref, means, var, 3, init)
                assert_same_bits(got, ref)
                assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        if dirichlet:
            assert without_tails > 100
        else:
            assert len(tails) > 50

    @pytest.mark.parametrize("u", [0.0, 0.5])
    def test_stand_in_generator_with_only_random(self, u):
        class ConstantUniforms:
            def random(self, size):
                return np.full(size, u)

        # Row 0 is central; row 1's first coordinate lies 14 sd below its
        # interval, so it is a right-tail draw.
        means = np.array([[0.45, 0.55], [-0.01, 1.01]])
        var = np.full((2, 2), 1e-6)
        init = np.stack([project_to_simplex(m) for m in means])
        got = sample_gaussian_simplex_truncated_batch(ConstantUniforms(), means, var, 2, init)
        ref = oracles.sample_gaussian_simplex_truncated_rows(
            ConstantUniforms(), means, var, 2, init
        )
        assert_same_bits(got, ref)
        assert np.all(got >= 0.0) and np.all(np.abs(got.sum(axis=1) - 1.0) <= 1e-12)

    @pytest.mark.parametrize(
        "change",
        ["zero variance", "infinite variance", "subnormal variance", "nan mean",
         "shape mismatch", "inner_iters 0", "init shape", "init outside", "init nan"],
    )
    def test_same_rejections(self, change):
        means, var, init = self.case(4, 3, seed=1)
        kwargs = {"inner_iters": 2, "init": init}
        if change == "zero variance":
            var[1, 2] = 0.0
        elif change == "infinite variance":
            var[0, 0] = np.inf
        elif change == "subnormal variance":
            var[2, 1] = 1e-310  # 1/var overflows: the conditional's sd is 0
        elif change == "nan mean":
            means[3, 0] = np.nan
        elif change == "shape mismatch":
            var = var[:, :2]
        elif change == "inner_iters 0":
            kwargs["inner_iters"] = 0
        elif change == "init shape":
            kwargs["init"] = init[:, :2]
        elif change == "init nan":
            kwargs["init"] = np.array([[0.2, 0.3, 0.5]] * 3 + [[np.nan, 0.5, 0.5]])
        else:  # coordinate 1's budget x_1 + x_2 is negative
            kwargs["init"] = np.array([[0.3, -0.6, 0.1]] + [[0.2, 0.3, 0.5]] * 3)
        with pytest.raises(InvalidParameterError):
            sample_gaussian_simplex_truncated_batch(make_rng(0), means, var, **kwargs)
        for oracle in (oracles.sample_gaussian_simplex_truncated_batch,
                       oracles.sample_gaussian_simplex_truncated_rows):
            with np.errstate(all="ignore"), pytest.raises(InvalidParameterError):
                oracle(make_rng(0), means, var, **kwargs)


def loglik_case(n_clusters, n_dims, n_pixels, seed):
    gen = np.random.default_rng(seed)
    a = gen.dirichlet(np.ones(n_dims), size=n_pixels).T.copy()
    psi = gen.dirichlet(np.ones(n_dims), size=n_clusters)
    sigma2 = gen.uniform(1e-4, 0.1, size=(n_clusters, n_dims))
    return a, psi, sigma2, gen


class TestClusterLoglik:
    """The GEMM form adds the 2R products ``-a_r²/(2 sigma2_r)`` and
    ``a_r psi_r / sigma2_r`` to a constant holding ``-psi_r²/(2 sigma2_r)``.
    Their magnitudes sum to at most ``S/2``, ``S = sum_r (|a_r| +
    |psi_r|)² / sigma2_r``, and each carries a few roundings from its
    operands plus at most 2R from the sum, so an entry is off by at most
    ``(R + 1) eps S / 2`` to first order: below ``8 eps S`` for R <= 14.

    The ``same_bits`` tests keep the names and cases they had while the
    kernel matched the direct form bit for bit, so their ids stay
    comparable; they now hold it to that bound."""

    @staticmethod
    def assert_within_rounding_bound(a, psi, sigma2):
        got = _gaussian_cluster_loglik(a, psi, sigma2)
        ref = oracles.gaussian_cluster_loglik(a, psi, sigma2)
        spread = (np.abs(a)[None] + np.abs(psi)[:, :, None]) ** 2 / sigma2[:, :, None]
        bound = 8.0 * np.finfo(np.float64).eps * spread.sum(axis=1)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= bound)

    @pytest.mark.parametrize("n_clusters", CHOICES)
    @pytest.mark.parametrize("n_dims", [1, 3, 9])
    def test_same_bits(self, n_clusters, n_dims):
        a, psi, sigma2, _ = loglik_case(n_clusters, n_dims, 501, seed=n_clusters * 10 + n_dims)
        self.assert_within_rounding_bound(a, psi, sigma2)

    @pytest.mark.parametrize("n_pixels", [1, 2, 8191, 8192, 8193, 16385, 40000])
    @pytest.mark.parametrize("n_dims", [1, 3, 12])
    def test_same_bits_across_tile_edges(self, n_pixels, n_dims):
        # The widths straddle the 8192-column tiles of the former kernel;
        # they also cover one- and two-column products and scene-2 width.
        a, psi, sigma2, _ = loglik_case(4, n_dims, n_pixels, seed=n_pixels + n_dims)
        self.assert_within_rounding_bound(a, psi, sigma2)

    @pytest.mark.parametrize("n_clusters", CHOICES)
    @pytest.mark.parametrize("n_dims", [1, 3, 9, 12])
    @pytest.mark.parametrize("n_pixels", [1, 2, 501])
    def test_within_rounding_bound_at_sigma2_floor(self, n_clusters, n_dims, n_pixels):
        # The variance draw's floor: the products reach 1e12 and cancel.
        a, psi, sigma2, gen = loglik_case(
            n_clusters, n_dims, n_pixels, seed=n_clusters * 1000 + n_dims * 10 + n_pixels
        )
        sigma2[gen.random(sigma2.shape) < 0.5] = SIGMA2_FLOOR
        sigma2[0, 0] = SIGMA2_FLOOR
        self.assert_within_rounding_bound(a, psi, sigma2)


def abundance_case(shape, n_dims, labels, n_clusters, seed, s2=1e-3):
    """A chain state and its constants for one abundance sweep."""
    gen = np.random.default_rng(seed)
    lat = Lattice(*shape)
    n_pixels = lat.n_pixels
    m = gen.uniform(0.05, 1.0, size=(24, n_dims))
    a = gen.dirichlet(np.ones(n_dims), size=n_pixels).T.copy()
    Y = ObservationMatrix(m @ a + gen.normal(scale=1e-2, size=(24, n_pixels)), lat)
    state = ChainState(
        A=AbundanceMatrix(a),
        noise=NoiseModel(s2),
        clusters=ClusterParams(
            gen.dirichlet(np.ones(n_dims), size=n_clusters),
            gen.uniform(1e-3, 0.05, size=(n_clusters, n_dims)),
        ),
        z=LabelField(np.asarray(labels, dtype=np.int32), n_clusters, lat),
        q=InteractionMatrix(np.full((n_clusters, 1), 1.0 / n_clusters)),
        omega=LabelField(np.zeros(n_pixels, dtype=np.int32), 1, lat),
    )
    state.validate()
    return state, _make_precomp(Y, EndmemberMatrix(m))


def random_labels(n_pixels, n_clusters, seed):
    return np.random.default_rng(seed).integers(n_clusters, size=n_pixels)


class TestAbundances:
    CASES = {
        "one cluster": ((20, 30), 3, random_labels(600, 1, 0), 1),
        "empty clusters": ((20, 30), 3, 2 * random_labels(600, 3, 1), 6),
        "single-pixel clusters": ((1, 7), 3, [4, 0, 6, 2, 1, 5, 3], 7),
        "some single-pixel clusters": ((5, 7), 4, [0] * 20 + [1] * 13 + [2, 3], 4),
        "1x1 lattice": ((1, 1), 3, [0], 1),
        "1x1 lattice, empty clusters": ((1, 1), 3, [2], 4),
        "one endmember": ((12, 12), 1, random_labels(144, 3, 2), 3),
        "scene-2 sized": ((200, 200), 9, random_labels(40000, 12, 3), 12),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_triangular_solves(self, case):
        # The GEMMs multiply by the inverse factor where the reference
        # solves with the factor: well-conditioned precisions agree to a
        # few ulps of the largest abundance.
        shape, n_dims, labels, n_clusters = self.CASES[case]
        state, pre = abundance_case(shape, n_dims, labels, n_clusters, seed=len(case))
        ref_state = copy.deepcopy(state)
        for sweep in range(2):
            noise = make_rng(sweep).standard_normal(state.A.data.shape[::-1])
            want = noise.tobytes()
            _sample_abundances_all(state, pre, noise)
            oracles.sample_abundances_all(ref_state, pre, noise)
            atol = 1e-12 * np.abs(ref_state.A.data).max()
            np.testing.assert_allclose(state.A.data, ref_state.A.data, rtol=0.0, atol=atol)
            assert noise.tobytes() == want  # both kernels only read the block

    @pytest.mark.parametrize("case", ["empty clusters", "scene-2 sized"])
    def test_stacked_factor_equals_per_cluster_factors(self, case, monkeypatch):
        # The sweep factors the occupied clusters' precisions as one stack:
        # each factor must equal, bit for bit, the one a per-cluster call
        # gives for MᵀM/s2 + diag(1/sigma2_k).
        shape, n_dims, labels, n_clusters = self.CASES[case]
        state, pre = abundance_case(shape, n_dims, labels, n_clusters, seed=len(case))
        cholesky, calls = np.linalg.cholesky, []

        def recording_cholesky(a):
            calls.append((a.copy(), cholesky(a)))
            return calls[-1][1]

        monkeypatch.setattr(np.linalg, "cholesky", recording_cholesky)
        _sample_abundances_all(state, pre, make_rng(0).standard_normal(state.A.data.shape[::-1]))
        monkeypatch.undo()
        (stack, factors), = calls
        used = np.flatnonzero(np.bincount(labels, minlength=n_clusters))
        assert stack.shape == factors.shape == (used.size, n_dims, n_dims)
        for prec, factor, k in zip(stack, factors, used):
            expected = pre.mtm / state.noise.s2 + np.diag(1.0 / state.clusters.sigma2[k])
            assert prec.tobytes() == expected.tobytes()
            assert factor.tobytes() == np.linalg.cholesky(expected).tobytes()

    def test_same_error_when_not_positive_definite(self):
        # A negative variance makes cluster 1's precision indefinite.
        state, pre = abundance_case((6, 6), 3, random_labels(36, 3, 4), 3, seed=5)
        state.clusters.sigma2[1] = -1e-4
        noise = make_rng(1).standard_normal(state.A.data.shape[::-1])
        want, messages = noise.tobytes(), []
        for kernel in (_sample_abundances_all, oracles.sample_abundances_all):
            with pytest.raises(NumericalDegeneracyError) as info:
                kernel(copy.deepcopy(state), pre, noise)
            messages.append(str(info.value))
            assert noise.tobytes() == want
        assert messages[0] == messages[1]
        assert messages[0] == "abundance precision not positive definite for cluster 1"

    def test_same_error_when_not_finite(self):
        # A subnormal noise variance overflows the precision.
        state, pre = abundance_case((6, 6), 3, random_labels(36, 3, 4), 3, seed=5, s2=1e-320)
        noise = make_rng(1).standard_normal(state.A.data.shape[::-1])
        want, messages = noise.tobytes(), []
        for kernel in (_sample_abundances_all, oracles.sample_abundances_all):
            with pytest.raises(NumericalDegeneracyError) as info:
                kernel(copy.deepcopy(state), pre, noise)
            messages.append(str(info.value))
            assert noise.tobytes() == want
        assert messages[0] == messages[1]
        assert "cluster 0" in messages[0]


def random_state(shape, n_clusters, n_classes, seed):
    gen = np.random.default_rng(seed)
    lat = Lattice(*shape)
    n_pixels, n_dims = lat.n_pixels, 3
    q = gen.dirichlet(np.ones(n_clusters), size=n_classes).T
    if n_clusters > 1 and n_classes > 1:
        # A zero link gives -inf log-weights without emptying any site.
        q[0, 0] = 0.0
        q[:, 0] /= q[:, 0].sum()
    state = ChainState(
        A=AbundanceMatrix(gen.dirichlet(np.ones(n_dims), size=n_pixels).T.copy()),
        noise=NoiseModel(1e-3),
        clusters=ClusterParams(
            gen.dirichlet(np.ones(n_dims), size=n_clusters),
            gen.uniform(1e-3, 0.05, size=(n_clusters, n_dims)),
        ),
        z=LabelField(gen.integers(n_clusters, size=n_pixels).astype(np.int32), n_clusters, lat),
        q=InteractionMatrix(q),
        omega=LabelField(gen.integers(n_classes, size=n_pixels).astype(np.int32), n_classes, lat),
    )
    state.validate()
    return state


class TestLabelSweeps:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("n_clusters", CHOICES)
    @pytest.mark.parametrize("beta1", [0.0, 0.8])
    def test_cluster_sweep(self, shape, n_clusters, beta1):
        state = random_state(shape, n_clusters, 3, seed=n_clusters)
        ref_state = copy.deepcopy(state)
        for sweep in range(3):
            rng_new, rng_ref = make_rng(sweep), make_rng(sweep)
            sample_cluster_labels(state, rng_new, beta1)
            oracles.sample_cluster_labels(ref_state, rng_ref, beta1)
            assert_same_bits(state.z.labels, ref_state.z.labels)
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("n_classes", CHOICES)
    @pytest.mark.parametrize("beta1", [0.0, 0.8])
    @pytest.mark.parametrize("beta2", [0.0, 0.8])
    def test_class_sweep(self, shape, n_classes, beta1, beta2):
        state = random_state(shape, 4, n_classes, seed=n_classes)
        config = ModelConfig(n_clusters=4, n_classes=n_classes, n_endmembers=3, beta2=beta2)
        gen = np.random.default_rng(1)
        w1 = np.log(gen.dirichlet(np.ones(n_classes), size=state.z.lattice.n_pixels).T)
        if n_classes > 1:
            w1[0, ::3] = -np.inf
        ref_state = copy.deepcopy(state)
        for sweep in range(3):
            rng_new, rng_ref = make_rng(sweep), make_rng(sweep)
            sample_class_labels(state, config, rng_new, w1, beta1)
            oracles.sample_class_labels(ref_state, config, rng_ref, w1, beta1)
            assert_same_bits(state.omega.labels, ref_state.omega.labels)
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state


class TestOnePassSweep:
    """An uncoupled field drawn in one call against its two half-sweeps."""

    @staticmethod
    def sweep(base, lattice, one_pass, seed=3):
        field = LabelField(np.zeros(lattice.n_pixels, dtype=np.int32), base.shape[0], lattice)
        rng = make_rng(seed)
        try:
            if one_pass:
                sampler_mod.potts_sweep(rng, field, base.copy(), 0.0, "cluster")
            else:
                oracles.potts_half_sweeps(rng, field, base.copy(), "cluster")
        except (InvalidParameterError, NumericalDegeneracyError) as exc:
            return field.labels, rng.bit_generator.state, exc
        return field.labels, rng.bit_generator.state, None

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("n_values", [1, 2, 3, 12])
    def test_matches_half_sweeps(self, shape, n_values):
        lattice = Lattice(*shape)
        base = log_weights(n_values, lattice.n_pixels, seed=n_values, minus_inf_share=0.4)
        one, half = (self.sweep(base, lattice, one_pass) for one_pass in (True, False))
        assert_same_bits(one[0], half[0])
        assert one[1] == half[1] and one[2] is None and half[2] is None

    @pytest.mark.parametrize("dead, named", [((1, 4), 4), ((1, 3), 1), ((8, 1), 8), ((33,), 33)])
    def test_dead_site_named_as_by_half_sweeps(self, dead, named):
        # On a 5x7 grid pixels 4 and 8 are of the first colour, 1, 3 and 33
        # of the second; the half-sweeps name the first dead pixel they meet.
        lattice = Lattice(5, 7)
        base = log_weights(3, lattice.n_pixels, seed=1)
        base[:, list(dead)] = -np.inf
        one, half = (self.sweep(base, lattice, one_pass) for one_pass in (True, False))
        for _, _, exc in (one, half):
            assert isinstance(exc, NumericalDegeneracyError)
            assert str(exc).endswith(f"(first affected pixel {named})")
        assert_same_bits(one[0], half[0])
        assert one[1] == half[1]

    def test_invalid_weight_raises_as_half_sweeps_do(self):
        # NaN at a first-colour pixel and a dead second-colour pixel: the first
        # half-sweep rejects the NaN before the dead pixel is reached.
        lattice = Lattice(5, 7)
        base = log_weights(3, lattice.n_pixels, seed=1)
        base[0, 4], base[:, 1] = np.nan, -np.inf
        one, half = (self.sweep(base, lattice, one_pass) for one_pass in (True, False))
        for _, _, exc in (one, half):
            assert type(exc) is InvalidParameterError
        assert_same_bits(one[0], half[0])
        assert one[1] == half[1]


class TestGatherLayout:
    @pytest.mark.parametrize("beta", [0.0, 0.8])
    def test_label_stages_pass_c_ordered_weights(self, monkeypatch, beta):
        seen = []

        def spy(rng, log_weights, **kwargs):
            seen.append((log_weights.shape, log_weights.flags.c_contiguous))
            return sample_categorical_log_many(rng, log_weights, **kwargs)

        monkeypatch.setattr(sampler_mod, "sample_categorical_log_many", spy)
        state = random_state((6, 7), 12, 5, seed=2)
        config = ModelConfig(n_clusters=12, n_classes=5, n_endmembers=3, beta2=beta)
        w1 = np.log(np.random.default_rng(1).dirichlet(np.ones(5), size=42).T)
        sample_cluster_labels(state, make_rng(0), beta)
        sample_class_labels(state, config, make_rng(1), w1, beta)
        if beta > 0.0:
            assert seen == [((12, 21), True)] * 2 + [((5, 21), True)] * 2
        else:  # an uncoupled field is drawn in one call
            assert seen == [((12, 42), True), ((5, 42), True)]

    @pytest.mark.parametrize("shape, n_clusters", [((5, 7), 3), ((1, 9), 12), ((4, 4), 1)])
    def test_cluster_variances(self, shape, n_clusters):
        state = random_state(shape, n_clusters, 2, seed=n_clusters)
        if n_clusters > 2:
            state.z.labels[state.z.labels == 1] = 0  # an empty cluster
        config = ModelConfig(n_clusters=n_clusters, n_classes=2, n_endmembers=3)
        ref_state = copy.deepcopy(state)
        rng_new, rng_ref = make_rng(5), make_rng(5)
        assert_same_bits(
            sample_cluster_variances(state, config, rng_new),
            oracles.sample_cluster_variances(ref_state, config, rng_ref),
        )
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("n_clusters, n_classes", [(3, 2), (12, 5), (1, 3), (4, 1)])
    def test_interaction_matrix(self, n_clusters, n_classes):
        # One (J, K) Dirichlet call against one call per column of Q.
        state = random_state((5, 7), n_clusters, n_classes, seed=n_clusters)
        config = ModelConfig(n_clusters=n_clusters, n_classes=n_classes, n_endmembers=3)
        ref_state = copy.deepcopy(state)
        rng_new, rng_ref = make_rng(6), make_rng(6)
        assert_same_bits(
            sample_interaction_matrix(state, config, rng_new).q,
            oracles.sample_interaction_matrix(ref_state, config, rng_ref).q,
        )
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


class TestTraceRecord:
    FIELDS = ("a_sum", "psi_sum", "sigma2_sum", "q_sum", "z_counts", "omega_counts")

    @pytest.mark.parametrize(
        "shape, n_clusters, n_classes",
        [((5, 7), 3, 2), ((1, 9), 4, 3), ((1, 9), 1, 2), ((6, 6), 1, 1), ((1, 1), 2, 1)],
    )
    def test_matches_fancy_index_reference(self, shape, n_clusters, n_classes):
        n_pixels = shape[0] * shape[1]
        trace = Trace.empty(3, n_pixels, n_clusters, n_classes)
        ref = Trace.empty(3, n_pixels, n_clusters, n_classes)
        for sweep in range(4):
            state = random_state(shape, n_clusters, n_classes, seed=sweep)
            trace.record(state)
            oracles.trace_record(ref, state)
        for field in self.FIELDS:
            assert_same_bits(getattr(trace, field), getattr(ref, field))
        assert trace.s2_sum == ref.s2_sum
        assert trace.n_recorded == ref.n_recorded == 4
        assert trace.z_counts.sum() == trace.omega_counts.sum() == 4 * n_pixels

    def test_matches_fancy_index_reference_at_scene2_size(self):
        # (K, P) = (12, 40 000), scene 2's cluster tallies.
        n_pixels, n_clusters, n_classes = 40_000, 12, 5
        trace = Trace.empty(3, n_pixels, n_clusters, n_classes)
        ref = Trace.empty(3, n_pixels, n_clusters, n_classes)
        for sweep in range(2):
            state = random_state((200, 200), n_clusters, n_classes, seed=sweep)
            trace.record(state)
            oracles.trace_record(ref, state)
        for field in self.FIELDS:
            assert_same_bits(getattr(trace, field), getattr(ref, field))


def init_problem(n_bands, n_pixels, seed, shape=None):
    gen = np.random.default_rng(seed)
    lat = Lattice(*(shape or (1, n_pixels)))
    m = gen.uniform(0.05, 1.0, size=(n_bands, 3))
    a = gen.dirichlet(np.ones(3), size=lat.n_pixels).T
    noise = gen.normal(scale=1e-2, size=(n_bands, lat.n_pixels))
    return ObservationMatrix(m @ a + noise, lat), EndmemberMatrix(m)


def assert_mty_within_rounding_bound(pre, y, m):
    """``pre.mty_t`` is ``RᵀQᵀY`` from the QR ``M = QR``. Against the direct
    ``MᵀY``, each entry carries QR's column-wise backward error, d roundings
    per entry of ``QᵀY`` and R per entry of the product with ``Rᵀ``; to
    first order that stays below ``2 (d + R) eps ||m_i|| ||y_p||``."""
    n_bands, n_dims = m.shape
    ref = (m.T @ y).T
    bound = 2.0 * (n_bands + n_dims) * np.finfo(np.float64).eps * np.outer(
        np.linalg.norm(y, axis=0), np.linalg.norm(m, axis=0)
    )
    assert pre.mty_t.shape == ref.shape and pre.mty_t.flags.c_contiguous
    assert np.all(np.abs(pre.mty_t - ref) <= bound)


class TestInitialization:
    @pytest.mark.parametrize(
        "n_bands, n_dims, rank",
        [(20, 3, 3), (413, 3, 3), (413, 9, 9), (413, 9, 7), (2, 3, 2), (5, 5, 4), (1, 1, 1)],
    )
    def test_mty_from_qr_within_rounding_bound(self, n_bands, n_dims, rank):
        # M has rank ``rank``: its last columns are sums of earlier ones.
        # An M with fewer bands than columns is rejected.
        gen = np.random.default_rng(n_bands * n_dims + rank)
        m = gen.uniform(0.05, 1.0, size=(n_bands, n_dims))
        for col in range(rank, n_dims):
            m[:, col] = m[:, col - rank] + m[:, (col + 1) % rank]
        lat = Lattice(1, 997)
        y = m @ gen.dirichlet(np.ones(n_dims), size=lat.n_pixels).T
        y += gen.normal(scale=1e-2, size=y.shape)
        assert np.linalg.matrix_rank(m) == rank
        if n_bands < n_dims:
            with pytest.raises(ValidationError, match="more endmembers"):
                _make_precomp(ObservationMatrix(y, lat), EndmemberMatrix(m))
            return
        pre = _make_precomp(ObservationMatrix(y, lat), EndmemberMatrix(m))
        assert_mty_within_rounding_bound(pre, y, m)

    @pytest.mark.parametrize(
        "n_bands, n_pixels",
        [(d, p) for d in (1, 2, 413) for p in (1, 37, 2**15 - 1, 2**15 + 1)]
        + [(3, 11), (5, 2**16 + 3), (7, 9999), (4, 1024), (4, 1025)],
    )
    def test_set_up_sums_match_fresh_temporaries(self, n_bands, n_pixels):
        # The QR set-up sums, over any number of column blocks, give the
        # initial residual's mean square of a fresh d x P temporary.
        Y, M = init_problem(n_bands, n_pixels, seed=n_bands + n_pixels)
        if n_bands < M.n_endmembers:
            # An M with fewer bands than columns is rejected; the sums are
            # checked with its first d columns.
            with pytest.raises(ValidationError, match="more endmembers"):
                _make_precomp(Y, M)
            M = EndmemberMatrix(M.data[:, :n_bands])
        a_ref, s2_ref = oracles.init_unmixing(Y.data, M.data)
        pre = _make_precomp(Y, M)
        assert pre.resid0 >= 0.0
        s2 = max(_residual_sq(pre, a_ref) / pre.n_obs, 1e-12)
        np.testing.assert_allclose(s2, s2_ref, rtol=1e-12)

    @pytest.mark.parametrize("shape, n_bands", [((6, 5), 20), ((40, 50), 413)])
    def test_precomp_and_residual_match_fresh_temporaries(self, shape, n_bands):
        Y, M = init_problem(n_bands, None, seed=0, shape=shape)
        sup = SupervisionData.from_labels(np.array([0, 1]), np.array([0, 1]), 0.9, 2, Y.n_pixels)
        config = ModelConfig(n_clusters=3, n_classes=2, n_endmembers=3)
        a_ref, s2_ref = oracles.init_unmixing(Y.data, M.data)
        pre = _make_precomp(Y, M)
        assert_mty_within_rounding_bound(pre, Y.data, M.data)
        state = initialize_state(pre, sup, config, make_rng(3))
        # MᵀY's last bits pass through a well-conditioned 3x3 solve.
        np.testing.assert_allclose(state.A.data, a_ref, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(state.noise.s2, s2_ref, rtol=1e-12)
        assert state.q.q.flags.c_contiguous  # Q feeds a GEMM in _class_log_partition


class TestStreamedStatistics:
    """``_make_precomp`` over an ``io.ObservationFile`` reads Y.hbm in band
    blocks; it must give the bits of the same Y held in memory."""

    @pytest.mark.parametrize(
        "n_bands, n_dims, shape",
        [(5, 3, (1, 37)), (15, 3, (4, 9)), (16, 3, (4, 9)), (17, 3, (4, 9)),
         (31, 3, (3, 11)), (32, 2, (3, 11)), (33, 3, (3, 11)), (47, 9, (5, 8)),
         (49, 9, (5, 8)), (1, 1, (2, 7)), (20, 3, (1, 1)), (1, 1, (1, 1)), (413, 9, (7, 13))],
    )
    def test_file_and_memory_give_the_same_bits(self, tmp_path, n_bands, n_dims, shape):
        gen = np.random.default_rng(n_bands * 100 + n_dims)
        lat = Lattice(*shape)
        m = gen.uniform(0.05, 1.0, size=(n_bands, n_dims))
        y = m @ gen.dirichlet(np.ones(n_dims), size=lat.n_pixels).T
        y += gen.normal(scale=1e-2, size=y.shape)
        write_matrix(tmp_path / "Y.hbm", y)
        streamed = ObservationFile.open(tmp_path / "Y.hbm", lat)
        assert streamed.n_bands == n_bands
        M = EndmemberMatrix(m)
        ref = _make_precomp(ObservationMatrix(y, lat), M)
        got = _make_precomp(streamed, M)
        for field in ("mtm", "mty_t", "r", "qty"):
            assert_same_bits(getattr(got, field), getattr(ref, field))
        assert got.resid0.hex() == ref.resid0.hex()
        assert (got.n_obs, got.lattice) == (ref.n_obs, ref.lattice) == (y.size, lat)
        assert got.mty_t.flags.c_contiguous

    def test_chains_on_file_and_memory_agree(self, tmp_path):
        # The benchmark's grid cell (0, 0), formed from the file by the CLI,
        # must equal a chain run on the in-memory Y.
        Y, M = init_problem(40, None, seed=4, shape=(6, 7))
        write_matrix(tmp_path / "Y.hbm", Y.data)
        sup = SupervisionData.from_labels(np.arange(0, 42, 3), np.arange(14) % 2, 0.9, 2, 42)
        config = ModelConfig(n_clusters=3, n_classes=2, n_endmembers=3, n_burnin=2, n_mc=3)
        ref, _ = run_chain(Y, M, sup, config)
        got, _ = run_chain(ObservationFile.open(tmp_path / "Y.hbm", Y.lattice), M, sup, config)
        for a, b in ((got.A.data, ref.A.data), (got.clusters.psi, ref.clusters.psi),
                     (got.q.q, ref.q.q), (got.z.labels, ref.z.labels)):
            assert_same_bits(a, b)
        assert got.noise.s2 == ref.noise.s2


TILE = sampler_mod._TILE


class TestTiledStatistics:
    """``_make_precomp`` rotates each 16-band block in column tiles; it must
    give the bits of the same pass over every block whole, from memory and
    from a file, whatever tile the last column falls in."""

    @pytest.mark.parametrize(
        "n_pixels", [1, 2, TILE - 1, TILE, TILE + 1, TILE + 2, 2 * TILE + 1, 40000]
    )
    @pytest.mark.parametrize(
        "n_bands, n_dims", [(1, 1), (15, 9), (16, 9), (17, 3), (413, 3), (413, 9), (20, 20)]
    )
    def test_same_bits_as_whole_blocks(self, tmp_path, monkeypatch, n_bands, n_dims, n_pixels):
        gen = np.random.default_rng(n_bands * 10 + n_dims + n_pixels)
        lat = Lattice(1, n_pixels)
        m = gen.uniform(0.05, 1.0, size=(n_bands, n_dims))
        y = gen.normal(scale=1e-2, size=(n_bands, n_pixels))
        y += m @ gen.dirichlet(np.ones(n_dims), size=n_pixels).T
        write_matrix(tmp_path / "Y.hbm", y)
        M = EndmemberMatrix(m)
        with monkeypatch.context() as patch:
            patch.setattr(sampler_mod, "_TILE", n_pixels)
            ref = _make_precomp(ObservationMatrix(y, lat), M)
        for Y in (ObservationMatrix(y, lat), ObservationFile.open(tmp_path / "Y.hbm", lat)):
            got = _make_precomp(Y, M)
            for field in ("mtm", "mty_t", "r", "qty"):
                assert_same_bits(getattr(got, field), getattr(ref, field))
            assert got.resid0.hex() == ref.resid0.hex()
            assert got.mty_t.flags.c_contiguous and got.qty.flags.c_contiguous

    def test_non_finite_entry_in_any_tile_rejected(self):
        # One NaN or inf in the last column of the last tile of each block.
        Y, M = init_problem(40, None, seed=2, shape=(1, 2 * TILE + 1))
        for band in (0, 15, 16, 39):
            for bad in (np.nan, np.inf):
                y = Y.data.copy()
                y[band, -1] = bad
                with pytest.raises(ValidationError, match="non-finite"):
                    _make_precomp(ObservationMatrix(y, Y.lattice), M)
                with pytest.raises(ValidationError, match="non-finite"):
                    oracles.make_precomp(ObservationMatrix(y, Y.lattice), M)


def noisy_scene(n_bands, n_dims, n_pixels, seed, noise=1e-2, equal_columns=False):
    """Y = MA + noise for a random M (its last two columns equal on request)."""
    gen = np.random.default_rng(seed)
    m = gen.uniform(0.05, 1.0, size=(n_bands, n_dims))
    if equal_columns:
        m[:, -1] = m[:, -2]
    a = gen.dirichlet(np.ones(n_dims), size=n_pixels).T
    y = m @ a + gen.normal(scale=noise, size=(n_bands, n_pixels))
    return ObservationMatrix(y, Lattice(1, n_pixels)), EndmemberMatrix(m), a


class TestOnePassAgainstTwoPasses:
    """The one pass of ``_make_precomp`` against the two passes of
    ``oracles.make_precomp``, on the shapes where an updated QR could slip:
    resid0 to 1e-13 relative and MᵀY to 1e-13 of its largest entry."""

    @pytest.mark.parametrize("n_bands, n_dims, n_pixels", [
        (40, 20, 300),  # the first block holds fewer bands than R
        (1, 1, 50),  # d = 1
        (30, 3, 1),  # P = 1
        (30, 3, TILE + 1),  # a lone column past the full tile joins it
        (413, 9, 997),
    ])
    def test_matches_two_passes(self, n_bands, n_dims, n_pixels):
        Y, M, _ = noisy_scene(n_bands, n_dims, n_pixels, seed=n_bands + n_pixels)
        got, ref = _make_precomp(Y, M), oracles.make_precomp(Y, M)
        assert abs(got.resid0 - ref.resid0) <= 1e-13 * ref.resid0
        assert np.abs(got.mty_t - ref.mty_t).max() <= 1e-13 * np.abs(ref.mty_t).max()
        assert_same_bits(got.mtm, ref.mtm)
        assert (got.r.shape, got.qty.shape, got.n_obs) == (ref.r.shape, ref.qty.shape, ref.n_obs)

    def test_rank_deficient_m(self):
        # Two equal columns leave Q a spare column that each QR picks from
        # rounding, so resid0 = ||Y - QQᵀY||² is not unique. What the chain
        # reads, ||Y - MA||² = resid0 + ||QᵀY - RA||², and MᵀY are.
        Y, M, a = noisy_scene(40, 4, 200, seed=3, equal_columns=True)
        got, ref = _make_precomp(Y, M), oracles.make_precomp(Y, M)
        want = _residual_sq(ref, a)
        assert abs(_residual_sq(got, a) - want) <= 1e-13 * want
        assert np.abs(got.mty_t - ref.mty_t).max() <= 1e-13 * np.abs(ref.mty_t).max()

    @pytest.mark.parametrize("n_bands, n_dims", [(50, 3), (413, 9)])
    def test_faint_noise_matches_least_squares(self, n_bands, n_dims):
        # At noise sigma = 1e-7 the residual is 1e-14 of ||Y||²: the one pass
        # stays within 1e-10 of the least-squares residual, where the
        # cancelling ||Y||² - ||QᵀY||² does not.
        Y, M, _ = noisy_scene(n_bands, n_dims, 2000, seed=n_bands, noise=1e-7)
        pre = _make_precomp(Y, M)
        direct = float(np.linalg.lstsq(M.data, Y.data, rcond=None)[1].sum())
        assert abs(pre.resid0 - direct) <= 1e-10 * direct
        y_sq = float(np.einsum("ij,ij->", Y.data, Y.data))
        cancelling = y_sq - float(np.einsum("ij,ij->", pre.qty, pre.qty))
        assert abs(cancelling - direct) > 1e-10 * direct


def cluster_scene(n_dims, n_pixels, seed, distinct=None):
    """Observations of ``n_pixels`` abundance columns, or of ``distinct``
    columns repeated, so that k-means meets duplicate points."""
    gen = np.random.default_rng(seed)
    m = gen.uniform(0.05, 1.0, size=(20, n_dims))
    cols = distinct or n_pixels
    y = m @ gen.dirichlet(np.ones(n_dims), size=cols).T + gen.normal(scale=1e-2, size=(20, cols))
    y = np.tile(y, -(-n_pixels // cols))[:, :n_pixels]
    lat = Lattice(200, 200) if n_pixels == 40000 else Lattice(1, n_pixels)
    return ObservationMatrix(y, lat), EndmemberMatrix(m)


KMEANS_CASES = (
    [(3, 500, 4, seed, None) for seed in range(10)]
    + [(9, 2000, 12, seed, None) for seed in range(3)]
    + [
        (9, 40000, 12, 3, None),  # scene 2's size
        (3, 60, 4, 0, 2),  # two distinct points: clusters left empty
        (9, 60, 12, 1, 5),
        (3, 50, 1, 2, None),  # K = 1
        (3, 3, 3, 4, None),  # P = K
        (9, 12, 12, 5, None),
    ]
)


class TestKmeansInit:
    """Bincount Lloyd rounds and cluster moments against the mean-per-member
    forms, bit for bit."""

    @pytest.mark.parametrize("n_dims, n_pixels, n_clusters, seed, distinct", KMEANS_CASES)
    def test_labels_and_moments_match_reference(
        self, n_dims, n_pixels, n_clusters, seed, distinct
    ):
        Y, M = cluster_scene(n_dims, n_pixels, seed, distinct)
        sup = SupervisionData.from_labels(np.array([0, 1]), np.array([0, 1]), 0.9, 2, n_pixels)
        config = ModelConfig(n_clusters=n_clusters, n_classes=2, n_endmembers=n_dims)
        state = initialize_state(_make_precomp(Y, M), sup, config, make_rng(seed))
        a = state.A.data
        rng_new, rng_ref = make_rng(seed), make_rng(seed)
        z, centers = sampler_mod._kmeans_labels(a, n_clusters, rng_new)
        ref_z, ref_centers = oracles.kmeans_labels(a, n_clusters, rng_ref)
        assert_same_bits(z, ref_z)
        # Labels alone can miss a last-bit change in the centres.
        assert_same_bits(centers, ref_centers)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        assert_same_bits(state.z.labels, z)
        psi, sigma2 = oracles.cluster_moments(a, z, n_clusters)
        assert_same_bits(state.clusters.psi, psi)
        assert_same_bits(state.clusters.sigma2, sigma2)
        if distinct is not None:
            assert np.bincount(z, minlength=n_clusters).min() == 0


def with_oracle_kernels(monkeypatch):
    """Put every reference kernel in place of its optimised form."""
    patches = {
        "sample_categorical_log_many": oracles.categorical_inverse_cdf,
        "_sample_abundances_all": oracles.sample_abundances_all,
        "_gaussian_cluster_loglik": oracles.gaussian_cluster_loglik,
        "sample_cluster_labels": oracles.sample_cluster_labels,
        "sample_class_labels": oracles.sample_class_labels,
        "sample_interaction_matrix": oracles.sample_interaction_matrix,
    }
    for name, kernel in patches.items():
        assert hasattr(sampler_mod, name)
        monkeypatch.setattr(sampler_mod, name, kernel)


class TestChainWithOracleKernels:
    @pytest.mark.parametrize("n_clusters, beta", [(3, 0.8), (5, 0.0)])
    def test_same_estimates(self, monkeypatch, n_clusters, beta):
        Y, M = init_problem(30, None, seed=n_clusters, shape=(9, 11))
        sup = SupervisionData.from_labels(
            np.arange(0, 99, 4), np.arange(25) % 2, 0.9, 2, Y.n_pixels
        )
        config = ModelConfig(
            n_clusters=n_clusters, n_classes=2, n_endmembers=3,
            beta1=beta, beta2=beta, n_burnin=3, n_mc=4, seed=7,
        )
        results = []
        for oracle in (False, True):
            with monkeypatch.context() as patch:
                if oracle:
                    with_oracle_kernels(patch)
                rng = make_rng(config.seed)
                est, trace = run_chain(Y, M, sup, config, rng=rng)
            results.append((est, trace, rng.bit_generator.state))
        (est, trace, state), (ref_est, ref_trace, ref_state) = results
        # The GEMM kernels move each draw by a few ulps; seven sweeps of
        # propagation stay far inside 1e-9, and no label draw flips.
        for field in ("a_sum", "psi_sum", "sigma2_sum", "q_sum"):
            np.testing.assert_allclose(getattr(trace, field), getattr(ref_trace, field),
                                       rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(trace.s2_sum, ref_trace.s2_sum, rtol=1e-9)
        np.testing.assert_allclose(est.A.data, ref_est.A.data, rtol=1e-9, atol=1e-12)
        for field in ("z_counts", "omega_counts"):
            assert_same_bits(getattr(trace, field), getattr(ref_trace, field))
        assert_same_bits(est.z.labels, ref_est.z.labels)
        assert_same_bits(est.omega.labels, ref_est.omega.labels)
        assert state == ref_state
