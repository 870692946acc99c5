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
    _argmax_rows_first,
    make_rng,
    sample_categorical_gumbel,
    sample_categorical_log_many,
    sample_gaussian_simplex_truncated_batch,
)
from hbum.errors import InvalidParameterError, NumericalDegeneracyError
from hbum.lattice import Lattice
from hbum.model import (
    AbundanceMatrix,
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
    ChainState,
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
    @pytest.mark.parametrize("n_choices", CHOICES)
    @pytest.mark.parametrize("n_sites", [1, 7, 5000])
    @pytest.mark.parametrize("minus_inf_share", [0.0, 0.4])
    def test_matches_gumbel_reference(self, n_choices, n_sites, minus_inf_share):
        lw = log_weights(n_choices, n_sites, seed=n_sites, minus_inf_share=minus_inf_share)
        before = lw.copy()
        rng_new, rng_ref = make_rng(7 + n_choices), make_rng(7 + n_choices)
        assert_same_bits(
            sample_categorical_gumbel(rng_new, lw), oracles.categorical_gumbel(rng_ref, lw)
        )
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        assert_same_bits(lw, before)  # the caller's weights are left alone

    def test_zero_uniform_falls_back_to_gumbel(self):
        class ZeroUniform:
            """Generator stand-in whose uniforms contain one u == 0.0."""

            def __init__(self, seed):
                self._rng = make_rng(seed)
                self.bit_generator = self._rng.bit_generator
                self.gumbel_calls = 0

            def random(self, size):
                u = self._rng.random(size=size)
                u.flat[u.size // 2] = 0.0
                return u

            def gumbel(self, size):
                self.gumbel_calls += 1
                return self._rng.gumbel(size=size)

        lw = log_weights(12, 301, seed=3, minus_inf_share=0.3)
        stub, ref_rng = ZeroUniform(5), make_rng(5)
        new = sample_categorical_gumbel(stub, lw)
        ref = oracles.categorical_gumbel(ref_rng, lw)
        assert stub.gumbel_calls == 1
        assert_same_bits(new, ref)
        assert stub.bit_generator.state == ref_rng.bit_generator.state

    def test_running_argmax_keeps_the_first_of_ties(self):
        g = np.array([[1.0, -np.inf, 2.0, 0.5], [1.0, -np.inf, 3.0, 0.5], [0.0, 0.0, 3.0, 0.5]])
        assert_same_bits(_argmax_rows_first(g.copy()), np.argmax(g, axis=0))

    @pytest.mark.parametrize(
        "bad, message",
        [(np.nan, r"\[-inf, inf\)"), (np.inf, r"\[-inf, inf\)"), (-np.inf, "all categorical")],
    )
    def test_same_errors_and_no_draws_consumed(self, bad, message):
        lw = log_weights(3, 4, seed=1)
        lw[:, 2] = bad
        for kernel in (
            sample_categorical_log_many, oracles.categorical_inverse_cdf,
            sample_categorical_gumbel, oracles.categorical_gumbel,
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
    """The batch sampler's lean inner loop against the reference that forms
    each coordinate's conditional afresh and validates and masks on every
    truncated-normal call: the same bits and the same generator state."""

    @staticmethod
    def case(n_batch, n_dims, seed):
        gen = np.random.default_rng(seed)
        means = gen.normal(0.3, 0.6, size=(n_batch, n_dims))
        # Log-uniform variances down to 1e-6 put many standardized bounds
        # beyond the +-6 tail threshold.
        var = np.exp(gen.uniform(np.log(1e-6), np.log(2.0), size=(n_batch, n_dims)))
        init = gen.dirichlet(np.ones(n_dims), size=n_batch) if seed % 3 else None
        return means, var, init

    @pytest.mark.parametrize("n_batch, n_dims", [(3, 3), (12, 9)])
    def test_same_bits(self, monkeypatch, n_batch, n_dims):
        import hbum.distributions as dist

        tails = []
        tail = dist._truncnorm_tail

        def counting_tail(rng, lo, hi):
            tails.append(lo.size)
            return tail(rng, lo, hi)

        monkeypatch.setattr(dist, "_truncnorm_tail", counting_tail)
        for seed in range(200):
            means, var, init = self.case(n_batch, n_dims, seed)
            rng_new, rng_ref = make_rng(seed), make_rng(seed)
            got = sample_gaussian_simplex_truncated_batch(rng_new, means, var, 3, init)
            ref = oracles.sample_gaussian_simplex_truncated_batch(rng_ref, means, var, 3, init)
            assert_same_bits(got, ref)
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        assert len(tails) > 50

    @pytest.mark.parametrize(
        "change",
        ["zero variance", "infinite variance", "subnormal variance", "nan mean",
         "shape mismatch", "inner_iters 0", "init shape", "init outside"],
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
        else:  # coordinate 1's budget x_1 + x_2 is negative
            kwargs["init"] = np.array([[0.3, -0.6, 0.1]] + [[0.2, 0.3, 0.5]] * 3)
        with pytest.raises(InvalidParameterError):
            sample_gaussian_simplex_truncated_batch(make_rng(0), means, var, **kwargs)
        with np.errstate(all="ignore"), pytest.raises(InvalidParameterError):
            oracles.sample_gaussian_simplex_truncated_batch(make_rng(0), means, var, **kwargs)


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
    sup = SupervisionData.from_labels(np.array([0]), np.array([0]), 0.9, 1, n_pixels)
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
    return state, _make_precomp(Y, EndmemberMatrix(m), sup)


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
            rng_new, rng_ref = make_rng(sweep), make_rng(sweep)
            _sample_abundances_all(state, pre, rng_new)
            oracles.sample_abundances_all(ref_state, pre, rng_ref)
            atol = 1e-12 * np.abs(ref_state.A.data).max()
            np.testing.assert_allclose(state.A.data, ref_state.A.data, rtol=0.0, atol=atol)
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    def test_same_error_when_not_finite(self):
        # A subnormal noise variance overflows the precision.
        state, pre = abundance_case((6, 6), 3, random_labels(36, 3, 4), 3, seed=5, s2=1e-320)
        messages, states = [], []
        for kernel in (_sample_abundances_all, oracles.sample_abundances_all):
            rng = make_rng(1)
            with pytest.raises(NumericalDegeneracyError) as info:
                kernel(copy.deepcopy(state), pre, rng)
            messages.append(str(info.value))
            states.append(rng.bit_generator.state)
        assert messages[0] == messages[1]
        assert "cluster 0" in messages[0]
        assert states[0] == states[1]


def random_state(shape, n_clusters, n_classes, seed, beta1):
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
        effective_beta1=beta1,
    )
    state.validate()
    return state


class TestLabelSweeps:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("n_clusters", CHOICES)
    @pytest.mark.parametrize("beta1", [0.0, 0.8])
    def test_cluster_sweep(self, shape, n_clusters, beta1):
        state = random_state(shape, n_clusters, 3, seed=n_clusters, beta1=beta1)
        ref_state = copy.deepcopy(state)
        for sweep in range(3):
            rng_new, rng_ref = make_rng(sweep), make_rng(sweep)
            sample_cluster_labels(state, rng_new)
            oracles.sample_cluster_labels(ref_state, rng_ref)
            assert_same_bits(state.z.labels, ref_state.z.labels)
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("n_classes", CHOICES)
    @pytest.mark.parametrize("beta1", [0.0, 0.8])
    @pytest.mark.parametrize("beta2", [0.0, 0.8])
    def test_class_sweep(self, shape, n_classes, beta1, beta2):
        state = random_state(shape, 4, n_classes, seed=n_classes, beta1=beta1)
        config = ModelConfig(n_clusters=4, n_classes=n_classes, n_endmembers=3, beta2=beta2)
        gen = np.random.default_rng(1)
        w1 = np.log(gen.dirichlet(np.ones(n_classes), size=state.z.lattice.n_pixels).T)
        if n_classes > 1:
            w1[0, ::3] = -np.inf
        ref_state = copy.deepcopy(state)
        for sweep in range(3):
            rng_new, rng_ref = make_rng(sweep), make_rng(sweep)
            sample_class_labels(state, config, rng_new, w1)
            oracles.sample_class_labels(ref_state, config, rng_ref, w1)
            assert_same_bits(state.omega.labels, ref_state.omega.labels)
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state


class TestGatherLayout:
    @pytest.mark.parametrize("beta", [0.0, 0.8])
    def test_label_stages_pass_c_ordered_weights(self, monkeypatch, beta):
        seen = []

        def spy(rng, log_weights):
            seen.append((log_weights.shape, log_weights.flags.c_contiguous))
            return sample_categorical_log_many(rng, log_weights)

        monkeypatch.setattr(sampler_mod, "sample_categorical_log_many", spy)
        state = random_state((6, 7), 12, 5, seed=2, beta1=beta)
        config = ModelConfig(n_clusters=12, n_classes=5, n_endmembers=3, beta2=beta)
        w1 = np.log(np.random.default_rng(1).dirichlet(np.ones(5), size=42).T)
        sample_cluster_labels(state, make_rng(0))
        sample_class_labels(state, config, make_rng(1), w1)
        assert seen == [((12, 21), True)] * 2 + [((5, 21), True)] * 2

    @pytest.mark.parametrize("shape, n_clusters", [((5, 7), 3), ((1, 9), 12), ((4, 4), 1)])
    def test_cluster_variances(self, shape, n_clusters):
        state = random_state(shape, n_clusters, 2, seed=n_clusters, beta1=0.0)
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


class _IndexSpy(np.ndarray):
    """Array that records every index it is assigned through: the dtype of
    an index array, None for any other key."""

    index_dtypes: list = []

    def __setitem__(self, key, value):
        _IndexSpy.index_dtypes.append(key.dtype if isinstance(key, np.ndarray) else None)
        super().__setitem__(key, value)


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
            state = random_state(shape, n_clusters, n_classes, seed=sweep, beta1=0.0)
            trace.record(state)
            oracles.trace_record(ref, state)
        for field in self.FIELDS:
            assert_same_bits(getattr(trace, field), getattr(ref, field))
        assert trace.s2_sum == ref.s2_sum
        assert trace.n_recorded == ref.n_recorded == 4
        assert trace.z_counts.sum() == trace.omega_counts.sum() == 4 * n_pixels

    def test_tallies_through_intp_indices(self, monkeypatch):
        # int32 labels times P would overflow once K * P passes 2**31.
        monkeypatch.setattr(_IndexSpy, "index_dtypes", [])
        state = random_state((5, 7), 3, 2, seed=0, beta1=0.0)
        trace = Trace.empty(3, 35, 3, 2)
        trace.z_counts = trace.z_counts.view(_IndexSpy)
        trace.omega_counts = trace.omega_counts.view(_IndexSpy)
        trace.record(state)
        assert _IndexSpy.index_dtypes == [np.dtype(np.intp)] * 2
        assert_same_bits(np.asarray(trace.z_counts).argmax(axis=0), state.z.labels.astype(np.intp))


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
        # M has rank ``rank``: its last columns are sums of earlier ones,
        # and with d < R its QR factor R is wide.
        gen = np.random.default_rng(n_bands * n_dims + rank)
        m = gen.uniform(0.05, 1.0, size=(n_bands, n_dims))
        for col in range(rank, n_dims):
            m[:, col] = m[:, col - rank] + m[:, (col + 1) % rank]
        lat = Lattice(1, 997)
        y = m @ gen.dirichlet(np.ones(n_dims), size=lat.n_pixels).T
        y += gen.normal(scale=1e-2, size=y.shape)
        sup = SupervisionData.from_labels(np.array([0]), np.array([0]), 0.9, 1, lat.n_pixels)
        M = EndmemberMatrix(m)
        pre = _make_precomp(ObservationMatrix(y, lat), M, sup)
        assert np.linalg.matrix_rank(m) == rank
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
        sup = SupervisionData.from_labels(np.array([0]), np.array([0]), 0.9, 1, Y.n_pixels)
        a_ref, s2_ref = oracles.init_unmixing(Y.data, M.data)
        pre = _make_precomp(Y, M, sup)
        assert pre.resid0 >= 0.0
        s2 = max(_residual_sq(pre, a_ref) / pre.n_obs, 1e-12)
        np.testing.assert_allclose(s2, s2_ref, rtol=1e-12)

    @pytest.mark.parametrize("shape, n_bands", [((6, 5), 20), ((40, 50), 413)])
    def test_precomp_and_residual_match_fresh_temporaries(self, shape, n_bands):
        Y, M = init_problem(n_bands, None, seed=0, shape=shape)
        sup = SupervisionData.from_labels(np.array([0, 1]), np.array([0, 1]), 0.9, 2, Y.n_pixels)
        config = ModelConfig(n_clusters=3, n_classes=2, n_endmembers=3)
        a_ref, s2_ref = oracles.init_unmixing(Y.data, M.data)
        pre = _make_precomp(Y, M, sup)
        assert_mty_within_rounding_bound(pre, Y.data, M.data)
        shared = initialize_state(Y, M, sup, config, make_rng(3), pre)
        alone = initialize_state(Y, M, sup, config, make_rng(3))
        for state in (shared, alone):
            # MᵀY's last bits pass through a well-conditioned 3x3 solve.
            np.testing.assert_allclose(state.A.data, a_ref, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(state.noise.s2, s2_ref, rtol=1e-12)
        assert_same_bits(shared.A.data, alone.A.data)
        assert shared.noise.s2 == alone.noise.s2
        assert_same_bits(shared.z.labels, alone.z.labels)
        assert_same_bits(shared.omega.labels, alone.omega.labels)


def with_oracle_kernels(monkeypatch):
    """Put every reference kernel in place of its optimised form."""
    patches = {
        "sample_categorical_log_many": oracles.categorical_inverse_cdf,
        "_sample_abundances_all": oracles.sample_abundances_all,
        "_gaussian_cluster_loglik": oracles.gaussian_cluster_loglik,
        "sample_cluster_labels": oracles.sample_cluster_labels,
        "sample_class_labels": oracles.sample_class_labels,
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
