"""The optimised hot-path kernels against their references in ``oracles``.

Every case runs the kernel and its reference on generators with the same
seed and requires the same bits out and the same generator state after, so
a chain gives the same estimates whichever form it runs.
"""

import copy

import numpy as np
import pytest

import oracles
from hbum.distributions import _argmax_rows_first, make_rng, sample_categorical_log_many
from hbum.errors import InvalidParameterError
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
    ChainState,
    _gaussian_cluster_loglik,
    _make_precomp,
    initialize_state,
    sample_class_labels,
    sample_cluster_labels,
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
            sample_categorical_log_many(rng_new, lw), oracles.categorical_log_many(rng_ref, lw)
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
        new = sample_categorical_log_many(stub, lw)
        ref = oracles.categorical_log_many(ref_rng, lw)
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
        for kernel in (sample_categorical_log_many, oracles.categorical_log_many):
            rng = make_rng(9)
            state = rng.bit_generator.state
            with pytest.raises(InvalidParameterError, match=message):
                kernel(rng, lw)
            assert rng.bit_generator.state == state


class TestClusterLoglik:
    @pytest.mark.parametrize("n_clusters", CHOICES)
    @pytest.mark.parametrize("n_dims", [1, 3, 9])
    def test_same_bits(self, n_clusters, n_dims):
        gen = np.random.default_rng(n_clusters * 10 + n_dims)
        a = gen.dirichlet(np.ones(n_dims), size=501).T.copy()
        psi = gen.dirichlet(np.ones(n_dims), size=n_clusters)
        sigma2 = gen.uniform(1e-4, 0.1, size=(n_clusters, n_dims))
        assert_same_bits(
            _gaussian_cluster_loglik(a, psi, sigma2),
            oracles.gaussian_cluster_loglik(a, psi, sigma2),
        )


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
        config = ModelConfig(n_clusters=n_clusters, n_classes=3, n_endmembers=3)
        ref_state = copy.deepcopy(state)
        for sweep in range(3):
            rng_new, rng_ref = make_rng(sweep), make_rng(sweep)
            sample_cluster_labels(state, config, rng_new)
            oracles.sample_cluster_labels(ref_state, config, rng_ref)
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
            sample_class_labels(state, None, config, rng_new, w1=w1)
            oracles.sample_class_labels(ref_state, config, rng_ref, w1)
            assert_same_bits(state.omega.labels, ref_state.omega.labels)
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state


class TestInitialization:
    @pytest.mark.parametrize("shape, n_bands", [((6, 5), 20), ((40, 50), 413)])
    def test_precomp_and_residual_match_fresh_temporaries(self, shape, n_bands):
        gen = np.random.default_rng(0)
        lat = Lattice(*shape)
        m = gen.uniform(0.05, 1.0, size=(n_bands, 3))
        a = gen.dirichlet(np.ones(3), size=lat.n_pixels).T
        noise = gen.normal(scale=1e-2, size=(n_bands, lat.n_pixels))
        Y = ObservationMatrix(m @ a + noise, lat)
        M = EndmemberMatrix(m)
        sup = SupervisionData.from_labels(np.array([0, 1]), np.array([0, 1]), 0.9, 2, lat.n_pixels)
        config = ModelConfig(n_clusters=3, n_classes=2, n_endmembers=3)
        a_ref, s2_ref, y_sq_ref = oracles.init_unmixing(Y.data, M.data)
        work = np.empty_like(Y.data)
        pre = _make_precomp(Y, M, sup, work)
        assert pre.y_sq == y_sq_ref
        assert_same_bits(pre.mty, M.data.T @ Y.data)
        shared = initialize_state(Y, M, sup, config, make_rng(3), pre, work)
        alone = initialize_state(Y, M, sup, config, make_rng(3))
        for state in (shared, alone):
            assert_same_bits(state.A.data, a_ref)
            assert state.noise.s2 == s2_ref
        assert_same_bits(shared.z.labels, alone.z.labels)
        assert_same_bits(shared.omega.labels, alone.omega.labels)
