"""Acceptance suite.

Each test implements one release criterion at its stated tolerance and
prints a single PASS line with the measured numbers (visible with
``pytest -s`` or in the captured output). Criteria:

1. Scene-1 protocol (100x100, R=3, K=3, J=2, SNR 30 dB, top-quarter
   training, eta 0.95, couplings 0.8/0.8, 300 sweeps with 50 burn-in):
   mean kappa >= 0.90 and mean abundance RMSE <= 5e-3 over 5 seeds, each
   run under 5 minutes.
2. Scene-2 protocol (200x200, R=9, K=12, J=5, same settings): mean kappa
   >= 0.90 over 3 seeds, each run under 30 minutes.
3. Corruption robustness: over rates {0, 0.1, 0.2, 0.3, 0.4} with 5 trials
   each on the scene-1 setup, kappa at rate 0.3 stays within 0.10 of the
   uncorrupted kappa.
4. Exact-enumeration oracle: on a 2x2 grid with K = J = 2 and fixed
   abundances, cluster parameters and interaction matrix, the Gibbs
   marginals of both label fields match brute-force enumeration within
   0.01 absolute over 1e5 sweeps, in under a minute.
5. Conjugate-posterior statistics: noise-variance, cluster-variance and
   interaction-matrix draws match their analytic inverse-gamma/Dirichlet
   conditionals within three standard errors; the simplex-truncated
   sampler passes a KS test against a quadrature oracle at the 1% level.
6. Interaction-matrix structure: with class 1 built from clusters {1, 2}
   and class 2 from cluster {3}, the estimated interaction column of
   class 1 puts at least 0.9 of its mass on the aligned rows {1, 2}.
7. Determinism: identical configs produce byte-identical bundle and
   result files across two consecutive CLI runs.
8. Invariants: a 50-sweep run with per-sweep validation enabled completes
   with every state invariant intact.
"""

import itertools
import json
import time

import numpy as np
import pytest
from scipy import stats

from hbum.cli import main as cli_main
from hbum.distributions import make_rng, sample_gaussian_simplex_truncated_batch
from hbum.io import BUNDLE_FILES, RESULT_FILES
from hbum.lattice import Lattice
from hbum.metrics import ConfusionMatrix, align_clusters, cohen_kappa, rgmse
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
    _make_precomp,
    _sample_noise_fast,
    run_chain,
    sample_class_labels,
    sample_cluster_labels,
    sample_cluster_variances,
    sample_interaction_matrix,
)
from hbum.synthgen import (
    SceneSpec,
    TrainingSplit,
    corrupt_labels,
    default_cluster_means,
    generate_scene,
    make_endmembers,
    split_training,
)

IMAGE1_BANDS = 413
IMAGE1_RUN_BUDGET_S = 300.0
IMAGE2_RUN_BUDGET_S = 1800.0
ENUMERATION_BUDGET_S = 60.0


def image1_spec(seed: int) -> SceneSpec:
    return SceneSpec(
        height=100, width=100,
        n_clusters=3, n_classes=2, n_endmembers=3,
        cluster_to_class=np.array([0, 0, 1]),
        dirichlet_means=default_cluster_means(3, 3),
        concentration=30.0, snr_db=30.0,
        potts_beta=1.1, potts_sweeps=40, seed=seed,
    )


def image2_spec(seed: int) -> SceneSpec:
    return SceneSpec(
        height=200, width=200,
        n_clusters=12, n_classes=5, n_endmembers=9,
        cluster_to_class=np.array([0, 0, 0, 1, 1, 1, 2, 2, 3, 3, 4, 4]),
        dirichlet_means=default_cluster_means(12, 9),
        concentration=30.0, snr_db=30.0,
        potts_beta=1.1, potts_sweeps=40, seed=seed,
    )


def build_scene(spec: SceneSpec):
    M = make_endmembers(IMAGE1_BANDS, spec.n_endmembers, make_rng(spec.seed, 1), 15.0)
    Y, a_true, z_true, omega_true, _ = generate_scene(spec, M, make_rng(spec.seed, 2))
    sup = split_training(omega_true, TrainingSplit("top_rows", 0.25, 0.95))
    return Y, M, a_true, z_true, omega_true, sup


def protocol_config(spec: SceneSpec, seed: int) -> ModelConfig:
    return ModelConfig(
        n_clusters=spec.n_clusters, n_classes=spec.n_classes,
        n_endmembers=spec.n_endmembers,
        beta1=0.8, beta2=0.8, n_mc=250, n_burnin=50, seed=seed,
    )


def unlabeled_kappa(omega_true, omega_hat, sup) -> float:
    idx = np.flatnonzero(~sup.labeled_mask())
    return cohen_kappa(ConfusionMatrix.from_labels(omega_true, omega_hat, idx))


@pytest.fixture(scope="module")
def image1_runs():
    """Full scene-1 protocol for seeds 0..4; shared by criteria 1 and 6."""
    runs = []
    for seed in range(5):
        spec = image1_spec(seed)
        Y, M, a_true, z_true, omega_true, sup = build_scene(spec)
        assert Y.data.shape == (413, 10_000)
        assert a_true.data.shape == (3, 10_000)
        assert sup.n_labeled == 2500
        start = time.perf_counter()
        estimates, _ = run_chain(Y, M, sup, protocol_config(spec, seed + 100))
        elapsed = time.perf_counter() - start
        runs.append(
            {
                "seed": seed,
                "kappa": unlabeled_kappa(omega_true, estimates.omega, sup),
                "rgmse": rgmse(estimates.A, a_true),
                "chain_seconds": elapsed,
                "q_hat": estimates.q.q.copy(),
                "z_hat": estimates.z.copy(),
                "z_true": z_true.copy(),
            }
        )
    return runs


class TestCriterion1Image1:
    def test_image1_reproduction(self, image1_runs):
        kappas = np.array([r["kappa"] for r in image1_runs])
        errors = np.array([r["rgmse"] for r in image1_runs])
        times = np.array([r["chain_seconds"] for r in image1_runs])
        assert kappas.mean() >= 0.90, f"mean kappa {kappas.mean():.4f} below 0.90"
        assert errors.mean() <= 5e-3, f"mean abundance RMSE {errors.mean():.2e} above 5e-3"
        assert times.max() <= IMAGE1_RUN_BUDGET_S
        print(
            f"\nACCEPTANCE 1 (scene-1 protocol): PASS  "
            f"mean_kappa={kappas.mean():.4f} mean_rgmse={errors.mean():.3e} "
            f"max_run_s={times.max():.1f}"
        )


class TestCriterion2Image2:
    def test_image2_reproduction(self):
        kappas, times = [], []
        for seed in range(3):
            spec = image2_spec(seed)
            Y, M, a_true, z_true, omega_true, sup = build_scene(spec)
            assert Y.data.shape == (413, 40_000)
            assert a_true.data.shape == (9, 40_000)
            start = time.perf_counter()
            estimates, _ = run_chain(Y, M, sup, protocol_config(spec, seed + 100))
            elapsed = time.perf_counter() - start
            kappas.append(unlabeled_kappa(omega_true, estimates.omega, sup))
            times.append(elapsed)
        kappas = np.array(kappas)
        assert kappas.mean() >= 0.90, f"mean kappa {kappas.mean():.4f} below 0.90"
        assert max(times) <= IMAGE2_RUN_BUDGET_S
        print(
            f"\nACCEPTANCE 2 (scene-2 protocol): PASS  "
            f"mean_kappa={kappas.mean():.4f} max_run_s={max(times):.1f}"
        )


class TestCriterion3CorruptionRobustness:
    def test_kappa_degrades_gracefully(self):
        spec = image1_spec(0)
        Y, M, _, _, omega_true, sup = build_scene(spec)
        mean_kappa = {}
        for alpha_idx, alpha in enumerate([0.0, 0.1, 0.2, 0.3, 0.4]):
            kappas = []
            for trial in range(5):
                corrupted = corrupt_labels(
                    sup, alpha, make_rng(500, alpha_idx * 100 + trial)
                )
                config = protocol_config(spec, 700 + alpha_idx * 100 + trial)
                estimates, _ = run_chain(Y, M, corrupted, config)
                kappas.append(unlabeled_kappa(omega_true, estimates.omega, sup))
            mean_kappa[alpha] = float(np.mean(kappas))
        drop = mean_kappa[0.0] - mean_kappa[0.3]
        assert drop <= 0.10, f"kappa dropped by {drop:.3f} at corruption 0.3"
        print(
            "\nACCEPTANCE 3 (corruption robustness): PASS  "
            + " ".join(f"kappa[{a}]={k:.4f}" for a, k in mean_kappa.items())
        )


def enumeration_problem():
    """2x2 grid, K = J = 2: fixed abundances, cluster parameters and
    interaction matrix; pixels 0 and 1 carry expert labels 1 and 2."""
    lat = Lattice(2, 2)
    a = np.array([[0.8, 0.6, 0.3, 0.5], [0.2, 0.4, 0.7, 0.5]])
    psi = np.array([[0.7, 0.3], [0.4, 0.6]])
    sigma2 = np.full((2, 2), 0.09)
    q = np.array([[0.8, 0.3], [0.2, 0.7]])
    sup = SupervisionData.from_labels(np.array([0, 1]), np.array([0, 1]), 0.9, 2, 4)
    beta2 = 0.7
    return lat, a, psi, sigma2, q, sup, beta2


def enumerate_exact_marginals(a, psi, sigma2, q, sup, beta2):
    """Brute-force site marginals of the joint label distribution with the
    cluster-field spatial coupling off (its partition function is then 1)."""
    edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
    loglik = np.array(
        [
            [
                stats.multivariate_normal(psi[k], np.diag(sigma2[k])).logpdf(a[:, p])
                for p in range(4)
            ]
            for k in range(2)
        ]
    )
    w1 = np.zeros((2, 4))
    w1[:, 0] = [np.log(0.9), np.log(0.1)]
    w1[:, 1] = [np.log(0.1), np.log(0.9)]
    w1[:, 2] = w1[:, 3] = np.log(0.5)
    log_weights = {}
    for z in itertools.product(range(2), repeat=4):
        for omega in itertools.product(range(2), repeat=4):
            lw = sum(loglik[z[p], p] + np.log(q[z[p], omega[p]]) for p in range(4))
            lw += sum(w1[omega[p], p] for p in range(4))
            lw += beta2 * sum(omega[i] == omega[j] for i, j in edges)
            log_weights[z, omega] = lw
        # (no per-z normalization: columns of q already sum to one)
    values = np.array(list(log_weights.values()))
    probs = np.exp(values - values.max())
    probs /= probs.sum()
    z_marg = np.zeros(4)
    omega_marg = np.zeros(4)
    for ((z, omega), p) in zip(log_weights.keys(), probs):
        for site in range(4):
            z_marg[site] += p * (z[site] == 0)
            omega_marg[site] += p * (omega[site] == 0)
    return z_marg, omega_marg


class TestCriterion4ExactEnumeration:
    def test_gibbs_matches_brute_force(self):
        lat, a, psi, sigma2, q, sup, beta2 = enumeration_problem()
        z_exact, omega_exact = enumerate_exact_marginals(a, psi, sigma2, q, sup, beta2)

        config = ModelConfig(
            n_clusters=2, n_classes=2, n_endmembers=2, beta1=0.0, beta2=beta2,
            n_mc=1, n_burnin=0,
        )
        state = ChainState(
            A=AbundanceMatrix(a.copy()),
            noise=NoiseModel(1.0),
            clusters=ClusterParams(psi.copy(), sigma2.copy()),
            z=LabelField(np.zeros(4, dtype=np.int32), 2, lat),
            q=InteractionMatrix(q.copy()),
            omega=LabelField(np.array([0, 1, 0, 1], dtype=np.int32), 2, lat),
        )
        w1 = class_log_prior_matrix(sup)
        rng = make_rng(4242)
        n_sweeps, burn_in = 100_000, 500
        z_hits = np.zeros(4)
        omega_hits = np.zeros(4)
        start = time.perf_counter()
        for sweep in range(n_sweeps + burn_in):
            sample_cluster_labels(state, rng, config.beta1)
            sample_class_labels(state, config, rng, w1, config.beta1)
            if sweep >= burn_in:
                z_hits += state.z.labels == 0
                omega_hits += state.omega.labels == 0
        elapsed = time.perf_counter() - start
        z_gap = np.abs(z_hits / n_sweeps - z_exact).max()
        omega_gap = np.abs(omega_hits / n_sweeps - omega_exact).max()
        assert z_gap < 0.01, f"cluster marginal off by {z_gap:.4f}"
        assert omega_gap < 0.01, f"class marginal off by {omega_gap:.4f}"
        assert elapsed < ENUMERATION_BUDGET_S
        print(
            f"\nACCEPTANCE 4 (exact enumeration): PASS  "
            f"z_gap={z_gap:.4f} omega_gap={omega_gap:.4f} seconds={elapsed:.1f}"
        )


class TestCriterion5ConjugateStatistics:
    def test_conditional_draw_statistics(self):
        details = []

        # noise variance: one pixel, one band, squared residual 2 -> IG(1.5, 1)
        lat1 = Lattice(1, 1)
        state = ChainState(
            A=AbundanceMatrix(np.zeros((1, 1))),
            noise=NoiseModel(1.0),
            clusters=ClusterParams(np.array([[1.0]]), np.array([[1.0]])),
            z=LabelField(np.zeros(1, dtype=np.int32), 1, lat1),
            q=InteractionMatrix(np.ones((1, 1))),
            omega=LabelField(np.zeros(1, dtype=np.int32), 1, lat1),
        )
        Y = ObservationMatrix(np.array([[np.sqrt(2.0)]]), lat1)
        M = EndmemberMatrix(np.array([[1.0]]))
        pre = _make_precomp(Y, M)
        rng = make_rng(51)
        draws = np.array([_sample_noise_fast(state, pre, rng) for _ in range(20_000)])
        gap = abs(np.median(draws) - 0.8453178681)
        assert gap < 0.0202, f"noise-variance median off by {gap:.4f}"
        details.append(f"s2_median_gap={gap:.4f}")

        # cluster variance: four members exactly on the mean -> IG(3, 0.1)
        lat4 = Lattice(1, 4)
        config = ModelConfig(n_clusters=1, n_classes=1, n_endmembers=1)
        state = ChainState(
            A=AbundanceMatrix(np.ones((1, 4))),
            noise=NoiseModel(1.0),
            clusters=ClusterParams(np.array([[1.0]]), np.array([[1.0]])),
            z=LabelField(np.zeros(4, dtype=np.int32), 1, lat4),
            q=InteractionMatrix(np.ones((1, 1))),
            omega=LabelField(np.zeros(4, dtype=np.int32), 1, lat4),
        )
        rng = make_rng(52)
        draws = np.array(
            [sample_cluster_variances(state, config, rng)[0, 0] for _ in range(20_000)]
        )
        sd = stats.invgamma(3.0, scale=0.1).std()
        gap = abs(draws.mean() - 0.05)
        assert gap < 3.0 * sd / np.sqrt(20_000), f"cluster-variance mean off by {gap:.5f}"
        details.append(f"sigma2_mean_gap={gap:.5f}")

        # interaction column: counts (2, 0, 1) -> Dir(3, 1, 2)
        lat3 = Lattice(1, 3)
        config = ModelConfig(n_clusters=3, n_classes=1, n_endmembers=1)
        rng = make_rng(53)
        cols = []
        for _ in range(10_000):
            state = ChainState(
                A=AbundanceMatrix(np.full((1, 3), 0.5)),
                noise=NoiseModel(1.0),
                clusters=ClusterParams(np.ones((3, 1)), np.ones((3, 1))),
                z=LabelField(np.array([0, 0, 2], dtype=np.int32), 3, lat3),
                q=InteractionMatrix(np.full((3, 1), 1.0 / 3.0)),
                omega=LabelField(np.zeros(3, dtype=np.int32), 1, lat3),
            )
            cols.append(sample_interaction_matrix(state, config, rng).q[:, 0])
        cols = np.array(cols)
        alpha = np.array([3.0, 1.0, 2.0])
        mean = alpha / alpha.sum()
        se = np.sqrt(mean * (1.0 - mean) / (alpha.sum() + 1.0) / 10_000)
        gaps = np.abs(cols.mean(axis=0) - mean)
        assert np.all(gaps < 3.0 * se), f"interaction column means off by {gaps}"
        details.append(f"q_mean_gap={gaps.max():.5f}")

        # simplex-truncated sampler vs a quadrature oracle of the
        # restricted-Gaussian marginal (KS at the 1% level)
        rng = make_rng(54)
        draws = np.array(
            [
                sample_gaussian_simplex_truncated_batch(
                    rng, np.array([[0.5, 0.5]]), np.array([[1.0, 1.0]]), 5, np.array([[0.5, 0.5]])
                )[0, 0]
                for _ in range(20_000)
            ]
        )
        grid = np.linspace(0.0, 1.0, 40_001)
        density = np.exp(-0.5 * ((grid - 0.5) / np.sqrt(0.5)) ** 2)
        cum = np.concatenate(
            [[0.0], np.cumsum((density[1:] + density[:-1]) * np.diff(grid) / 2.0)]
        )
        cum /= cum[-1]
        ks = stats.kstest(draws, lambda x: np.interp(x, grid, cum))
        assert ks.pvalue > 0.01, f"simplex sampler KS p-value {ks.pvalue:.4f}"
        details.append(f"simplex_ks_p={ks.pvalue:.3f}")

        print("\nACCEPTANCE 5 (conjugate statistics): PASS  " + " ".join(details))


class TestCriterion6InteractionStructure:
    def test_class_composition_recovered(self, image1_runs):
        masses = []
        for run in image1_runs:
            perm = align_clusters(run["z_hat"], run["z_true"])
            # rows of the estimated matrix whose aligned identity belongs to
            # class 1 = true clusters {0, 1}
            rows = np.flatnonzero(np.isin(perm, [0, 1]))
            masses.append(run["q_hat"][rows, 0].sum())
        masses = np.array(masses)
        assert np.all(masses >= 0.9), f"class-1 column masses {masses}"
        print(
            f"\nACCEPTANCE 6 (interaction structure): PASS  "
            f"min_mass={masses.min():.4f}"
        )


SMALL_SCENE = {
    "scene": {
        "height": 24, "width": 24,
        "clusters": 3, "classes": 2, "endmembers": 3,
        "cluster_to_class": [1, 1, 2],
        "dirichlet_means": "auto",
        "concentration": 30.0, "snr_db": 30.0,
        "potts_beta": 1.0, "potts_sweeps": 20,
    },
    "bands": 40,
    "training": {"kind": "top_rows", "fraction": 0.25, "eta": 0.95},
    "seed": 12,
}

SMALL_MODEL = {
    "clusters": 3, "classes": 2, "endmembers": 3,
    "beta1": 0.8, "beta2": 0.8,
    "iterations": 40, "burnin": 10, "seed": 5,
}


class TestCriterion7Determinism:
    def test_repeated_cli_runs_byte_identical(self, tmp_path):
        scene_cfg = tmp_path / "scene.json"
        scene_cfg.write_text(json.dumps(SMALL_SCENE))
        model_cfg = tmp_path / "model.json"
        model_cfg.write_text(json.dumps(SMALL_MODEL))
        outputs = {}
        for tag in ("first", "second"):
            bundle = tmp_path / f"bundle_{tag}"
            results = tmp_path / f"results_{tag}"
            assert cli_main(["generate", str(scene_cfg), "--out", str(bundle)]) == 0
            assert cli_main(["run", str(bundle), str(model_cfg), "--out", str(results)]) == 0
            payload = {}
            for name in BUNDLE_FILES:
                payload[f"bundle/{name}"] = (bundle / name).read_bytes()
            for name in RESULT_FILES:
                payload[f"results/{name}"] = (results / name).read_bytes()
            outputs[tag] = payload
        mismatched = [
            name
            for name in outputs["first"]
            if outputs["first"][name] != outputs["second"][name]
        ]
        assert not mismatched, f"outputs differ: {mismatched}"
        print(
            f"\nACCEPTANCE 7 (determinism): PASS  "
            f"{len(outputs['first'])} files byte-identical"
        )


class TestCriterion8InvariantSuite:
    def test_debug_validated_run(self):
        spec = SceneSpec(
            height=24, width=24,
            n_clusters=3, n_classes=2, n_endmembers=3,
            cluster_to_class=np.array([0, 0, 1]),
            dirichlet_means=default_cluster_means(3, 3),
            concentration=30.0, snr_db=30.0,
            potts_beta=1.0, potts_sweeps=20, seed=8,
        )
        M = make_endmembers(40, 3, make_rng(8, 1), 15.0)
        Y, _, _, omega_true, _ = generate_scene(spec, M, make_rng(8, 2))
        sup = split_training(omega_true, TrainingSplit("top_rows", 0.25, 0.95))
        config = ModelConfig(
            n_clusters=3, n_classes=2, n_endmembers=3,
            beta1=0.8, beta2=0.8, n_mc=40, n_burnin=10, seed=9,
        )
        estimates, trace = run_chain(Y, M, sup, config, debug_validate=True)
        estimates.validate()
        assert trace.n_recorded == 40
        print("\nACCEPTANCE 8 (invariant suite): PASS  50 validated sweeps")
