"""Scene generator: spatial fields, mixing, noise scaling and the training
split machinery."""

import hashlib
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import oracles
from hbum.cli import _STREAM_SCENE
from hbum.distributions import make_rng
from hbum.errors import GenerationError, InvalidParameterError, ValidationError
from hbum.io import load_generate_config
from hbum.lattice import Lattice, neighbor_value_counts
from hbum.model import LabelField
from hbum.synthgen import (
    SceneSpec,
    TrainingSplit,
    corrupt_labels,
    default_cluster_means,
    generate_potts_field,
    generate_scene,
    make_endmembers,
    split_training,
)


def image1_spec(seed=0, **overrides):
    kwargs = dict(
        height=100,
        width=100,
        n_clusters=3,
        n_classes=2,
        n_endmembers=3,
        cluster_to_class=np.array([0, 0, 1]),
        dirichlet_means=default_cluster_means(3, 3),
        concentration=30.0,
        snr_db=30.0,
        potts_beta=1.1,
        potts_sweeps=40,
        seed=seed,
    )
    kwargs.update(overrides)
    return SceneSpec(**kwargs)


def same_label_neighbor_fraction(field: LabelField) -> float:
    lat = field.lattice
    grid = field.grid()
    counts = neighbor_value_counts(grid, field.domain_size)
    rows = np.arange(lat.height)[:, None]
    cols = np.arange(lat.width)[None, :]
    same = counts[grid, rows, cols].sum()
    degree = counts.sum(axis=0).sum()
    return same / degree


class TestPottsField:
    def test_zero_coupling_gives_uniform_iid(self):
        spec = image1_spec(potts_beta=0.0, potts_sweeps=3, height=60, width=60)
        fld = generate_potts_field(spec, make_rng(0))
        freqs = np.bincount(fld.labels, minlength=3) / fld.labels.size
        # three standard errors of a 1/3 frequency over 3600 pixels
        np.testing.assert_allclose(freqs, 1.0 / 3.0, atol=3 * np.sqrt(2.0 / 9.0 / 3600))

    def test_strong_coupling_orders_field(self):
        # regression level measured from this generator at coupling 2.0
        spec = image1_spec(potts_beta=2.0, potts_sweeps=200)
        fld = generate_potts_field(spec, make_rng(1))
        assert same_label_neighbor_fraction(fld) > 0.9

    def test_fixed_seed_reproducible(self):
        spec = image1_spec(potts_sweeps=10, height=20, width=20)
        a = generate_potts_field(spec, make_rng(2))
        b = generate_potts_field(spec, make_rng(2))
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("height, width", [(1, 1), (1, 9), (7, 1), (5, 8), (20, 20)])
    @pytest.mark.parametrize("n_clusters", [1, 2, 3, 12])
    def test_matches_mask_reference(self, height, width, n_clusters):
        spec = image1_spec(
            potts_sweeps=6, height=height, width=width, n_clusters=n_clusters,
            n_classes=1, cluster_to_class=np.zeros(n_clusters),
            dirichlet_means=np.full((n_clusters, 3), 1.0 / 3.0),
        )
        rng, ref_rng = make_rng(3), make_rng(3)
        got = generate_potts_field(spec, rng)
        want = oracles.generate_potts_field(spec, ref_rng)
        assert got.labels.tobytes() == want.labels.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_zero_coupling_matches_mask_reference(self):
        # At coupling 0 every log-weight is 0.0: the draws and the
        # generator's consumption stay those of the reference.
        spec = image1_spec(potts_beta=0.0, potts_sweeps=3, height=6, width=7)
        rng, ref_rng = make_rng(4), make_rng(4)
        got = generate_potts_field(spec, rng)
        want = oracles.generate_potts_field(spec, ref_rng)
        assert got.labels.tobytes() == want.labels.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


    @pytest.mark.parametrize("name, digest", [
        ("image1", "504b2217ea0db694315bebb058188dfc58cff88dc15d3c020a42a5e53c8be3f7"),
        ("image2", "425bf306cb82e51285663744c9aca5b6278b4cbdd0446f7703957d0a598ef87a"),
    ])
    def test_shipped_scene_maps_keep_their_bits(self, name, digest):
        # SHA-256 of the int32 Potts maps that ``hbum generate`` draws for the
        # shipped configs; integer-only, so no BLAS build moves them. A
        # re-baseline of the scenes re-measures these.
        config = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
        spec = load_generate_config(config).scene
        field = generate_potts_field(spec, make_rng(spec.seed, _STREAM_SCENE))
        assert field.labels.dtype == np.int32
        assert hashlib.sha256(field.labels.tobytes()).hexdigest() == digest


class TestClusterMeans:
    def test_rows_on_simplex(self):
        means = default_cluster_means(12, 9)
        assert means.shape == (12, 9)
        assert np.all(means > 0.0)
        np.testing.assert_allclose(means.sum(axis=1), 1.0, atol=1e-12)

    def test_pairwise_separation(self):
        means = default_cluster_means(12, 9)
        for i in range(12):
            for j in range(i + 1, 12):
                assert np.abs(means[i] - means[j]).sum() >= 0.89

    def test_too_many_clusters_rejected(self):
        with pytest.raises(GenerationError):
            default_cluster_means(8, 2)

    @pytest.mark.parametrize("n_endmembers", range(1, 13))
    def test_same_means_as_listing_every_support(self, n_endmembers):
        # The first K supports are taken lazily, in the order of the list of
        # every single, pair and triple; more clusters than supports fail
        # with the same error.
        for n_clusters in range(1, 21):
            try:
                expected = oracles.default_cluster_means(n_clusters, n_endmembers)
            except GenerationError as exc:
                with pytest.raises(GenerationError, match=str(exc)):
                    default_cluster_means(n_clusters, n_endmembers)
                continue
            actual = default_cluster_means(n_clusters, n_endmembers)
            assert actual.tobytes() == expected.tobytes()

    def test_many_endmembers_build_only_the_used_supports(self):
        # Listing every triple of 100 000 endmembers would take about 1.7e14
        # tuples; the three used supports take microseconds.
        start = time.perf_counter()
        means = default_cluster_means(3, 100_000)
        assert time.perf_counter() - start < 1.0
        assert means.shape == (3, 100_000)
        assert [np.flatnonzero(row > 0.5).tolist() for row in means] == [[0], [1], [2]]


class TestEndmembers:
    def test_range_and_separation(self):
        M = make_endmembers(413, 5, make_rng(3), min_angle_deg=15.0)
        data = M.data
        assert data.shape == (413, 5)
        assert data.min() >= 0.0 and data.max() <= 1.0
        for i in range(5):
            for j in range(i + 1, 5):
                u, v = data[:, i], data[:, j]
                cos = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
                assert np.degrees(np.arccos(cos)) >= 15.0 - 1e-9

    def test_single_endmember_trivial(self):
        M = make_endmembers(50, 1, make_rng(4), min_angle_deg=5.0)
        assert M.data.shape == (50, 1)

    def test_fixed_seed_reproducible(self):
        a = make_endmembers(100, 3, make_rng(5), min_angle_deg=5.0)
        b = make_endmembers(100, 3, make_rng(5), min_angle_deg=5.0)
        assert np.array_equal(a.data, b.data)

    def test_impossible_separation_fails_cleanly(self):
        with pytest.raises(GenerationError):
            make_endmembers(40, 6, make_rng(6), min_angle_deg=88.0)

    def test_more_endmembers_than_bands_rejected(self):
        with pytest.raises(ValidationError):
            make_endmembers(3, 5, make_rng(7), min_angle_deg=5.0)


class TestGenerateScene:
    def test_image1_shapes(self):
        spec = image1_spec()
        M = make_endmembers(413, 3, make_rng(8), min_angle_deg=5.0)
        Y, A, z, omega, _ = generate_scene(spec, M, make_rng(9))
        assert Y.data.shape == (413, 10_000)
        assert A.data.shape == (3, 10_000)
        assert z.labels.shape == (10_000,)
        assert omega.labels.shape == (10_000,)

    def test_realized_snr_close_to_target(self):
        spec = image1_spec(height=50, width=50)
        M = make_endmembers(413, 3, make_rng(10), min_angle_deg=5.0)
        Y, A, _, _, _ = generate_scene(spec, M, make_rng(11))
        signal = M.data @ A.data
        noise = Y.data - signal
        realized = 10.0 * np.log10(np.sum(signal**2) / np.sum(noise**2))
        assert abs(realized - 30.0) < 0.1

    @pytest.mark.parametrize("n_bands, same_bits", [
        (24, True), (64, True), (130, True), (413, True), (65, False), (129, False),
    ])
    def test_realized_snr_matches_block_reference(self, n_bands, same_bits):
        # The reference forms each 64-band block's signal afresh. A lone
        # last band runs as a GEMV, whose sums may round otherwise.
        spec = image1_spec(height=40, width=40, potts_sweeps=5)
        M = make_endmembers(n_bands, 3, make_rng(18), min_angle_deg=5.0)
        Y, A, _, _, realized = generate_scene(spec, M, make_rng(19))
        signal_power, noise_power = oracles.signal_and_noise_power(Y.data, M.data, A.data)
        want = 10.0 * np.log10(signal_power / noise_power)
        if same_bits:
            assert float(realized).hex() == float(want).hex()
        else:
            assert realized == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_infinite_snr_is_noiseless(self):
        spec = image1_spec(height=10, width=10, snr_db=np.inf, potts_sweeps=5)
        M = make_endmembers(30, 3, make_rng(12), min_angle_deg=5.0)
        Y, A, _, _, realized = generate_scene(spec, M, make_rng(13))
        assert np.array_equal(Y.data, M.data @ A.data)
        assert realized == np.inf

    def test_abundances_on_simplex(self):
        spec = image1_spec(height=20, width=20, potts_sweeps=5)
        M = make_endmembers(40, 3, make_rng(14), min_angle_deg=5.0)
        _, A, _, _, _ = generate_scene(spec, M, make_rng(15))
        assert A.data.min() >= 0.0
        np.testing.assert_allclose(A.data.sum(axis=0), 1.0, atol=1e-9)

    def test_class_map_follows_cluster_map(self):
        spec = image1_spec(height=15, width=15, potts_sweeps=5)
        M = make_endmembers(40, 3, make_rng(16), min_angle_deg=5.0)
        _, _, z, omega, _ = generate_scene(spec, M, make_rng(17))
        np.testing.assert_array_equal(omega.labels, spec.cluster_to_class[z.labels])

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            image1_spec(cluster_to_class=np.array([0, 0, 0])).validate()  # misses class 1
        with pytest.raises(ValidationError):
            image1_spec(concentration=0.0).validate()
        with pytest.raises(ValidationError):
            image1_spec(potts_sweeps=0).validate()


class TestSplitTraining:
    def make_omega(self, height=100, width=100):
        lat = Lattice(height, width)
        rng = make_rng(18)
        labels = rng.integers(0, 2, size=lat.n_pixels).astype(np.int32)
        return LabelField(labels, 2, lat)

    def test_top_quarter_size(self):
        omega = self.make_omega()
        sup = split_training(omega, TrainingSplit("top_rows", 0.25, 0.95))
        assert sup.n_labeled == 2500
        assert sup.labeled_idx.max() < 2500

    def test_constant_confidence(self):
        omega = self.make_omega()
        sup = split_training(omega, TrainingSplit("top_rows", 0.25, 0.95))
        assert np.all(sup.eta == 0.95)

    def test_labels_copied_from_truth(self):
        omega = self.make_omega(20, 20)
        sup = split_training(omega, TrainingSplit("top_rows", 0.5, 0.9))
        np.testing.assert_array_equal(sup.c, omega.labels[sup.labeled_idx])

    def test_zero_fraction_rejected(self):
        with pytest.raises(ValidationError):
            split_training(self.make_omega(), TrainingSplit("top_rows", 0.0, 0.95))

    def test_tiny_fraction_selects_nothing(self):
        omega = self.make_omega(4, 4)
        with pytest.raises(ValidationError):
            split_training(omega, TrainingSplit("top_rows", 0.01, 0.95))

    def test_missing_class_in_region_rejected(self):
        lat = Lattice(4, 4)
        labels = np.zeros(16, dtype=np.int32)
        labels[12:] = 1  # class 1 only in the bottom row
        omega = LabelField(labels, 2, lat)
        with pytest.raises(ValidationError):
            split_training(omega, TrainingSplit("top_rows", 0.25, 0.95))

    def test_random_split(self):
        omega = self.make_omega(30, 30)
        sup = split_training(omega, TrainingSplit("random", 0.2, 0.9), make_rng(19))
        assert sup.n_labeled == 180
        assert np.unique(sup.labeled_idx).size == 180

    def test_random_split_needs_rng(self):
        with pytest.raises(ValidationError):
            split_training(self.make_omega(), TrainingSplit("random", 0.2, 0.9))


class TestCorruptLabels:
    def make_sup(self, n_classes=2, n_labeled=4000):
        lat = Lattice(80, 80)
        rng = make_rng(20)
        labels = rng.integers(0, n_classes, size=lat.n_pixels).astype(np.int32)
        omega = LabelField(labels, n_classes, lat)
        return split_training(omega, TrainingSplit("top_rows", n_labeled / 6400, 0.95))

    def test_zero_rate_changes_nothing(self):
        sup = self.make_sup()
        out = corrupt_labels(sup, 0.0, make_rng(21))
        np.testing.assert_array_equal(out.c, sup.c)
        assert np.all(out.eta == 0.95)

    def test_flip_rate_matches_alpha(self):
        sup = self.make_sup()
        out = corrupt_labels(sup, 0.4, make_rng(22))
        n = sup.n_labeled
        flipped = np.mean(out.c != sup.c)
        # with two classes every corruption flips; binomial three-sigma band
        assert abs(flipped - 0.4) < 3.0 * np.sqrt(0.4 * 0.6 / n)

    def test_confidence_tracks_alpha_with_cap(self):
        sup = self.make_sup()
        assert np.all(corrupt_labels(sup, 0.3, make_rng(23)).eta == pytest.approx(0.7))
        assert np.all(corrupt_labels(sup, 0.01, make_rng(24)).eta == pytest.approx(0.95))

    def test_wrong_labels_equiprobable(self):
        sup = self.make_sup(n_classes=5, n_labeled=6000)
        out = corrupt_labels(sup, 0.5, make_rng(25))
        changed_to = out.c[out.c != sup.c]
        # among corrupted pixels, the 4 wrong labels of each truth value are
        # uniform; chi-square over the distribution of (new - old) mod 5
        diffs = (changed_to - sup.c[out.c != sup.c]) % 5
        counts = np.bincount(diffs, minlength=5)[1:]
        chi2 = ((counts - counts.mean()) ** 2 / counts.mean()).sum()
        assert chi2 < stats.chi2(df=3).ppf(0.999)

    def test_proportions_recomputed(self):
        sup = self.make_sup()
        out = corrupt_labels(sup, 0.4, make_rng(26))
        counts = np.bincount(out.c, minlength=2)
        np.testing.assert_allclose(out.pi, counts / counts.sum())

    def test_invalid_rate_rejected(self):
        sup = self.make_sup()
        with pytest.raises(InvalidParameterError):
            corrupt_labels(sup, 1.0, make_rng(27))
        with pytest.raises(InvalidParameterError):
            corrupt_labels(sup, -0.1, make_rng(28))
