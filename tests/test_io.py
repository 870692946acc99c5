"""On-disk formats: byte-exact round trips, corruption detection and strict
config validation."""

import dataclasses
import json
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbum import cli, io, sampler
from hbum.errors import DataFormatError, ValidationError
from hbum.io import (
    generate_config_echo,
    load_generate_config,
    load_model_config,
    model_config_echo,
    read_label_field,
    read_matrix,
    write_label_field,
    write_matrix,
)
from hbum.distributions import make_rng
from hbum.lattice import Lattice
from hbum.model import (
    AbundanceMatrix,
    ChainState,
    ClusterParams,
    InteractionMatrix,
    LabelField,
    NoiseModel,
)
from hbum.sampler import Trace


_FOOTER_BYTES = len(b"crc32:00000000\n")


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return path


def in_the_other_dtype(arr):
    """``arr`` as the container's other dtype: u32 becomes f64, and f64
    becomes u32 counts of 1/70 000."""
    if arr.dtype == np.uint32:
        return arr.astype(np.float64)
    return np.round(np.abs(arr) * 7e4).astype(np.uint32)


SCENE_CONFIG = {
    "scene": {
        "height": 8,
        "width": 8,
        "clusters": 3,
        "classes": 2,
        "endmembers": 3,
        "cluster_to_class": [1, 1, 2],
        "dirichlet_means": "auto",
        "concentration": 30.0,
        "snr_db": 30.0,
        "potts_beta": 1.0,
        "potts_sweeps": 10,
    },
    "bands": 16,
    "training": {"kind": "top_rows", "fraction": 0.25, "eta": 0.95},
    "seed": 5,
}

MODEL_CONFIG = {
    "clusters": 3,
    "classes": 2,
    "endmembers": 3,
    "beta1": 0.8,
    "beta2": 0.8,
    "iterations": 20,
    "burnin": 5,
    "seed": 1,
}


class TestMatrixContainer:
    def test_float_round_trip_bitwise(self, tmp_path):
        arr = np.random.default_rng(0).normal(size=(7, 5))
        path = tmp_path / "m.hbm"
        write_matrix(path, arr)
        back = read_matrix(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, arr)

    def test_uint_round_trip_bitwise(self, tmp_path):
        arr = np.random.default_rng(1).integers(0, 2**32, size=(3, 9)).astype(np.uint32)
        path = tmp_path / "m.hbm"
        write_matrix(path, arr)
        assert np.array_equal(read_matrix(path), arr)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
    )
    def test_round_trip_random_arrays(self, tmp_path_factory, seed, rows, cols):
        arr = np.random.default_rng(seed).normal(size=(rows, cols))
        path = tmp_path_factory.mktemp("rt") / "m.hbm"
        write_matrix(path, arr)
        assert np.array_equal(read_matrix(path), arr)

    def test_rewrite_is_byte_identical(self, tmp_path):
        arr = np.random.default_rng(2).normal(size=(4, 4))
        p1, p2 = tmp_path / "a.hbm", tmp_path / "b.hbm"
        write_matrix(p1, arr)
        write_matrix(p2, arr.copy())
        assert p1.read_bytes() == p2.read_bytes()

    def test_payload_corruption_detected(self, tmp_path):
        path = tmp_path / "m.hbm"
        write_matrix(path, np.ones((3, 3)))
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="checksum"):
            read_matrix(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "m.hbm"
        write_matrix(path, np.ones((3, 3)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(DataFormatError):
            read_matrix(path)

    def test_bad_magic_detected(self, tmp_path):
        path = tmp_path / "m.hbm"
        path.write_bytes(b"NOPE1\n" + b"x" * 40)
        with pytest.raises(DataFormatError, match="magic"):
            read_matrix(path)

    def test_trailing_bytes_after_footer_detected(self, tmp_path):
        path = tmp_path / "m.hbm"
        write_matrix(path, np.ones((3, 3)))
        path.write_bytes(path.read_bytes() + b"\n")
        with pytest.raises(DataFormatError, match="truncated or oversized"):
            read_matrix(path)

    @pytest.mark.parametrize("claimed_rows", [2, 4])
    def test_header_row_count_must_match_payload(self, tmp_path, claimed_rows):
        path = tmp_path / "m.hbm"
        write_matrix(path, np.ones((3, 3)))
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b'"rows": 3', b'"rows": %d' % claimed_rows, 1))
        with pytest.raises(DataFormatError, match="truncated or oversized"):
            read_matrix(path)

    @pytest.mark.parametrize("stored", [b'"f32"', b'["f64"]', b'{"f64": 1}'])
    def test_unknown_dtype_in_the_header_is_a_format_error(self, tmp_path, stored):
        path = tmp_path / "m.hbm"
        write_matrix(path, np.ones((3, 3)))
        path.write_bytes(path.read_bytes().replace(b'"f64"', stored, 1))
        with pytest.raises(DataFormatError, match="m.hbm: unsupported dtype"):
            read_matrix(path)

    @pytest.mark.parametrize(
        "footer", [b"crc31:00000000\n", b"crc32:0000000g\n", b"crc32:000000000"]
    )
    def test_malformed_footer_detected(self, tmp_path, footer):
        path = tmp_path / "m.hbm"
        write_matrix(path, np.ones((3, 3)))
        raw = path.read_bytes()
        path.write_bytes(raw[: -len(footer)] + footer)
        with pytest.raises(DataFormatError, match="malformed checksum footer"):
            read_matrix(path)

    @pytest.mark.parametrize("dtype", [np.float64, np.uint32])
    def test_zero_row_round_trip(self, tmp_path, dtype):
        path = tmp_path / "m.hbm"
        write_matrix(path, np.zeros((0, 5), dtype=dtype))
        back = read_matrix(path)
        assert back.shape == (0, 5) and back.dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float64, np.uint32])
    @pytest.mark.parametrize("layout", ["C", "F", "strided", "0 rows", "0 cols"])
    def test_bytes_match_concatenated_layout(self, tmp_path, dtype, layout):
        # The payload is checksummed and written from the array's buffer;
        # the file must be what the concatenated form gives.
        arr = (np.random.default_rng(3).random((12, 10)) * 1e6).astype(dtype)
        arr = {"C": arr, "F": np.asfortranarray(arr), "strided": arr[::2, 1::3],
               "0 rows": arr[:0], "0 cols": arr[:, :0]}[layout]
        path = tmp_path / "m.hbm"
        write_matrix(path, arr)
        name = "f64" if dtype == np.float64 else "u32"
        header = json.dumps(
            {"dtype": name, "rows": arr.shape[0], "cols": arr.shape[1], "order": "row-major"},
            sort_keys=True,
        ).encode() + b"\n"
        payload = arr.astype(arr.dtype.newbyteorder("<")).tobytes(order="C")
        crc = zlib.crc32(header + payload) & 0xFFFFFFFF
        assert path.read_bytes() == b"HBUM1\n" + header + payload + b"crc32:%08x\n" % crc
        back = read_matrix(path)
        assert back.dtype == dtype and np.array_equal(back, arr)

    def test_result_is_writable_and_owns_its_memory(self, tmp_path):
        path = tmp_path / "m.hbm"
        write_matrix(path, np.arange(12.0).reshape(3, 4))
        back = read_matrix(path)
        assert back.flags.writeable and back.flags.owndata and back.flags.c_contiguous
        back[0, 0] = -1.0
        np.testing.assert_array_equal(read_matrix(path), np.arange(12.0).reshape(3, 4))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError):
            read_matrix(tmp_path / "absent.hbm")

    @pytest.mark.parametrize("stored, asked", [(np.float64, "u32"), (np.uint32, "f64")])
    def test_the_dtype_asked_for_is_checked(self, tmp_path, stored, asked):
        path = tmp_path / "m.hbm"
        write_matrix(path, np.ones((2, 3), dtype=stored))
        other = {"u32": "f64", "f64": "u32"}[asked]
        with pytest.raises(DataFormatError, match=f"m.hbm: must be stored as {asked}, not {other}"):
            read_matrix(path, asked)
        assert read_matrix(path, other).dtype == stored
        assert read_matrix(path).dtype == stored

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_matrix(tmp_path / "m.hbm", np.ones((2, 2), dtype=np.float32))


class TestObservationFile:
    """Y.hbm read in band blocks: the header when opened, the payload only
    when the blocks are asked for."""

    @pytest.mark.parametrize("rows, n_rows", [(1, 16), (16, 16), (17, 16), (40, 16), (5, 2)])
    def test_blocks_are_the_rows_as_float64(self, tmp_path, rows, n_rows):
        data = np.random.default_rng(rows).normal(size=(rows, 6))
        write_matrix(tmp_path / "Y.hbm", data)
        obs = io.ObservationFile.open(tmp_path / "Y.hbm", Lattice(2, 3))
        assert obs.n_bands == rows
        firsts, blocks = zip(*[(lo, block.copy()) for lo, block in obs.band_blocks(n_rows)])
        assert list(firsts) == list(range(0, rows, n_rows))
        assert [len(b) for b in blocks] == [min(n_rows, rows - lo) for lo in range(0, rows, n_rows)]
        assert all(b.dtype == np.float64 and b.flags.c_contiguous for b in blocks)
        assert np.array_equal(np.vstack(blocks), data)

    def test_a_u32_file_is_rejected_when_opened(self, tmp_path):
        write_matrix(tmp_path / "Y.hbm", np.ones((4, 6), dtype=np.uint32))
        with pytest.raises(DataFormatError, match="Y.hbm: must be stored as f64, not u32"):
            io.ObservationFile.open(tmp_path / "Y.hbm", Lattice(2, 3))

    def test_checksum_is_checked_after_the_last_block(self, tmp_path):
        write_matrix(tmp_path / "Y.hbm", np.ones((40, 6)))
        raw = bytearray((tmp_path / "Y.hbm").read_bytes())
        raw[-_FOOTER_BYTES - 1] ^= 0x01  # the last payload byte
        (tmp_path / "Y.hbm").write_bytes(bytes(raw))
        obs = io.ObservationFile.open(tmp_path / "Y.hbm", Lattice(2, 3))
        seen = []
        with pytest.raises(DataFormatError, match="Y.hbm: checksum mismatch"):
            for _, block in obs.band_blocks(16):
                seen.append(len(block))
        assert seen == [16, 16, 8]

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw[:-3], "truncated or oversized"),
        (lambda raw: raw + b"\0", "truncated or oversized"),
        (lambda raw: b"NOPE1\n" + raw[6:], "bad magic"),
    ])
    def test_open_checks_the_header_and_size(self, tmp_path, edit, message):
        write_matrix(tmp_path / "Y.hbm", np.ones((4, 6)))
        (tmp_path / "Y.hbm").write_bytes(edit((tmp_path / "Y.hbm").read_bytes()))
        with pytest.raises(DataFormatError, match=message):
            io.ObservationFile.open(tmp_path / "Y.hbm", Lattice(2, 3))

    def test_open_checks_the_columns_and_the_file(self, tmp_path):
        write_matrix(tmp_path / "Y.hbm", np.ones((4, 6)))
        with pytest.raises(DataFormatError, match="columns do not match the label grid"):
            io.ObservationFile.open(tmp_path / "Y.hbm", Lattice(2, 4))
        with pytest.raises(DataFormatError, match="cannot read"):
            io.ObservationFile.open(tmp_path / "absent.hbm", Lattice(2, 3))

    def test_a_file_changed_after_opening_is_rejected(self, tmp_path):
        write_matrix(tmp_path / "Y.hbm", np.ones((4, 6)))
        obs = io.ObservationFile.open(tmp_path / "Y.hbm", Lattice(2, 3))
        write_matrix(tmp_path / "Y.hbm", np.ones((5, 6)))
        with pytest.raises(DataFormatError, match="changed since"):
            list(obs.band_blocks(16))


@pytest.fixture
def bundle_dir(tmp_path):
    """A bundle that ``hbum generate`` wrote from SCENE_CONFIG, with training
    pixels drawn at random so that both classes have some."""
    config = dict(SCENE_CONFIG, training=dict(SCENE_CONFIG["training"], kind="random"))
    scene = write_json(tmp_path / "scene.json", config)
    assert cli.main(["generate", str(scene), "--out", str(tmp_path / "bundle")]) == 0
    return tmp_path / "bundle"


def flip_first_payload_bit(path):
    """Flip the lowest bit of the first payload value: it stays finite, but
    the checksum no longer holds."""
    raw = bytearray(path.read_bytes())
    raw[len(io.MAGIC) + raw[len(io.MAGIC):].index(b"\n") + 1] ^= 0x01
    path.write_bytes(bytes(raw))


class TestBundleFiles:
    """A bundle's Y is read in band blocks from its file, never whole."""

    def test_read_bundle_reads_only_the_header_of_y(self, bundle_dir, monkeypatch):
        read, seen = io.read_matrix, []

        def spy(path, *args):
            seen.append(Path(path).name)
            return read(path, *args)

        monkeypatch.setattr(io, "read_matrix", spy)
        bundle = io.read_bundle(bundle_dir)
        assert "Y.hbm" not in seen and "M.hbm" in seen
        assert isinstance(bundle.Y, io.ObservationFile)
        assert (bundle.Y.n_bands, bundle.Y.lattice.n_pixels) == (16, 64)

    def test_a_corrupt_y_payload_loads_and_fails_where_the_statistics_form(self, bundle_dir):
        flip_first_payload_bit(bundle_dir / "Y.hbm")
        bundle = io.read_bundle(bundle_dir)
        with pytest.raises(DataFormatError, match="Y.hbm: checksum mismatch"):
            sampler._make_precomp(bundle.Y, bundle.M)

    def test_rewriting_a_corrupt_y_leaves_no_file_that_reads_back(self, bundle_dir, tmp_path):
        flip_first_payload_bit(bundle_dir / "Y.hbm")
        with pytest.raises(DataFormatError, match="Y.hbm: checksum mismatch"):
            io.write_bundle(tmp_path / "copy", io.read_bundle(bundle_dir))
        with pytest.raises(DataFormatError, match="truncated or oversized"):
            read_matrix(tmp_path / "copy" / "Y.hbm")

    def test_y_is_not_written_onto_the_file_it_streams_from(self, bundle_dir):
        before = (bundle_dir / "Y.hbm").read_bytes()
        with pytest.raises(ValidationError, match="file it streams from"):
            io.write_bundle(bundle_dir, io.read_bundle(bundle_dir))
        assert (bundle_dir / "Y.hbm").read_bytes() == before

    @pytest.mark.parametrize("name", io.BUNDLE_FILES)
    def test_a_file_in_the_other_dtype_is_a_format_error_naming_it(self, bundle_dir, name):
        # Every file is read in the dtype hbum writes it in: u32 endmembers
        # would form M^T M in wrapping integer arithmetic.
        write_matrix(bundle_dir / name, in_the_other_dtype(read_matrix(bundle_dir / name)))
        with pytest.raises(DataFormatError, match=f"{name}: must be stored as"):
            io.read_bundle(bundle_dir)

    def test_blocks_are_written_as_one_matrix(self, tmp_path):
        data = np.random.default_rng(1).normal(size=(37, 5))
        write_matrix(tmp_path / "whole.hbm", data)
        io._write_blocks(tmp_path / "blocks.hbm", data.dtype, data.shape, np.split(data, [16, 32]))
        assert (tmp_path / "blocks.hbm").read_bytes() == (tmp_path / "whole.hbm").read_bytes()


class TestLabelFieldFiles:
    def test_one_based_on_disk(self, tmp_path):
        lat = Lattice(2, 3)
        fld = LabelField(np.array([0, 1, 2, 2, 1, 0], dtype=np.int32), 3, lat)
        path = tmp_path / "z.hbm"
        write_label_field(path, fld)
        stored = read_matrix(path)
        assert stored.min() == 1 and stored.max() == 3
        back = read_label_field(path, 3)
        assert np.array_equal(back.labels, fld.labels)
        assert back.lattice == lat

    def test_out_of_domain_labels_rejected(self, tmp_path):
        path = tmp_path / "z.hbm"
        write_matrix(path, np.array([[1, 5]], dtype=np.uint32))
        with pytest.raises(DataFormatError):
            read_label_field(path, 3)

    @pytest.mark.parametrize("shape", [(0, 16), (16, 0)])
    def test_empty_grid_is_a_format_error_naming_the_file(self, tmp_path, shape):
        path = tmp_path / "z.hbm"
        write_matrix(path, np.zeros(shape, dtype=np.uint32))
        with pytest.raises(DataFormatError, match="z.hbm"):
            read_label_field(path, 3)


class TestGenerateConfig:
    def test_valid_config_loads(self, tmp_path):
        cfg = load_generate_config(write_json(tmp_path / "c.json", SCENE_CONFIG))
        assert cfg.scene.n_clusters == 3
        assert cfg.scene.cluster_to_class.tolist() == [0, 0, 1]
        assert cfg.scene.dirichlet_means.shape == (3, 3)
        assert cfg.n_bands == 16
        assert cfg.training.fraction == 0.25

    def test_unknown_key_rejected_by_name(self, tmp_path):
        bad = dict(SCENE_CONFIG, typo_field=1)
        with pytest.raises(ValidationError, match="typo_field"):
            load_generate_config(write_json(tmp_path / "c.json", bad))

    def test_unknown_nested_key_rejected(self, tmp_path):
        bad = json.loads(json.dumps(SCENE_CONFIG))
        bad["scene"]["extra"] = 2
        with pytest.raises(ValidationError, match="extra"):
            load_generate_config(write_json(tmp_path / "c.json", bad))

    def test_missing_field_named(self, tmp_path):
        bad = json.loads(json.dumps(SCENE_CONFIG))
        del bad["scene"]["height"]
        with pytest.raises(ValidationError, match="height"):
            load_generate_config(write_json(tmp_path / "c.json", bad))

    def test_infinite_snr_spelled_out(self, tmp_path):
        cfg_data = json.loads(json.dumps(SCENE_CONFIG))
        cfg_data["scene"]["snr_db"] = "inf"
        cfg = load_generate_config(write_json(tmp_path / "c.json", cfg_data))
        assert np.isinf(cfg.scene.snr_db)

    def test_explicit_means_matrix(self, tmp_path):
        cfg_data = json.loads(json.dumps(SCENE_CONFIG))
        cfg_data["scene"]["dirichlet_means"] = [
            [0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8],
        ]
        cfg = load_generate_config(write_json(tmp_path / "c.json", cfg_data))
        assert cfg.scene.dirichlet_means[0, 0] == 0.8

    def test_seed_override(self, tmp_path):
        cfg = load_generate_config(write_json(tmp_path / "c.json", SCENE_CONFIG), 99)
        assert cfg.scene.seed == 99

    def test_not_json_is_format_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(DataFormatError):
            load_generate_config(path)


class TestShippedConfigs:
    """The protocol configs under configs/ must stay loadable and carry the
    documented experiment settings."""

    configs_dir = Path(__file__).parent.parent / "configs"

    def test_scene_configs(self):
        img1 = load_generate_config(self.configs_dir / "image1.json")
        assert img1.n_bands == 413
        assert (img1.scene.height, img1.scene.width) == (100, 100)
        assert (img1.scene.n_clusters, img1.scene.n_classes) == (3, 2)
        assert img1.training.eta == 0.95
        img2 = load_generate_config(self.configs_dir / "image2.json")
        assert (img2.scene.height, img2.scene.width) == (200, 200)
        assert (img2.scene.n_clusters, img2.scene.n_classes) == (12, 5)
        assert img2.scene.n_endmembers == 9

    def test_model_configs(self):
        for name, n_clusters in (("model_image1.json", 3), ("model_image2.json", 12)):
            cfg = load_model_config(self.configs_dir / name)
            assert cfg.n_clusters == n_clusters
            assert cfg.beta1 == 0.8 and cfg.beta2 == 0.8
            assert cfg.n_mc == 250 and cfg.n_burnin == 50


class TestModelConfigFile:
    def test_valid_config(self, tmp_path):
        cfg = load_model_config(write_json(tmp_path / "m.json", MODEL_CONFIG))
        assert cfg.n_mc == 15 and cfg.n_burnin == 5
        assert cfg.beta1 == 0.8

    def test_overrides_take_precedence(self, tmp_path):
        cfg = load_model_config(
            write_json(tmp_path / "m.json", MODEL_CONFIG),
            overrides={"beta1": 0.3, "iterations": 40, "seed": None},
        )
        assert cfg.beta1 == 0.3
        assert cfg.n_mc == 35
        assert cfg.seed == 1  # None override falls back to the file value

    def test_iterations_must_exceed_burnin(self, tmp_path):
        bad = dict(MODEL_CONFIG, iterations=5, burnin=5)
        with pytest.raises(ValidationError):
            load_model_config(write_json(tmp_path / "m.json", bad))

    def test_unknown_key_rejected(self, tmp_path):
        bad = dict(MODEL_CONFIG, oops=1)
        with pytest.raises(ValidationError, match="oops"):
            load_model_config(write_json(tmp_path / "m.json", bad))

    def test_missing_key_named(self, tmp_path):
        bad = dict(MODEL_CONFIG)
        del bad["clusters"]
        with pytest.raises(ValidationError, match="clusters"):
            load_model_config(write_json(tmp_path / "m.json", bad))

    def test_vector_zeta_accepted(self, tmp_path):
        cfg = load_model_config(
            write_json(tmp_path / "m.json", dict(MODEL_CONFIG, zeta=[1.0, 2.0, 3.0]))
        )
        np.testing.assert_allclose(cfg.zeta, [1.0, 2.0, 3.0])


# The keys a config must hold; every other key is left at its default.
MINIMAL_SCENE = {
    "scene": {
        "height": 8, "width": 8, "clusters": 3, "classes": 2, "endmembers": 3,
        "cluster_to_class": [1, 1, 2],
    },
    "training": {"fraction": 0.25},
    "seed": 5,
}
MINIMAL_MODEL = {
    "clusters": 3, "classes": 2, "endmembers": 3, "iterations": 20, "burnin": 5, "seed": 1,
}

# A legal non-default value for every key, as (section, patch): the first
# key of the patch is the one under test, and the rest keep it consistent.
# Section None is the top level.
SCENE_CASES = [
    ("scene", {"height": 6}),
    ("scene", {"width": 5}),
    ("scene", {"clusters": 4, "cluster_to_class": [1, 1, 2, 2]}),
    ("scene", {"classes": 3, "cluster_to_class": [1, 2, 3]}),
    ("scene", {"endmembers": 4}),
    ("scene", {"cluster_to_class": [2, 1, 2]}),
    ("scene", {"dirichlet_means": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]]}),
    ("scene", {"concentration": 12.5}),
    ("scene", {"snr_db": 21.5}),
    ("scene", {"snr_db": "inf"}),
    ("scene", {"potts_beta": 0.45}),
    ("scene", {"potts_sweeps": 7}),
    ("training", {"kind": "random"}),
    ("training", {"fraction": 0.5}),
    ("training", {"eta": 0.8}),
    (None, {"bands": 12}),
    (None, {"endmember_file": "library.hbm"}),
    (None, {"min_endmember_angle_deg": 20.0}),
    (None, {"seed": 9}),
]
MODEL_CASES = [
    {"clusters": 4},
    {"classes": 3},
    {"endmembers": 4},
    {"beta1": 0.3},
    {"beta2": 1.2},
    {"zeta": [1.0, 2.0, 3.0]},
    {"zeta": 2.0},
    {"xi": 2.5},
    {"gamma": 0.3},
    {"iterations": 30},
    {"burnin": 9},
    {"seed": 4},
    {"class_proportions": [0.3, 0.7]},
]


def same_config(a, b) -> bool:
    """Field-by-field equality of two configs; arrays compare by dtype and
    value, everything else by type and value."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same_config(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def accepted_keys(monkeypatch, load, path) -> dict:
    """The keys ``load`` accepts in each section of ``path``, keyed by
    section (None for the top level), as it hands them to _check_keys."""
    accepted = {}
    check = io._check_keys

    def record(mapping, required, optional, where):
        accepted[where[len(str(path)) + 1:] or None] = required | optional
        check(mapping, required, optional, where)

    monkeypatch.setattr(io, "_check_keys", record)
    load(path)
    return accepted


def case_id(case) -> str:
    section, patch = case if isinstance(case, tuple) else (None, case)
    key = next(iter(patch))
    return f"{section or 'top'}.{key}={json.dumps(patch[key])}"


class TestConfigEcho:
    """Every key a loader accepts reaches the manifest echo, and the echo
    loads back to the config it was written from."""

    @pytest.mark.parametrize("section, patch", SCENE_CASES, ids=map(case_id, SCENE_CASES))
    def test_scene_key_round_trips(self, tmp_path, section, patch):
        data = json.loads(json.dumps(MINIMAL_SCENE))
        (data if section is None else data[section]).update(patch)
        base = load_generate_config(write_json(tmp_path / "base.json", MINIMAL_SCENE))
        first = load_generate_config(write_json(tmp_path / "c.json", data))
        assert not same_config(first, base)  # the key took effect
        echo = generate_config_echo(first)
        assert same_config(load_generate_config(write_json(tmp_path / "e.json", echo)), first)

    @pytest.mark.parametrize("patch", MODEL_CASES, ids=map(case_id, MODEL_CASES))
    def test_model_key_round_trips(self, tmp_path, patch):
        base = load_model_config(write_json(tmp_path / "base.json", MINIMAL_MODEL))
        first = load_model_config(write_json(tmp_path / "m.json", dict(MINIMAL_MODEL, **patch)))
        assert not same_config(first, base)
        echo = model_config_echo(first)
        assert same_config(load_model_config(write_json(tmp_path / "e.json", echo)), first)

    def test_scene_echo_holds_every_accepted_key(self, tmp_path, monkeypatch):
        path = write_json(tmp_path / "c.json", MINIMAL_SCENE)
        accepted = accepted_keys(monkeypatch, load_generate_config, path)
        echo = generate_config_echo(load_generate_config(path))
        assert accepted == {
            None: set(echo), "scene": set(echo["scene"]), "training": set(echo["training"]),
        }
        covered = {(section, next(iter(patch))) for section, patch in SCENE_CASES}
        assert covered == {
            (section, key)
            for section, keys in accepted.items()
            for key in keys - {"scene", "training"}
        }

    def test_model_echo_holds_every_accepted_key(self, tmp_path, monkeypatch):
        path = write_json(tmp_path / "m.json", MINIMAL_MODEL)
        accepted = accepted_keys(monkeypatch, load_model_config, path)
        echo = model_config_echo(load_model_config(path))
        assert accepted == {None: set(echo)}
        assert {next(iter(patch)) for patch in MODEL_CASES} == set(echo)


class TestResultSetRoundTrip:
    def test_read_results_gives_back_the_estimates(self, tmp_path):
        # Every field of the state, compared by type and value: a field the
        # files do not hold would read back as its default.
        gen = make_rng(3)
        lat, n_clusters, n_classes = Lattice(4, 5), 3, 2
        trace = Trace.empty(3, lat.n_pixels, n_clusters, n_classes)
        for _ in range(3):
            trace.record(ChainState(
                A=AbundanceMatrix(gen.dirichlet(np.ones(3), size=lat.n_pixels).T.copy()),
                noise=NoiseModel(float(gen.uniform(0.1, 1.0))),
                clusters=ClusterParams(gen.dirichlet(np.ones(3), size=n_clusters),
                                       gen.uniform(0.1, 1.0, size=(n_clusters, 3))),
                z=LabelField(gen.integers(n_clusters, size=lat.n_pixels), n_clusters, lat),
                q=InteractionMatrix(gen.dirichlet(np.ones(n_clusters), size=n_classes).T),
                omega=LabelField(gen.integers(n_classes, size=lat.n_pixels), n_classes, lat),
            ))
        estimates = trace.estimates(lat)
        counts = {"clusters": n_clusters, "classes": n_classes}
        io.write_results(tmp_path, estimates, trace.omega_frequencies(), {"counts": counts})
        read, omega_freq, _ = io.read_results(tmp_path)
        assert same_config(read, estimates)
        assert same_config(omega_freq, trace.omega_frequencies())

    @pytest.mark.parametrize("name", io.RESULT_FILES)
    def test_a_file_in_the_other_dtype_is_a_format_error_naming_it(self, tmp_path, name):
        lat = Lattice(4, 5)
        gen = make_rng(4)
        estimates = ChainState(
            A=AbundanceMatrix(gen.dirichlet(np.ones(3), size=lat.n_pixels).T.copy()),
            noise=NoiseModel(0.5),
            clusters=ClusterParams(gen.dirichlet(np.ones(3), size=3), np.ones((3, 3))),
            z=LabelField(gen.integers(3, size=lat.n_pixels), 3, lat),
            q=InteractionMatrix(np.full((3, 2), 1.0 / 3.0)),
            omega=LabelField(gen.integers(2, size=lat.n_pixels), 2, lat),
        )
        counts = {"clusters": 3, "classes": 2}
        io.write_results(tmp_path, estimates, np.full((2, lat.n_pixels), 0.5), {"counts": counts})
        write_matrix(tmp_path / name, in_the_other_dtype(read_matrix(tmp_path / name)))
        with pytest.raises(DataFormatError, match=f"{name}: must be stored as"):
            io.read_results(tmp_path)
