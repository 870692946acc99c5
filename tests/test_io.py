"""On-disk formats: byte-exact round trips, corruption detection and strict
config validation."""

import json
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbum.errors import DataFormatError, ValidationError
from hbum.io import (
    load_generate_config,
    load_model_config,
    read_label_field,
    read_matrix,
    write_label_field,
    write_matrix,
)
from hbum.lattice import Lattice
from hbum.model import LabelField


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return path


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

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_matrix(tmp_path / "m.hbm", np.ones((2, 2), dtype=np.float32))


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
