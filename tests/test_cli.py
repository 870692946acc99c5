"""Command-line pipeline: bundle generation, inference, evaluation, the
corruption sweep and exit-code behavior."""

import dataclasses
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hbum
import hbum.cli
from hbum.cli import _model_overrides, build_parser, main
from hbum.io import (
    BUNDLE_FILES,
    RESULT_FILES,
    load_model_config,
    read_bundle,
    read_manifest,
    read_matrix,
    read_results,
    write_bundle,
    write_label_field,
    write_matrix,
    write_results,
)
from hbum.lattice import Lattice
from hbum.errors import NumericalDegeneracyError
from hbum.model import (
    ChainState,
    ClusterParams,
    EndmemberMatrix,
    InteractionMatrix,
    LabelField,
    NoiseModel,
    ObservationMatrix,
)


SCENE_CONFIG = {
    "scene": {
        "height": 16,
        "width": 16,
        "clusters": 3,
        "classes": 2,
        "endmembers": 3,
        "cluster_to_class": [1, 1, 2],
        "dirichlet_means": "auto",
        "concentration": 30.0,
        "snr_db": 28.0,
        "potts_beta": 0.9,
        "potts_sweeps": 15,
    },
    "bands": 24,
    "training": {"kind": "top_rows", "fraction": 0.25, "eta": 0.95},
    "seed": 3,
}

MODEL_CONFIG = {
    "clusters": 3,
    "classes": 2,
    "endmembers": 3,
    "beta1": 0.8,
    "beta2": 0.8,
    "iterations": 16,
    "burnin": 4,
    "seed": 11,
}


@pytest.fixture
def configs(tmp_path):
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(SCENE_CONFIG))
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(MODEL_CONFIG))
    return scene_path, model_path


@pytest.fixture(scope="module")
def small_bundle(tmp_path_factory):
    """A bundle generated from SCENE_CONFIG, shared by tests that only read it."""
    tmp = tmp_path_factory.mktemp("small")
    scene_path = tmp / "scene.json"
    scene_path.write_text(json.dumps(SCENE_CONFIG))
    assert main(["generate", str(scene_path), "--out", str(tmp / "bundle")]) == 0
    return tmp / "bundle"


@pytest.fixture(scope="module")
def small_results(small_bundle, tmp_path_factory):
    """A result set that ``hbum run`` wrote for ``small_bundle``."""
    tmp = tmp_path_factory.mktemp("small_results")
    model_path = tmp / "model.json"
    model_path.write_text(json.dumps(MODEL_CONFIG))
    assert main(["run", str(small_bundle), str(model_path), "--out", str(tmp / "results")]) == 0
    return tmp / "results"


@pytest.fixture
def in_process_pool(monkeypatch):
    """Make sweep-corruption's process pool run its tasks in this process,
    starting none; returns the pool sizes asked for."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(hbum.cli, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(hbum.cli, "_sweep_inputs", None)  # restored after the test
    return sizes


def with_first(arr, value):
    """A copy of ``arr`` with its first entry set to ``value``."""
    arr = arr.copy()
    arr.flat[0] = value
    return arr


def bundle_bytes(bundle_dir):
    return {name: (Path(bundle_dir) / name).read_bytes() for name in BUNDLE_FILES}


def results_bytes(results_dir):
    return {name: (Path(results_dir) / name).read_bytes() for name in RESULT_FILES}


def child_env(**extra):
    """The environment of a child process that imports this ``hbum``."""
    env = dict(os.environ, **extra)
    src = str(Path(hbum.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_cli(*argv, address_space=None):
    """``hbum`` in a child process: its exit code and its stderr, where an
    uncaught exception would print its traceback. ``address_space`` caps
    the child's virtual memory, in bytes."""
    env = child_env()

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    proc = subprocess.run(
        [sys.executable, "-m", "hbum.cli", *map(str, argv)],
        env=env, capture_output=True, text=True,
        preexec_fn=None if address_space is None else cap,
    )
    return proc.returncode, proc.stderr


class TestGenerate:
    def test_writes_complete_bundle(self, configs, tmp_path):
        scene_path, _ = configs
        out = tmp_path / "bundle"
        assert main(["generate", str(scene_path), "--out", str(out)]) == 0
        for name in BUNDLE_FILES:
            assert (out / name).exists(), name
        bundle = read_bundle(out)
        assert (bundle.Y.n_bands, bundle.Y.lattice.n_pixels) == (24, 256)
        assert bundle.sup.n_labeled == 64
        manifest = read_manifest(out / "scene_manifest.json")
        assert manifest["kind"] == "scene"
        assert manifest["config"]["scene"]["clusters"] == 3
        # the resolved mean matrix is echoed so the manifest is re-runnable
        assert len(manifest["config"]["scene"]["dirichlet_means"]) == 3

    def test_rerun_is_byte_identical(self, configs, tmp_path):
        scene_path, _ = configs
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        main(["generate", str(scene_path), "--out", str(out1)])
        main(["generate", str(scene_path), "--out", str(out2)])
        assert bundle_bytes(out1) == bundle_bytes(out2)

    def test_manifest_config_echo_regenerates_identically(self, configs, tmp_path):
        # the echoed config block is itself a loadable config, so a manifest
        # alone is enough to rebuild the bundle byte for byte
        scene_path, _ = configs
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        main(["generate", str(scene_path), "--out", str(out1)])
        manifest = read_manifest(out1 / "scene_manifest.json")
        echoed = tmp_path / "echoed.json"
        echoed.write_text(json.dumps(manifest["config"]))
        main(["generate", str(echoed), "--out", str(out2)])
        assert bundle_bytes(out1) == bundle_bytes(out2)

    def test_run_manifest_echo_reruns_identically(self, configs, tmp_path):
        scene_path, model_path = configs
        bundle = tmp_path / "bundle"
        main(["generate", str(scene_path), "--out", str(bundle)])
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        main(["run", str(bundle), str(model_path), "--out", str(r1)])
        manifest = read_manifest(r1 / "run_manifest.json")
        echoed = tmp_path / "model_echo.json"
        echoed.write_text(json.dumps(manifest["config"]))
        main(["run", str(bundle), str(echoed), "--out", str(r2)])
        assert results_bytes(r1) == results_bytes(r2)

    def test_seed_override_changes_bundle(self, configs, tmp_path):
        scene_path, _ = configs
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        main(["generate", str(scene_path), "--out", str(out1)])
        main(["generate", str(scene_path), "--out", str(out2), "--seed", "99"])
        assert bundle_bytes(out1) != bundle_bytes(out2)

    def test_missing_field_exits_2(self, tmp_path):
        broken = json.loads(json.dumps(SCENE_CONFIG))
        del broken["scene"]["width"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        assert main(["generate", str(path), "--out", str(tmp_path / "x")]) == 2

    def test_unreadable_config_exits_4(self, tmp_path):
        assert main(["generate", str(tmp_path / "missing.json"), "--out", str(tmp_path / "x")]) == 4

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "bands", "x"),
            ("scene", "height", "x"),
            ("scene", "clusters", 2.5),
            ("scene", "cluster_to_class", "ab"),
            ("scene", "cluster_to_class", [1, 1.5, 2]),
            ("scene", "snr_db", None),
            ("training", "eta", "x"),
            (None, "endmember_file", 5),
            (None, "seed", -1),
        ],
    )
    def test_bad_field_exits_2_naming_it(self, tmp_path, capsys, section, key, value):
        broken = json.loads(json.dumps(SCENE_CONFIG))
        (broken if section is None else broken[section])[key] = value
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        assert main(["generate", str(path), "--out", str(tmp_path / "x")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("scene", "potts_beta", np.nan),
            ("scene", "potts_beta", np.inf),
            ("scene", "concentration", np.nan),
            ("scene", "concentration", np.inf),
            ("scene", "dirichlet_means", [[0.8, 0.1, 0.1], [0.1, np.nan, 0.1], [0.1, 0.1, 0.8]]),
            ("scene", "dirichlet_means", [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, np.inf]]),
            (None, "min_endmember_angle_deg", np.nan),
            (None, "min_endmember_angle_deg", np.inf),
        ],
    )
    def test_non_finite_field_exits_2_naming_it(self, tmp_path, capsys, section, key, value):
        # Python's json writes and reads NaN and Infinity literals.
        broken = json.loads(json.dumps(SCENE_CONFIG))
        (broken if section is None else broken[section])[key] = value
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        assert main(["generate", str(path), "--out", str(tmp_path / "x")]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [-np.inf, np.inf])
    def test_infinite_snr_literal_exits_2_naming_it(self, tmp_path, value):
        # json writes and reads the literals -Infinity and Infinity; the one
        # infinity a scene config takes is the string "inf".
        broken = json.loads(json.dumps(SCENE_CONFIG))
        broken["scene"]["snr_db"] = value
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        assert "Infinity" in path.read_text()
        code, err = run_cli("generate", path, "--out", tmp_path / "x")
        assert code == 2
        assert "snr_db" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("value", [4000.0, -4000.0])
    def test_extreme_snr_exits_2_naming_it(self, tmp_path, capsys, value):
        # 10 ** (snr_db / 10) overflows at +4000 dB and is 0 at -4000 dB, so
        # no noise variance follows from either.
        broken = json.loads(json.dumps(SCENE_CONFIG))
        broken["scene"]["snr_db"] = value
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        assert main(["generate", str(path), "--out", str(tmp_path / "x")]) == 2
        assert "snr_db" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("value", [-3090.0, -3200.0])
    def test_overflowing_noise_exits_2_naming_snr(self, tmp_path, capsys, value):
        # 10 ** (snr_db / 10) stays above 0, but the noise it scales to
        # overflows: its summed power at -3090 dB, its draws at -3200 dB.
        broken = json.loads(json.dumps(SCENE_CONFIG))
        broken["scene"]["snr_db"] = value
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["generate", str(path), "--out", str(tmp_path / "x")]) == 2
        assert f"snr_db {value} makes the noise overflow" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_noise_that_rounds_away_reports_realized_inf(self, tmp_path):
        # At 3000 dB the noise's sd is about 1e-150, lost in the signal's
        # rounding: the bundle is the noiseless one, its realized SNR inf.
        bundles = {}
        for snr_db in (3000.0, "inf"):
            scene = json.loads(json.dumps(SCENE_CONFIG))
            scene["scene"]["snr_db"] = snr_db
            path = tmp_path / f"{snr_db}.json"
            path.write_text(json.dumps(scene))
            bundles[snr_db] = tmp_path / f"bundle-{snr_db}"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["generate", str(path), "--out", str(bundles[snr_db])]) == 0
            manifest = read_manifest(bundles[snr_db] / "scene_manifest.json")
            assert manifest["realized"] == {"snr_db": "inf"}
        assert bundle_bytes(bundles[3000.0]) == bundle_bytes(bundles["inf"])

    @pytest.mark.parametrize("scale", [1e200, np.finfo(float).max], ids=["1e200", "max"])
    @pytest.mark.parametrize("snr_db", ["inf", 30.0])
    def test_overflowing_signal_exits_2_naming_the_endmembers(self, tmp_path, capsys, scale,
                                                              snr_db):
        # M @ A or its power mean((M A)^2) overflows: the endmembers are at
        # fault, whatever the noise.
        library = tmp_path / "library.hbm"
        write_matrix(library, scale * np.random.default_rng(0).uniform(0.5, 1.0, (24, 3)))
        scene = json.loads(json.dumps(SCENE_CONFIG))
        scene["endmember_file"] = str(library)
        scene["scene"]["snr_db"] = snr_db
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["generate", str(path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "the endmembers make the signal power overflow" in err and "snr_db" not in err
        assert not (tmp_path / "x").exists()

    def test_u32_endmember_file_exits_4_naming_it(self, tmp_path, capsys):
        # Endmembers are reflectances: a u32 library would be written as a
        # u32 M.hbm that the chain cannot use.
        library = tmp_path / "library.hbm"
        spectra = np.random.default_rng(0).uniform(0.5, 1.0, (24, 3))
        write_matrix(library, np.round(7e4 * spectra).astype(np.uint32))
        scene = dict(SCENE_CONFIG, endmember_file=str(library))
        (tmp_path / "scene.json").write_text(json.dumps(scene))
        assert main(["generate", str(tmp_path / "scene.json"), "--out", str(tmp_path / "x")]) == 4
        assert f"{library}: must be stored as f64, not u32" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_huge_endmember_count_exits_2_at_once(self, tmp_path):
        # Only the supports of the used cluster means are built, so the
        # config fails at once on placing more endmembers than bands.
        broken = json.loads(json.dumps(SCENE_CONFIG))
        broken["scene"]["endmembers"] = 100_000
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        code, err = run_cli("generate", path, "--out", tmp_path / "x")
        assert code == 2
        assert "more endmembers than bands" in err and "Traceback" not in err

    @pytest.mark.parametrize("scene, field", [
        ({"clusters": 10**6, "endmembers": 10**6, "cluster_to_class": [1]}, "cluster_to_class"),
        ({"clusters": 10**5, "endmembers": 10**5, "cluster_to_class": [1, 2] * 50_000},
         "endmembers"),
    ], ids=["cluster_to_class", "endmembers"])
    def test_huge_counts_exit_2_before_the_means_are_built(self, tmp_path, scene, field):
        # "auto" means are a clusters x endmembers matrix, 7.28 TiB for the
        # first config; the counts are checked before it is allocated.
        broken = json.loads(json.dumps(SCENE_CONFIG))
        broken["scene"].update(scene)
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        code, err = run_cli("generate", path, "--out", tmp_path / "x", address_space=2 << 30)
        assert code == 2
        assert field in err and "Traceback" not in err

    @pytest.mark.parametrize("bands, endmembers", [(10**12, 10**12), (2**31, 3), (10**6, 10**6)])
    def test_huge_band_count_exits_2_naming_it(self, tmp_path, bands, endmembers):
        # Every scene matrix is at most bands x max(pixels, endmembers,
        # clusters); 3 x 10**12 means would be 21.8 TiB.
        broken = json.loads(json.dumps(SCENE_CONFIG))
        broken["bands"] = bands
        broken["scene"]["endmembers"] = endmembers
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        code, err = run_cli("generate", path, "--out", tmp_path / "x", address_space=2 << 30)
        assert code == 2
        assert "'bands'" in err and "Traceback" not in err

    def test_overflowing_potts_beta_exits_2_naming_it(self, tmp_path, capsys):
        # 1e308 is finite, but 4 beta, the largest neighbour-count term, is not.
        broken = json.loads(json.dumps(SCENE_CONFIG))
        broken["scene"]["potts_beta"] = 1e308
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        assert main(["generate", str(path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "potts_beta times 4" in err
        assert "Warning" not in err

    def test_underflowing_abundance_draws_exit_3(self, tmp_path, capsys):
        # Every Gamma draw at shapes this small underflows to zero, however
        # often it is drawn again.
        broken = json.loads(json.dumps(SCENE_CONFIG))
        broken["scene"]["concentration"] = 1e-300
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        assert main(["generate", str(path), "--out", str(tmp_path / "x")]) == 3
        assert "all Gamma draws underflowed" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_one_row_grid_exits_2_naming_the_training_rows(self, tmp_path, capsys):
        # top_rows training takes whole grid rows; a quarter of one row
        # rounds to none, so a 1xN scene cannot be generated with it.
        scene = json.loads(json.dumps(SCENE_CONFIG))
        scene["scene"].update(height=1, width=64)
        scene["bands"] = 20
        path = tmp_path / "one_row.json"
        path.write_text(json.dumps(scene))
        assert main(["generate", str(path), "--out", str(tmp_path / "x")]) == 2
        assert "training fraction selects no grid rows" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_one_row_grid_fully_labeled_scores_only_with_eval_all(self, configs, tmp_path,
                                                                  capsys):
        # Three quarters of one row round to the whole row: every pixel is
        # a training pixel, so the default unlabeled-only kappa has none.
        _, model_path = configs
        scene = json.loads(json.dumps(SCENE_CONFIG))
        scene["scene"].update(height=1, width=64)
        scene["bands"] = 20
        scene["training"]["fraction"] = 0.75
        path = tmp_path / "one_row.json"
        path.write_text(json.dumps(scene))
        bundle, results = tmp_path / "bundle", tmp_path / "results"
        assert main(["generate", str(path), "--out", str(bundle)]) == 0
        assert main(["run", str(bundle), str(model_path), "--out", str(results)]) == 0
        capsys.readouterr()
        assert main(["evaluate", str(results), str(bundle)]) == 2
        assert "confusion matrix is empty" in capsys.readouterr().err
        assert main(["evaluate", str(results), str(bundle), "--eval-all"]) == 0

    def test_rewritten_bundle_is_byte_identical(self, small_bundle, tmp_path):
        write_bundle(tmp_path / "copy", read_bundle(small_bundle))
        for name in (*BUNDLE_FILES, "scene_manifest.json"):
            assert (tmp_path / "copy" / name).read_bytes() == (small_bundle / name).read_bytes()

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
    def test_realized_snr_sums_ignore_the_blas_thread_count(self):
        # The manifest's realized SNR comes from generation's einsum sums,
        # so it must keep its bits whether BLAS runs on one thread or on two.
        script = (
            "from hbum.distributions import make_rng\n"
            "from hbum.synthgen import SceneSpec, default_cluster_means, generate_scene,"
            " make_endmembers\n"
            "spec = SceneSpec(16, 16, 3, 2, 3, [0, 0, 1], default_cluster_means(3, 3))\n"
            "M = make_endmembers(130, 3, make_rng(0), min_angle_deg=5.0)\n"
            "print(float.hex(float(generate_scene(spec, M, make_rng(1))[4])))\n"
        )
        realized = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True,
                env=child_env(OPENBLAS_NUM_THREADS=threads),
            )
            assert proc.returncode == 0, proc.stderr
            realized.append(proc.stdout)
        assert realized[0] == realized[1]


class TestRun:
    def test_produces_readable_results(self, configs, tmp_path):
        scene_path, model_path = configs
        bundle = tmp_path / "bundle"
        results = tmp_path / "results"
        main(["generate", str(scene_path), "--out", str(bundle)])
        assert main(["run", str(bundle), str(model_path), "--out", str(results)]) == 0
        estimates, omega_freq, manifest = read_results(results)
        assert estimates.A.data.shape == (3, 256)
        assert omega_freq.shape == (2, 256)
        np.testing.assert_allclose(omega_freq.sum(axis=0), 1.0, atol=1e-12)
        assert manifest["recorded_sweeps"] == 12
        assert manifest["config"]["iterations"] == 16

    def test_rerun_byte_identical(self, configs, tmp_path):
        scene_path, model_path = configs
        bundle = tmp_path / "bundle"
        main(["generate", str(scene_path), "--out", str(bundle)])
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        main(["run", str(bundle), str(model_path), "--out", str(r1)])
        main(["run", str(bundle), str(model_path), "--out", str(r2)])
        assert results_bytes(r1) == results_bytes(r2)

    def test_flag_overrides_apply(self, configs, tmp_path):
        scene_path, model_path = configs
        bundle = tmp_path / "bundle"
        results = tmp_path / "results"
        main(["generate", str(scene_path), "--out", str(bundle)])
        main(
            [
                "run", str(bundle), str(model_path), "--out", str(results),
                "--iters", "10", "--burnin", "2", "--beta1", "0.5",
            ]
        )
        manifest = read_manifest(results / "run_manifest.json")
        assert manifest["config"]["iterations"] == 10
        assert manifest["config"]["burnin"] == 2
        assert manifest["config"]["beta1"] == 0.5
        assert manifest["recorded_sweeps"] == 8

    def test_corrupted_bundle_exits_4(self, configs, tmp_path):
        scene_path, model_path = configs
        bundle = tmp_path / "bundle"
        main(["generate", str(scene_path), "--out", str(bundle)])
        target = bundle / "Y.hbm"
        raw = bytearray(target.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        target.write_bytes(bytes(raw))
        code = main(["run", str(bundle), str(model_path), "--out", str(tmp_path / "r")])
        assert code == 4

    def test_mismatched_config_exits_2(self, configs, tmp_path):
        scene_path, model_path = configs
        bundle = tmp_path / "bundle"
        main(["generate", str(scene_path), "--out", str(bundle)])
        wrong = json.loads(model_path.read_text())
        wrong["endmembers"] = 5
        model2 = tmp_path / "model2.json"
        model2.write_text(json.dumps(wrong))
        assert main(["run", str(bundle), str(model2), "--out", str(tmp_path / "r")]) == 2


    @pytest.mark.parametrize(
        "key, value",
        [
            ("beta1", None),
            ("class_proportions", "x"),
            ("zeta", [1.0, 2.0]),
            ("zeta", [[1.0, 2.0, 3.0]]),
            ("clusters", 2.5),
            ("burnin", True),
            ("seed", -1),
            ("schedule", "raster"),
            ("inner_iters", 5),  # the simplex draw's scan count is fixed
        ],
    )
    def test_bad_model_field_exits_2_naming_it(self, small_bundle, tmp_path, capsys,
                                               key, value):
        model = dict(MODEL_CONFIG, **{key: value})
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        code = main(["run", str(small_bundle), str(path), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 2
        assert key in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("beta1", np.nan),
            ("beta1", np.inf),
            ("beta2", np.nan),
            ("beta2", np.inf),
            ("xi", np.nan),
            ("xi", np.inf),
            ("gamma", np.nan),
            ("gamma", np.inf),
            ("zeta", np.nan),
            ("zeta", [1.0, np.inf, 1.0]),
            ("class_proportions", [np.nan, 0.5]),
            ("class_proportions", [np.inf, 0.0]),
        ],
    )
    def test_non_finite_model_field_exits_2_naming_it(self, small_bundle, tmp_path, capsys,
                                                      key, value):
        # NaN passes every < check: a NaN beta1 used to run to exit 0 with
        # the coupling silently off.
        path = tmp_path / "model.json"
        path.write_text(json.dumps(dict(MODEL_CONFIG, **{key: value})))
        code = main(["run", str(small_bundle), str(path), "--out", str(tmp_path / "r")])
        assert code == 2
        assert f"{key} must be finite" in capsys.readouterr().err

    def test_non_finite_option_exits_2(self, small_bundle, configs, tmp_path, capsys):
        # 1e308 is finite, but 4 beta, the largest neighbour-count term, is not.
        _, model_path = configs
        for flag, value, message in [
            ("--beta1", "nan", "beta1 must be finite"),
            ("--beta1", "1e308", "beta1 times 4"),
            ("--beta2", "1e308", "beta2 times 4"),
        ]:
            code = main(["run", str(small_bundle), str(model_path),
                         "--out", str(tmp_path / "r"), flag, value])
            err = capsys.readouterr().err
            assert code == 2
            assert message in err
            assert "Warning" not in err

    def test_negative_seed_option_exits_2(self, small_bundle, configs, tmp_path, capsys):
        _, model_path = configs
        code = main(["run", str(small_bundle), str(model_path), "--out", str(tmp_path / "r"),
                     "--seed", "-5"])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", [(0, 16), (16, 0)])
    def test_empty_label_grid_exits_4_naming_the_file(self, small_bundle, configs, tmp_path,
                                                      shape):
        _, model_path = configs
        bundle = tmp_path / "bundle"
        shutil.copytree(small_bundle, bundle)
        write_matrix(bundle / "z_true.hbm", np.zeros(shape, dtype=np.uint32))
        code, err = run_cli("run", bundle, model_path, "--out", tmp_path / "r")
        assert code == 4
        assert "z_true.hbm" in err
        assert "Traceback" not in err

    def test_u32_endmembers_exit_4_naming_the_file(self, small_bundle, configs, tmp_path,
                                                    capsys):
        # In u32 arithmetic M^T M wraps around and the chain would blame its
        # abundance precision (exit 3) for a file fault.
        _, model_path = configs
        bundle = tmp_path / "bundle"
        shutil.copytree(small_bundle, bundle)
        m = np.round(7e4 * read_matrix(bundle / "M.hbm")).astype(np.uint32)
        write_matrix(bundle / "M.hbm", m)
        assert main(["run", str(bundle), str(model_path), "--out", str(tmp_path / "r")]) == 4
        err = capsys.readouterr().err
        assert f"{bundle / 'M.hbm'}: must be stored as f64, not u32" in err
        assert not (tmp_path / "r").exists()

    def test_read_results_returns_the_chain_estimates(self, small_bundle, configs, tmp_path,
                                                      monkeypatch):
        original, returned = hbum.cli.run_chain, []

        def recording_run_chain(*args, **kwargs):
            estimates, trace = original(*args, **kwargs)
            returned.append(estimates)
            return estimates, trace

        monkeypatch.setattr(hbum.cli, "run_chain", recording_run_chain)
        _, model_path = configs
        results = tmp_path / "results"
        assert main(["run", str(small_bundle), str(model_path), "--out", str(results)]) == 0
        (chain,) = returned
        read, _, _ = read_results(results)
        assert np.array_equal(read.A.data, chain.A.data)
        assert read.noise.s2 == chain.noise.s2
        assert np.array_equal(read.clusters.psi, chain.clusters.psi)
        assert np.array_equal(read.clusters.sigma2, chain.clusters.sigma2)
        assert np.array_equal(read.q.q, chain.q.q)
        for name in ("z", "omega"):
            got, want = getattr(read, name), getattr(chain, name)
            assert np.array_equal(got.labels, want.labels)
            assert got.domain_size == want.domain_size
            assert got.lattice == want.lattice

    def test_non_finite_observations_exit_2_in_the_chain(self, small_bundle, small_results,
                                                          configs, tmp_path):
        # Reading a bundle checks its format only; the chain's set-up checks
        # Y's values. evaluate never uses them, so it still scores the set.
        _, model_path = configs
        bundle = tmp_path / "bundle"
        shutil.copytree(small_bundle, bundle)
        y = read_matrix(bundle / "Y.hbm")
        y[0, 0] = np.nan
        write_matrix(bundle / "Y.hbm", y)
        code, err = run_cli("run", bundle, model_path, "--out", tmp_path / "r")
        assert code == 2
        assert "observations contain non-finite entries" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()
        code, err = run_cli("evaluate", small_results, bundle, "--out", tmp_path / "m")
        assert (code, err) == (0, "")

    def test_overflowing_scene_statistics_exit_2_naming_the_endmembers(self, small_bundle,
                                                                       configs, tmp_path,
                                                                       capsys):
        # M and Y scaled by 1e200 stay finite, but MᵀM and MᵀY do not.
        _, model_path = configs
        bundle = read_bundle(small_bundle)
        huge = tmp_path / "bundle"
        write_bundle(huge, dataclasses.replace(
            bundle, Y=ObservationMatrix(1e200 * read_matrix(small_bundle / "Y.hbm"),
                                        bundle.Y.lattice),
            M=EndmemberMatrix(1e200 * bundle.M.data),
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", str(huge), str(model_path), "--out", str(tmp_path / "r")])
        assert code == 2
        assert "the endmembers overflow M^T M, M^T Y or the residual" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("eta", [1.5, np.nan])
    def test_confidence_outside_the_open_interval_exits_2(self, small_bundle, configs,
                                                          tmp_path, capsys, eta):
        # NaN fails every comparison, so it is rejected as 1.5 is, before any chain.
        _, model_path = configs
        bundle = tmp_path / "bundle"
        shutil.copytree(small_bundle, bundle)
        conf = read_matrix(bundle / "eta.hbm")
        conf.flat[np.flatnonzero(read_matrix(bundle / "labeled.hbm"))[0]] = eta
        write_matrix(bundle / "eta.hbm", conf)
        assert main(["run", str(bundle), str(model_path), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == (
            "error: confidences must lie strictly inside (0, 1)\n"
        )
        assert not (tmp_path / "r").exists()

    def test_run_and_sweep_take_the_same_model_overrides(self):
        # The five flags override exactly the fields load_model_config names.
        flags = ["--seed", "3", "--beta1", "0.5", "--beta2", "0.6", "--iters", "20",
                 "--burnin", "4"]
        parser = build_parser()
        run, sweep = (
            _model_overrides(parser.parse_args([cmd, "bundle", "model.json", "--out", "o",
                                                *flags]))
            for cmd in ("run", "sweep-corruption")
        )
        assert run == sweep == {
            "seed": 3, "beta1": 0.5, "beta2": 0.6, "iterations": 20, "burnin": 4,
        }
        named = re.search(r"field names \(([^)]*)\)", load_model_config.__doc__).group(1)
        assert set(run) == {name.strip() for name in named.split(",")}

    def test_noiseless_scene_runs_to_exit_0(self, tmp_path, capsys):
        # On the scene-1 protocol without noise the residual is rounding
        # alone; its scale never cancels to zero, so s2 stays representable.
        configs_dir = Path(__file__).resolve().parents[1] / "configs"
        scene = json.loads((configs_dir / "image1.json").read_text())
        scene["scene"]["snr_db"] = "inf"
        scene_path = tmp_path / "noiseless.json"
        scene_path.write_text(json.dumps(scene))
        bundle = tmp_path / "bundle"
        assert main(["generate", str(scene_path), "--out", str(bundle)]) == 0
        model_path = configs_dir / "model_image1.json"
        results = tmp_path / "r"
        assert main(["run", str(bundle), str(model_path), "--out", str(results)]) == 0
        assert main(["evaluate", str(results), str(bundle)]) == 0
        assert capsys.readouterr().err == ""
        metrics = read_manifest(results / "metrics.json")
        assert metrics["rgmse"] < 1e-6
        assert metrics["kappa"] >= 0.99


def y_payload_offset(path):
    """The offset of the first payload byte of a matrix container."""
    with open(path, "rb") as fh:
        fh.readline()
        fh.readline()
        return fh.tell()


class TestStreamedObservations:
    """``run`` and ``sweep-corruption`` form the scene statistics from Y.hbm
    in band blocks, and ``evaluate`` reads only Y's header."""

    @pytest.fixture
    def bundle(self, small_bundle, tmp_path):
        shutil.copytree(small_bundle, tmp_path / "bundle")
        return tmp_path / "bundle"

    @staticmethod
    def run_and_sweep(bundle, model_path, out):
        return [
            main(["run", str(bundle), str(model_path), "--out", str(out / "r")]),
            main(["sweep-corruption", str(bundle), str(model_path), "--out", str(out / "s"),
                  "--alphas", "0", "--trials", "1"]),
        ]

    def test_nan_in_the_last_band_block_exits_2(self, bundle, configs, tmp_path, capsys):
        # 24 bands: the NaN sits in the second, shorter, block of 16.
        _, model_path = configs
        y = read_matrix(bundle / "Y.hbm")
        y[-1, -1] = np.nan
        write_matrix(bundle / "Y.hbm", y)
        assert self.run_and_sweep(bundle, model_path, tmp_path) == [2, 2]
        assert capsys.readouterr().err.count("observations contain non-finite entries") == 2
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("nan", [False, True])
    def test_checksum_mismatch_exits_4_naming_y(self, bundle, configs, tmp_path, capsys, nan):
        # The checksum is checked before the values, so a NaN in a corrupt
        # file still reads as corruption.
        _, model_path = configs
        if nan:
            y = read_matrix(bundle / "Y.hbm")
            y[0, 0] = np.nan
            write_matrix(bundle / "Y.hbm", y)
        raw = bytearray((bundle / "Y.hbm").read_bytes())
        raw[y_payload_offset(bundle / "Y.hbm") + 8 * 100] ^= 0x01  # a finite value's last bit
        (bundle / "Y.hbm").write_bytes(bytes(raw))
        assert self.run_and_sweep(bundle, model_path, tmp_path) == [4, 4]
        err = capsys.readouterr().err
        assert err.count("Y.hbm: checksum mismatch") == 2 and "non-finite" not in err

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_nan_in_the_last_tile_of_the_last_block(self, tmp_path, capsys, corrupt):
        # 72 x 72 = 5 184 pixels: each band block is worked in two column
        # tiles, and the NaN sits in the second tile of the second block.
        from hbum.sampler import _BAND_BLOCK, _TILE

        scene = dict(SCENE_CONFIG, scene=dict(SCENE_CONFIG["scene"], height=72, width=72))
        (tmp_path / "scene.json").write_text(json.dumps(scene))
        (tmp_path / "model.json").write_text(json.dumps(MODEL_CONFIG))
        bundle = tmp_path / "bundle"
        assert main(["generate", str(tmp_path / "scene.json"), "--out", str(bundle)]) == 0
        y = read_matrix(bundle / "Y.hbm")
        assert _TILE < y.shape[1] < 2 * _TILE and _BAND_BLOCK < y.shape[0] < 2 * _BAND_BLOCK
        y[-1, -1] = np.nan
        write_matrix(bundle / "Y.hbm", y)
        if corrupt:
            raw = bytearray((bundle / "Y.hbm").read_bytes())
            raw[y_payload_offset(bundle / "Y.hbm") + 8 * 100] ^= 0x01  # a finite value's last bit
            (bundle / "Y.hbm").write_bytes(bytes(raw))
        codes = self.run_and_sweep(bundle, tmp_path / "model.json", tmp_path)
        err = capsys.readouterr().err
        if corrupt:
            assert codes == [4, 4]
            assert err.count("Y.hbm: checksum mismatch") == 2 and "non-finite" not in err
        else:
            assert codes == [2, 2]
            assert err.count("observations contain non-finite entries") == 2
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("edit", ["truncated", "oversized"])
    def test_truncated_or_oversized_y_exits_4(self, bundle, configs, tmp_path, capsys, edit):
        _, model_path = configs
        raw = (bundle / "Y.hbm").read_bytes()
        raw = raw[:-100] if edit == "truncated" else raw + b"\0" * 8
        (bundle / "Y.hbm").write_bytes(raw)
        assert self.run_and_sweep(bundle, model_path, tmp_path) == [4, 4]
        assert capsys.readouterr().err.count("Y.hbm: truncated or oversized payload") == 2

    def test_evaluate_never_reads_the_payload(self, bundle, small_results, tmp_path, capsys):
        raw = bytearray((bundle / "Y.hbm").read_bytes())
        raw[y_payload_offset(bundle / "Y.hbm")] ^= 0xFF
        (bundle / "Y.hbm").write_bytes(bytes(raw))
        assert main(["evaluate", str(small_results), str(bundle), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_run_and_evaluate_never_hold_y_whole(self, small_bundle, configs, tmp_path):
        # A 64 MiB Y over the small scene's 256 pixels. Each command runs in
        # a child of a fresh wrapper, whose RUSAGE_CHILDREN peak is then the
        # command's own; both stay below a child that only reads Y.
        _, model_path = configs
        bundle = tmp_path / "bundle"
        shutil.copytree(small_bundle, bundle)
        n_bands = 64 * 2**20 // (8 * 256)
        m = np.random.default_rng(0).uniform(0.05, 1.0, size=(n_bands, 3))
        write_matrix(bundle / "M.hbm", m)
        write_matrix(bundle / "Y.hbm", m @ read_matrix(bundle / "A_true.hbm"))
        del m
        wrapper = (
            "import resource, subprocess, sys\n"
            "subprocess.run([sys.executable, '-c', sys.argv[1]], check=True)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )

        def peak(code):
            proc = subprocess.run([sys.executable, "-c", wrapper, code], env=child_env(),
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            return int(proc.stdout.split()[-1])

        cli = "from hbum.cli import main\nassert main({!r}) == 0"
        run = ["run", str(bundle), str(model_path), "--out", str(tmp_path / "r"),
               "--iters", "3", "--burnin", "1"]
        read = "import hbum.cli\nhbum.cli.read_matrix({!r})"
        peaks = {
            "read_matrix": peak(read.format(str(bundle / "Y.hbm"))),
            "run": peak(cli.format(run)),
            "evaluate": peak(cli.format(["evaluate", str(tmp_path / "r"), str(bundle)])),
        }
        assert peaks["run"] < peaks["read_matrix"] and peaks["evaluate"] < peaks["read_matrix"], peaks


class TestDeferredResidual:
    """``_make_precomp`` leaves pass 2 of the scene statistics, the residual,
    to ``run_chain``'s helper thread or to its first reader. The CLI's exit
    codes, messages and results stay those of a pass run before the chain."""

    @staticmethod
    def overflowing(bundle, monkeypatch):
        # At 1e200, MᵀM and MᵀY stay finite, but the residual's square does not.
        write_matrix(bundle / "Y.hbm", 1e200 * read_matrix(bundle / "Y.hbm"))
        return 2, "error: the endmembers overflow M^T M, M^T Y or the residual\n"

    @staticmethod
    def rewritten(bundle, monkeypatch):
        # Y.hbm changes between the passes, so pass 2's checksum fails.
        import hbum.io as io

        blocks, calls = io.ObservationFile.band_blocks, []

        def band_blocks(self, n_rows):
            calls.append(n_rows)
            if len(calls) == 2:
                raw = bytearray(self.path.read_bytes())
                raw[y_payload_offset(self.path) + 8 * 100] ^= 0x01
                self.path.write_bytes(bytes(raw))
            return blocks(self, n_rows)

        monkeypatch.setattr(io.ObservationFile, "band_blocks", band_blocks)
        return 4, f"i/o error: {bundle / 'Y.hbm'}: checksum mismatch (stored "

    @pytest.mark.parametrize("command, place", [
        ("run", "helper"), ("sweep-corruption", "helper"), ("sweep-corruption", "parent"),
        ("sweep-corruption", "capped pool"),
    ])
    @pytest.mark.parametrize("later", [None, "endmembers", "kmeans"])
    @pytest.mark.parametrize("failure", ["overflowing", "rewritten"])
    def test_the_pass_error_comes_first(self, small_bundle, tmp_path, capsys, monkeypatch,
                                        in_process_pool, failure, later, command, place):
        # On run_chain's helper, or in sweep-corruption's parent before the
        # pool of two forks, the pass's error wins over every check that
        # follows it, as when it ran first. Two threads for one task start
        # no pool, so the pass runs on run_chain's helper.
        import hbum.sampler as sampler

        bundle = tmp_path / "bundle"
        shutil.copytree(small_bundle, bundle)
        code, message = getattr(self, failure)(bundle, monkeypatch)
        model = dict(MODEL_CONFIG, endmembers=2) if later == "endmembers" else MODEL_CONFIG
        (tmp_path / "model.json").write_text(json.dumps(model))
        if later == "kmeans":
            def kmeans(a, n_clusters, rng):
                raise NumericalDegeneracyError("k-means failed")

            monkeypatch.setattr(sampler, "_kmeans_labels", kmeans)
        chains = []

        def counted_chain(*args, **kwargs):
            chains.append(args)
            return sampler.run_chain(*args, **kwargs)

        monkeypatch.setattr(hbum.cli, "run_chain", counted_chain)
        argv = [command, str(bundle), str(tmp_path / "model.json"), "--out", str(tmp_path / "o")]
        if command == "sweep-corruption":
            argv += ["--alphas", "0", "--trials", "2" if place == "parent" else "1",
                     "--threads", "1" if place == "helper" else "2"]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1, err
        assert not (tmp_path / "o").exists()
        assert in_process_pool == [] and len(chains) == (place != "parent")

    def test_scene_without_bands_exits_2_in_the_chain(self, small_bundle, configs, tmp_path,
                                                      capsys):
        # Pass 2 of zero bands has no first block to take.
        _, model_path = configs
        bundle = tmp_path / "bundle"
        shutil.copytree(small_bundle, bundle)
        for name in ("Y.hbm", "M.hbm", "A_true.hbm"):
            cols = 0 if name == "M.hbm" else None
            write_matrix(bundle / name, read_matrix(bundle / name)[:0, :cols])
        assert main(["run", str(bundle), str(model_path), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == "error: config expects 3 endmembers, matrix has 0\n"

    def test_sweep_pool_forks_after_the_residual_exists(self, small_bundle, configs, tmp_path):
        # Every read of Y.hbm sleeps 0.5 s after its last block: a fork while
        # pass 2 is pending or on a thread would leave the workers without it.
        _, model_path = configs
        code = (
            "import sys, time\n"
            "import hbum.io as io\n"
            "from hbum.cli import main\n"
            "blocks = io.ObservationFile.band_blocks\n"
            "def slow(self, n_rows):\n"
            "    yield from blocks(self, n_rows)\n"
            "    time.sleep(0.5)\n"
            "io.ObservationFile.band_blocks = slow\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        rows = []
        for threads in ("2", "1"):
            out = tmp_path / f"threads-{threads}"
            proc = subprocess.run(
                [sys.executable, "-c", code, "sweep-corruption", str(small_bundle),
                 str(model_path), "--out", str(out), "--alphas", "0,0.2", "--trials", "2",
                 "--iters", "6", "--burnin", "2", "--threads", threads],
                env=child_env(), capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            rows.append(read_manifest(out / "corruption_sweep.json")["rows"])
        assert rows[0] == rows[1]


class TestImports:
    def test_no_command_loads_scipy(self, tmp_path):
        # hbum depends on numpy alone: importing hbum and running generate,
        # run, evaluate and sweep-corruption on a 4x4 scene, in one fresh
        # process, loads no scipy module. Without spatial coupling and with a
        # random half labeled, both classes reach the training set.
        scene = json.loads(json.dumps(SCENE_CONFIG))
        scene["scene"].update(height=4, width=4, potts_beta=0.0)
        scene["training"].update(kind="random", fraction=0.5)
        (tmp_path / "scene.json").write_text(json.dumps(scene))
        (tmp_path / "model.json").write_text(json.dumps(MODEL_CONFIG))
        script = (
            "import sys\n"
            "import hbum, hbum.cli\n"
            "t = sys.argv[1]\n"
            "assert hbum.cli.main(['generate', t + '/scene.json', '--out', t + '/b']) == 0\n"
            "assert hbum.cli.main(['run', t + '/b', t + '/model.json', '--out', t + '/r']) == 0\n"
            "assert hbum.cli.main(['evaluate', t + '/r', t + '/b']) == 0\n"
            "assert hbum.cli.main(['sweep-corruption', t + '/b', t + '/model.json', '--out',\n"
            "                      t + '/s', '--alphas', '0,0.2', '--trials', '1']) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        env = dict(os.environ)
        src = str(Path(hbum.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


class TestEvaluate:
    def test_perfect_predictions_score_perfectly(self, configs, tmp_path, capsys):
        scene_path, _ = configs
        bundle_dir = tmp_path / "bundle"
        main(["generate", str(scene_path), "--out", str(bundle_dir)])
        bundle = read_bundle(bundle_dir)
        n_clusters, n_dims = 3, 3
        perfect = ChainState(
            A=bundle.a_true,
            noise=NoiseModel(1e-4),
            clusters=ClusterParams(
                np.full((n_clusters, n_dims), 1.0 / n_dims), np.ones((n_clusters, n_dims))
            ),
            z=bundle.z_true,
            q=InteractionMatrix(np.full((3, 2), 1.0 / 3.0)),
            omega=bundle.omega_true,
        )
        freq = np.zeros((2, 256))
        freq[bundle.omega_true.labels, np.arange(256)] = 1.0
        results_dir = tmp_path / "results"
        write_results(
            results_dir, perfect, freq,
            {"kind": "run", "counts": {"clusters": 3, "classes": 2}},
        )
        assert main(["evaluate", str(results_dir), str(bundle_dir)]) == 0
        metrics = read_manifest(results_dir / "metrics.json")
        assert metrics["kappa"] == 1.0
        assert metrics["rgmse"] == 0.0
        assert metrics["cluster_accuracy"] == 1.0
        text = (results_dir / "metrics.txt").read_text()
        assert "kappa=1.000000" in text
        assert "eval_set=unlabeled" in text

    def test_eval_all_expands_pixel_set(self, configs, tmp_path):
        scene_path, model_path = configs
        bundle_dir = tmp_path / "bundle"
        results_dir = tmp_path / "results"
        main(["generate", str(scene_path), "--out", str(bundle_dir)])
        main(["run", str(bundle_dir), str(model_path), "--out", str(results_dir)])
        main(["evaluate", str(results_dir), str(bundle_dir), "--eval-all"])
        metrics = read_manifest(results_dir / "metrics.json")
        assert metrics["eval_set"] == "all"
        assert len(metrics["q_hat"]) == 3

    def test_other_cluster_count_is_scored(self, small_bundle, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(dict(MODEL_CONFIG, clusters=4)))
        results = tmp_path / "results"
        assert main(["run", str(small_bundle), str(model_path), "--out", str(results)]) == 0
        assert main(["evaluate", str(results), str(small_bundle)]) == 0
        assert 0.0 < read_manifest(results / "metrics.json")["cluster_accuracy"] <= 1.0

    @pytest.mark.parametrize("smaller", ["bundle", "results"])
    def test_mismatched_pair_fails(self, configs, tmp_path, capsys, smaller):
        # A sound result set cannot be scored against a bundle on another
        # grid, whichever of the two is the 8x16 one.
        scene_path, model_path = configs
        b1, b2 = tmp_path / "b1", tmp_path / "b2"
        results = tmp_path / "results"
        main(["generate", str(scene_path), "--out", str(b1)])
        other = json.loads(json.dumps(SCENE_CONFIG))
        other["scene"]["height"] = 8
        other_path = tmp_path / "other.json"
        other_path.write_text(json.dumps(other))
        main(["generate", str(other_path), "--out", str(b2)])
        run_on, score_on = (b1, b2) if smaller == "bundle" else (b2, b1)
        main(["run", str(run_on), str(model_path), "--out", str(results)])
        capsys.readouterr()
        assert main(["evaluate", str(results), str(score_on)]) == 2
        assert "field sizes" in capsys.readouterr().err

    def test_malformed_noise_estimate_exits_4_naming_the_file(self, small_bundle, configs,
                                                              tmp_path):
        _, model_path = configs
        results = tmp_path / "results"
        assert main(["run", str(small_bundle), str(model_path), "--out", str(results)]) == 0
        write_matrix(results / "s2_hat.hbm", np.zeros((0, 1)))
        code, err = run_cli("evaluate", results, small_bundle)
        assert code == 4
        assert "s2_hat.hbm" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, corrupt, message",
        [
            ("A_hat.hbm", lambda a: with_first(a, np.nan), "abundances contain non-finite entries"),
            ("Q_hat.hbm", lambda q: with_first(q, -0.5),
             "interaction matrix column has negative entries"),
            ("Q_hat.hbm", lambda q: np.vstack([q, np.zeros((1, q.shape[1]))]),
             "cluster-count mismatch"),
            ("psi_hat.hbm", lambda psi: with_first(psi, psi[0, 0] + 0.1),
             "cluster mean matrix rows must sum to 1"),
            ("s2_hat.hbm", lambda s2: with_first(s2, 0.0), "noise variance must be positive"),
            ("omega_freq.hbm", lambda freq: freq.T.copy(), "expected a 2x256 matrix"),
            ("A_hat.hbm", lambda a: a[:, :-8].copy(),
             "abundance columns do not match the pixel count"),
            ("omega_map.hbm", lambda grid: grid.reshape(8, 32).copy(),
             "z and omega lie on different grids"),
        ],
        ids=["nan-abundance", "negative-q", "extra-q-row", "psi-off-simplex", "zero-s2",
             "transposed-omega-freq", "short-abundances", "omega-map-8x32"],
    )
    def test_corrupted_result_set_exits_4_naming_it(self, small_bundle, small_results,
                                                    tmp_path, name, corrupt, message):
        # A result set must pass the checks its estimates passed when the
        # chain wrote them.
        results = tmp_path / "results"
        shutil.copytree(small_results, results)
        write_matrix(results / name, corrupt(read_matrix(results / name)))
        code, err = run_cli("evaluate", results, small_bundle)
        assert code == 4
        assert message in err
        assert (name if name == "omega_freq.hbm" else str(results)) in err
        assert "Traceback" not in err
        assert not (results / "metrics.json").exists()

    @pytest.mark.parametrize(
        "timings", [{"chain": "fast"}, 5, [1], None, {"chain": True}, {"chain": float("nan")},
                    {"chain": 10**400}],
        ids=["string", "number", "list", "null", "bool", "nan", "huge-int"],
    )
    def test_malformed_timings_exit_4_naming_the_manifest(self, small_bundle, small_results,
                                                          tmp_path, timings):
        results = tmp_path / "results"
        shutil.copytree(small_results, results)
        manifest = read_manifest(results / "run_manifest.json")
        manifest["timings_s"] = timings
        (results / "run_manifest.json").write_text(json.dumps(manifest))
        code, err = run_cli("evaluate", results, small_bundle)
        assert code == 4
        assert "run_manifest.json" in err and "timings_s" in err
        assert "Traceback" not in err
        assert not (results / "metrics.txt").exists()

    @pytest.mark.parametrize("timings, line", [({}, None), ({"chain": None}, None),
                                               ({"chain": 2}, "chain_seconds=2.000")])
    def test_chain_seconds_absent_null_or_a_number(self, small_bundle, small_results,
                                                   tmp_path, timings, line):
        results = tmp_path / "results"
        shutil.copytree(small_results, results)
        manifest = read_manifest(results / "run_manifest.json")
        manifest["timings_s"] = timings
        (results / "run_manifest.json").write_text(json.dumps(manifest))
        assert main(["evaluate", str(results), str(small_bundle)]) == 0
        text = (results / "metrics.txt").read_text()
        assert ("chain_seconds" in text) == (line is not None)
        assert line is None or line in text

    def test_smaller_cluster_map_exits_4(self, small_bundle, configs, tmp_path):
        # A z_map on 8x16 under the set's own 16x16 A and omega: the set is
        # unsound, whatever bundle it is scored against.
        _, model_path = configs
        results = tmp_path / "results"
        assert main(["run", str(small_bundle), str(model_path), "--out", str(results)]) == 0
        lat = Lattice(8, 16)  # the bundle's grid is 16x16
        z_map = LabelField(np.zeros(lat.n_pixels, dtype=np.int32), 3, lat)
        write_label_field(results / "z_map.hbm", z_map)
        code, err = run_cli("evaluate", results, small_bundle)
        assert code == 4
        assert "result set fails its checks" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, reshape",
        [
            ("omega_true.hbm", lambda grid: grid.reshape(8, 32).copy()),
            ("A_true.hbm", lambda a: a[:, :-8].copy()),
            ("A_true.hbm", lambda a: a[:-1].copy()),
            ("labeled.hbm", lambda grid: grid.reshape(8, 32).copy()),
            ("eta.hbm", lambda eta: np.hstack([eta, eta])),
        ],
        ids=["omega-true-8x32", "a-true-short", "a-true-one-row-less", "labeled-8x32",
             "eta-16x32"],
    )
    @pytest.mark.parametrize("command", ["run", "evaluate"])
    def test_bundle_file_off_the_grid_exits_4_naming_it(self, small_bundle, small_results,
                                                        configs, tmp_path, capsys, name,
                                                        reshape, command):
        # Every grid of a bundle is z_true's, and A_true is R x P.
        _, model_path = configs
        bundle = tmp_path / "bundle"
        shutil.copytree(small_bundle, bundle)
        write_matrix(bundle / name, reshape(read_matrix(bundle / name)))
        if command == "run":
            argv = ["run", str(bundle), str(model_path), "--out", str(tmp_path / "r")]
        else:
            argv = ["evaluate", str(small_results), str(bundle), "--out", str(tmp_path / "m")]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert name in err and "expected a" in err
        assert not (tmp_path / "r").exists() and not (tmp_path / "m").exists()


    @pytest.mark.parametrize("command", ["run", "evaluate", "sweep-corruption"])
    def test_non_finite_true_abundances_exit_4_naming_them(self, small_bundle, small_results,
                                                           configs, tmp_path, capsys, command):
        # One NaN in A_true would be scored as rgmse=nan, which is not JSON.
        _, model_path = configs
        bundle = tmp_path / "bundle"
        shutil.copytree(small_bundle, bundle)
        a_true = read_matrix(bundle / "A_true.hbm")
        write_matrix(bundle / "A_true.hbm", with_first(a_true, np.nan))
        out = tmp_path / "out"
        argv = {
            "run": ["run", str(bundle), str(model_path)],
            "evaluate": ["evaluate", str(small_results), str(bundle)],
            "sweep-corruption": ["sweep-corruption", str(bundle), str(model_path),
                                 "--alphas", "0", "--trials", "1"],
        }[command]
        assert main([*argv, "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            f"i/o error: {bundle / 'A_true.hbm'}: abundances contain non-finite entries\n"
        )
        assert not out.exists()


class TestSweepCorruption:
    def test_single_cell_matches_plain_run(self, configs, tmp_path):
        scene_path, model_path = configs
        bundle_dir = tmp_path / "bundle"
        results_dir = tmp_path / "results"
        sweep_dir = tmp_path / "sweep"
        main(["generate", str(scene_path), "--out", str(bundle_dir)])
        main(["run", str(bundle_dir), str(model_path), "--out", str(results_dir)])
        main(["evaluate", str(results_dir), str(bundle_dir)])
        kappa_run = read_manifest(results_dir / "metrics.json")["kappa"]
        assert (
            main(
                [
                    "sweep-corruption", str(bundle_dir), str(model_path),
                    "--out", str(sweep_dir), "--alphas", "0", "--trials", "1",
                ]
            )
            == 0
        )
        sweep = read_manifest(sweep_dir / "corruption_sweep.json")
        assert sweep["rows"][0]["alpha"] == 0.0
        assert sweep["rows"][0]["mean_kappa"] == pytest.approx(kappa_run, abs=0.0)

    def test_parallel_workers_match_serial(self, configs, tmp_path):
        scene_path, model_path = configs
        bundle_dir = tmp_path / "bundle"
        main(["generate", str(scene_path), "--out", str(bundle_dir)])
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        args = [
            "sweep-corruption", str(bundle_dir), str(model_path),
            "--alphas", "0,0.2", "--trials", "2",
        ]
        main(args + ["--out", str(serial)])
        main(args + ["--out", str(parallel), "--threads", "2"])
        assert (serial / "corruption_sweep.txt").read_text() == (
            parallel / "corruption_sweep.txt"
        ).read_text()

    @pytest.mark.parametrize(
        "threads, alphas, trials, pool_size",
        [(8, "0,0.2", 1, 2), (8, "0.1", 1, None), (2, "0,0.2", 2, 2)],
    )
    def test_pool_is_capped_at_the_task_count(self, small_bundle, configs, tmp_path,
                                              monkeypatch, in_process_pool, threads, alphas,
                                              trials, pool_size):
        import hbum.cli as cli

        _, model_path = configs
        seen = []

        def spy(*args):
            seen.append(args)
            return run_chain(*args)

        run_chain = cli.run_chain
        monkeypatch.setattr(cli, "run_chain", spy)
        code = main(
            ["sweep-corruption", str(small_bundle), str(model_path), "--out",
             str(tmp_path / "s"), "--alphas", alphas, "--trials", str(trials),
             "--threads", str(threads)]
        )
        assert code == 0
        assert in_process_pool == ([] if pool_size is None else [pool_size])
        assert len(seen) == len(alphas.split(",")) * trials

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_trial_draws_inline_at_any_thread_count(self, small_bundle, configs, tmp_path,
                                                    monkeypatch, in_process_pool, threads):
        # Pass 2 of the statistics runs on run_chain's helper (one worker) or
        # in the parent before the pool forks (two): either way no thread is
        # left during the sweeps, and every sweep draws its normals inline.
        import threading

        import hbum.cli as cli
        import hbum.sampler as sampler

        _, model_path = configs
        seen = []
        original = sampler._sample_abundances_all

        def spy(state, pre, normals):
            seen.append((type(normals).__name__, threading.active_count()))
            return original(state, pre, normals)

        monkeypatch.setattr(sampler, "_sample_abundances_all", spy)
        config = cli.load_model_config(str(model_path))
        start = threading.active_count()
        code = main(
            ["sweep-corruption", str(small_bundle), str(model_path), "--out",
             str(tmp_path / "s"), "--alphas", "0,0.2", "--trials", "1",
             "--threads", str(threads)]
        )
        assert code == 0
        assert in_process_pool == ([] if threads == 1 else [2])
        assert seen == [("Generator", start)] * (2 * (config.n_burnin + config.n_mc))
        assert threading.active_count() == start

    @pytest.mark.parametrize("bad", ["1.5", "-0.1", "nan", "inf"])
    def test_bad_alpha_exits_2_before_any_chain(self, small_bundle, configs, tmp_path,
                                                monkeypatch, capsys, bad):
        import hbum.cli as cli

        def no_chain(*args, **kwargs):
            raise AssertionError("a chain ran before --alphas was checked")

        _, model_path = configs
        monkeypatch.setattr(cli, "run_chain", no_chain)
        code = main(
            ["sweep-corruption", str(small_bundle), str(model_path), "--out",
             str(tmp_path / "s"), "--alphas", f"0,0.2,{bad}", "--trials", "3"]
        )
        assert code == 2
        assert f"got {float(bad)}" in capsys.readouterr().err

    def test_more_than_1000_alphas_exit_2_before_any_chain(self, small_bundle, configs,
                                                           tmp_path, monkeypatch, capsys):
        # Chain streams are alpha_idx * 1000 + trial: the 1,001st alpha's
        # chains would reuse the label-corruption streams of the first alpha.
        import hbum.cli as cli

        def no_chain(*args, **kwargs):
            raise AssertionError("a chain ran before --alphas was checked")

        _, model_path = configs
        monkeypatch.setattr(cli, "run_chain", no_chain)
        alphas = ",".join(["0.1"] * 1001)
        code = main(
            ["sweep-corruption", str(small_bundle), str(model_path), "--out",
             str(tmp_path / "s"), "--alphas", alphas, "--trials", "1"]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: --alphas lists 1001 values, at most 1000\n"
        assert not (tmp_path / "s").exists()
        assert len(cli._parse_alphas(",".join(["0.1"] * 1000))) == 1000

    def test_trial_count_validated(self, configs, tmp_path):
        scene_path, model_path = configs
        bundle_dir = tmp_path / "bundle"
        main(["generate", str(scene_path), "--out", str(bundle_dir)])
        code = main(
            [
                "sweep-corruption", str(bundle_dir), str(model_path),
                "--out", str(tmp_path / "s"), "--trials", "0",
            ]
        )
        assert code == 2

    def test_scene_statistics_formed_once_per_sweep(self, small_bundle, configs, tmp_path,
                                                     monkeypatch):
        import hbum.sampler as sampler

        _, model_path = configs
        calls = []
        original = sampler._make_precomp

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(sampler, "_make_precomp", spy)
        code = main(
            ["sweep-corruption", str(small_bundle), str(model_path), "--out",
             str(tmp_path / "s"), "--alphas", "0,0.2", "--trials", "2"]
        )
        assert code == 0
        assert len(calls) == 1

    def test_bundle_read_once_per_sweep(self, configs, tmp_path, monkeypatch):
        import os

        import hbum.cli as cli

        scene_path, model_path = configs
        bundle_dir = tmp_path / "bundle"
        main(["generate", str(scene_path), "--out", str(bundle_dir)])
        parent, reads = os.getpid(), []

        def read_in_parent_only(path):
            # A pool worker inherits this stand-in; a read there fails the sweep.
            assert os.getpid() == parent, "a trial re-read the bundle"
            reads.append(path)
            return read_bundle(path)

        monkeypatch.setattr(cli, "read_bundle", read_in_parent_only)
        args = [
            "sweep-corruption", str(bundle_dir), str(model_path),
            "--alphas", "0,0.2", "--trials", "2",
        ]
        assert main(args + ["--out", str(tmp_path / "serial")]) == 0
        assert len(reads) == 1
        assert main(args + ["--out", str(tmp_path / "parallel"), "--threads", "2"]) == 0
        assert len(reads) == 2

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_bad_thread_count_exits_2(self, configs, tmp_path, capsys, value):
        _, model_path = configs
        # The count is checked before the bundle is read, so none is needed.
        code = main(
            ["sweep-corruption", str(tmp_path / "missing"), str(model_path),
             "--out", str(tmp_path / "s"), "--threads", value]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--threads" in err
        assert f"got {value}" in err

    def test_non_integer_threads_option_exits_2(self, configs, tmp_path, capsys):
        _, model_path = configs
        with pytest.raises(SystemExit) as info:
            main(["sweep-corruption", str(tmp_path / "missing"), str(model_path),
                  "--out", str(tmp_path / "s"), "--threads", "abc"])
        assert info.value.code == 2
        assert "'abc'" in capsys.readouterr().err

    def test_default_alpha_grid(self):
        from hbum.cli import _parse_alphas

        np.testing.assert_allclose(
            _parse_alphas(None), [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4]
        )
        np.testing.assert_allclose(_parse_alphas("0,0.1"), [0.0, 0.1])
