"""Command-line pipeline: bundle generation, inference, evaluation, the
corruption sweep and exit-code behavior."""

import json
from pathlib import Path

import numpy as np
import pytest

from hbum.cli import main
from hbum.io import (
    BUNDLE_FILES,
    RESULT_FILES,
    read_bundle,
    read_manifest,
    read_results,
    write_results,
)
from hbum.model import ClusterParams, InteractionMatrix, NoiseModel
from hbum.sampler import ChainState


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


def bundle_bytes(bundle_dir):
    return {name: (Path(bundle_dir) / name).read_bytes() for name in BUNDLE_FILES}


def results_bytes(results_dir):
    return {name: (Path(results_dir) / name).read_bytes() for name in RESULT_FILES}


class TestGenerate:
    def test_writes_complete_bundle(self, configs, tmp_path):
        scene_path, _ = configs
        out = tmp_path / "bundle"
        assert main(["generate", str(scene_path), "--out", str(out)]) == 0
        for name in BUNDLE_FILES:
            assert (out / name).exists(), name
        bundle = read_bundle(out)
        assert bundle.Y.data.shape == (24, 256)
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


class TestRun:
    def test_produces_readable_results(self, configs, tmp_path):
        scene_path, model_path = configs
        bundle = tmp_path / "bundle"
        results = tmp_path / "results"
        main(["generate", str(scene_path), "--out", str(bundle)])
        assert main(["run", str(bundle), str(model_path), "--out", str(results)]) == 0
        res = read_results(results)
        assert res.a_hat.data.shape == (3, 256)
        assert res.omega_freq.shape == (2, 256)
        np.testing.assert_allclose(res.omega_freq.sum(axis=0), 1.0, atol=1e-12)
        assert res.manifest["recorded_sweeps"] == 12
        assert res.manifest["config"]["iterations"] == 16

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
            ("inner_iters", "x"),
            ("class_proportions", "x"),
            ("zeta", [1.0, 2.0]),
            ("zeta", [[1.0, 2.0, 3.0]]),
            ("clusters", 2.5),
            ("burnin", True),
            ("seed", -1),
            ("schedule", "raster"),
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

    def test_mismatched_pair_fails(self, configs, tmp_path):
        scene_path, model_path = configs
        b1, b2 = tmp_path / "b1", tmp_path / "b2"
        results = tmp_path / "results"
        main(["generate", str(scene_path), "--out", str(b1)])
        # a different-geometry bundle cannot score these results
        other = json.loads(json.dumps(SCENE_CONFIG))
        other["scene"]["height"] = 8
        other_path = tmp_path / "other.json"
        other_path.write_text(json.dumps(other))
        main(["generate", str(other_path), "--out", str(b2)])
        main(["run", str(b1), str(model_path), "--out", str(results)])
        assert main(["evaluate", str(results), str(b2)]) == 2


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

    def test_parallel_workers_match_serial(self, configs, tmp_path, monkeypatch):
        scene_path, model_path = configs
        bundle_dir = tmp_path / "bundle"
        main(["generate", str(scene_path), "--out", str(bundle_dir)])
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        args = [
            "sweep-corruption", str(bundle_dir), str(model_path),
            "--alphas", "0,0.2", "--trials", "2",
        ]
        main(args + ["--out", str(serial)])
        monkeypatch.setenv("HBUM_THREADS", "2")
        main(args + ["--out", str(parallel)])
        assert (serial / "corruption_sweep.txt").read_text() == (
            parallel / "corruption_sweep.txt"
        ).read_text()

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

    @pytest.mark.parametrize(
        "option, env, named",
        [
            (["--threads", "0"], None, "0"),
            (["--threads", "-4"], None, "-4"),
            ([], "abc", "'abc'"),
            ([], "0", "0"),
            ([], "2.5", "'2.5'"),
        ],
    )
    def test_bad_thread_count_exits_2(self, configs, tmp_path, monkeypatch, capsys,
                                      option, env, named):
        _, model_path = configs
        if env is not None:
            monkeypatch.setenv("HBUM_THREADS", env)
        # The count is checked before the bundle is read, so none is needed.
        code = main(
            ["sweep-corruption", str(tmp_path / "missing"), str(model_path),
             "--out", str(tmp_path / "s")] + option
        )
        assert code == 2
        err = capsys.readouterr().err
        assert ("--threads" if option else "HBUM_THREADS") in err
        assert f"got {named}" in err

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
