"""Metric-name contract and an end-to-end smoke run of the benchmark on a
tiny scene with a few sweeps.

Run with ``python3 -m pytest benchmarks/tests`` from the repository root.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def contract():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_metric_and_workload_names_match_the_pattern(contract):
    names = [w["name"] for w in contract["workloads"]]
    metrics = contract["end_to_end"] + contract["per_layer"]
    names += [m["name"] for m in metrics]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    for m in metrics:
        assert UNIT.fullmatch(m["unit"]), m
    assert {w["name"] for w in contract["workloads"]} == set(run.WORKLOADS)


def test_name_pattern_rejects_bad_names():
    for bad in ("", "-lead", "has space", "semi;colon", "x" * 65, "ünï"):
        assert not NAME.fullmatch(bad), bad


TINY_SCENE = {
    "scene": {"height": 12, "width": 12, "clusters": 3, "classes": 2, "endmembers": 3,
              "cluster_to_class": [1, 1, 2]},
    "bands": 24,
    "training": {"kind": "random", "fraction": 0.3},
    "seed": 3,
}
TINY_MODEL = {"clusters": 3, "classes": 2, "endmembers": 3, "iterations": 6, "burnin": 1,
              "seed": 0}


@pytest.fixture(scope="module")
def tiny_specs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tiny")
    (tmp / "scene.json").write_text(json.dumps(TINY_SCENE))
    (tmp / "model.json").write_text(json.dumps(TINY_MODEL))
    common = {"scene": str(tmp / "scene.json"), "model": str(tmp / "model.json")}
    chain = dict(common, kind="chain", overrides={}, kappa_min=None, rmse_max=None)
    grid = dict(common, kind="grid", alphas=[0.0, 0.2], trials=2, iters=4, burnin=1, workers=2)
    return {"chain": chain, "grid": grid}


@pytest.mark.parametrize("kind", ["chain", "grid"])
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric(contract, tiny_specs, kind, trace):
    declared = contract["per_layer" if trace else "end_to_end"]
    result = run.run_workload(ROOT, f"tiny-{kind}", tiny_specs[kind], seed=1, seconds=0.0,
                              trace=trace, declared=declared)
    for r in result["rounds"]:
        assert r["errors"] == []
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] == run.MIN_ROUNDS
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        layers = result["metrics"]
        assert layers["sampler.sweeps"]["value"] == (
            TINY_MODEL["iterations"] if kind == "chain" else 2 * 2 * 4
        )
        assert layers["pool.trial_s"]["value"] > 0.0
        chain_s = layers["sampler.chain_s"]["value"]
        assert 0.0 <= layers["sampler.unaccounted_s"]["value"] < chain_s


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "scene1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
