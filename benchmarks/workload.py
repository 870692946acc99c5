"""One benchmark round: a fresh process that sets up, makes the timed call,
checks its output and writes a JSON record.

Run by ``run.py``; by hand::

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 benchmarks/workload.py \
        --spec '<json>' --bundle <dir> --chain-seed <n> --out <record.json> --trace 0

The process imports only the standard library at start, so ``setup_s``
(from the moment ``run.py`` spawned it until the bundle and model config
are loaded) includes the ``hbum`` import. The program is used only through
its public layer calls: ``io.read_bundle``, ``io.load_model_config``,
``sampler.run_chain``, ``cli.main`` and the ``metrics`` functions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibrate import calibration_s  # noqa: E402
from tracer import Tracer, totals_by_name  # noqa: E402

def chain_seed(seed: int, round_index: int) -> int:
    """Chain seed of round ``round_index`` in a run with workload seed
    ``seed``. Every round is a distinct chain, so the quality gate averages
    over several, as acceptance criteria 1-2 do.

    The scene does not follow the seed; it is the one its config file
    defines. The abundance RMSE the chain can reach differs by 25-60 %
    (quartile spread over ten seeds) from scene to scene, which no
    regression bound survives.
    """
    return 100 + 1000 * seed + round_index


#: The three workloads. Paths are relative to the repository root.
WORKLOADS = {
    # Scene-1 protocol, full length: small arrays, so per-call overhead,
    # the simplex-truncated mean sampler and trace recording show.
    "scene1": {
        "kind": "chain",
        "scene": "configs/image1.json",
        "model": "configs/model_image1.json",
        "overrides": {},
        "kappa_min": 0.90,
        "rmse_max": 5e-3,
    },
    # Scene-2 protocol shortened to 30 sweeps, keeping the protocol's 1:5
    # burn-in to recorded ratio because the two phases run different code.
    "scene2": {
        "kind": "chain",
        "scene": "configs/image2.json",
        "model": "configs/model_image2.json",
        "overrides": {"iterations": 30, "burnin": 5},
        "kappa_min": 0.90,
        "rmse_max": None,
    },
    # Many short chains through the CLI and its process pool.
    "corruption-grid": {
        "kind": "grid",
        "scene": "configs/image1.json",
        "model": "configs/model_image1.json",
        "alphas": [0.0, 0.2, 0.4],
        "trials": 2,
        "iters": 60,
        "burnin": 20,
        "workers": 2,
    },
}

#: Stage functions that ``run_chain`` looks up in ``hbum.sampler`` on every
#: sweep, with the span name each gets.
SAMPLER_STAGES = {
    "_sample_abundances_all": "sampler.abundances",
    "_sample_noise_fast": "sampler.noise",
    "sample_cluster_means": "sampler.cluster_means",
    "sample_cluster_variances": "sampler.cluster_variances",
    "sample_cluster_labels": "sampler.cluster_labels",
    "sample_interaction_matrix": "sampler.interaction",
    "sample_class_labels": "sampler.class_labels",
}


def _sites(args, kwargs, result) -> int:
    log_weights = args[1] if len(args) > 1 else kwargs["log_weights"]
    return int(log_weights.shape[0] * log_weights.shape[1])


def _file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics need."""
    import hbum.cli as cli
    import hbum.io as io
    import hbum.metrics as metrics
    import hbum.model as model
    import hbum.sampler as sampler

    wrap = tracer.wrap
    for attr, name in SAMPLER_STAGES.items():
        wrap(sampler, attr, name)
    wrap(sampler.Trace, "record", "sampler.record")
    wrap(sampler, "initialize_state", "sampler.init")
    wrap(sampler, "_make_precomp", "sampler.precomp")
    wrap(sampler, "run_chain", "sampler.run_chain")
    wrap(cli, "run_chain", "sampler.run_chain")
    wrap(sampler, "sample_categorical_log_many", "distributions.categorical", amount=_sites)
    wrap(sampler, "sample_gaussian_simplex_truncated_batch", "distributions.simplex_tn")
    wrap(sampler, "sample_inverse_gamma", "distributions.gamma")
    wrap(sampler, "sample_inverse_gamma_array", "distributions.gamma")
    wrap(sampler, "neighbor_value_counts", "lattice.neighbor_counts")
    wrap(io, "read_bundle", "io.read_bundle")
    wrap(cli, "read_bundle", "io.read_bundle")
    wrap(io, "read_matrix", "io.read_matrix", amount=_file_bytes)
    for cls in vars(model).values():
        if isinstance(cls, type) and cls.__module__ == model.__name__ and "validate" in vars(cls):
            wrap(cls, "validate", "model.validate")
    for attr in ("cohen_kappa", "rgmse", "aligned_cluster_accuracy"):
        wrap(metrics, attr, "metrics.eval")
    wrap(cli, "cohen_kappa", "metrics.eval")
    wrap(metrics.ConfusionMatrix, "from_labels", "metrics.eval")
    wrap(cli, "_sweep_trial", "pool.trial", flush=True)


def layer_metrics(spans: list[dict], run_s: float, workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced round. Times are self times summed
    over the round; ``sampler.unaccounted_s`` is the self time of
    ``run_chain``, the part of the chain no stage span covers."""
    rows = totals_by_name(spans)

    def get(name: str, key: str) -> float:
        return rows.get(name, {}).get(key, 0)

    out = {f"{name}_s": get(name, "self_s") for name in SAMPLER_STAGES.values()}
    for name in (
        "sampler.record", "sampler.init", "sampler.precomp",
        "distributions.categorical", "distributions.simplex_tn", "distributions.gamma",
        "lattice.neighbor_counts", "io.read_bundle", "io.read_matrix",
        "model.validate", "metrics.eval",
    ):
        out[f"{name}_s"] = get(name, "self_s")
    out["sampler.unaccounted_s"] = get("sampler.run_chain", "self_s")
    out["sampler.chain_s"] = get("sampler.run_chain", "total_s")
    out["sampler.sweeps"] = get("sampler.abundances", "calls")
    out["distributions.categorical_sites"] = get("distributions.categorical", "n")
    out["lattice.neighbor_counts_calls"] = get("lattice.neighbor_counts", "calls")
    out["io.read_bundle_calls"] = get("io.read_bundle", "calls")
    out["io.bytes_read"] = get("io.read_matrix", "n")
    trials = sorted(s["end"] - s["start"] for s in spans if s["name"] == "pool.trial")
    out["pool.trial_s"] = trials[len(trials) // 2] if trials else 0.0
    out["pool.efficiency"] = sum(trials) / (run_s * workers) if trials else 0.0
    return out


def estimates_digest(est) -> str:
    """SHA-256 over the point estimates A, s2, psi, sigma2, Q, z, omega."""
    import numpy as np

    h = hashlib.sha256()
    for arr in (
        est.A.data, np.array([est.noise.s2]), est.clusters.psi, est.clusters.sigma2,
        est.q.q, est.z.labels, est.omega.labels,
    ):
        a = np.ascontiguousarray(arr)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _evaluate(bundle, est):
    import numpy as np
    from hbum import metrics

    unlabeled = np.flatnonzero(~bundle.sup.labeled_mask())
    cm = metrics.ConfusionMatrix.from_labels(bundle.omega_true, est.omega, unlabeled)
    return (
        metrics.cohen_kappa(cm),
        metrics.rgmse(est.A, bundle.a_true),
        metrics.aligned_cluster_accuracy(est.z, bundle.z_true),
    )


def _peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def _versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
    }


def run_round(spec: dict, root: Path, bundle_dir: Path, seed: int, work: Path,
              trace: bool, t_spawn: float) -> dict:
    """Set up, make the timed call, check the output. Returns the record."""
    tracer = Tracer(flush_dir=work) if trace else None
    from hbum import io, sampler
    from hbum.errors import HbumError

    if tracer is not None:
        instrument(tracer)
    model_path = root / spec["model"]
    if spec["kind"] == "chain":
        overrides = dict(spec["overrides"], seed=seed)
    else:
        overrides = {"seed": seed, "iterations": spec["iters"], "burnin": spec["burnin"]}
    bundle = io.read_bundle(bundle_dir)
    config = io.load_model_config(model_path, overrides=overrides)
    setup_s = time.monotonic() - t_spawn
    calib_before = calibration_s()

    errors: list[str] = []
    if spec["kind"] == "chain":
        # The chain is the scene workloads' one task, run in-process.
        trial = tracer.span("pool.trial") if tracer is not None else contextlib.nullcontext()
        t0 = time.perf_counter()
        with trial:
            est, _ = sampler.run_chain(bundle.Y, bundle.M, bundle.sup, config)
        run_s = time.perf_counter() - t0
        calib_after = calibration_s()
        peak_rss_mb = _peak_rss_mb(include_children=False)
        kappa, rmse, cluster_acc = _evaluate(bundle, est)
        digest = estimates_digest(est)
        workers = 1
    else:
        from hbum import cli

        out_dir = work / "sweep"
        argv = [
            "sweep-corruption", str(bundle_dir), str(model_path), "--out", str(out_dir),
            "--alphas", ",".join(str(a) for a in spec["alphas"]),
            "--trials", str(spec["trials"]), "--iters", str(spec["iters"]),
            "--burnin", str(spec["burnin"]), "--threads", str(spec["workers"]),
            "--seed", str(seed),
        ]
        t0 = time.perf_counter()
        code = cli.main(argv)
        run_s = time.perf_counter() - t0
        calib_after = calibration_s()
        peak_rss_mb = _peak_rss_mb(include_children=True)
        workers = spec["workers"]
        if tracer is not None:
            tracer.collect_workers()
            tracer.uninstall()  # the reference chain below is a check, not work
        kappas = _check_grid(out_dir, spec, code, errors)
        # Cell (alpha 0, trial 0) draws from chain stream 0 with uncorrupted
        # labels, so a plain run_chain must reproduce its kappa exactly.
        est, _ = sampler.run_chain(bundle.Y, bundle.M, bundle.sup, config)
        ref_kappa, rmse, cluster_acc = _evaluate(bundle, est)
        if kappas and kappas[0][0] != ref_kappa:
            errors.append(f"grid cell (0, 0) kappa {kappas[0][0]} != plain run {ref_kappa}")
        flat = [k for row in kappas for k in row]
        kappa = sum(flat) / len(flat) if flat else float("nan")
        digest = hashlib.sha256(
            (json.dumps(kappas) + estimates_digest(est)).encode()
        ).hexdigest()

    if tracer is not None:
        tracer.uninstall()
    try:
        est.validate()
    except HbumError as exc:
        errors.append(f"estimates fail ChainState.validate(): {exc}")
    for name, value in (("kappa", kappa), ("rmse", rmse), ("cluster_acc", cluster_acc)):
        if not math.isfinite(value):
            errors.append(f"{name} is not finite")

    record = {
        "chain_seed": seed,
        "setup_s": setup_s,
        "run_s": run_s,
        "calib_s": [calib_before, calib_after],
        # The timed call in units of the host's speed around it.
        "run_rel": run_s / ((calib_before + calib_after) / 2.0),
        "peak_rss_mb": peak_rss_mb,
        "kappa": kappa,
        "rmse": rmse,
        "cluster_acc": cluster_acc,
        "digest": digest,
        "errors": errors,
        "traced": trace,
        "versions": _versions(),
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer.spans, run_s, workers)
        record["spans"] = tracer.spans
    return record


def _check_grid(out_dir: Path, spec: dict, code: int, errors: list[str]) -> list[list[float]]:
    """Check corruption_sweep.json; returns the kappa grid (rows = alphas)."""
    if code != 0:
        errors.append(f"sweep-corruption exited with code {code}")
        return []
    try:
        with open(out_dir / "corruption_sweep.json") as fh:
            rows = json.load(fh)["rows"]
    except (OSError, ValueError, KeyError) as exc:
        errors.append(f"cannot read corruption_sweep.json: {exc}")
        return []
    if [row.get("alpha") for row in rows] != spec["alphas"]:
        errors.append(f"expected one row per alpha {spec['alphas']}, got {len(rows)} rows")
    kappas = [row.get("kappas", []) for row in rows]
    for row in kappas:
        if len(row) != spec["trials"]:
            errors.append(f"expected {spec['trials']} kappas per row, got {len(row)}")
        if not all(isinstance(k, (int, float)) and math.isfinite(k) and -1.0 <= k <= 1.0
                   for k in row):
            errors.append(f"kappa row {row} has values outside [-1, 1] or not finite")
    return kappas


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="workload spec as JSON")
    parser.add_argument("--bundle", required=True)
    parser.add_argument("--chain-seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="path of the JSON record")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t-spawn", type=float, default=None,
                        help="time.monotonic() when the process was spawned")
    args = parser.parse_args(argv)
    t_spawn = time.monotonic() if args.t_spawn is None else args.t_spawn
    out = Path(args.out)
    work = out.parent / (out.stem + ".work")
    work.mkdir(parents=True, exist_ok=True)
    record = run_round(
        json.loads(args.spec), Path(__file__).resolve().parent.parent,
        Path(args.bundle), args.chain_seed, work, bool(args.trace), t_spawn,
    )
    with open(out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
