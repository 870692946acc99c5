"""Command-line front end.

Subcommands
-----------
* ``generate``: draw a synthetic scene bundle from a scene config.
* ``run``: run the Gibbs sampler on a bundle and write the point estimates.
* ``evaluate``: score a result set against its bundle's ground truth.
* ``sweep-corruption``: re-run inference under increasing training-label
  corruption and tabulate the resulting agreement scores.

Exit codes: 0 success, 2 validation error, 3 numerical degeneracy, 4 I/O or
file-format error. ``run`` and ``sweep-corruption`` form the scene statistics
once, from Y.hbm in band blocks, and never hold Y whole; ``evaluate`` reads
only Y's header. ``--threads`` (an integer >= 1)
parallelizes sweep-corruption trials across processes, which share those
statistics; every trial draws from its own substream of the master seed, so
results do not depend on the worker count.
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, sampler
from .distributions import make_rng
from .errors import DataFormatError, NumericalDegeneracyError, ValidationError
from .io import (
    BUNDLE_FILES,
    RESULT_FILES,
    SceneBundle,
    generate_config_echo,
    load_generate_config,
    load_model_config,
    model_config_echo,
    read_bundle,
    read_matrix,
    read_results,
    write_bundle,
    write_manifest,
    write_results,
)
from .metrics import (
    ConfusionMatrix,
    aligned_cluster_accuracy,
    cohen_kappa,
    rgmse,
)
from .sampler import run_chain
from .synthgen import corrupt_labels, generate_scene, make_endmembers, split_training

# Substream offsets of the master seed (documented so runs are re-derivable).
# Sweep-corruption chains use stream alpha_idx * 1000 + trial; the (0, 0)
# cell is therefore stream 0, identical to a plain `run` with the same seed.
# The caps on alphas and trials keep those streams below _STREAM_CORRUPT_BASE.
_STREAM_ENDMEMBERS = 2_000_001
_STREAM_SCENE = 2_000_002
_STREAM_TRAINING = 2_000_003
_STREAM_CORRUPT_BASE = 1_000_000
_MAX_SWEEP_TRIALS = 999
_MAX_SWEEP_ALPHAS = 1000


def _scene_manifest(cfg, spec, realized_snr_db: float, timings: dict) -> dict:
    return {
        "kind": "scene",
        "version": __version__,
        "seed": spec.seed,
        "counts": {
            "clusters": spec.n_clusters,
            "classes": spec.n_classes,
            "endmembers": spec.n_endmembers,
            "bands": cfg.n_bands,
            "height": spec.height,
            "width": spec.width,
        },
        "config": generate_config_echo(cfg),
        "realized": {
            "snr_db": "inf" if np.isinf(realized_snr_db) else realized_snr_db,
        },
        "timings_s": timings,
        "files": list(BUNDLE_FILES),
    }


def cmd_generate(args) -> int:
    cfg = load_generate_config(args.config, seed_override=args.seed)
    spec = cfg.scene
    t0 = time.perf_counter()
    if cfg.endmember_file is not None:
        M = _load_endmember_file(cfg.endmember_file, cfg.n_bands, spec.n_endmembers)
    else:
        M = make_endmembers(
            cfg.n_bands, spec.n_endmembers,
            make_rng(spec.seed, _STREAM_ENDMEMBERS),
            min_angle_deg=cfg.min_endmember_angle_deg,
        )
    t1 = time.perf_counter()
    Y, a_true, z_true, omega_true, realized = generate_scene(
        spec, M, make_rng(spec.seed, _STREAM_SCENE)
    )
    t2 = time.perf_counter()
    sup = split_training(omega_true, cfg.training, make_rng(spec.seed, _STREAM_TRAINING))
    t3 = time.perf_counter()
    timings = {
        "endmembers": t1 - t0,
        "scene": t2 - t1,
        "training_split": t3 - t2,
    }
    manifest = _scene_manifest(cfg, spec, realized, timings)
    write_bundle(args.out, SceneBundle(Y, M, a_true, z_true, omega_true, sup, manifest))
    print(f"wrote scene bundle to {args.out}")
    print(f"pixels={Y.n_pixels} bands={Y.n_bands} labeled={sup.n_labeled}")
    if np.isfinite(realized):
        print(f"realized_snr_db={realized:.3f}")
    return 0


def _load_endmember_file(path: str, n_bands: int, n_endmembers: int):
    from .model import EndmemberMatrix

    data = read_matrix(path, "f64")
    if data.shape != (n_bands, n_endmembers):
        raise ValidationError(
            f"endmember file {path} has shape {data.shape}, "
            f"expected ({n_bands}, {n_endmembers})"
        )
    M = EndmemberMatrix(data)
    M.validate()
    return M


def _add_model_overrides(parser: argparse.ArgumentParser) -> None:
    """Add the flags that override model-config fields, read by _model_overrides."""
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--beta1", type=float, default=None)
    parser.add_argument("--beta2", type=float, default=None)
    parser.add_argument("--iters", type=int, default=None, help="total sweeps incl. burn-in")
    parser.add_argument("--burnin", type=int, default=None)


def _model_overrides(args) -> dict:
    return {
        "beta1": args.beta1,
        "beta2": args.beta2,
        "iterations": args.iters,
        "burnin": args.burnin,
        "seed": args.seed,
    }


def cmd_run(args) -> int:
    bundle = read_bundle(args.bundle)
    config = load_model_config(args.config, overrides=_model_overrides(args))
    t0 = time.perf_counter()
    pre = sampler._make_precomp(bundle.Y, bundle.M)
    estimates, trace = run_chain(
        pre, bundle.M, bundle.sup, config, debug_validate=args.debug_validate
    )
    elapsed = time.perf_counter() - t0
    manifest = {
        "kind": "run",
        "version": __version__,
        "seed": config.seed,
        "counts": {
            "clusters": config.n_clusters,
            "classes": config.n_classes,
            "endmembers": config.n_endmembers,
            "height": pre.lattice.height,
            "width": pre.lattice.width,
        },
        "config": model_config_echo(config),
        "bundle": str(args.bundle),
        "recorded_sweeps": trace.n_recorded,
        "timings_s": {"chain": elapsed},
        "files": list(RESULT_FILES),
    }
    write_results(args.out, estimates, trace.omega_frequencies(), manifest)
    print(f"wrote results to {args.out}")
    print(f"chain_seconds={elapsed:.2f} recorded_sweeps={trace.n_recorded}")
    return 0


def _kappa(bundle, omega, eval_all: bool) -> tuple[ConfusionMatrix, float]:
    """The confusion matrix of the class map ``omega`` against the bundle's
    truth, over every pixel or only the unlabeled ones, and its kappa."""
    pixel_idx = None if eval_all else np.flatnonzero(~bundle.sup.labeled_mask())
    cm = ConfusionMatrix.from_labels(bundle.omega_true, omega, pixel_idx)
    return cm, cohen_kappa(cm)


def cmd_evaluate(args) -> int:
    estimates, _, manifest = read_results(args.results)
    bundle = read_bundle(args.bundle)  # Y is not scored
    cm, kappa = _kappa(bundle, estimates.omega, args.eval_all)
    metrics = {
        "rgmse": rgmse(estimates.A, bundle.a_true),
        "kappa": kappa,
        "cluster_accuracy": aligned_cluster_accuracy(estimates.z, bundle.z_true),
        "eval_set": "all" if args.eval_all else "unlabeled",
        "chain_seconds": manifest.get("timings_s", {}).get("chain"),
        "confusion": cm.counts.tolist(),
        "q_hat": estimates.q.q.tolist(),
    }
    report = (
        f"rgmse={metrics['rgmse']:.6e}\nkappa={kappa:.6f}\n"
        f"cluster_accuracy={metrics['cluster_accuracy']:.6f}\neval_set={metrics['eval_set']}\n"
    )
    seconds = metrics["chain_seconds"]
    text = report if seconds is None else report + f"chain_seconds={seconds:.3f}\n"
    out_dir = Path(args.out) if args.out else Path(args.results)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.txt").write_text(text)
    write_manifest(out_dir / "metrics.json", metrics)
    print(report, end="")
    print("confusion matrix (rows=truth, cols=prediction):")
    for row in metrics["confusion"]:
        print("  " + " ".join(f"{v:8d}" for v in row))
    print("estimated interaction matrix (rows=clusters, cols=classes):")
    for row in metrics["q_hat"]:
        print("  " + " ".join(f"{v:8.4f}" for v in row))
    return 0


# The (bundle, scene statistics, config, eval_all) of a sweep, set once in
# each pool worker by ``_init_sweep_worker``; the parent process never sets it.
_sweep_inputs = None


def _init_sweep_worker(inputs) -> None:
    global _sweep_inputs
    _sweep_inputs = inputs


def _sweep_trial(task, inputs=None) -> tuple[int, int, float]:
    """One corruption trial; module-level so worker processes can import it.
    ``inputs`` defaults to the ones set in this pool worker."""
    bundle, pre, config, eval_all = _sweep_inputs if inputs is None else inputs
    alpha, alpha_idx, trial = task
    corrupt_rng = make_rng(config.seed, _STREAM_CORRUPT_BASE + alpha_idx * 1000 + trial)
    sup = corrupt_labels(bundle.sup, alpha, corrupt_rng)
    chain_rng = make_rng(config.seed, alpha_idx * 1000 + trial)
    estimates, _ = run_chain(pre, bundle.M, sup, config, chain_rng)
    return alpha_idx, trial, _kappa(bundle, estimates.omega, eval_all)[1]


def _parse_alphas(text: str | None) -> list[float]:
    if text is None:
        return [round(0.05 * i, 2) for i in range(9)]  # 0, 0.05, ..., 0.4
    try:
        alphas = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"cannot parse --alphas '{text}': {exc}") from exc
    if not alphas:
        raise ValidationError("--alphas must list at least one value")
    if len(alphas) > _MAX_SWEEP_ALPHAS:
        raise ValidationError(f"--alphas lists {len(alphas)} values, at most {_MAX_SWEEP_ALPHAS}")
    for alpha in alphas:
        if not 0.0 <= alpha < 1.0:  # also rejects NaN
            raise ValidationError(f"--alphas values must lie in [0, 1), got {alpha}")
    return alphas


def cmd_sweep_corruption(args) -> int:
    alphas = _parse_alphas(args.alphas)
    if not (1 <= args.trials <= _MAX_SWEEP_TRIALS):
        raise ValidationError(f"--trials must lie in 1..{_MAX_SWEEP_TRIALS}")
    if args.threads < 1:
        raise ValidationError(f"--threads must be an integer >= 1, got {args.threads}")
    # Read the inputs and form the scene statistics once, before launching
    # workers; every trial runs on them, and none reads Y.
    bundle = read_bundle(args.bundle)
    config = load_model_config(args.config, overrides=_model_overrides(args))
    t0 = time.perf_counter()  # as in ``run``, the total counts the statistics
    pre = sampler._make_precomp(bundle.Y, bundle.M)
    tasks = [
        (alpha, alpha_idx, trial)
        for alpha_idx, alpha in enumerate(alphas)
        for trial in range(args.trials)
    ]
    # The pool forks all its workers at once, so start no more than the tasks.
    workers = min(args.threads, len(tasks))
    inputs = (bundle, pre, config, args.eval_all)

    kappas = np.zeros((len(alphas), args.trials))
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_sweep_worker, initargs=(inputs,)
        ) as pool:
            results = list(pool.map(_sweep_trial, tasks))
    else:
        results = [_sweep_trial(task, inputs) for task in tasks]
    for alpha_idx, trial, kappa in results:
        kappas[alpha_idx, trial] = kappa
    elapsed = time.perf_counter() - t0

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for alpha_idx, alpha in enumerate(alphas):
        rows.append(
            {
                "alpha": alpha,
                "mean_kappa": float(kappas[alpha_idx].mean()),
                "std_kappa": float(kappas[alpha_idx].std(ddof=1)) if args.trials > 1 else 0.0,
                "kappas": kappas[alpha_idx].tolist(),
            }
        )
    with open(out_dir / "corruption_sweep.txt", "w") as fh:
        for row in rows:
            fh.write(
                f"alpha={row['alpha']:.3f} mean_kappa={row['mean_kappa']:.6f} "
                f"std_kappa={row['std_kappa']:.6f}\n"
            )
    write_manifest(
        out_dir / "corruption_sweep.json",
        {
            "kind": "corruption_sweep",
            "version": __version__,
            "trials": args.trials,
            "eval_set": "all" if args.eval_all else "unlabeled",
            "rows": rows,
            "timings_s": {"total": elapsed},
        },
    )
    print(f"{'alpha':>8} {'mean_kappa':>12} {'std_kappa':>12}")
    for row in rows:
        print(f"{row['alpha']:8.3f} {row['mean_kappa']:12.6f} {row['std_kappa']:12.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbum",
        description="Joint spectral unmixing, clustering and robust classification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="draw a synthetic scene bundle")
    p_gen.add_argument("config", help="scene config file (JSON)")
    p_gen.add_argument("--out", required=True, help="output bundle directory")
    p_gen.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_gen.set_defaults(func=cmd_generate)

    p_run = sub.add_parser("run", help="run the Gibbs sampler on a bundle")
    p_run.add_argument("bundle", help="scene bundle directory")
    p_run.add_argument("config", help="model config file (JSON)")
    p_run.add_argument("--out", required=True, help="output results directory")
    _add_model_overrides(p_run)
    p_run.add_argument(
        "--debug-validate", action="store_true", help="re-check invariants after every sweep"
    )
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("evaluate", help="score results against the ground truth")
    p_eval.add_argument("results", help="results directory")
    p_eval.add_argument("bundle", help="scene bundle directory")
    p_eval.add_argument(
        "--eval-all",
        action="store_true",
        help="score on all pixels instead of the unlabeled set",
    )
    p_eval.add_argument("--out", default=None, help="metrics output directory")
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser(
        "sweep-corruption", help="kappa as a function of training-label corruption"
    )
    p_sweep.add_argument("bundle", help="scene bundle directory")
    p_sweep.add_argument("config", help="model config file (JSON)")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--alphas", default=None, help="comma-separated corruption rates")
    p_sweep.add_argument("--trials", type=int, default=20)
    p_sweep.add_argument("--threads", type=int, default=1)
    p_sweep.add_argument("--eval-all", action="store_true")
    _add_model_overrides(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep_corruption)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalDegeneracyError as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return 3
    except (DataFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
