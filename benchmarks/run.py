"""hbum benchmark runner.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload scene1 --seed 1 --seconds 25 --trace 0

Generates the workload's scene bundle with ``hbum generate`` (untimed), then
runs rounds until ``--seconds`` have passed; ``--seed`` sets the rounds'
chain seeds. Each round is a fresh process (``workload.py``) with BLAS
pinned to one thread; it sets up, makes the timed call, checks the output
and reports. The runner prints every metric with its unit and, as its last
line, one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``. The full record
(host, every round, digests) goes to ``.bench_out/`` in the repository root;
a traced run also writes its spans there. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workload import WORKLOADS, chain_seed  # noqa: E402

#: Environment of every child process. One BLAS thread per process: the
#: grid's two pool workers must not oversubscribe a 2-core host, and pinned
#: runs were both faster and steadier than OpenBLAS's default threading.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Every run must end well inside 180 s; no round starts after this.
DEADLINE_S = 165.0

#: Fewest rounds per run. The quality metrics and gate use the chains of
#: exactly these first rounds, so they repeat for a seed whatever the number
#: of rounds. On scene 2 about one chain in three ends in a mode with two
#: clusters merged (kappa 0.88); a mean over five chains falls below 0.90
#: only if all five do.
MIN_ROUNDS = 5

#: Means over the first ``MIN_ROUNDS`` chains; every other metric is a
#: median over all good rounds.
QUALITY_METRICS = ("kappa", "rmse", "cluster_acc")

#: What the raw wall time ``run_s`` of the timed call is, per workload kind.
RUN_S_MEANING = {"chain": "chain_s: run_chain wall time", "grid": "grid_s: sweep-corruption wall time"}


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing checkout files, failed set-up)."""


def _child_env(root: Path) -> dict:
    env = dict(os.environ, **PINNED_ENV)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("HBUM_THREADS", None)
    return env


def _run_child(cmd: list[str], root: Path, log: Path, timeout: float) -> int | None:
    """Run a child in its own process group; returns its exit code, or None
    if it timed out (then the whole group is killed and reaped)."""
    with open(log, "ab") as fh:
        proc = subprocess.Popen(
            cmd, cwd=root, env=_child_env(root), stdout=fh, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            return proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            return None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest(root: Path) -> str:
    """SHA-256 over the program's sources and configs, which identifies the
    code under test where no git metadata exists."""
    h = hashlib.sha256()
    files = sorted(root.glob("src/**/*.py")) + sorted(root.glob("configs/*.json"))
    for path in files:
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def host_record(root: Path) -> dict:
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": PINNED_ENV["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
    }


def _scene_seed(root: Path, spec: dict) -> int | None:
    try:
        with open(root / spec["scene"]) as fh:
            return json.load(fh).get("seed")
    except (OSError, ValueError):
        return None


def check_checkout(root: Path, spec: dict) -> None:
    needed = [root / "src" / "hbum" / "__init__.py", root / spec["scene"], root / spec["model"]]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        raise BenchmarkError(f"not an hbum checkout, missing: {', '.join(missing)}")


def prepare_bundle(root: Path, spec: dict, work: Path, deadline: float) -> Path:
    """Generate the workload's scene bundle (untimed) with the scene seed of
    its config file."""
    bundle = work / "bundle"
    cmd = [sys.executable, "-m", "hbum.cli", "generate", str(root / spec["scene"]),
           "--out", str(bundle)]
    code = _run_child(cmd, root, work / "generate.log", deadline - time.monotonic())
    if code != 0:
        log = (work / "generate.log").read_text(errors="replace")[-2000:]
        raise BenchmarkError(f"bundle generation failed (exit {code}):\n{log}")
    return bundle


def run_rounds(root: Path, spec: dict, seed: int, seconds: float, trace: bool,
               work: Path, bundle: Path, deadline: float) -> list[dict]:
    """Closed loop of fresh round processes, one client, until ``seconds``
    have passed and at least ``MIN_ROUNDS`` have run. With ``trace`` the
    rounds alternate untraced and traced."""
    records: list[dict] = []
    start = time.monotonic()
    last = 0.0
    while True:
        now = time.monotonic()
        enough = len(records) >= MIN_ROUNDS and now - start >= seconds
        if enough or (records and now + 1.5 * last > deadline):
            break
        i = len(records)
        traced = trace and i % 2 == 1
        out = work / f"round{i}.json"
        load_before = os.getloadavg()
        t_spawn = time.monotonic()
        cmd = [sys.executable, str(HERE / "workload.py"), "--spec", json.dumps(spec),
               "--bundle", str(bundle), "--chain-seed", str(chain_seed(seed, i)),
               "--out", str(out), "--trace", str(int(traced)), "--t-spawn", repr(t_spawn)]
        code = _run_child(cmd, root, work / f"round{i}.log", deadline - t_spawn)
        last = time.monotonic() - t_spawn
        if code == 0 and out.is_file():
            with open(out) as fh:
                record = json.load(fh)
        else:
            log = (work / f"round{i}.log").read_text(errors="replace")[-2000:]
            record = {"errors": [f"round process exited with {code}: {log}"], "traced": traced}
        record["round_wall_s"] = last
        record["loadavg_before"] = load_before
        record["loadavg_after"] = os.getloadavg()
        records.append(record)
    return records


def quality_gate(chains: list[dict], spec: dict) -> list[str]:
    """Acceptance criteria 1-2 on the given chains: mean kappa at least
    ``kappa_min`` and mean abundance RMSE at most ``rmse_max``."""
    if not chains:
        return ["no round succeeded"]
    errors = []
    kappa = statistics.fmean(r["kappa"] for r in chains)
    rmse = statistics.fmean(r["rmse"] for r in chains)
    if spec.get("kappa_min") is not None and not kappa >= spec["kappa_min"]:
        errors.append(f"mean kappa {kappa:.4f} over {len(chains)} chains below {spec['kappa_min']}")
    if spec.get("rmse_max") is not None and not rmse <= spec["rmse_max"]:
        errors.append(f"mean rmse {rmse:.3e} over {len(chains)} chains above {spec['rmse_max']}")
    return errors


def summarize(records: list[dict], names: list[str], trace: bool, spec: dict):
    """Metrics, failed round count and quality-gate errors of a run.

    Times and memory are medians over the good rounds; the quality metrics
    are means over the chains of the first ``MIN_ROUNDS`` rounds, as the
    acceptance criteria define them over seeds. A round fails if its process
    failed or its output check did; if the quality gate fails, every round
    counts as failed."""
    good = [r for r in records if not r["errors"]]
    chains = [r for r in records[:MIN_ROUNDS] if not r["errors"]]
    gate_errors = quality_gate(chains, spec)
    failed = len(records) if gate_errors else len(records) - len(good)
    metrics = {}
    if trace:
        traced = [r for r in good if r["traced"]]
        plain = [r for r in good if not r["traced"]]
        if traced and plain:
            for name in names:
                if name == "trace.overhead_s":
                    metrics[name] = (statistics.median(r["run_s"] for r in traced)
                                     - statistics.median(r["run_s"] for r in plain))
                else:
                    metrics[name] = statistics.median(r["layers"][name] for r in traced)
    elif good:
        for name in names:
            if name in QUALITY_METRICS:
                metrics[name] = statistics.fmean(r[name] for r in chains)
            else:
                metrics[name] = float(statistics.median(r[name] for r in good))
    return metrics, failed, gate_errors


def baseline_digest_status(workload: str, seed: int, digest: str | None) -> str:
    try:
        with open(HERE / "baseline_digests.json") as fh:
            baseline = json.load(fh)["digests"].get(workload, {}).get(str(seed))
    except (OSError, ValueError, KeyError):
        baseline = None
    if baseline is None or digest is None:
        return "no baseline for this seed"
    return "same as baseline" if baseline == digest else f"changed (baseline {baseline[:16]})"


def run_workload(root: Path, workload: str, spec: dict, seed: int, seconds: float,
                 trace: bool, declared: list[dict]) -> dict:
    """Prepare, run the rounds and summarize. ``declared`` is the metric
    list (name, unit) the run must report."""
    deadline = time.monotonic() + DEADLINE_S
    check_checkout(root, spec)
    out_dir = root / ".bench_out"
    work = out_dir / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        load_before = os.getloadavg()
        bundle = prepare_bundle(root, spec, work, deadline)
        records = run_rounds(root, spec, seed, seconds, trace, work, bundle, deadline)
        load_after = os.getloadavg()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    names = [m["name"] for m in declared]
    metrics, failed, gate_errors = summarize(records, names, trace, spec)
    # Round 0 always runs chain seed index 0, so its digest identifies the
    # run whatever the number of rounds.
    digest = records[0].get("digest") if records else None
    missing = [n for n in names if n not in metrics]
    host = host_record(root)
    host["versions"] = next((r["versions"] for r in records if "versions" in r), None)
    host["loadavg_before"], host["loadavg_after"] = load_before, load_after
    result = {
        "workload": workload,
        "seed": seed,
        "scene_seed": _scene_seed(root, spec),
        "chain_seeds": [chain_seed(seed, i) for i in range(len(records))],
        "seconds": seconds,
        "trace": trace,
        "spec": spec,
        "host": host,
        "digest": digest,
        "digest_status": baseline_digest_status(workload, seed, digest),
        "attempted": len(records),
        "failed": failed,
        "correct": failed == 0 and not missing,
        "quality_gate_errors": gate_errors,
        "missing_metrics": missing,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared if m["name"] in metrics
        },
        "rounds": [{k: v for k, v in r.items() if k != "spans"} for r in records],
    }
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    if trace:
        spans = [{"round": i, "spans": r["spans"]} for i, r in enumerate(records) if "spans" in r]
        with open(out_dir / f"{workload}-seed{seed}-spans.json", "w") as fh:
            json.dump(spans, fh)
    result["results_file"] = str(out_dir / f"{stem}.json")
    return result


def report(result: dict) -> None:
    """Human-readable summary on stdout."""
    host = result["host"]
    print(f"hbum benchmark  workload={result['workload']} seed={result['seed']} "
          f"(scene seed {result['scene_seed']}, chain seeds {result['chain_seeds']}) "
          f"seconds={result['seconds']} trace={int(result['trace'])}")
    print(f"host  cpu={host['cpu']} nproc={host['nproc']} blas_threads={host['blas_threads']} "
          f"versions={host['versions']}")
    print(f"code  git_commit={host['git_commit']} source_sha256={host['source_sha256'][:16]}")
    for i, r in enumerate(result["rounds"]):
        status = "ok" if not r["errors"] else "FAILED: " + "; ".join(r["errors"])
        if "run_s" in r:
            print(f"round {i} {'traced' if r['traced'] else 'plain '} setup_s={r['setup_s']:.3f} "
                  f"run_s={r['run_s']:.3f} calib_s={r['calib_s'][0]:.4f},{r['calib_s'][1]:.4f} "
                  f"run_rel={r['run_rel']:.2f} peak_rss_mb={r['peak_rss_mb']:.1f} "
                  f"kappa={r['kappa']:.4f} rmse={r['rmse']:.3e} "
                  f"load={r['loadavg_before'][0]:.2f}->{r['loadavg_after'][0]:.2f} {status}")
        else:
            print(f"round {i} {status}")
    good = [r for r in result["rounds"] if not r["errors"]]
    n_ok = sum(1 for r in good if r["traced"]) if result["trace"] else len(good)
    n_chains = sum(1 for r in result["rounds"][:MIN_ROUNDS] if not r["errors"])
    meaning = RUN_S_MEANING[result["spec"]["kind"]]
    for name, m in result["metrics"].items():
        if name in QUALITY_METRICS and not result["trace"]:
            how = f"mean of the first {n_chains} chains"
        else:
            how = f"median of {n_ok}"
        print(f"{name:34s} {m['value']:14.6g} {m['unit']:6s} {how}")
    if good:
        run_s = statistics.median(r["run_s"] for r in good)
        print(f"{'run_s':34s} {run_s:14.6g} {'s':6s} median of {len(good)}  ({meaning}; "
              f"not normalized, so it moves with the host's speed)")
    gate = "; ".join(result["quality_gate_errors"]) or "passed"
    print(f"quality gate (acceptance criteria 1-2 over the run's chains): {gate}")
    print(f"{'fail_rate':34s} {result['failed'] / result['attempted']:14.6g} {'1':6s} "
          f"{result['failed']} of {result['attempted']} rounds")
    print(f"digest {result['digest']} ({result['digest_status']})")
    if result["missing_metrics"]:
        print(f"missing metrics: {result['missing_metrics']}")
    print(f"results in {result['results_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hbum benchmark runner")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the round in flight is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = HERE.parent
    try:
        with open(root / "BENCHMARK.json") as fh:
            contract = json.load(fh)
        declared = contract["per_layer" if args.trace else "end_to_end"]
        result = run_workload(root, args.workload, WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace), declared)
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
