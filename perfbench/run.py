"""Run one vadiff benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 15 --trace 0

Workloads: pipeline, score-deep, eval-frames (see perfbench/README.md).
The run prepares the workload's inputs from --seed in a fresh process,
runs the timed stage chain for --seconds in another, then measures set-up
time in several fresh processes.  It imports vadiff from src/ next to this
directory and sets the BLAS thread count to the number of usable cores.

--trace 0 prints the end-to-end metrics.  --trace 1 spends half the time
untraced and half with span tracing, and prints the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The full
record (environment, sizes, every stage time) is written to
perfbench/out/<workload>-seed<seed>-trace<t>.json, spans beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3
RUN_LIMIT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_heap_mb": "MiB"}
# Stage metrics, measured untraced where the workload's chain runs the
# stage: printed, and reported as per-layer metrics (0 where not run).
STAGE_METRICS = {  # name: (per-layer name, unit)
    "train_rows_per_s": ("cli.cmd_train.rows_per_s", "rows/s"),
    "score_rows_per_s": ("cli.cmd_score.rows_per_s", "rows/s"),
    "eval_frames_per_s": ("cli.cmd_eval.frames_per_s", "frames/s"),
    "frame_auc": ("evaluation.frame_auc", "1"),
    "train_loss_final": ("training.loss_final", "1"),
}
PER_LAYER = ["setup.import_s", "setup.load_s", *(n for n, _ in STAGE_METRICS.values()),
             "tracing.overhead_s", *spans.METRICS]


class RunError(Exception):
    pass


def layer_unit(name: str) -> str:
    for layer_name, unit in STAGE_METRICS.values():
        if name == layer_name:
            return unit
    for suffix, unit in ((".calls", "count"), ("_bytes", "B"), (".flops", "flop"),
                         (".rows", "rows"), (".frames", "frames"), ("_share", "1"),
                         ("_per_sigma", "rows"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for {name}")


def child(argv, cwd, env, deadline) -> str:
    """Run a Python child to completion; its stdout, or RunError."""
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env, text=True,
                              capture_output=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as e:
        raise RunError(f"{Path(argv[0]).name} {argv[1:2]} ran past the run's time limit") from e
    if proc.returncode != 0:
        raise RunError(f"{Path(argv[0]).name} {argv[1:2]} exited {proc.returncode}:\n"
                       f"{proc.stderr[-3000:]}")
    return proc.stdout


def environment(threads: int) -> dict:
    """Interpreter, libraries, BLAS, and the vadiff sources under test."""
    import numpy
    import scipy

    blas = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    lines = 0
    for f in sorted(SRC.rglob("*.py")):
        data = f.read_bytes()
        digest.update(str(f.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    rev = None  # a checkout exported without .git has no revision; the digest names it
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": threads, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_threads": threads, "git_revision": rev, "src_sha256": digest.hexdigest(),
            "src_lines": lines}


def stage_times(runs, stage):
    return [rec["s"] for run in runs for rec in run if rec["stage"] == stage]


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def chain_metrics(result: dict, inputs: dict, workload: str) -> dict:
    """Untraced metrics of the stage chain: medians over its runs."""
    runs = result["runs"]
    spec = workloads.WORKLOADS[workload]
    ok = [rec for run in runs for rec in run if "error" not in rec]
    m = {"wall_s": statistics.median(sum(rec["s"] for rec in run) for run in runs),
         "peak_heap_mb": result["peak_heap_mb"],
         "eval_frames_per_s": inputs["frames"] / statistics.median(stage_times(runs, "eval")),
         "frame_auc": median_or_zero(rec["auc"] for rec in ok if "auc" in rec)}
    if stage_times(runs, "train"):
        m["train_rows_per_s"] = (inputs["segments"] * spec["epochs"]
                                 / statistics.median(stage_times(runs, "train")))
        m["train_loss_final"] = median_or_zero(rec["loss"] for rec in ok if "loss" in rec)
    if stage_times(runs, "score"):
        m["score_rows_per_s"] = inputs["segments"] / statistics.median(stage_times(runs, "score"))
    return m


def run(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    worker = str(HERE / "worker.py")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        child([worker, "prepare", *base, "--out", "prepared.json"], work, env, deadline)
        inputs = json.loads((work / "prepared.json").read_text())
        # A traced run spends half its time untraced, for the stage metrics
        # and the tracing overhead, and half traced.
        share = str(args.seconds / 2 if args.trace else args.seconds)
        results = []
        extras = [[]] + ([["--spans", str(OUT / f"{tag}.spans.jsonl")]] if args.trace else [])
        for i, extra in enumerate(extras):
            child([worker, "measure", *base, "--out", f"measure{i}.json", "--seconds", share,
                   *extra], work, env, deadline)
            results.append(json.loads((work / f"measure{i}.json").read_text()))
        probes = [json.loads(child([str(HERE / "probe.py"), args.workload], work, env, deadline))
                  for _ in range(SETUP_PROBES)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain, traced = results if args.trace else (results[0], None)
    records = [rec for res in results for run in [res["warmup"], *res["runs"]] for rec in run]
    failures = [rec["error"] for rec in records if "error" in rec]
    chain = chain_metrics(plain, inputs, args.workload)
    if args.trace:
        values = {
            "setup.import_s": statistics.median(p["import_s"] for p in probes),
            "setup.load_s": statistics.median(p["load_s"] for p in probes),
            **{layer: chain.get(stage, 0.0) for stage, (layer, _) in STAGE_METRICS.items()},
            "tracing.overhead_s": traced["layers"]["tracing.wall_s"] - chain["wall_s"],
            **traced["layers"],
        }
        metrics = {name: values[name] for name in PER_LAYER}
        units = {name: layer_unit(name) for name in PER_LAYER}
    else:
        metrics = {"setup_s": statistics.median(p["import_s"] + p["load_s"] for p in probes),
                   "wall_s": chain["wall_s"], "peak_heap_mb": chain["peak_heap_mb"]}
        units = dict(END_TO_END_UNITS)
    summary = {"correct": not failures, "attempted": len(records), "failed": len(failures),
               "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}

    inputs["rows_in_last_score_batch"] = inputs["segments"] % inputs["score_batch"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "load": "closed loop, one process, one caller",
        "environment": environment(threads),
        "sizes": inputs, "stage_metrics": chain, "failures": failures,
        "peak_rss_mb": plain["peak_rss_mb"],
        "runs": {"plain": plain["runs"], "traced": traced["runs"] if traced else None},
        "setup_probes": probes, "result": summary,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"{args.workload} seed {args.seed}: {len(plain['runs'])} chain runs untraced"
          + (f", {len(traced['runs'])} traced" if traced else "")
          + f"; {len(records)} stages attempted, {len(failures)} failed")
    for failure in failures[:5]:
        print(f"  FAILED {failure}")
    if not args.trace:
        units.update({k: unit for k, (_, unit) in STAGE_METRICS.items() if k in chain})
    for name, unit in units.items():
        print(f"  {name:44s} {metrics.get(name, chain.get(name)):16.6g} {unit}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, subprocess.run kills and reaps the running child, and the
    # scratch directory is removed, before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "vadiff" / "__init__.py").is_file():
        print(f"perfbench: no vadiff sources under {SRC}", file=sys.stderr)
        return 2
    try:
        summary = run(args)
    except RunError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
