"""One fresh process of a benchmark run, started by run.py in the working directory.

    worker.py prepare --workload W --seed N --out RESULT.json
    worker.py measure --workload W --seed N --out RESULT.json --seconds S [--spans FILE]

`prepare` writes the workload's inputs and their size record (inputs.json).
`measure` runs the workload's stage chain through vadiff.cli.main once
untimed, then again and again until S seconds have passed, checks every
stage's outputs, and writes the per-stage times and the peak memory.  With --spans it traces vadiff's functions,
writes the spans to FILE and adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import time
import tracemalloc
import traceback
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent


def import_vadiff():
    import vadiff

    src = ROOT / "src"
    if Path(vadiff.__file__).resolve().parent.parent != src:
        raise ImportError(f"vadiff was imported from {vadiff.__file__}, not from {src}")
    return vadiff


def call_cli(cli, argv) -> tuple[int, str]:
    """Run one CLI stage with its output captured; (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # an escaped exception is a failed stage, not a failed run
            traceback.print_exc()
            code = -1
    return code, err.getvalue()


def check_stage(stage: str, inputs: dict) -> dict:
    """Check one stage's outputs; returns the values it reports."""
    if stage == "train":
        return {"loss": checks.final_loss("c.ckpt.log.csv")}
    if stage == "score":
        checks.check_scores("m.json", "s.csv")
    if stage == "eval":
        oracle = inputs.get("oracle_auc")
        if oracle is None:
            oracle = checks.mann_whitney_auc(
                *checks.frame_arrays(checks.read_manifest("m.json"), "s.csv"))
        return {"auc": checks.check_report("r.json", oracle)}
    return {}


def run_stage(cli, stage: str, argv, inputs: dict) -> dict:
    start = time.perf_counter()
    code, err = call_cli(cli, argv)
    rec = {"stage": stage, "s": time.perf_counter() - start, "code": code}
    try:
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.strip()[-800:]}")
        rec.update(check_stage(stage, inputs))
    except Exception as e:  # a failed check counts as a failed operation
        rec["error"] = f"{type(e).__name__}: {e}"
    return rec


def prepare(args) -> dict:
    from vadiff import cli

    def run(argv):
        code, err = call_cli(cli, argv)
        if code != 0:
            raise RuntimeError(f"preparation stage {argv[0]} exited {code}:\n{err}")

    inputs = workloads.prepare(args.workload, args.seed, run)
    Path("inputs.json").write_text(json.dumps(inputs))
    return inputs


def measure(args) -> dict:
    from vadiff import cli

    inputs = json.loads(Path("inputs.json").read_text())
    stages = workloads.chain(args.workload, args.seed)
    # An untimed first chain warms caches and lazy set-up.  It also gives
    # the peak heap: tracemalloc counts Python objects and numpy buffers
    # exactly, where the kernel's RSS high-water mark read up to 10 % off.
    tracemalloc.start()
    warmup = [run_stage(cli, stage, argv, inputs) for stage, argv in stages]
    peak_heap = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    tracer = None
    if args.spans:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    runs = []
    try:
        start = time.perf_counter()
        while not runs or time.perf_counter() - start < args.seconds:
            if tracer is not None:
                tracer.run_id = len(runs)
            runs.append([run_stage(cli, stage, argv, inputs) for stage, argv in stages])
    finally:
        if tracer is not None:
            tracer.restore()
    result = {"warmup": warmup, "runs": runs, "peak_heap_mb": peak_heap / 2**20,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        walls = [sum(rec["s"] for rec in run) for run in runs]
        result["layers"] = spans.run_metrics(tracer.spans, tracer.counts, walls)
        with open(args.spans, "w") as fh:
            for name, begin, end, parent, run in tracer.spans:
                fh.write(json.dumps({"name": name, "start": begin, "end": end,
                                     "parent": parent, "run": run}) + "\n")
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["prepare", "measure"])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans")
    args = parser.parse_args()
    import_vadiff()
    result = prepare(args) if args.mode == "prepare" else measure(args)
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
