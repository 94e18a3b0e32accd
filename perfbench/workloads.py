"""The three benchmark workloads: their sizes, inputs and timed stage chains.

Every input is generated from the workload seed before any timing, in the
working directory the run gives.  The program sees only the generated
files.  File names inside that directory are fixed:

    f.vadf   feature file         m.json   manifest with frame labels
    c.ckpt   checkpoint           s.csv    score CSV
    r.json   eval report
"""

from __future__ import annotations

import os
from pathlib import Path

# Scoring defaults the CLI uses when no flag is given: a 10-step grid,
# start-t = steps - 1 and 8192-row threshold batches.
STEPS = 10
SCORE_BATCH = 8192

WORKLOADS = {
    "pipeline": {
        "n_normal": 2000, "dim": 64, "epochs": 2, "batch_size": 512, "nfe": 1,
    },
    "score-deep": {
        "n_normal": 800, "dim": 64, "shift": 6.0, "epochs": 2, "batch_size": 512,
        "nfe": STEPS,
    },
    "eval-frames": {
        "n_normal": 119000, "dim": 8, "nfe": 0,
    },
}


def _synth_argv(spec, seed):
    argv = ["synth", "--features", "f.vadf", "--manifest", "m.json",
            "--n-normal", str(spec["n_normal"]), "--dim", str(spec["dim"]),
            "--seed", str(seed)]
    if "shift" in spec:
        argv += ["--shift", str(spec["shift"])]
    return argv


def _train_argv(spec, seed):
    return ["train", "--features", "f.vadf", "--manifest", "m.json",
            "--checkpoint", "c.ckpt", "--epochs", str(spec["epochs"]),
            "--batch-size", str(spec["batch_size"]), "--seed", str(seed)]


_SCORE = ["score", "--features", "f.vadf", "--manifest", "m.json",
          "--checkpoint", "c.ckpt", "--out", "s.csv"]
_EVAL = ["eval", "--scores", "s.csv", "--manifest", "m.json", "--out", "r.json"]


def chain(name: str, seed: int) -> list[tuple[str, list[str]]]:
    """(stage, argv) pairs of the timed chain, run from the working directory."""
    spec = WORKLOADS[name]
    if name == "pipeline":
        return [("synth", _synth_argv(spec, seed)),
                ("train", _train_argv(spec, seed)),
                ("score", _SCORE + ["--seed", str(seed)]),
                ("eval", _EVAL)]
    if name == "score-deep":
        return [("score", _SCORE + ["--seed", str(seed), "--start-t", "0"]),
                ("eval", _EVAL)]
    return [("eval", _EVAL)]


def prepare(name: str, seed: int, run_stage) -> dict:
    """Write the workload's inputs into the current directory.

    `run_stage(argv)` runs one CLI stage and raises if it fails.  Returns
    the size record: segments, frames, dim, NFE and input bytes per file.
    """
    from checks import frame_arrays, mann_whitney_auc, read_manifest

    spec = WORKLOADS[name]
    run_stage(_synth_argv(spec, seed))
    doc = read_manifest("m.json")
    inputs = ["f.vadf", "m.json"]
    extra = {}
    if name == "score-deep":
        run_stage(_train_argv(spec, seed))
        inputs.append("c.ckpt")
    elif name == "eval-frames":
        _write_standin_scores()
        extra["oracle_auc"] = mann_whitney_auc(*frame_arrays(doc, "s.csv"))
        inputs = ["m.json", "s.csv"]
    videos = doc["videos"]
    return {
        "segments": sum(v["segment_count"] for v in videos),
        "frames": sum(v["frame_count"] for v in videos),
        "dim": spec["dim"],
        "nfe": spec["nfe"],
        "score_batch": SCORE_BATCH,
        "input_bytes": {f: os.path.getsize(f) for f in inputs},
        **extra,
    }


def _write_standin_scores() -> None:
    """Score CSV for eval-frames.

    The stand-in score is each row's distance from the normal-cluster
    mean, which synth places at the origin; it reads no label.
    """
    import numpy as np
    from vadiff import DatasetScores, batch_threshold, load_features, write_scores_csv

    fs = load_features("f.vadf", "m.json")
    x = fs.features.astype(np.float64)
    dist = np.sqrt(np.einsum("ij,ij->i", x, x))
    n = dist.size
    _, _, l_th = batch_threshold(dist, 1.0)
    write_scores_csv("s.csv", fs, DatasetScores(
        dist, dist > l_th, np.zeros(n, dtype=np.int64), np.full(n, l_th), []))
    Path("f.vadf").unlink()


def setup_load(name: str, vadiff) -> None:
    """Load the workload's inputs the way its first stage needs them.

    pipeline has none: its first stage generates them.
    """
    if name == "score-deep":
        vadiff.load_features("f.vadf", "m.json")
        vadiff.load_checkpoint("c.ckpt")
    elif name == "eval-frames":
        vadiff.load_manifest("m.json")
        vadiff.read_scores_csv("s.csv")
