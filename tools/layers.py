"""Time vadiff's training, scoring and evaluation layers; print a table and write JSON.

    python tools/layers.py [--rows 8192] [--dims 64 2048] [--lms-dim 64]
                           [--auc-scores 1000000] [--io-normal 119000]
                           [--scale 8192 2048] [--reps 5] [--out layers.json]

vadiff is imported from src/ beside this directory.  Every network is the
default widths in float32, as a checkpoint holds them, drawn from a fixed
seed, with a nonzero output head so that every hidden unit reaches the
output.  Each training layer runs as fit runs it, in a workspace laid
out before timing, on --rows x DIM float32 rows, for each DIM of --dims:

- dsm_loss_fold: one step's loss and backward, dsm_loss with fit's sink,
  which folds each gradient into Adam's moments
- dsm_loss: the same step with dsm_loss's default sink, which writes one
  flat gradient vector, in dsm_loss_fold's workspace
- adam_ema: one training._step, Adam's parameter step and the EMA, on the
  moments dsm_loss_fold left

Each network layer runs as score_dataset runs it: on a float32 ODE state
that is the displacement from float32 rows, about those rows:

- hidden_layer: one network._hidden_layer call, the last hidden layer
  (512 -> 1024) at sigma 1 on --rows rows, in one buffer laid out as
  forward_raw lays it out: the input at the start, the output at the
  end, and each piece's sigmoid over the input, which is dead once
  multiplied (so each call reads the sigmoid the one before left)
- nfe: one denoiser evaluation, as_denoiser with its buffer already
  sized, on --rows x DIM at sigma 1, for each DIM of --dims
- lms_sample: one lms_sample call from index 0 of the default 10-step
  schedule (10 NFE) on --rows x --lms-dim
- roc_auc: one roc_auc call on --auc-scores standard normal scores, each
  labelled positive with probability 0.1
- load_manifest, read_scores_csv, join_scores, evaluate and load_features:
  one call each on the manifest, a score CSV and the feature file of a
  synth corpus of --io-normal normal segments at dim 8, and 5 % as many
  anomalous ones, as `vadiff synth` makes by default; 119 000 is the
  eval-frames benchmark's size, about 2 M labelled frames.  The score is
  each row's distance from the origin, the normal cluster's mean.
  join_scores joins the rows read_scores_csv returned to the manifest
  load_manifest returned, and evaluate takes the AUC of the joined scores,
  so the first four are `vadiff eval` layer by layer
- load_checkpoint: one call on a checkpoint of the default network at
  dim 8 (2.39 M weights, twice: raw and EMA)

Each of these I/O rows also records the tracemalloc heap peak of one more,
untimed call: what that call allocates beyond the inputs it is given, its
result included.

The layers take turns within each of --reps rounds, so that a slow spell
of a shared host falls on all of them alike; the table gives the median
and the quartiles of each.  Then the scale probe scores one --scale ROWS
x DIM batch (score_dataset at start_index 0, default schedule) in a fresh
process: the median wall time of --reps untraced runs, the peak RSS
(which also sees mapped pages, unlike tracemalloc) after set-up and after
those runs, and the tracemalloc heap peak of one more, traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import vadiff  # noqa: E402
from vadiff import (  # noqa: E402
    DatasetScores,
    FeatureSet,
    NetworkConfig,
    OptimizerState,
    Preconditioner,
    Rng,
    ScheduleConfig,
    ScoringConfig,
    SynthConfig,
    TrainConfig,
    TrainNoiseConfig,
    VideoRecord,
    as_denoiser,
    batch_threshold,
    dsm_loss,
    evaluate,
    init_params,
    fourier_embed,
    join_scores,
    karras_schedule,
    lms_sample,
    load_checkpoint,
    load_features,
    load_manifest,
    read_scores_csv,
    roc_auc,
    sample_train_sigma,
    save_checkpoint,
    save_features,
    score_dataset,
    synth_generate,
    write_scores_csv,
)
from vadiff.network import _hidden_layer  # noqa: E402
from vadiff.training import _moment_sink, _step  # noqa: E402

SEED = 0
MIB = 2**20
IO_DIM = 8


def network(dim: int):
    params = init_params(NetworkConfig(input_dim=dim), Rng(SEED))
    params.out_w[...] = Rng(SEED + 1).standard_normal(params.out_w.shape) * 0.01
    return params


def io_probes(n_normal: int, tmp: Path):
    """(name, rows, dim, fn) for load_manifest, read_scores_csv, join_scores,
    evaluate, load_features and load_checkpoint on files written into
    directory `tmp`."""
    fs = synth_generate(SynthConfig(n_normal=n_normal, n_anomalous=round(0.05 * n_normal),
                                    dim=IO_DIM, seed=SEED))
    features, manifest, scores = tmp / "f.npy", tmp / "m.json", tmp / "s.csv"
    save_features(features, manifest, fs)
    dist = np.linalg.norm(fs.features.astype(np.float64), axis=1)
    n = dist.size
    _, _, l_th = batch_threshold(dist, 1.0)
    write_scores_csv(scores, fs, DatasetScores(dist, dist > l_th, np.zeros(n, dtype=np.int64),
                                               np.full(n, l_th), []))
    checkpoint, params = tmp / "c.npy", network(IO_DIM)
    save_checkpoint(checkpoint, params, params, Preconditioner(1.0), TrainNoiseConfig())
    records, segment_len = load_manifest(manifest)
    rows = read_scores_csv(scores)
    joined = join_scores(rows, records)
    return [("load_manifest", n, 1, partial(load_manifest, manifest)),
            ("read_scores_csv", n, 1, partial(read_scores_csv, scores)),
            ("join_scores", n, 1, partial(join_scores, rows, records)),
            ("evaluate", n, 1, partial(evaluate, joined, records, segment_len)),
            ("load_features", n, IO_DIM, partial(load_features, features, manifest)),
            ("load_checkpoint", 1, IO_DIM, partial(load_checkpoint, checkpoint))]


def hidden_layer_probe(rows: int):
    """(name, rows, width, fn) for one _hidden_layer call: the default
    network's last hidden layer on a rows x 512 input, in a buffer of
    forward_raw's size for those two widths."""
    params = network(IO_DIM)
    lay = params.layers[-1]
    fan_in, width = lay.w.shape
    buf = np.empty(max(rows * (fan_in + width), (rows + 1) * width), np.float32)
    h, out_at = buf[: rows * fan_in].reshape(rows, fan_in), buf.size - rows * width
    h[...] = Rng(SEED + 11).standard_normal(h.shape, dtype=np.float32)
    a = buf[out_at:].reshape(rows, width)
    emb = fourier_embed(params, 0.0)  # c_noise at sigma 1
    return ("hidden_layer", rows, width, partial(_hidden_layer, lay, h, emb, a, a, buf[:out_at]))


def training_probes(rows: int, dim: int):
    """(name, rows, dim, fn) for one training step's layers on rows x dim,
    each run once here, so that the workspace is laid out before timing;
    the two dsm_loss rows share it."""
    params, p = network(dim), Preconditioner(1.0)
    x = Rng(SEED + 8).standard_normal((rows, dim), dtype=np.float32)
    sigma = sample_train_sigma(Rng(SEED + 9), TrainNoiseConfig(), rows)
    state, work, noise = OptimizerState.init(params, TrainConfig()), [], Rng(SEED + 10)
    fold = partial(dsm_loss, params, p, x, sigma, noise, work=work,
                   sink=_moment_sink(state, params.config))
    fold()
    grads = [np.empty_like(params.trainable_flat)] + work
    probes = [("dsm_loss_fold", rows, dim, fold),
              ("dsm_loss", rows, dim, partial(dsm_loss, params, p, x, sigma, noise, work=grads)),
              ("adam_ema", rows, dim, partial(_step, state, params))]
    for _, _, _, fn in probes[1:]:
        fn()
    return probes


def layer_probes(rows: int, dims: list[int], lms_dim: int, auc_scores: int):
    """(name, rows, dim, fn) for each timed training, network and AUC layer;
    each fn is run once here, so that every buffer is sized before timing."""
    p = Preconditioner(1.0)
    sigmas = karras_schedule(ScheduleConfig())
    dens = {}
    for dim in dict.fromkeys(dims + [lms_dim]):
        base = Rng(SEED + 5).standard_normal((rows, dim), dtype=np.float32)
        dens[dim] = partial(as_denoiser(network(dim), p), base=base)

    def state(dim):
        return Rng(SEED + 2).standard_normal((rows, dim), dtype=np.float32)

    probes = [hidden_layer_probe(rows)]
    probes += [("nfe", rows, dim, partial(dens[dim], state(dim), 1.0)) for dim in dims]
    probes.append(("lms_sample", rows, lms_dim, partial(lms_sample, dens[lms_dim],
                                                        state(lms_dim) * float(sigmas[0]),
                                                        sigmas)))
    for name, _, _, fn in probes:
        if fn().dtype != np.float32:
            raise RuntimeError(f"{name} on a float32 state left that dtype")
    scores = Rng(SEED + 6).standard_normal(auc_scores)
    labels = (Rng(SEED + 7).uniform(0.0, 1.0, auc_scores) < 0.1).astype(np.int8)
    labels[:2] = 0, 1  # both classes, at any size
    probes.append(("roc_auc", auc_scores, 1, partial(roc_auc, scores, labels)))
    return [probe for dim in dims for probe in training_probes(rows, dim)] + probes


def time_layers(rows: int, dims: list[int], lms_dim: int, auc_scores: int, io_normal: int,
                reps: int) -> list[dict]:
    with tempfile.TemporaryDirectory() as tmp:
        io = io_probes(io_normal, Path(tmp))
        probes = layer_probes(rows, dims, lms_dim, auc_scores) + io
        times = [[] for _ in probes]
        for _ in range(reps):
            for (*_, fn), ts in zip(probes, times):
                t0 = time.perf_counter()
                fn()
                ts.append(time.perf_counter() - t0)
        heaps = [heap_peak_mib(fn) for *_, fn in io]
    records = [{"layer": name, "rows": n, "dim": dim, "median_s": statistics.median(ts),
                "quartiles_s": quartiles(ts), "reps": reps}
               for (name, n, dim, _), ts in zip(probes, times)]
    for record, heap in zip(records[-len(io):], heaps):
        record["heap_peak_mib"] = heap
    return records


def heap_peak_mib(fn) -> float:
    """The tracemalloc heap peak of one call of fn, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def quartiles(ts: list[float]) -> list[float]:
    if len(ts) < 2:
        return [ts[0]] * 3
    return statistics.quantiles(ts, n=4, method="inclusive")


def _rss_mib() -> float:
    """This process's peak RSS.  Linux's VmHWM is that of the running
    program alone; ru_maxrss, the fallback, also keeps the peak of the
    process that forked it."""
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def scale_child(rows: int, dim: int, reps: int) -> dict:
    """The scale probe, run in this process, which must be a fresh one."""
    params = network(dim)
    feats = Rng(SEED + 3).standard_normal((rows, dim), dtype=np.float32)
    fs = FeatureSet(feats, [VideoRecord("v", 16 * rows, 0, rows)])
    sigmas = karras_schedule(ScheduleConfig())
    cfg = ScoringConfig(start_index=0, batch_size=rows)

    def score():
        return score_dataset(params, Preconditioner(1.0), sigmas, cfg, fs, Rng(SEED + 4))

    rss_setup = _rss_mib()
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        score()
        walls.append(time.perf_counter() - t0)
    rss_peak = _rss_mib()
    tracemalloc.start()
    score()
    heap = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"rows": rows, "dim": dim, "wall_s": statistics.median(walls),
            "wall_quartiles_s": quartiles(walls), "reps": reps,
            "heap_peak_mib": heap / MIB, "rss_setup_mib": rss_setup, "rss_peak_mib": rss_peak}


def scale_probe(rows: int, dim: int, reps: int) -> dict:
    out = subprocess.run([sys.executable, __file__, "--scale-child", str(rows), str(dim),
                          str(reps)], capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "cpus": os.cpu_count(), "vadiff": str(Path(vadiff.__file__).parent),
            "machine": platform.machine()}


def table(record: dict) -> str:
    lines = [f"{'layer':15s} {'rows':>8s} {'dim':>5s} {'median s':>10s} {'q1 s':>10s} "
             f"{'q3 s':>10s} {'heap MiB':>9s}"]
    for r in record["layers"]:
        q1, _, q3 = r["quartiles_s"]
        heap = f" {r['heap_peak_mib']:9.2f}" if "heap_peak_mib" in r else ""
        lines.append(f"{r['layer']:15s} {r['rows']:8d} {r['dim']:5d} {r['median_s']:10.4f} "
                     f"{q1:10.4f} {q3:10.4f}{heap}")
    s = record["scale"]
    lines.append(f"scale: one {s['rows']} x {s['dim']} batch at start_index 0: "
                 f"{s['wall_s']:.3f} s, heap peak {s['heap_peak_mib']:.1f} MiB, RSS "
                 f"{s['rss_setup_mib']:.1f} MiB after set-up, {s['rss_peak_mib']:.1f} MiB peak")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=8192, help="rows of each layer's state")
    parser.add_argument("--dims", type=int, nargs="+", default=[64, 2048],
                        help="feature dims of the nfe layer")
    parser.add_argument("--lms-dim", type=int, default=64, help="feature dim of lms_sample")
    parser.add_argument("--auc-scores", type=int, default=10**6, help="scores roc_auc ranks")
    parser.add_argument("--io-normal", type=int, default=119_000,
                        help="normal segments of the manifest and score CSV read")
    parser.add_argument("--scale", type=int, nargs=2, default=[8192, 2048],
                        metavar=("ROWS", "DIM"), help="the scale probe's batch")
    parser.add_argument("--reps", type=int, default=5, help="timed runs of each layer")
    parser.add_argument("--out", default="layers.json", help="the JSON record's path")
    parser.add_argument("--scale-child", type=int, nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.scale_child:
        print(json.dumps(scale_child(*args.scale_child)))
        return 0
    if min(args.rows, args.lms_dim, args.reps, args.io_normal, *args.dims, *args.scale) < 1:
        parser.error("every size and --reps must be positive")
    if args.auc_scores < 2:
        parser.error("roc_auc needs at least 2 scores, one of each class")
    if args.scale[0] < 2:
        parser.error("the scale probe's batch needs at least 2 rows, for its threshold")
    record = {"environment": environment(),
              "config": {"rows": args.rows, "dims": args.dims, "lms_dim": args.lms_dim,
                         "auc_scores": args.auc_scores, "io_normal": args.io_normal,
                         "io_dim": IO_DIM, "scale": args.scale, "reps": args.reps, "seed": SEED},
              "layers": time_layers(args.rows, args.dims, args.lms_dim, args.auc_scores,
                                    args.io_normal, args.reps),
              "scale": scale_probe(*args.scale, args.reps)}
    print(table(record))
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
