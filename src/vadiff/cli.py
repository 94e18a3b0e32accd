"""Command-line entry point: synth | train | score | eval | sweep.

Values resolve as flags > --config JSON file > built-in defaults.  Exit
codes: 0 success, 1 usage error, 2 data error (unreadable or inconsistent
files), 3 numeric failure (non-finite loss or score).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .data import (
    DataError,
    SynthConfig,
    estimate_sigma_data,
    load_features,
    load_manifest,
    save_features,
    synth_generate,
)
from .evaluation import evaluate, split_by_video, write_frames_csv, write_report_json
from .network import (
    CheckpointError,
    NetworkConfig,
    Preconditioner,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .rng import Rng
from .sampling import ScheduleConfig, karras_schedule
from .scoring import ScoringConfig, score_dataset, read_scores_csv, write_scores_csv
from .training import TrainConfig, TrainNoiseConfig, fit, noise_bounds

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

DEFAULTS = {
    "seed": 0,
    "p_mean": -1.2,
    "p_std": 1.2,
    "rho": 7.0,
    "steps": 10,
    "k": 1.0,
    "batch_size": 8192,
    "epochs": 50,
    "lr": 2e-4,
    "ema_decay": 0.999,
    "center": False,
    "n_normal": 20000,
    "anomaly_fraction": 0.05,
    "dim": 64,
    "shift": 3.0,
    "segment_len": 16,
}

_CONFIG_KEYS = set(DEFAULTS) | {"sigma_min", "sigma_max", "start_t", "raw_weights"}


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ValueError(f"cannot read config file {path}: {e}") from e
    if not isinstance(doc, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(doc) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    return doc


def _resolve(args, config, key, default=None):
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key, DEFAULTS.get(key, default))
    return value


def _build_schedule(args, config):
    p_mean = float(_resolve(args, config, "p_mean"))
    p_std = float(_resolve(args, config, "p_std"))
    lo, hi = noise_bounds(TrainNoiseConfig(p_mean, p_std))
    sigma_min = _resolve(args, config, "sigma_min")
    sigma_max = _resolve(args, config, "sigma_max")
    cfg = ScheduleConfig(
        sigma_min=float(sigma_min) if sigma_min is not None else lo,
        sigma_max=float(sigma_max) if sigma_max is not None else hi,
        rho=float(_resolve(args, config, "rho")),
        steps=int(_resolve(args, config, "steps")),
    )
    return karras_schedule(cfg), cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vadiff",
        description="Video-anomaly scoring by diffusion reconstruction of segment features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON file supplying defaults for any flag")
        sp.add_argument("--seed", type=int, help="master seed (default 0)")

    sp = sub.add_parser("synth", help="write a synthetic feature file and manifest")
    common(sp)
    sp.add_argument("--features", required=True, help="output feature file")
    sp.add_argument("--manifest", required=True, help="output manifest JSON")
    sp.add_argument("--n-normal", type=int, dest="n_normal")
    sp.add_argument("--anomaly-fraction", type=float, dest="anomaly_fraction",
                    help="anomalous segments as a fraction of the normal count")
    sp.add_argument("--dim", type=int)
    sp.add_argument("--shift", type=float,
                    help="distance between the normal and anomalous cluster means")
    sp.add_argument("--segment-len", type=int, dest="segment_len")

    sp = sub.add_parser("train", help="train a denoiser on a feature file")
    common(sp)
    sp.add_argument("--features", required=True)
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--checkpoint", required=True, help="output checkpoint path")
    sp.add_argument("--out", help="training log CSV (default: <checkpoint>.log.csv)")
    sp.add_argument("--p-mean", type=float, dest="p_mean")
    sp.add_argument("--p-std", type=float, dest="p_std")
    sp.add_argument("--batch-size", type=int, dest="batch_size")
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--lr", type=float)
    sp.add_argument("--ema-decay", type=float, dest="ema_decay")
    sp.add_argument("--center", action="store_true", default=None,
                    help="subtract per-dimension means before training")

    sp = sub.add_parser("score", help="score segments with a trained checkpoint")
    common(sp)
    sp.add_argument("--features", required=True)
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--out", required=True, help="output score CSV")
    sp.add_argument("--p-mean", type=float, dest="p_mean")
    sp.add_argument("--p-std", type=float, dest="p_std")
    sp.add_argument("--sigma-min", type=float, dest="sigma_min")
    sp.add_argument("--sigma-max", type=float, dest="sigma_max")
    sp.add_argument("--rho", type=float)
    sp.add_argument("--steps", type=int)
    sp.add_argument("--start-t", type=int, dest="start_t",
                    help="schedule index of the corruption level (default steps-1)")
    sp.add_argument("--k", type=float, help="threshold sensitivity")
    sp.add_argument("--batch-size", type=int, dest="batch_size")
    sp.add_argument("--raw-weights", action="store_true", default=None, dest="raw_weights",
                    help="use the raw weights instead of the EMA")

    sp = sub.add_parser("eval", help="frame-level ROC-AUC from a score CSV")
    common(sp)
    sp.add_argument("--scores", required=True, help="score CSV from the score command")
    sp.add_argument("--manifest", required=True, help="manifest with frame labels")
    sp.add_argument("--out", required=True, help="output report JSON")
    sp.add_argument("--frames-csv", dest="frames_csv",
                    help="optional per-frame score dump for plotting")

    sp = sub.add_parser("sweep", help="grid over noise, start index, and k")
    common(sp)
    sp.add_argument("--features", required=True)
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--out", required=True, help="output results CSV")
    sp.add_argument("--p-mean", type=float, nargs="+", dest="p_mean")
    sp.add_argument("--p-std", type=float, nargs="+", dest="p_std")
    sp.add_argument("--start-t", type=int, nargs="+", dest="start_t",
                    help="start indices to score (default: all of 0..steps-1)")
    sp.add_argument("--k", type=float, nargs="+")
    sp.add_argument("--sigma-min", type=float, dest="sigma_min")
    sp.add_argument("--sigma-max", type=float, dest="sigma_max")
    sp.add_argument("--rho", type=float)
    sp.add_argument("--steps", type=int)
    sp.add_argument("--batch-size", type=int, dest="batch_size")
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--lr", type=float)
    sp.add_argument("--ema-decay", type=float, dest="ema_decay")
    sp.add_argument("--center", action="store_true", default=None)

    return parser


def cmd_synth(args, config) -> int:
    n_normal = int(_resolve(args, config, "n_normal"))
    fraction = float(_resolve(args, config, "anomaly_fraction"))
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"--anomaly-fraction must lie in [0, 1), got {fraction}")
    cfg = SynthConfig(
        n_normal=n_normal,
        n_anomalous=round(fraction * n_normal),
        dim=int(_resolve(args, config, "dim")),
        shift=float(_resolve(args, config, "shift")),
        seed=int(_resolve(args, config, "seed")),
        segment_len=int(_resolve(args, config, "segment_len")),
    )
    fs = synth_generate(cfg)
    save_features(args.features, args.manifest, fs)
    print(
        f"wrote {fs.features.shape[0]} segments of dim {fs.features.shape[1]} "
        f"({cfg.n_anomalous} anomalous) across {len(fs.manifest)} videos"
    )
    return EXIT_OK


def _train_model(fs, args, config, progress=None):
    """Shared by train and sweep: estimate stats, init, fit.

    Returns (params, ema, stats, history, noise_cfg)."""
    center = bool(_resolve(args, config, "center"))
    stats = estimate_sigma_data(fs, center=center)
    if stats.center is not None:
        stats.center = stats.center.astype(np.float32)
    x = np.asarray(fs.features, dtype=np.float32)
    if stats.center is not None:
        x = x - stats.center
    rng = Rng(int(_resolve(args, config, "seed")))
    params = init_params(NetworkConfig(input_dim=x.shape[1]), rng)
    train_cfg = TrainConfig(
        epochs=int(_resolve(args, config, "epochs")),
        batch_size=int(_resolve(args, config, "batch_size")),
        base_lr=float(_resolve(args, config, "lr")),
        ema_decay=float(_resolve(args, config, "ema_decay")),
    )
    noise_cfg = TrainNoiseConfig(
        p_mean=float(_resolve(args, config, "p_mean")),
        p_std=float(_resolve(args, config, "p_std")),
    )
    ema, history = fit(x, params, Preconditioner(stats.sigma_data), train_cfg,
                       noise_cfg, rng, on_epoch=progress)
    return params, ema, stats, history, noise_cfg


def cmd_train(args, config) -> int:
    fs = load_features(args.features, args.manifest)

    def progress(entry):
        print(
            f"epoch {entry.epoch}: mean_loss {entry.mean_loss:.6f} "
            f"lr {entry.lr:.6g} steps {entry.step}",
            file=sys.stderr,
        )

    params, ema, stats, history, _ = _train_model(fs, args, config, progress)
    save_checkpoint(args.checkpoint, params, ema, stats.sigma_data, stats.center)
    log_path = args.out or args.checkpoint + ".log.csv"
    with open(log_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "step", "lr", "mean_loss"])
        for entry in history:
            writer.writerow([entry.epoch, entry.step, repr(entry.lr), repr(entry.mean_loss)])
    print(f"checkpoint written to {args.checkpoint}; log at {log_path}")
    return EXIT_OK


def cmd_score(args, config) -> int:
    params, ema, sigma_data, center = load_checkpoint(args.checkpoint)
    fs = load_features(args.features, args.manifest)
    if fs.features.shape[1] != params.config.input_dim:
        raise DataError(
            f"feature dim {fs.features.shape[1]} does not match "
            f"checkpoint input_dim {params.config.input_dim}"
        )
    sigmas, sched = _build_schedule(args, config)
    start_t = _resolve(args, config, "start_t")
    start_t = sched.steps - 1 if start_t is None else int(start_t)
    if not 0 <= start_t < sched.steps:
        raise ValueError(f"--start-t must lie in [0, {sched.steps - 1}], got {start_t}")
    cfg = ScoringConfig(
        start_index=start_t,
        k=float(_resolve(args, config, "k")),
        batch_size=int(_resolve(args, config, "batch_size")),
    )
    weights = params if bool(_resolve(args, config, "raw_weights", False)) else ema
    scores = score_dataset(weights, Preconditioner(sigma_data), sigmas, cfg, fs,
                           Rng(int(_resolve(args, config, "seed"))), center=center)
    write_scores_csv(args.out, fs, scores)
    print(
        f"scored {scores.mse.size} segments in {len(scores.decisions)} batches; "
        f"{int(scores.flags.sum())} flagged at k={cfg.k}"
    )
    return EXIT_OK


def cmd_eval(args, config) -> int:
    manifest, segment_len = load_manifest(args.manifest)
    scores_by_video = read_scores_csv(args.scores)
    report = evaluate(scores_by_video, manifest, segment_len)
    doc = write_report_json(args.out, report, {
        "scores": args.scores,
        "manifest": args.manifest,
    })
    if args.frames_csv:
        write_frames_csv(args.frames_csv, report)
    print(json.dumps(doc, indent=1))
    return EXIT_OK


def _grid_values(args, config, key, default_list):
    raw = getattr(args, key, None)
    if raw is None:
        raw = config.get(key)
    if raw is None:
        return list(default_list)
    if not isinstance(raw, (list, tuple)):
        raw = [raw]
    return list(raw)


def cmd_sweep(args, config) -> int:
    fs = load_features(args.features, args.manifest)
    p_means = [float(v) for v in _grid_values(args, config, "p_mean", [DEFAULTS["p_mean"]])]
    p_stds = [float(v) for v in _grid_values(args, config, "p_std", [DEFAULTS["p_std"]])]
    steps = int(_resolve(args, config, "steps"))
    t_list = [int(t) for t in _grid_values(args, config, "start_t", range(steps))]
    if not t_list or any(not 0 <= t < steps for t in t_list):
        raise ValueError(f"--start-t values must lie in [0, {steps - 1}], got {t_list}")
    k_list = [float(k) for k in _grid_values(args, config, "k", [0.1, 0.3, 0.5, 0.7, 1.0])]
    if not (p_means and p_stds and k_list):
        raise ValueError("sweep grid lists must be nonempty")
    batch_size = int(_resolve(args, config, "batch_size"))
    seed = int(_resolve(args, config, "seed"))

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p_mean", "p_std", "t", "k", "auc", "flagged_frac"])
        fh.flush()
        for p_mean in p_means:
            for p_std in p_stds:
                pair_args = argparse.Namespace(**vars(args))
                pair_args.p_mean = p_mean
                pair_args.p_std = p_std
                _, ema, stats, _, noise_cfg = _train_model(fs, pair_args, config)
                print(f"trained p_mean={p_mean} p_std={p_std}", file=sys.stderr)
                sigmas, _ = _build_schedule(pair_args, config)
                p = Preconditioner(stats.sigma_data)
                aucs = {}
                flagged = {}
                for t in t_list:
                    cfg = ScoringConfig(start_index=t, k=k_list[0], batch_size=batch_size)
                    scores = score_dataset(ema, p, sigmas, cfg, fs, Rng(seed),
                                           center=stats.center)
                    by_video = split_by_video(scores.mse, fs.manifest)
                    auc = evaluate(by_video, fs.manifest, fs.segment_len).auc
                    aucs[t] = auc
                    for k in k_list:
                        frac = float(np.mean(np.concatenate([
                            d.losses > d.mu_p + k * d.sigma_p for d in scores.decisions
                        ])))
                        flagged[t, k] = frac
                        writer.writerow([p_mean, p_std, t, k, repr(auc), repr(frac)])
                        fh.flush()
                best_t = max(t_list, key=lambda t: aucs[t])
                for k in k_list:
                    writer.writerow([
                        p_mean, p_std, "best", k,
                        repr(aucs[best_t]), repr(flagged[best_t, k]),
                    ])
                    fh.flush()
    print(f"sweep results written to {args.out}")
    return EXIT_OK


_DISPATCH = {
    "synth": cmd_synth,
    "train": cmd_train,
    "score": cmd_score,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage problems; this tool reserves 2 for data
        # errors, so usage maps to 1 (and --help keeps its 0).
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE
    try:
        config = _load_config(args.config)
        return _DISPATCH[args.command](args, config)
    except (DataError, CheckpointError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except FloatingPointError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
