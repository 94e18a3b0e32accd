"""Command-line entry point: synth | train | score | eval.

Every tunable flag is one row of `FLAGS`, which builds each subparser, the
--config key set and the defaults.  `main` resolves each value once, as
flag > --config JSON file > built-in default, into plain typed attributes
of `args` that the cmd_* functions read.  The parameter study, a grid over
training noise, start index and k, is a library script:
demos/06_parameter_study.py.  Exit codes: 0 success, 1 usage
error, 2 data error (unreadable or inconsistent files), 3 numeric failure
(non-finite loss or score).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import re
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
from .evaluation import evaluate, join_scores, write_report_json
from .files import replacing
from .network import CheckpointError, NetworkConfig, init_params, load_checkpoint, save_checkpoint
from .rng import Rng
from .sampling import ScheduleConfig, TrainNoiseConfig, karras_schedule, noise_bounds
from .scoring import ScoringConfig, read_scores_csv, score_dataset, write_scores_csv
from .training import TrainConfig, fit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


# name: (type, default, help).  The name is also the flag (with dashes) and its
# --config key.  A None default is unset: the command reading it derives the
# value, as the help says.  Training and scoring share one batch-size default.
FLAGS = {
    "seed": (int, 0, "master seed"),
    "n_normal": (int, SynthConfig.n_normal, "normal segments to generate"),
    "anomaly_fraction": (float, 0.05, "anomalous segments as a fraction of the normal count"),
    "dim": (int, SynthConfig.dim, "feature dimension"),
    "shift": (float, SynthConfig.shift, "distance between the two cluster means"),
    "segment_len": (int, SynthConfig.segment_len, "frames per segment"),
    "p_mean": (float, TrainNoiseConfig.p_mean, "mean of ln sigma in training"),
    "p_std": (float, TrainNoiseConfig.p_std, "standard deviation of ln sigma in training"),
    "batch_size": (int, TrainConfig.batch_size, "rows per training step or scoring batch"),
    "epochs": (int, TrainConfig.epochs, "passes over the training set"),
    "lr": (float, TrainConfig.base_lr, "initial learning rate"),
    "ema_decay": (float, TrainConfig.ema_decay, "decay of the weights' moving average"),
    "center": (bool, False, "subtract per-dimension means before training"),
    "sigma_min": (float, None, "smallest schedule sigma (default: from the training noise)"),
    "sigma_max": (float, None, "largest schedule sigma (default: from the training noise)"),
    "rho": (float, ScheduleConfig.rho, "schedule exponent"),
    "steps": (int, ScheduleConfig.steps, "schedule length"),
    "start_t": (int, None, "corruption level as a schedule index (default: steps-1)"),
    "k": (float, ScoringConfig.k, "threshold sensitivity"),
    "raw_weights": (bool, False, "use the raw weights instead of the EMA"),
}

_FLAG_OF = {**{name: "--" + name.replace("_", "-") for name in FLAGS}, "base_lr": "--lr"}
_INPUTS = {"features": "input feature file", "manifest": "input manifest JSON"}

# command -> (summary, file arguments, tunable flags besides --seed).  A file
# argument is required unless its help starts with "optional".
COMMANDS = {
    "synth": ("write a synthetic feature file and manifest",
              {"features": "output feature file", "manifest": "output manifest JSON"},
              ("n_normal", "anomaly_fraction", "dim", "shift", "segment_len")),
    "train": ("train a denoiser on a feature file",
              {**_INPUTS, "checkpoint": "output checkpoint path",
               "out": "optional training log CSV (default: <checkpoint>.log.csv)"},
              ("p_mean", "p_std", "batch_size", "epochs", "lr", "ema_decay", "center")),
    "score": ("score segments with a trained checkpoint",
              {**_INPUTS, "checkpoint": "trained checkpoint", "out": "output score CSV"},
              ("sigma_min", "sigma_max", "rho", "steps", "start_t", "k", "batch_size",
               "raw_weights")),
    "eval": ("frame-level ROC-AUC from a score CSV",
             {"scores": "score CSV from the score command", "manifest": "labelled manifest JSON",
              "out": "output report JSON"},
             ()),
}


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ValueError(f"cannot read config file {path}: {e}") from e
    if not isinstance(doc, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(doc) - set(FLAGS))
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    return doc


def _typed(name, value):
    """A --config value as its flag's type; null only if unset by default."""
    kind, default, _ = FLAGS[name]
    if value is None and default is None:
        return None
    if isinstance(value, (int, float)) and isinstance(value, bool) == (kind is bool):
        with contextlib.suppress(OverflowError):
            if kind is not int or isinstance(value, int) or value.is_integer():
                return kind(value)
    raise ValueError(f"config key {name!r} must be {kind.__name__}, got {json.dumps(value)}")


def _resolve(args, config):
    """Set each tunable of the command on `args`: flag, else --config, else default."""
    for name in ("seed", *COMMANDS[args.command][2]):
        value = getattr(args, name)
        if value is None and name in config:
            value = _typed(name, config[name])
        setattr(args, name, FLAGS[name][1] if value is None else value)


def _config(cls, args, **given):
    """A `cls` from `given` and the same-named flags; its errors name fields by flag."""
    fields = {f.name for f in dataclasses.fields(cls)}
    names = fields & set(FLAGS) - set(given)
    try:
        return cls(**given, **{name: getattr(args, name) for name in names})
    except ValueError as e:
        flags = {name: _FLAG_OF[name] for name in fields & _FLAG_OF.keys()}
        raise ValueError(re.sub(r"\w+", lambda w: flags.get(w[0], w[0]), str(e))) from None


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser with every command's subparser and the flags of `command` only."""
    parser = argparse.ArgumentParser(
        prog="vadiff",
        description="Video-anomaly scoring by diffusion reconstruction of segment features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, (summary, files, tunables) in COMMANDS.items():
        sp = sub.add_parser(cmd, help=summary)
        if cmd != command:
            continue
        sp.add_argument("--config", help="JSON file supplying defaults for any flag")
        for name, text in files.items():
            sp.add_argument("--" + name.replace("_", "-"), help=text,
                            required=not text.startswith("optional"))
        for name in ("seed", *tunables):
            kind, default, text = FLAGS[name]
            if default is not None:
                text += f" (default: {default})"
            how = {"action": "store_true"} if kind is bool else {"type": kind}
            sp.add_argument("--" + name.replace("_", "-"), default=None, help=text, **how)
    return parser


def cmd_synth(args) -> int:
    if not 0.0 <= args.anomaly_fraction < 1.0:
        raise ValueError(f"--anomaly-fraction must lie in [0, 1), got {args.anomaly_fraction}")
    cfg = _config(SynthConfig, args, n_anomalous=round(args.anomaly_fraction * args.n_normal))
    try:
        fs = synth_generate(cfg)
    except (MemoryError, ValueError) as e:  # numpy refused an array too big to hold or address
        raise ValueError(f"--n-normal {args.n_normal} at --dim {args.dim} and "
                         f"--segment-len {args.segment_len}: {e}") from None
    save_features(args.features, args.manifest, fs)
    print(
        f"wrote {fs.features.shape[0]} segments of dim {fs.features.shape[1]} "
        f"({cfg.n_anomalous} anomalous) across {len(fs.manifest)} videos"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    # configs are checked before any input is read
    train_cfg = _config(TrainConfig, args, base_lr=args.lr)
    noise = _config(TrainNoiseConfig, args)
    fs = load_features(args.features, args.manifest)

    def progress(entry):
        print(
            f"epoch {entry.epoch}: mean_loss {entry.mean_loss:.6f} "
            f"lr {entry.lr:.6g} steps {entry.step}",
            file=sys.stderr,
        )

    p = estimate_sigma_data(fs, center=args.center)
    rng = Rng(args.seed)
    params = init_params(NetworkConfig(input_dim=fs.features.shape[1]), rng)
    ema, log = fit(fs, params, p, train_cfg, noise, rng, on_epoch=progress)
    log_path = args.out or args.checkpoint + ".log.csv"
    # the checkpoint replaces its path inside the log's block, once the log is
    # flushed: if either write fails, both old files stay as they were
    with replacing(log_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "step", "lr", "mean_loss"])
        for entry in log:
            writer.writerow([entry.epoch, entry.step, repr(entry.lr), repr(entry.mean_loss)])
        fh.flush()
        save_checkpoint(args.checkpoint, params, ema, p, noise)
    print(f"checkpoint written to {args.checkpoint}; log at {log_path}")
    return EXIT_OK


def cmd_score(args) -> int:
    # --steps and --rho (at ScheduleConfig's own sigma bounds), then the start index
    # they bound and the scoring config, are checked before any input is read; the
    # sigma bounds, whose defaults come from the checkpoint's training noise, before
    # the features
    _config(ScheduleConfig, args, sigma_min=ScheduleConfig.sigma_min,
            sigma_max=ScheduleConfig.sigma_max)
    start_t = args.steps - 1 if args.start_t is None else args.start_t
    if not 0 <= start_t < args.steps:
        raise ValueError(f"--start-t must lie in [0, {args.steps - 1}] at --steps {args.steps}, "
                         f"got {start_t}")
    cfg = _config(ScoringConfig, args, start_index=start_t)
    params, ema, p, noise = load_checkpoint(args.checkpoint)
    weights = params if args.raw_weights else ema
    lo, hi = noise_bounds(noise)  # the default sigma bounds
    sigmas = karras_schedule(_config(
        ScheduleConfig, args,
        sigma_min=lo if args.sigma_min is None else args.sigma_min,
        sigma_max=hi if args.sigma_max is None else args.sigma_max,
    ))
    fs = load_features(args.features, args.manifest)
    if fs.features.shape[1] != weights.config.input_dim:
        raise DataError(
            f"feature dim {fs.features.shape[1]} does not match "
            f"checkpoint input_dim {weights.config.input_dim}"
        )
    scores = score_dataset(weights, p, sigmas, cfg, fs, Rng(args.seed))
    write_scores_csv(args.out, fs, scores)
    print(
        f"scored {scores.mse.size} segments in {len(scores.batch_stats)} batches; "
        f"{int(scores.flags.sum())} flagged at k={cfg.k}"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    manifest, segment_len = load_manifest(args.manifest)
    scores = join_scores(read_scores_csv(args.scores), manifest)
    report = evaluate(scores, manifest, segment_len)
    doc = write_report_json(args.out, report, {
        "scores": args.scores,
        "manifest": args.manifest,
    })
    print(json.dumps(doc, indent=1))
    return EXIT_OK


_DISPATCH = {
    "synth": cmd_synth,
    "train": cmd_train,
    "score": cmd_score,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the command is the first word that is not an option: the top level has only -h
    command = next((a for a in argv if not a.startswith("-")), None)
    try:
        args = build_parser(command).parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage problems; this tool reserves 2 for data
        # errors, so usage maps to 1 (and --help keeps its 0).
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE
    try:
        _resolve(args, _load_config(args.config))
        # each stage checks its own results for inf and nan, so numpy's
        # warnings would only say again, less plainly, what the exit says
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _DISPATCH[args.command](args)
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
