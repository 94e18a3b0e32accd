"""The parameter study: frame AUC and flagged fraction over a grid of the
training noise (p_mean, p_std), the start index t and the threshold's k.

For each noise pair `study` trains once and scores each start index once;
the flagged fraction at every k comes from the per-batch (mu_p, sigma_p),
without rescoring.  It writes one CSV row per (p_mean, p_std, t, k), then,
per noise pair, one `best` row per k for the start index of highest AUC.
Import it from another script by path (the file name starts with a digit):

    spec = importlib.util.spec_from_file_location("study", "demos/06_parameter_study.py")

Run as a script, it studies a small synthetic corpus in a few seconds and
prints the table as markdown.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np

from vadiff import (
    NetworkConfig,
    Rng,
    ScheduleConfig,
    ScoringConfig,
    SynthConfig,
    TrainConfig,
    TrainNoiseConfig,
    estimate_sigma_data,
    evaluate,
    fit,
    init_params,
    karras_schedule,
    noise_bounds,
    score_dataset,
    synth_generate,
)


def study(fs, out, p_means=(TrainNoiseConfig.p_mean,), p_stds=(TrainNoiseConfig.p_std,),
          start_ts=None, ks=(0.1, 0.3, 0.5, 0.7, 1.0), train=TrainConfig(), center=False,
          steps=ScheduleConfig.steps, rho=ScheduleConfig.rho, sigma_min=None, sigma_max=None,
          seed=0):
    """Write the study of FeatureSet `fs` to the CSV `out` and return its rows.

    `start_ts` None is every index of the schedule.  Unset sigma bounds
    follow each noise pair, as `score`'s follow its checkpoint; scoring
    batches hold `train.batch_size` rows.
    """
    start_ts = range(steps) if start_ts is None else start_ts
    p = estimate_sigma_data(fs, center=center)
    rows = [["p_mean", "p_std", "t", "k", "auc", "flagged_frac"]]
    for noise in (TrainNoiseConfig(m, s) for m in p_means for s in p_stds):
        lo, hi = noise_bounds(noise)
        sigmas = karras_schedule(ScheduleConfig(
            sigma_min=lo if sigma_min is None else sigma_min,
            sigma_max=hi if sigma_max is None else sigma_max, rho=rho, steps=steps))
        rng = Rng(seed)
        ema, _ = fit(fs, init_params(NetworkConfig(input_dim=fs.features.shape[1]), rng), p,
                     train, noise, rng)
        cells = []  # (auc, flagged fraction per k), per start index
        for t in start_ts:
            cfg = ScoringConfig(start_index=t, batch_size=train.batch_size)
            scores = score_dataset(ema, p, sigmas, cfg, fs, Rng(seed))
            auc = evaluate(scores.mse, fs.manifest, fs.segment_len).auc
            mu_p, sigma_p = np.array(scores.batch_stats).T
            fracs = [float(np.mean(scores.mse > (mu_p + k * sigma_p)[scores.batch_ids]))
                     for k in ks]
            cells.append((auc, fracs))
            rows += [[noise.p_mean, noise.p_std, t, k, auc, frac] for k, frac in zip(ks, fracs)]
        auc, fracs = max(cells, key=lambda cell: cell[0])  # the first of highest AUC
        rows += [[noise.p_mean, noise.p_std, "best", k, auc, frac] for k, frac in zip(ks, fracs)]
    with open(out, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return rows


if __name__ == "__main__":
    # the corpus of demo 05; anomalies are 8 % of the normal count
    fs = synth_generate(SynthConfig(n_normal=300, n_anomalous=24, dim=12, shift=6.0, seed=4))
    out = Path(tempfile.mkdtemp(prefix="vadiff-study-")) / "study.csv"
    rows = study(fs, out, p_means=(-1.2, -0.5), p_stds=(1.2,), start_ts=(0, 4, 9), ks=(0.5, 1.0),
                 train=TrainConfig(epochs=3, batch_size=64), seed=3)
    print("| p_mean | p_std | t | k | frame AUC | flagged |")
    print("| --- | --- | --- | --- | --- | --- |")
    for m, s, t, k, auc, frac in rows[1:]:
        print(f"| {m} | {s} | {t} | {k} | {auc:.4f} | {frac:.4f} |")
    print(f"\nwritten to {out}")
