"""Output checks, written independently of vadiff's own readers.

The AUC oracle sorts and counts (Mann-Whitney, ties counted one half) in
exact integer arithmetic; it does not use scipy.stats.rankdata, which
vadiff.roc_auc uses.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

AUC_TOLERANCE = 1e-9


def mann_whitney_auc(scores, labels) -> float:
    """P(random positive scores above random negative), ties counted half."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) == 1
    values, group = np.unique(scores, return_inverse=True)
    pos_in = np.bincount(group[pos], minlength=values.size).astype(np.int64)
    neg_in = np.bincount(group[~pos], minlength=values.size).astype(np.int64)
    neg_below = np.cumsum(neg_in) - neg_in
    n_pos, n_neg = int(pos_in.sum()), int(neg_in.sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: both classes must be present")
    twice = 2 * int(np.dot(pos_in, neg_below)) + int(np.dot(pos_in, neg_in))
    return twice / (2 * n_pos * n_neg)


def read_scores(csv_path) -> dict[str, dict[int, float]]:
    """{video_id: {segment_index: mse}} from a score CSV; duplicates raise."""
    out: dict[str, dict[int, float]] = {}
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            video = out.setdefault(row[0], {})
            index = int(row[1])
            if index in video:
                raise ValueError(f"video {row[0]!r}: segment {index} scored twice")
            video[index] = float(row[2])
    return out


def check_scores(manifest_path, csv_path) -> None:
    """One finite score per manifest segment and no others; raises otherwise."""
    videos = read_manifest(manifest_path)["videos"]
    scores = read_scores(csv_path)
    expected = {v["video_id"]: v["segment_count"] for v in videos}
    got = {vid: len(segs) for vid, segs in scores.items()}
    if got != expected:
        raise ValueError("score CSV rows do not match the manifest's segments")
    for vid, segs in scores.items():
        if sorted(segs) != list(range(expected[vid])):
            raise ValueError(f"video {vid!r}: segment indices are not 0..n-1")
        if not all(math.isfinite(v) for v in segs.values()):
            raise ValueError(f"video {vid!r}: non-finite MSE")


def read_manifest(manifest_path) -> dict:
    with open(manifest_path) as fh:
        return json.load(fh)


def frame_arrays(doc: dict, csv_path) -> tuple[np.ndarray, np.ndarray]:
    """Frame scores and labels of a parsed manifest: each segment's score
    repeated over its frames."""
    seg_len = doc["segment_len"]
    scores = read_scores(csv_path)
    frame_scores, frame_labels = [], []
    for v in doc["videos"]:
        segs = scores[v["video_id"]]
        seg = np.array([segs[i] for i in range(v["segment_count"])], dtype=np.float64)
        frame_scores.append(np.repeat(seg, seg_len)[: v["frame_count"]])
        frame_labels.append(np.asarray(v["labels"], dtype=np.int8))
    return np.concatenate(frame_scores), np.concatenate(frame_labels)


def final_loss(log_csv) -> float:
    """mean_loss of the last epoch in a training log; raises if not finite."""
    with open(log_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    loss = float(rows[-1]["mean_loss"])
    if not math.isfinite(loss):
        raise ValueError(f"final training loss {loss} is not finite")
    return loss


def check_report(report_json, oracle_auc: float) -> float:
    """The report's AUC, after checking it lies in [0, 1] and matches the oracle."""
    with open(report_json) as fh:
        auc = float(json.load(fh)["auc"])
    if not 0.0 <= auc <= 1.0:
        raise ValueError(f"frame AUC {auc} outside [0, 1]")
    if abs(auc - oracle_auc) > AUC_TOLERANCE:
        raise ValueError(f"frame AUC {auc!r} differs from the oracle's {oracle_auc!r}")
    return auc
