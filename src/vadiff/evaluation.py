"""Frame-level ROC-AUC over segment scores.

Each segment's score is broadcast to the frames it covers (truncated to
the video's real frame count), frames from all videos are concatenated,
and one global AUC is computed with the rank (Mann-Whitney) formulation,
ties counted one half.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .data import DataError, VideoRecord


@dataclass
class EvalReport:
    auc: float
    frame_count: int
    positive_count: int
    # per-video frame-level arrays, keyed by video_id
    frame_scores: dict[str, np.ndarray]
    frame_labels: dict[str, np.ndarray]


def expand_segments(segment_scores: np.ndarray, segment_len: int,
                    frame_count: int) -> np.ndarray:
    """Repeat each segment score segment_len times, cut to frame_count."""
    scores = np.asarray(segment_scores, dtype=np.float64)
    if segment_len < 1:
        raise ValueError(f"segment_len must be >= 1, got {segment_len}")
    if scores.ndim != 1:
        raise ValueError(f"expected a score vector, got shape {scores.shape}")
    needed = -(-frame_count // segment_len)  # ceil
    if needed != scores.size:
        raise DataError(
            f"{frame_count} frames need {needed} segments of {segment_len}, "
            f"got {scores.size} scores"
        )
    return np.repeat(scores, segment_len)[:frame_count]


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of `values`, each tie group sharing its mean rank."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    # a tie group at sorted positions [start, end) has mean 1-based rank (start+end+1)/2
    new_group = sorted_vals[1:] != sorted_vals[:-1]
    bounds = np.flatnonzero(np.concatenate(([True], new_group, [True])))
    start, end = bounds[:-1], bounds[1:]
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat((start + end + 1) / 2.0, end - start)
    return ranks


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """P(random positive outranks random negative), ties counted half.

    Computed from midranks: (sum of positive ranks - P(P+1)/2) / (P*N).
    Raises FloatingPointError on a non-finite score, which has no rank.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError(f"shape mismatch: scores {scores.shape}, labels {labels.shape}")
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise FloatingPointError(f"non-finite score {scores[bad[0]]} at index {bad[0]}")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: both classes must be present")
    ranks = _midranks(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def evaluate(scores_by_video: dict[str, np.ndarray], manifest: list[VideoRecord],
             segment_len: int) -> EvalReport:
    """Expand every video to frames and compute one global AUC.

    Every scored video must appear in the manifest with frame labels;
    manifest videos without scores are an error too, so the report always
    covers the full test set.  A non-finite segment score raises
    FloatingPointError naming its video and segment.
    """
    by_id = {rec.video_id: rec for rec in manifest}
    missing = sorted(set(scores_by_video) - set(by_id))
    if missing:
        raise DataError(f"scored videos missing from manifest: {missing}")
    unscored = sorted(set(by_id) - set(scores_by_video))
    if unscored:
        raise DataError(f"manifest videos missing from scores: {unscored}")

    frame_scores: dict[str, np.ndarray] = {}
    frame_labels: dict[str, np.ndarray] = {}
    for rec in manifest:
        if rec.labels is None:
            raise DataError(f"video {rec.video_id!r} has no frame labels")
        seg = scores_by_video[rec.video_id]
        if seg.size != rec.segment_count:
            raise DataError(
                f"video {rec.video_id!r}: {seg.size} scores for "
                f"{rec.segment_count} segments"
            )
        bad = np.flatnonzero(~np.isfinite(seg))
        if bad.size:
            raise FloatingPointError(
                f"video {rec.video_id!r}, segment {bad[0]}: non-finite score {seg[bad[0]]}"
            )
        frame_scores[rec.video_id] = expand_segments(seg, segment_len, rec.frame_count)
        frame_labels[rec.video_id] = np.asarray(rec.labels, dtype=np.int8)

    all_scores = np.concatenate([frame_scores[r.video_id] for r in manifest])
    all_labels = np.concatenate([frame_labels[r.video_id] for r in manifest])
    auc = roc_auc(all_scores, all_labels)
    return EvalReport(
        auc=auc,
        frame_count=int(all_labels.size),
        positive_count=int((all_labels == 1).sum()),
        frame_scores=frame_scores,
        frame_labels=frame_labels,
    )


def write_report_json(path, report: EvalReport, config_echo: dict | None = None) -> dict:
    doc = {
        "auc": report.auc,
        "frame_count": report.frame_count,
        "positive_count": report.positive_count,
        "negative_count": report.frame_count - report.positive_count,
    }
    if config_echo:
        doc["config"] = config_echo
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return doc


def write_frames_csv(path, report: EvalReport) -> None:
    """Optional per-frame dump for external plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["video_id", "frame_index", "score", "label"])
        for vid in report.frame_scores:
            scores = report.frame_scores[vid]
            labels = report.frame_labels[vid]
            for i in range(scores.size):
                writer.writerow([vid, i, repr(float(scores[i])), int(labels[i])])
