"""Frame-level ROC-AUC over segment scores.

Each segment's score stands for every frame it covers (the last segment of
a video is truncated to the video's real frame count), and one global AUC
is taken over all frames of all videos, ties counted one half.  Frames are
never materialised: each segment enters the AUC as one score weighted by
its positive and negative frame counts, which gives exactly the
frame-level midrank (Mann-Whitney) AUC.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .data import DataError, VideoRecord, validate_manifest


@dataclass
class EvalReport:
    auc: float
    frame_count: int
    positive_count: int
    # what write_frames_csv expands on demand
    segment_scores: dict[str, np.ndarray]
    manifest: list[VideoRecord]
    segment_len: int


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


def split_by_video(scores: np.ndarray, manifest: list[VideoRecord]) -> dict[str, np.ndarray]:
    """{video_id: that video's slice of a manifest-ordered segment vector}."""
    return {
        rec.video_id: scores[rec.segment_offset : rec.segment_offset + rec.segment_count]
        for rec in manifest
    }


def _tied_auc(scores: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> float:
    """AUC of finite `scores` where score i stands for pos[i] positive and
    neg[i] negative items (int64 counts), ties counted one half.

    Per tie group g: (2 * sum P_g * N_below_g + sum P_g * N_g) / (2 * P * N).
    The pair counts are summed in int64, exact while 2 * P * N < 2**63, so
    the final division is the only rounding.
    """
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: both classes must be present")
    order = np.argsort(scores)
    ordered = scores[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    pos_g = np.add.reduceat(pos[order], starts)
    neg_g = np.add.reduceat(neg[order], starts)
    neg_below = np.cumsum(neg_g) - neg_g
    twice = 2 * int(np.dot(pos_g, neg_below)) + int(np.dot(pos_g, neg_g))
    return twice / (2 * n_pos * n_neg)


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """P(random positive outranks random negative), ties counted half.

    Raises FloatingPointError on a non-finite score, which has no rank.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError(f"shape mismatch: scores {scores.shape}, labels {labels.shape}")
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise FloatingPointError(f"non-finite score {scores[bad[0]]} at index {bad[0]}")
    pos = (labels == 1).astype(np.int64)
    return _tied_auc(scores, pos, 1 - pos)


def _some(ids: list[str]) -> str:
    """The first five ids and how many more there are, for an error message."""
    return f"{ids[:5]}" + (f" and {len(ids) - 5} more" if len(ids) > 5 else "")


def evaluate(scores_by_video: dict[str, np.ndarray], manifest: list[VideoRecord],
             segment_len: int) -> EvalReport:
    """One global frame-level AUC over every video of the manifest.

    Every scored video must appear in the manifest with frame labels;
    manifest videos without scores are an error too, so the report always
    covers the full test set.  A non-finite segment score raises
    FloatingPointError naming its video and segment.
    """
    validate_manifest(manifest, segment_len)
    by_id = {rec.video_id: rec for rec in manifest}
    missing = sorted(set(scores_by_video) - set(by_id))
    if missing:
        raise DataError(f"{len(missing)} scored videos missing from manifest: {_some(missing)}")
    unscored = sorted(set(by_id) - set(scores_by_video))
    if unscored:
        raise DataError(f"{len(unscored)} manifest videos missing from scores: {_some(unscored)}")

    segments, labels = [], []
    for rec in manifest:
        if rec.labels is None:
            raise DataError(f"video {rec.video_id!r} has no frame labels")
        seg = np.asarray(scores_by_video[rec.video_id], dtype=np.float64)
        if seg.shape != (rec.segment_count,):
            raise DataError(
                f"video {rec.video_id!r}: {seg.size} scores for "
                f"{rec.segment_count} segments"
            )
        segments.append(seg)
        labels.append(np.asarray(rec.labels, dtype=np.int8))
    scores = np.concatenate(segments or [np.empty(0)])
    frame_pos = np.concatenate(labels or [np.empty(0, dtype=np.int8)]) == 1

    counts = np.array([rec.segment_count for rec in manifest], dtype=np.int64)
    ends = np.cumsum(counts)
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        v = int(np.searchsorted(ends, bad[0], side="right"))  # the video holding it
        raise FloatingPointError(
            f"video {manifest[v].video_id!r}, segment {bad[0] - ends[v] + counts[v]}: "
            f"non-finite score {scores[bad[0]]}"
        )

    # frames per segment: segment_len, except each video's truncated last one
    width = np.full(scores.size, segment_len, dtype=np.int64)
    frames = np.array([rec.frame_count for rec in manifest], dtype=np.int64)
    has = counts > 0
    width[ends[has] - 1] = frames[has] - (counts[has] - 1) * segment_len
    first_frame = np.cumsum(width) - width
    pos = np.add.reduceat(frame_pos, first_frame, dtype=np.int64)
    return EvalReport(
        auc=_tied_auc(scores, pos, width - pos),
        frame_count=int(frame_pos.size),
        positive_count=int(frame_pos.sum()),
        segment_scores=scores_by_video,
        manifest=manifest,
        segment_len=segment_len,
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
        for rec in report.manifest:
            scores = expand_segments(report.segment_scores[rec.video_id],
                                     report.segment_len, rec.frame_count)
            labels = np.asarray(rec.labels, dtype=np.int8)
            for i in range(scores.size):
                writer.writerow([rec.video_id, i, repr(float(scores[i])), int(labels[i])])
