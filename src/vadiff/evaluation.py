"""Frame-level ROC-AUC over segment scores.

Each segment's score stands for every frame it covers (the last segment of
a video is truncated to the video's real frame count), and one global AUC
is taken over all frames of all videos, ties counted one half.  Frames are
never materialised: each segment enters the AUC as one score weighted by
its positive and negative frame counts, which gives exactly the
frame-level midrank (Mann-Whitney) AUC.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import DataError, VideoRecord, validate_manifest


@dataclass
class EvalReport:
    """The frame-level AUC and the frame counts it was taken over."""
    auc: float
    frame_count: int
    positive_count: int


def _tied_auc(scores: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> float:
    """AUC of finite `scores` where score i stands for pos[i] positive and
    neg[i] negative items (int64 counts), ties counted one half.

    Per tie group g: sum P_g * (N_below_g + N_through_g) / (2 * P * N), with
    N_through_g = N_below_g + N_g.  The counts through each group's end are
    the cumulative sums in score order, read at the group's last index.
    The pair counts are summed in int64, exact while 2 * P * N < 2**63, so
    the final division is the only rounding.
    """
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: both classes must be present")
    order = np.argsort(scores)
    ordered = scores[order]
    is_last = np.append(ordered[1:] != ordered[:-1], True)  # at each tie group's end
    del ordered
    neg_through = np.cumsum(neg[order])[is_last]
    run = pos[order]
    del order
    pos_g = np.cumsum(run, out=run)[is_last]
    del run, is_last
    pos_g[1:] -= pos_g[:-1]  # numpy buffers the overlapping operand
    twice = int(np.dot(pos_g, neg_through)) + int(np.dot(pos_g[1:], neg_through[:-1]))
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


def join_scores(rows, manifest: list[VideoRecord]) -> np.ndarray:
    """Score-CSV rows (video ids, segment indices, scores; in any order), as
    read by read_scores_csv, put into one manifest-ordered segment vector.

    Each manifest video id must be unique, every scored video must appear
    in the manifest, every manifest video with segments must be scored, and
    each of its segments exactly once; a fault raises DataError naming the
    video.
    """
    ids, index, mse = rows
    by_id = {rec.video_id: v for v, rec in enumerate(manifest)}
    if len(by_id) < len(manifest):
        listed = Counter(rec.video_id for rec in manifest)
        repeated = next(vid for vid, n in listed.items() if n > 1)
        raise DataError(f"manifest lists video {repeated!r} more than once")
    # the video of each row, hashing one id per run of rows
    starts = np.flatnonzero(np.concatenate(([ids.size > 0], ids[1:] != ids[:-1])))
    run_ids = ids[starts].tolist()
    missing = sorted(set(run_ids) - by_id.keys())
    if missing:
        raise DataError(f"{len(missing)} scored videos missing from manifest: {_some(missing)}")
    run_videos = [by_id[vid] for vid in run_ids]
    scored = set(run_videos)
    unscored = sorted(rec.video_id for v, rec in enumerate(manifest)
                      if rec.segment_count and v not in scored)
    if unscored:
        raise DataError(f"{len(unscored)} manifest videos missing from scores: {_some(unscored)}")

    video = np.repeat(np.array(run_videos, dtype=np.int64), np.diff(np.append(starts, ids.size)))
    counts = np.array([rec.segment_count for rec in manifest], dtype=np.int64)
    bad = np.flatnonzero((index < 0) | (index >= counts[video]))
    if bad.size:
        r = bad[0]
        raise DataError(f"video {ids[r]!r}: segment_index {index[r]} is not in "
                        f"[0, {counts[video[r]]})")
    # every count is now >= 0: a scored video's is at least 1, and any other is 0.
    # The first segment not scored once lies among the first n + 1 in manifest
    # order, so counts and positions are capped at n + 1: the arrays stay
    # O(rows + videos) whatever counts the manifest declares
    n = ids.size
    np.minimum(counts, n + 1, out=counts)
    ends = np.cumsum(counts)
    offsets = ends - counts
    where = offsets[video]
    del video
    where += np.minimum(index, n + 1)
    np.minimum(where, n + 1, out=where)
    size = min(int(counts.sum()), n + 1)
    hits = np.bincount(where, minlength=size)
    wrong = np.flatnonzero(hits[:size] != 1)
    if wrong.size:
        at = wrong[0]
        v = int(np.searchsorted(ends, at, side="right"))
        raise DataError(f"video {manifest[v].video_id!r}: segment {at - offsets[v]} "
                        f"scored {hits[at]} times")
    del hits
    scores = np.empty(n, dtype=np.float64)
    scores[where] = mse
    return scores


def evaluate(scores: np.ndarray, manifest: list[VideoRecord], segment_len: int) -> EvalReport:
    """One global frame-level AUC over every video of the manifest.

    `scores` holds one score per segment, in manifest order, covering every
    video; join_scores builds it from score-CSV rows.  Every video needs
    frame labels, and together they must hold both classes.  A non-finite
    segment score raises FloatingPointError naming its video and segment.

    Beyond per-segment arrays it holds one int8 copy of the frame labels,
    then only the positive frames' positions, which it counts per segment
    and frees before the AUC.
    """
    total = validate_manifest(manifest, segment_len)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (total,):
        raise DataError(f"{scores.size} scores for the manifest's {total} segments")
    labels = []
    for rec in manifest:
        if rec.labels is None:
            raise DataError(f"video {rec.video_id!r} has no frame labels")
        labels.append(np.asarray(rec.labels, dtype=np.int8))
    # validate_manifest checked every label is 0 or 1, so the positives are the nonzero frames
    frame_labels = np.concatenate(labels or [np.empty(0, dtype=np.int8)])
    n_frames, positives = frame_labels.size, np.flatnonzero(frame_labels)
    del frame_labels

    counts = np.array([rec.segment_count for rec in manifest], dtype=np.int64)
    ends = np.cumsum(counts)
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        v = int(np.searchsorted(ends, bad[0], side="right"))  # the video holding it
        raise FloatingPointError(
            f"video {manifest[v].video_id!r}, segment {bad[0] - ends[v] + counts[v]}: "
            f"non-finite score {scores[bad[0]]}"
        )

    n_pos = positives.size
    absent = [name for name, count in (("anomalous (1)", n_pos),
                                       ("normal (0)", n_frames - n_pos)) if count == 0]
    if absent:
        raise DataError(f"AUC undefined: the manifest labels no {' or '.join(absent)} "
                        f"frames; both classes must be present")

    # frames per segment: segment_len, except each video's truncated last one
    width = np.full(scores.size, segment_len, dtype=np.int64)
    frames = np.array([rec.frame_count for rec in manifest], dtype=np.int64)
    has = counts > 0
    width[ends[has] - 1] = frames[has] - (counts[has] - 1) * segment_len
    first_frame = np.cumsum(width) - width
    # positive frames per segment, from the positives' positions alone
    pos = np.bincount(np.searchsorted(first_frame, positives, side="right") - 1,
                      minlength=scores.size)
    del first_frame, positives
    return EvalReport(
        auc=_tied_auc(scores, pos, width - pos),
        frame_count=n_frames,
        positive_count=n_pos,
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return doc
