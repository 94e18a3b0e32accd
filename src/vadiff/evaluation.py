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

from .data import DataError, VideoRecord, label_groups, validate_manifest
from .files import replacing


@dataclass
class EvalReport:
    """The frame-level AUC and the frame counts it was taken over."""
    auc: float
    frame_count: int
    positive_count: int


def _tied_auc(scores: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> float:
    """AUC of finite `scores` where score i stands for pos[i] positive and
    neg[i] negative items (int64 counts), ties counted one half.  pos and
    neg are overwritten.

    Per tie group g: sum P_g * (N_below_g + N_through_g) / (2 * P * N), with
    N_through_g = N_below_g + N_g.  The counts through each group's end are
    the cumulative sums in score order, read at the group's last index, each
    formed in place of its input: beside pos and neg, only the sort order
    and one sorted or permuted copy are of their size.  The pair counts are
    summed in int64, exact while 2 * P * N < 2**63, so the final division
    is the only rounding.
    """
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: both classes must be present")
    order = np.argsort(scores)
    ordered = scores[order]
    is_last = np.append(ordered[1:] != ordered[:-1], True)  # at each tie group's end
    del ordered
    groups = np.count_nonzero(is_last)
    for counts in (pos, neg):
        counts[...] = counts[order]
        np.cumsum(counts, out=counts)
        counts[:groups] = counts[is_last]
    del order, is_last
    pos_g, neg_through = pos[:groups], neg[:groups]
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
    video.  Beyond per-run arrays, a join that succeeds holds two row-sized
    arrays at a time: each row's place in manifest order, and then its hit
    counts or the joined scores.
    """
    ids, index, mse = rows
    n = ids.size
    by_id = {rec.video_id: v for v, rec in enumerate(manifest)}
    if len(by_id) < len(manifest):
        listed = Counter(rec.video_id for rec in manifest)
        repeated = next(vid for vid, times in listed.items() if times > 1)
        raise DataError(f"manifest lists video {repeated!r} more than once")
    # the video of each run of rows, hashing one id per run
    starts = np.flatnonzero(np.concatenate(([n > 0], ids[1:] != ids[:-1])))
    run_ids = ids[starts].tolist()
    missing = sorted(set(run_ids) - by_id.keys())
    if missing:
        raise DataError(f"{len(missing)} scored videos missing from manifest: {_some(missing)}")
    runs = np.array([by_id[vid] for vid in run_ids], dtype=np.int64)
    del by_id, run_ids  # a dict and a list per video, not held beside the row arrays
    counts = np.array([rec.segment_count for rec in manifest], dtype=np.int64)
    unscored = counts > 0
    unscored[runs] = False
    unscored = sorted(manifest[v].video_id for v in np.flatnonzero(unscored))
    if unscored:
        raise DataError(f"{len(unscored)} manifest videos missing from scores: {_some(unscored)}")

    lengths = np.diff(np.append(starts, n))
    # each run's smallest and largest index show whether any row's is out of range
    if ((np.minimum.reduceat(index, starts) < 0)
            | (np.maximum.reduceat(index, starts) >= counts[runs])).any():
        video = np.repeat(runs, lengths)
        r = np.flatnonzero((index < 0) | (index >= counts[video]))[0]
        raise DataError(f"video {ids[r]!r}: segment_index {index[r]} is not in "
                        f"[0, {counts[video[r]]})")
    # every count is now >= 0: a scored video's is at least 1, and any other is 0.
    # The first segment not scored once lies among the first n + 1 in manifest
    # order, so counts and positions are capped at n + 1: the arrays stay
    # O(rows + videos) whatever counts the manifest declares
    np.minimum(counts, n + 1, out=counts)
    ends = np.cumsum(counts)
    offsets = ends - counts
    where = np.repeat(offsets[runs], lengths)
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

    Its arrays are per segment (at most four at a time) or per group of
    frame labels (data.label_groups): one group at a time, and the
    positions of that group's positive frames, which it counts per
    segment.  So its heap does not grow with the frame count.
    """
    total = validate_manifest(manifest, segment_len)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (total,):
        raise DataError(f"{scores.size} scores for the manifest's {total} segments")
    for rec in manifest:
        if rec.labels is None:
            raise DataError(f"video {rec.video_id!r} has no frame labels")

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
    # positive frames per segment: validate_manifest checked every label is 0 or
    # 1, so the positives are the nonzero frames, each in the first segment
    # that ends after it
    last = np.cumsum(width)
    pos = np.zeros(scores.size, dtype=np.int64)
    for start, group in label_groups(np.asarray(rec.labels) for rec in manifest):
        np.add.at(pos, np.searchsorted(last, np.flatnonzero(group) + start, side="right"), 1)
    del last

    n_frames, n_pos = int(frames.sum()), int(pos.sum())
    absent = [name for name, count in (("anomalous (1)", n_pos),
                                       ("normal (0)", n_frames - n_pos)) if count == 0]
    if absent:
        raise DataError(f"AUC undefined: the manifest labels no {' or '.join(absent)} "
                        f"frames; both classes must be present")
    width -= pos  # the negative frames per segment
    return EvalReport(
        auc=_tied_auc(scores, pos, width),
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
    with replacing(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return doc
