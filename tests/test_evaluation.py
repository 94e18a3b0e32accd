import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vadiff import data
from vadiff import (
    DataError,
    Rng,
    VideoRecord,
    evaluate,
    join_scores,
    roc_auc,
    validate_manifest,
    write_report_json,
)


# --- segment-to-frame expansion -----------------------------------------------

def test_expand_count_consistency_enforced():
    labels = [0] * 20 + [1] * 20
    with pytest.raises(DataError, match="40 frames need 3 segments of 16"):
        evaluate(np.array([0.5, 0.9]), [VideoRecord("a", 40, 0, 2, labels=labels)], 16)
    with pytest.raises(DataError, match="2 scores for the manifest's 3 segments"):
        evaluate(np.array([0.5, 0.9]), [VideoRecord("a", 40, 0, 3, labels=labels)], 16)
    with pytest.raises(DataError, match="2 scores for the manifest's 1 segments"):
        evaluate(np.array([0.5, 0.9]), [VideoRecord("a", 16, 0, 1, labels=[0] * 8 + [1] * 8)], 16)


# --- rank AUC -------------------------------------------------------------------

def test_auc_perfect_separation():
    assert roc_auc(np.array([0.9, 0.1]), np.array([1, 0])) == 1.0
    assert roc_auc(np.array([0.1, 0.9]), np.array([1, 0])) == 0.0


def test_auc_all_ties():
    assert roc_auc(np.full(10, 2.5), np.array([0, 1] * 5)) == 0.5


def test_auc_single_class_rejected():
    with pytest.raises(ValueError):
        roc_auc(np.array([0.1, 0.2]), np.array([1, 1]))
    with pytest.raises(ValueError):
        roc_auc(np.array([0.1, 0.2]), np.array([0, 0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_auc_non_finite_score_rejected(bad):
    with pytest.raises(FloatingPointError, match="index 1"):
        roc_auc(np.array([0.1, bad, 0.3]), np.array([0, 1, 1]))


def brute_force_auc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def test_auc_matches_pairwise_oracle():
    rng = Rng(0)
    for trial in range(20):
        n = 10 + trial * 24  # up to ~500
        scores = np.round(rng.standard_normal(n), 1)  # coarse grid forces ties
        labels = (rng.standard_normal(n) > 0.3).astype(int)
        if labels.min() == labels.max():
            continue
        got = roc_auc(scores, labels)
        want = brute_force_auc(scores, labels)
        assert abs(got - want) <= 1e-12


def test_auc_monotone_transform_invariance():
    rng = Rng(1)
    scores = rng.standard_normal(200)
    labels = (rng.standard_normal(200) > 0).astype(int)
    base = roc_auc(scores, labels)
    assert abs(roc_auc(3.0 * scores + 7.0, labels) - base) <= 1e-15
    assert abs(roc_auc(np.exp(scores), labels) - base) <= 1e-15


def test_auc_label_complement():
    rng = Rng(2)
    scores = np.round(rng.standard_normal(100), 1)
    labels = (rng.standard_normal(100) > 0).astype(int)
    assert abs(roc_auc(scores, 1 - labels) - (1.0 - roc_auc(scores, labels))) <= 1e-12


# --- evaluate over manifests -------------------------------------------------------

def labeled_manifest():
    return [
        VideoRecord("a", 32, 0, 2, labels=[0] * 16 + [1] * 16),
        VideoRecord("b", 20, 2, 2, labels=[0] * 20),
    ]


SCORES = np.array([0.2, 0.8, 0.5, 0.1])  # labeled_manifest's segments: a's two, then b's


def csv_rows(*triples):
    """Score-CSV rows as read_scores_csv returns them, from (video, index, score)."""
    ids, index, mse = zip(*triples) if triples else ((), (), ())
    return (np.array(ids, dtype=object), np.array(index, dtype=np.int64),
            np.array(mse, dtype=np.float64))


def test_evaluate_perfect_ordering():
    manifest = [VideoRecord("a", 32, 0, 2, labels=[0] * 16 + [1] * 16)]
    report = evaluate(np.array([0.1, 0.9]), manifest, 16)
    assert report.auc == 1.0
    assert report.frame_count == 32
    assert report.positive_count == 16


def test_evaluate_concatenates_globally():
    manifest = labeled_manifest()
    report = evaluate(SCORES, manifest, 16)
    frames = np.concatenate([
        np.repeat(0.2, 16), np.repeat(0.8, 16),
        np.repeat(0.5, 16), np.repeat(0.1, 4),
    ])
    labels = np.concatenate([np.zeros(16), np.ones(16), np.zeros(20)])
    assert report.frame_count == 52
    assert abs(report.auc - brute_force_auc(frames, labels)) <= 1e-12


def test_evaluate_label_inversion_complements_auc():
    manifest = labeled_manifest()
    flipped = [
        VideoRecord("a", 32, 0, 2, labels=[1] * 16 + [0] * 16),
        VideoRecord("b", 20, 2, 2, labels=[1] * 20),
    ]
    auc = evaluate(SCORES, manifest, 16).auc
    auc_flipped = evaluate(SCORES, flipped, 16).auc
    assert abs(auc_flipped - (1.0 - auc)) <= 1e-12


def test_evaluate_rejects_missing_videos():
    manifest = labeled_manifest()
    with pytest.raises(DataError, match=re.escape("1 manifest videos missing from scores: ['b']")):
        join_scores(csv_rows(("a", 0, 0.2), ("a", 1, 0.8)), manifest)
    extra = csv_rows(("a", 0, 0.2), ("a", 1, 0.8), ("b", 0, 0.5), ("b", 1, 0.1), ("c", 0, 1.0))
    with pytest.raises(DataError, match=re.escape("1 scored videos missing from manifest: ['c']")):
        join_scores(extra, manifest)


def test_join_rejects_repeated_manifest_video():
    manifest = labeled_manifest() + [VideoRecord("a", 16, 4, 1, labels=[1] * 16)]
    rows = csv_rows(("a", 0, 0.2), ("a", 1, 0.8), ("b", 0, 0.5), ("b", 1, 0.1))
    with pytest.raises(DataError, match=re.escape("manifest lists video 'a' more than once")):
        join_scores(rows, manifest)


def test_join_puts_rows_in_manifest_order():
    shuffled = csv_rows(("b", 1, 0.1), ("a", 1, 0.8), ("b", 0, 0.5), ("a", 0, 0.2))
    assert join_scores(shuffled, labeled_manifest()).tolist() == SCORES.tolist()
    # a video without segments needs no rows
    empty = VideoRecord("e", 0, 2, 0, labels=[])
    assert join_scores(shuffled, labeled_manifest() + [empty]).tolist() == SCORES.tolist()


def test_evaluate_names_the_non_finite_segment():
    scores = np.array([0.2, 0.8, 0.5, np.nan])
    with pytest.raises(FloatingPointError, match="video 'b', segment 1: non-finite score nan"):
        evaluate(scores, labeled_manifest(), 16)


def test_evaluate_requires_labels():
    manifest = [VideoRecord("a", 32, 0, 2, labels=None)]
    with pytest.raises(ValueError):
        evaluate(np.array([0.2, 0.8]), manifest, 16)


@st.composite
def tied_segment_sets(draw):
    """(manifest-ordered scores, manifest, segment_len) with scores on a
    coarse grid and random truncation of each video's last segment."""
    segment_len = draw(st.integers(1, 6))
    scores, manifest, offset = [], [], 0
    for v in range(draw(st.integers(1, 4))):
        count = draw(st.integers(0, 5))
        cut = draw(st.integers(0, segment_len - 1)) if count else 0
        frames = count * segment_len - cut
        labels = draw(st.lists(st.integers(0, 1), min_size=frames, max_size=frames))
        scores += draw(st.lists(st.integers(0, 4), min_size=count, max_size=count))
        manifest.append(VideoRecord(f"v{v}", frames, offset, count,
                                    labels=np.array(labels, dtype=np.int8)))
        offset += count
    return np.array(scores, dtype=np.float64) / 4, manifest, segment_len


@given(tied_segment_sets())
def test_evaluate_equals_frame_auc_and_pairwise_oracle(case):
    scores, manifest, segment_len = case
    frames = np.concatenate([
        np.repeat(scores[r.segment_offset : r.segment_offset + r.segment_count],
                  segment_len)[: r.frame_count]
        for r in manifest])
    labels = np.concatenate([r.labels for r in manifest])
    if not 0 < labels.sum() < labels.size:
        with pytest.raises(ValueError, match="both classes"):
            evaluate(scores, manifest, segment_len)
        return
    report = evaluate(scores, manifest, segment_len)
    assert report.frame_count == labels.size
    assert report.positive_count == int(labels.sum())
    assert abs(report.auc - roc_auc(frames, labels)) <= 1e-12
    assert abs(report.auc - brute_force_auc(frames, labels)) <= 1e-12


def test_evaluate_peak_heap_below_eight_bytes_per_frame(peak_heap):
    """A million frames in short videos: evaluate holds one group of labels
    and its positives' positions at a time, never a frame-sized array."""
    n_videos, frames_per_video = 4000, 250  # 16 segments each, the last of 10 frames
    labels = (Rng(40).uniform(0.0, 1.0, (n_videos, frames_per_video)) < 0.05).astype(np.int8)
    manifest = [VideoRecord(f"v{i}", frames_per_video, 16 * i, 16, labels=labels[i])
                for i in range(n_videos)]
    scores = Rng(41).standard_normal(16 * n_videos)
    frames = n_videos * frames_per_video
    report, peak = peak_heap(lambda: evaluate(scores, manifest, 16))
    assert report.frame_count == frames and report.positive_count == int(labels.sum())
    assert peak < 8 * frames, peak / frames


def test_eval_heap_does_not_grow_with_the_frame_count(peak_heap):
    """About 4 M frames in four long videos, each with one anomalous interval
    of a twentieth of its frames.  The label check holds one group of labels
    (under 2 * _LABEL_GROUP frames) and two masks of it; evaluate adds four
    per-segment int64 arrays and the positions of one group's positive
    frames (16 bytes each, a tenth of the group at most here).  Neither
    grows with the 4 MB of labels, which the manifest already holds."""
    segment_len = 1024
    lengths = [2**20 + 1000 * i + 7 for i in range(4)]
    labels = np.zeros(sum(lengths), dtype=np.int8)
    manifest, offset, at = [], 0, 0
    for i, n in enumerate(lengths):
        labels[at + n // 4 : at + n // 4 + n // 20] = 1
        count = -(-n // segment_len)
        manifest.append(VideoRecord(f"v{i}", n, offset, count, labels=labels[at : at + n]))
        offset, at = offset + count, at + n
    scores = Rng(42).standard_normal(offset)
    total, check_peak = peak_heap(lambda: validate_manifest(manifest, segment_len))
    report, peak = peak_heap(lambda: evaluate(scores, manifest, segment_len))
    assert total == offset
    assert report.frame_count == labels.size and report.positive_count == int(labels.sum())
    group = data._LABEL_GROUP
    assert labels.size > 16 * group  # the labels, not the bound, are what is large
    assert check_peak < 3 * 2 * group, check_peak
    assert peak < 8 * group + 64 * offset, peak


def test_evaluate_names_at_most_five_missing_videos():
    manifest = [VideoRecord(f"v{i}", 16, i, 1, labels=[0] * 16) for i in range(8)]
    with pytest.raises(ValueError) as info:
        join_scores(csv_rows(), manifest)
    assert str(info.value) == ("8 manifest videos missing from scores: "
                               "['v0', 'v1', 'v2', 'v3', 'v4'] and 3 more")


def test_evaluate_requires_score_count_match():
    manifest = [VideoRecord("a", 32, 0, 2, labels=[0] * 16 + [1] * 16)]
    with pytest.raises(ValueError):
        evaluate(np.array([0.2, 0.8, 0.3]), manifest, 16)


def test_evaluate_checks_the_manifest():
    scores = np.array([0.2, 0.8])
    with pytest.raises(DataError, match=r"segment_len 0 is not in \[1, 2\*\*63\)"):
        evaluate(scores, [VideoRecord("a", 32, 0, 2, labels=[0] * 16 + [1] * 16)], 0)
    with pytest.raises(DataError, match="'a': 48 frames need 3 segments of 16"):
        evaluate(scores, [VideoRecord("a", 48, 0, 2, labels=[0] * 24 + [1] * 24)], 16)
    with pytest.raises(DataError, match=r"'a': labels of shape \(31,\) for 32 frames"):
        evaluate(scores, [VideoRecord("a", 32, 0, 2, labels=[0] * 15 + [1] * 16)], 16)


# --- report artifacts ----------------------------------------------------------------

def test_report_json_round_trip(tmp_path):
    import json

    report = evaluate(SCORES, labeled_manifest(), 16)
    path = tmp_path / "report.json"
    doc = write_report_json(path, report, {"k": 1.0})
    back = json.loads(path.read_text())
    assert back == doc
    assert back["auc"] == report.auc
    assert back["frame_count"] == 52
    assert back["positive_count"] == 16
    assert back["negative_count"] == 36
    assert back["config"] == {"k": 1.0}
