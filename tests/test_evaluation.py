import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vadiff import (
    DataError,
    Rng,
    VideoRecord,
    evaluate,
    expand_segments,
    roc_auc,
    write_frames_csv,
    write_report_json,
)


# --- segment-to-frame expansion -----------------------------------------------

def test_expand_full_segments():
    frames = expand_segments(np.array([0.5, 0.9]), 16, 32)
    assert frames.shape == (32,)
    assert np.array_equal(frames[:16], np.full(16, 0.5))
    assert np.array_equal(frames[16:], np.full(16, 0.9))


def test_expand_truncated_tail():
    frames = expand_segments(np.array([0.5, 0.9]), 16, 20)
    assert frames.shape == (20,)
    assert np.array_equal(frames[:16], np.full(16, 0.5))
    assert np.array_equal(frames[16:], np.full(4, 0.9))


def test_expand_count_consistency_enforced():
    with pytest.raises(ValueError):
        expand_segments(np.array([0.5, 0.9]), 16, 40)  # needs 3 segments
    with pytest.raises(ValueError):
        expand_segments(np.array([0.5, 0.9]), 16, 16)  # one segment too many


def test_expand_preserves_distinct_values():
    scores = np.array([1.0, 2.0, 2.0, 3.0])
    frames = expand_segments(scores, 4, 14)
    assert set(frames.tolist()) == {1.0, 2.0, 3.0}


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


def test_evaluate_perfect_ordering():
    manifest = [VideoRecord("a", 32, 0, 2, labels=[0] * 16 + [1] * 16)]
    report = evaluate({"a": np.array([0.1, 0.9])}, manifest, 16)
    assert report.auc == 1.0
    assert report.frame_count == 32
    assert report.positive_count == 16


def test_evaluate_concatenates_globally():
    manifest = labeled_manifest()
    scores = {"a": np.array([0.2, 0.8]), "b": np.array([0.5, 0.1])}
    report = evaluate(scores, manifest, 16)
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
    scores = {"a": np.array([0.2, 0.8]), "b": np.array([0.5, 0.1])}
    auc = evaluate(scores, manifest, 16).auc
    auc_flipped = evaluate(scores, flipped, 16).auc
    assert abs(auc_flipped - (1.0 - auc)) <= 1e-12


def test_evaluate_rejects_missing_videos():
    manifest = labeled_manifest()
    with pytest.raises(ValueError, match="b"):
        evaluate({"a": np.array([0.2, 0.8])}, manifest, 16)
    extra = {"a": np.array([0.2, 0.8]), "b": np.array([0.5, 0.1]), "c": np.array([1.0])}
    with pytest.raises(ValueError, match="c"):
        evaluate(extra, manifest, 16)


def test_evaluate_names_the_non_finite_segment():
    scores = {"a": np.array([0.2, 0.8]), "b": np.array([0.5, np.nan])}
    with pytest.raises(FloatingPointError, match="video 'b', segment 1: non-finite score nan"):
        evaluate(scores, labeled_manifest(), 16)


def test_evaluate_requires_labels():
    manifest = [VideoRecord("a", 32, 0, 2, labels=None)]
    with pytest.raises(ValueError):
        evaluate({"a": np.array([0.2, 0.8])}, manifest, 16)


@st.composite
def tied_segment_sets(draw):
    """(scores_by_video, manifest, segment_len) with scores on a coarse grid
    and random truncation of each video's last segment."""
    segment_len = draw(st.integers(1, 6))
    scores, manifest, offset = {}, [], 0
    for v in range(draw(st.integers(1, 4))):
        count = draw(st.integers(0, 5))
        cut = draw(st.integers(0, segment_len - 1)) if count else 0
        frames = count * segment_len - cut
        labels = draw(st.lists(st.integers(0, 1), min_size=frames, max_size=frames))
        grid = draw(st.lists(st.integers(0, 4), min_size=count, max_size=count))
        scores[f"v{v}"] = np.array(grid, dtype=np.float64) / 4
        manifest.append(VideoRecord(f"v{v}", frames, offset, count,
                                    labels=np.array(labels, dtype=np.int8)))
        offset += count
    return scores, manifest, segment_len


@given(tied_segment_sets())
def test_evaluate_equals_frame_auc_and_pairwise_oracle(case):
    scores, manifest, segment_len = case
    frames = np.concatenate([expand_segments(scores[r.video_id], segment_len, r.frame_count)
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


def test_evaluate_names_at_most_five_missing_videos():
    manifest = [VideoRecord(f"v{i}", 16, i, 1, labels=[0] * 16) for i in range(8)]
    with pytest.raises(ValueError) as info:
        evaluate({}, manifest, 16)
    assert str(info.value) == ("8 manifest videos missing from scores: "
                               "['v0', 'v1', 'v2', 'v3', 'v4'] and 3 more")


def test_evaluate_requires_score_count_match():
    manifest = [VideoRecord("a", 32, 0, 2, labels=[0] * 16 + [1] * 16)]
    with pytest.raises(ValueError):
        evaluate({"a": np.array([0.2, 0.8, 0.3])}, manifest, 16)


def test_evaluate_checks_the_manifest():
    scores = {"a": np.array([0.2, 0.8])}
    with pytest.raises(DataError, match="segment_len must be >= 1, got 0"):
        evaluate(scores, [VideoRecord("a", 32, 0, 2, labels=[0] * 16 + [1] * 16)], 0)
    with pytest.raises(DataError, match="'a': 48 frames need 3 segments of 16"):
        evaluate(scores, [VideoRecord("a", 48, 0, 2, labels=[0] * 24 + [1] * 24)], 16)
    with pytest.raises(DataError, match="'a': 31 labels for 32 frames"):
        evaluate(scores, [VideoRecord("a", 32, 0, 2, labels=[0] * 15 + [1] * 16)], 16)


# --- report artifacts ----------------------------------------------------------------

def test_report_json_round_trip(tmp_path):
    import json

    manifest = labeled_manifest()
    scores = {"a": np.array([0.2, 0.8]), "b": np.array([0.5, 0.1])}
    report = evaluate(scores, manifest, 16)
    path = tmp_path / "report.json"
    doc = write_report_json(path, report, {"k": 1.0})
    back = json.loads(path.read_text())
    assert back == doc
    assert back["auc"] == report.auc
    assert back["frame_count"] == 52
    assert back["positive_count"] == 16
    assert back["negative_count"] == 36
    assert back["config"] == {"k": 1.0}


def test_frames_csv_layout(tmp_path):
    manifest = labeled_manifest()
    scores = {"a": np.array([0.2, 0.8]), "b": np.array([0.5, 0.1])}
    report = evaluate(scores, manifest, 16)
    path = tmp_path / "frames.csv"
    write_frames_csv(path, report)
    lines = path.read_text().splitlines()
    assert lines[0] == "video_id,frame_index,score,label"
    assert len(lines) == 1 + 52
    assert lines[1].startswith("a,0,")
    assert lines[-1].split(",")[:2] == ["b", "19"]


def test_frames_csv_bytes(tmp_path):
    scores = {"a": np.array([0.2, 0.8]), "b": np.array([0.5, 0.1])}
    path = tmp_path / "frames.csv"
    write_frames_csv(path, evaluate(scores, labeled_manifest(), 16))
    rows = ([f"a,{i},0.2,0" for i in range(16)] + [f"a,{i},0.8,1" for i in range(16, 32)]
            + [f"b,{i},0.5,0" for i in range(16)] + [f"b,{i},0.1,0" for i in range(16, 20)])
    want = "".join(f"{row}\r\n" for row in ["video_id,frame_index,score,label"] + rows)
    assert path.read_bytes() == want.encode()
