import json
import os
import re
import struct

import numpy as np
import pytest

from vadiff import data, training
from vadiff import (
    DataError,
    FeatureSet,
    NetworkConfig,
    Preconditioner,
    Rng,
    SynthConfig,
    TrainConfig,
    TrainNoiseConfig,
    VideoRecord,
    dsm_loss,
    estimate_sigma_data,
    fit,
    init_params,
    load_features,
    load_manifest,
    save_features,
    synth_generate,
    validate_manifest,
)

from conftest import map_of


def two_video_set(dim=4):
    rng = Rng(0)
    feats = rng.standard_normal((5, dim)).astype(np.float32)
    manifest = [
        VideoRecord("a", 48, 0, 3, labels=[0] * 32 + [1] * 16),
        VideoRecord("b", 20, 3, 2, labels=[0] * 20),
    ]
    return FeatureSet(feats, manifest)


# --- manifest validation -----------------------------------------------------------

def test_validate_counts_segments():
    fs = two_video_set()
    assert validate_manifest(fs.manifest, fs.segment_len) == 5


def test_validate_rejects_offset_gap():
    manifest = [
        VideoRecord("a", 48, 0, 3),
        VideoRecord("b", 20, 4, 2),  # should start at 3
    ]
    with pytest.raises(DataError, match="b"):
        validate_manifest(manifest, 16)


def test_validate_rejects_wrong_segment_count():
    manifest = [VideoRecord("a", 48, 0, 4)]  # 48 frames is 3 segments
    with pytest.raises(DataError, match="a"):
        validate_manifest(manifest, 16)


def test_validate_segment_count_is_exact_past_float_precision():
    """The segment count is an integer ceiling: past 2**53 frames a float
    division rounds, rejecting a correct count and passing one too few."""
    assert validate_manifest([VideoRecord("v", 2**60 + 1, 0, 2**56 + 1)], 16) == 2**56 + 1
    with pytest.raises(DataError, match=rf"'v': {2**60 + 1} frames need {2**56 + 1} segments "
                                        rf"of 16, manifest says {2**56}$"):
        validate_manifest([VideoRecord("v", 2**60 + 1, 0, 2**56)], 16)


def test_validate_rejects_bad_labels():
    manifest = [VideoRecord("a", 32, 0, 2, labels=[0] * 31)]
    with pytest.raises(DataError, match="a"):
        validate_manifest(manifest, 16)
    manifest = [VideoRecord("a", 32, 0, 2, labels=[0] * 31 + [2])]
    with pytest.raises(DataError, match="a"):
        validate_manifest(manifest, 16)


@pytest.mark.parametrize("labels, shape", [(np.int8(1), "()"), (1, "()"),
                                           (np.zeros((16, 1), np.int8), "(16, 1)")],
                         ids=["int8-scalar", "int-scalar", "column"])
def test_validate_names_the_shape_of_misshapen_labels(labels, shape):
    with pytest.raises(DataError, match=re.escape(f"'v': labels of shape {shape} for 16 frames")):
        validate_manifest([VideoRecord("v", 16, 0, 1, labels)], 16)


@pytest.mark.parametrize("labels", [np.array([0, -1], dtype=np.int8),
                                    np.array([0, 2], dtype=np.int8),
                                    np.array([0.0, 0.5]), [True, 3]],
                         ids=["int8-minus-one", "int8-two", "float-half", "list"])
def test_validate_rejects_labels_outside_0_1(labels):
    manifest = [VideoRecord("a", 2, 0, 1, labels=labels)]
    with pytest.raises(DataError, match="'a': labels must be 0 or 1"):
        validate_manifest(manifest, 16)


@pytest.mark.parametrize("bad", [np.array(["0", "1"]), np.array([b"0", b"1"])],
                         ids=["str", "bytes"])
def test_validate_rejects_non_numeric_labels(bad):
    manifest = [VideoRecord("a", 2, 0, 1, labels=np.array([0, 1], dtype=np.int8)),
                VideoRecord("b", 2, 1, 1, labels=bad)]
    with pytest.raises(DataError, match="'b': labels must be 0 or 1"):
        validate_manifest(manifest, 16)


def test_validate_names_the_first_video_with_a_bad_label():
    manifest = [VideoRecord(f"v{i}", 20, 2 * i, 2) for i in range(6)]
    for i, rec in enumerate(manifest):
        if i != 1:  # one video has no labels
            rec.labels = np.zeros(20, dtype=np.int8)
    manifest[3].labels[19] = 2
    manifest[5].labels[0] = -1
    with pytest.raises(DataError, match="^video 'v3': labels must be 0 or 1$"):
        validate_manifest(manifest, 16)
    manifest[2].labels = np.full(20, 0.5)
    with pytest.raises(DataError, match="^video 'v2': labels must be 0 or 1$"):
        validate_manifest(manifest, 16)


def test_validate_rejects_segment_len_below_one():
    with pytest.raises(DataError, match=r"segment_len 0 is not in \[1, 2\*\*63\)"):
        validate_manifest([VideoRecord("a", 2, 0, 1)], 0)


@pytest.mark.parametrize("segment_len", [2**63, 2**64], ids=["2**63", "2**64"])
def test_validate_rejects_segment_len_beyond_int64(segment_len):
    """One segment per video, as a manifest of such a length declares: the
    bound is checked before any per-segment array is sized by it."""
    with pytest.raises(DataError, match=rf"segment_len {segment_len} is not in \[1, 2\*\*63\)"):
        validate_manifest([VideoRecord("a", 16, 0, 1)], segment_len)
    assert validate_manifest([VideoRecord("a", 16, 0, 1)], 2**62) == 1


# --- binary feature file + manifest round trip ----------------------------------------

def test_round_trip_bit_identical(tmp_path):
    fs = two_video_set()
    fpath, mpath = tmp_path / "x.vadf", tmp_path / "x.json"
    save_features(fpath, mpath, fs)
    back = load_features(fpath, mpath)
    assert np.array_equal(back.features, fs.features)
    assert back.features.dtype == np.float32
    assert back.segment_len == fs.segment_len
    assert [r.video_id for r in back.manifest] == ["a", "b"]
    assert np.array_equal(back.manifest[0].labels, fs.manifest[0].labels)
    assert back.manifest[1].frame_count == 20


def test_feature_file_layout_is_padded_header_then_float32_rows(tmp_path):
    """A .npy file of version 1.0: the magic, the header's length, the header
    dict padded with spaces and a newline to byte 128, then the rows; the
    path is used as given, and the manifest stays at version 1."""
    fs = two_video_set()
    fpath, mpath = tmp_path / "x.vadf", tmp_path / "x.json"
    save_features(fpath, mpath, fs)
    text = b"{'descr': '<f4', 'fortran_order': False, 'shape': (5, 4), }"
    header = b"\x93NUMPY\x01\x00" + struct.pack("<H", 118) + text.ljust(117) + b"\n"
    assert fpath.read_bytes() == header + fs.features.astype("<f4").tobytes()
    assert json.loads(mpath.read_text())["version"] == 1


def test_loaded_features_are_a_read_only_view_of_a_map(tmp_path):
    fs = two_video_set()
    fpath, mpath = tmp_path / "x.vadf", tmp_path / "x.json"
    save_features(fpath, mpath, fs)
    features = load_features(fpath, mpath).features
    map_of(features)
    assert features.ctypes.data % 64 == 0 and features.flags.c_contiguous
    with pytest.raises(ValueError, match="read-only"):
        features[0, 0] = 1.0


def test_loaded_features_keep_their_values_when_the_path_is_rewritten(tmp_path):
    """save_features replaces both files whole, so features loaded from the
    old file, which view its map, do not change."""
    fs = two_video_set()
    fpath, mpath = tmp_path / "x.vadf", tmp_path / "x.json"
    save_features(fpath, mpath, fs)
    loaded = load_features(fpath, mpath)
    save_features(fpath, mpath, FeatureSet(np.zeros((1, 2), np.float32),
                                           [VideoRecord("z", 16, 0, 1)]))
    assert np.array_equal(loaded.features, fs.features)
    assert load_features(fpath, mpath).features.shape == (1, 2)


def test_failed_feature_save_leaves_the_old_files(tmp_path, disk_full_after):
    """A save that fails part way through the payload leaves the old feature
    file and manifest as they were and no temporary file behind."""
    fpath, mpath = tmp_path / "x.vadf", tmp_path / "x.json"
    save_features(fpath, mpath, two_video_set())
    before = fpath.read_bytes(), mpath.read_bytes()
    disk_full_after(1)  # the header; then the rows fail
    with pytest.raises(OSError, match="No space left"):
        save_features(fpath, mpath, two_video_set(dim=6))
    assert (fpath.read_bytes(), mpath.read_bytes()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json", "x.vadf"]


def test_saved_files_get_the_mode_plain_open_gives(tmp_path):
    """A new file gets 0o666 less the umask, and a rewritten one keeps its
    mode, as open(path, "w") leaves them; not tempfile's 0o600."""
    fpath, mpath = tmp_path / "x.vadf", tmp_path / "x.json"
    umask = os.umask(0o022)
    try:
        save_features(fpath, mpath, two_video_set())
        assert [p.stat().st_mode & 0o777 for p in (fpath, mpath)] == [0o644, 0o644]
        fpath.chmod(0o640)
        save_features(fpath, mpath, two_video_set())
        assert [p.stat().st_mode & 0o777 for p in (fpath, mpath)] == [0o640, 0o644]
    finally:
        os.umask(umask)


@pytest.fixture(scope="module")
def mapped_64_mib(tmp_path_factory):
    """A 64 MiB feature file of 262144 rows of dim 64, one video, and its manifest."""
    rows = 2**18
    fpath = tmp_path_factory.mktemp("big") / "x.vadf"
    mpath = fpath.with_suffix(".json")
    feats = np.random.default_rng(0).standard_normal((rows, 64), dtype=np.float32)
    feats += np.linspace(-3, 3, 64, dtype=np.float32)
    save_features(fpath, mpath, FeatureSet(feats, [VideoRecord("v", 16 * rows, 0, rows)]))
    return fpath, mpath


def test_load_features_peak_heap_is_per_row_not_per_value(mapped_64_mib, peak_heap):
    """Loading 64 MiB of features peaks at about the finite check's one
    float64 sum per row (2 MiB), not at the payload."""
    fs, peak = peak_heap(lambda: load_features(*mapped_64_mib))
    assert fs.features.nbytes == 64 * 2**20
    assert peak < 16 * fs.features.shape[0] + 2**20, peak / 2**20


def test_load_rejects_bad_magic(tmp_path):
    fs = two_video_set()
    fpath, mpath = tmp_path / "x.vadf", tmp_path / "x.json"
    save_features(fpath, mpath, fs)
    raw = fpath.read_bytes()
    fpath.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(DataError, match="not a version 1.0 .npy file: the magic string is not"):
        load_features(fpath, mpath)


def test_load_rejects_truncated_payload(tmp_path):
    fs = two_video_set()
    fpath, mpath = tmp_path / "x.vadf", tmp_path / "x.json"
    save_features(fpath, mpath, fs)
    raw = fpath.read_bytes()
    fpath.write_bytes(raw[:-8])
    with pytest.raises(DataError, match="expected 5 rows of 4, got 18 values"):
        load_features(fpath, mpath)


def test_load_rejects_row_count_beyond_file_size(tmp_path):
    fs = two_video_set()
    fpath, mpath = tmp_path / "x.vadf", tmp_path / "x.json"
    save_features(fpath, mpath, fs)
    raw = fpath.read_bytes()
    # the header's row count, in place of 12 of its padding spaces
    fpath.write_bytes(raw.replace(b"(5, 4), }" + b" " * 12, b"(1099511627776, 4), }"))
    with pytest.raises(DataError, match="expected 1099511627776 rows of 4, got 20 values"):
        load_features(fpath, mpath)


def test_load_rejects_manifest_feature_mismatch(tmp_path):
    fs = two_video_set()
    fpath, mpath = tmp_path / "x.vadf", tmp_path / "x.json"
    save_features(fpath, mpath, fs)
    doc = json.loads(mpath.read_text())
    assert doc["videos"][1]["segment_count"] == 2 and doc["videos"][1]["frame_count"] == 20
    doc["videos"][1].update(segment_count=3, frame_count=36)
    mpath.write_text(json.dumps(doc))
    with pytest.raises(DataError):
        load_features(fpath, mpath)


def test_load_manifest_rejects_invalid_json(tmp_path):
    mpath = tmp_path / "bad.json"
    mpath.write_text("{not json")
    with pytest.raises(DataError):
        load_manifest(mpath)


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["videos"], "manifest must be a JSON object, got an array"),
    (lambda doc: {**doc, "videos": {}}, "manifest: videos must be an array"),
    (lambda doc: {**doc, "videos": [doc["videos"][0], 7]},
     "manifest video 1: expected an object, got an integer"),
    (lambda doc: {**doc, "videos": [doc["videos"][0],
                                    {k: v for k, v in doc["videos"][1].items()
                                     if k != "frame_count"}]},
     "manifest video 1: missing key 'frame_count'"),
    (lambda doc: {**doc, "videos": [{**doc["videos"][0], "segment_count": "3"}]},
     "manifest video 0: segment_count must be an integer, got a string"),
    (lambda doc: {**doc, "videos": [{**doc["videos"][0], "video_id": 3}]},
     "manifest video 0: video_id must be a string"),
    (lambda doc: {**doc, "videos": [{**doc["videos"][0], "labels": [0, [1]]}]},
     "manifest video 0: labels must be an array of 0/1"),
    (lambda doc: {**doc, "videos": [doc["videos"][0],
                                    {**doc["videos"][1], "labels": [0.5, 1.7, True, 0]}]},
     "manifest video 1: labels must be an array of 0/1"),
    (lambda doc: {**doc, "videos": [{**doc["videos"][0],
                                     "labels": ["0", 1] + doc["videos"][0]["labels"][2:]}]},
     "manifest video 0: labels must be an array of 0/1"),
    (lambda doc: {**doc, "videos": [{**doc["videos"][0],
                                     "labels": [None] + doc["videos"][0]["labels"][1:]}]},
     "manifest video 0: labels must be an array of 0/1"),
    (lambda doc: {**doc, "videos": [{**doc["videos"][0],
                                     "labels": [256] + doc["videos"][0]["labels"][1:]}]},
     "manifest video 0: labels must be an array of 0/1"),
    (lambda doc: {**doc, "segment_len": 0}, "segment_len must be a positive integer"),
    (lambda doc: {**doc, "version": True}, "unsupported manifest version True"),
    (lambda doc: {**doc, "version": 1.0}, "unsupported manifest version 1.0"),
], ids=["list", "videos-object", "video-integer", "missing-key", "string-count",
        "integer-id", "nested-labels", "fractional-labels", "string-labels", "null-label",
        "label-256", "zero-segment-len", "boolean-version", "float-version"])
def test_load_manifest_shape_errors_name_the_fault(tmp_path, edit, message):
    fs = two_video_set()
    fpath, mpath = tmp_path / "x.vadf", tmp_path / "x.json"
    save_features(fpath, mpath, fs)
    mpath.write_text(json.dumps(edit(json.loads(mpath.read_text()))))
    with pytest.raises(DataError, match=re.escape(message)):
        load_manifest(mpath)


def test_load_manifest_reads_boolean_labels_as_integers(tmp_path):
    fs = two_video_set()
    fpath, mpath = tmp_path / "x.vadf", tmp_path / "x.json"
    save_features(fpath, mpath, fs)
    doc = json.loads(mpath.read_text())
    doc["videos"][1]["labels"] = [True, False] * 10
    mpath.write_text(json.dumps(doc))
    labels = load_manifest(mpath)[0][1].labels
    assert labels.dtype == np.int8 and labels.flags.writeable
    assert labels.tolist() == [1, 0] * 10


def test_save_features_writes_the_manifest_as_one_line(tmp_path):
    fs = two_video_set()
    fpath, mpath = tmp_path / "x.vadf", tmp_path / "x.json"
    save_features(fpath, mpath, fs)
    text = mpath.read_text()
    assert text.endswith("}\n") and text.count("\n") == 1
    assert '"labels":[0,0,' in text and " " not in text


def test_load_manifest_reads_the_indented_layout_alike(tmp_path):
    fs = synth_generate(SynthConfig(n_normal=200, n_anomalous=20, dim=2, seed=6))
    fpath, mpath = tmp_path / "x.vadf", tmp_path / "x.json"
    save_features(fpath, mpath, fs)
    indented = tmp_path / "indented.json"
    with open(indented, "w") as fh:  # the layout manifests were first written in
        json.dump(json.loads(mpath.read_text()), fh, indent=1)
        fh.write("\n")
    for path in (mpath, indented):
        manifest, segment_len = load_manifest(path)
        assert segment_len == fs.segment_len and len(manifest) == len(fs.manifest)
        for got, want in zip(manifest, fs.manifest):
            assert (got.video_id, got.frame_count, got.segment_offset, got.segment_count) == (
                want.video_id, want.frame_count, want.segment_offset, want.segment_count)
            assert got.labels.dtype == np.int8 and np.array_equal(got.labels, want.labels)


def test_load_manifest_peak_heap_per_frame(tmp_path, peak_heap):
    """Each video's labels become int8 as the parser finishes it: about 6.6
    bytes of heap per frame, the text included, against 16.8 when every
    video's labels were Python ints at once."""
    fs = synth_generate(SynthConfig(n_normal=12500, n_anomalous=625, dim=1, seed=0))
    frames = sum(rec.frame_count for rec in fs.manifest)
    assert frames >= 200_000
    fpath, mpath = tmp_path / "x.vadf", tmp_path / "x.json"
    save_features(fpath, mpath, fs)
    del fs
    (manifest, _), peak = peak_heap(lambda: load_manifest(mpath))
    assert sum(rec.frame_count for rec in manifest) == frames
    assert peak < 10 * frames, peak / frames


def test_load_manifest_holds_one_byte_per_frame_of_labels(tmp_path, held_heap):
    """What load_manifest returns holds each label in one byte that its array
    owns, plus a few hundred bytes per video: 2.0 bytes per frame in all
    here (one per label, 364 per video), where an int8 view of each
    video's bytearray held 2.9."""
    fs = synth_generate(SynthConfig(n_normal=12500, n_anomalous=625, dim=1, seed=0))
    frames = sum(rec.frame_count for rec in fs.manifest)
    videos = len(fs.manifest)
    fpath, mpath = tmp_path / "x.vadf", tmp_path / "x.json"
    save_features(fpath, mpath, fs)
    del fs
    (manifest, _), held = held_heap(lambda: load_manifest(mpath))
    assert all(rec.labels.flags.owndata for rec in manifest)
    assert held < 1.25 * frames + 400 * videos, ((held - 400 * videos) / frames, held / videos)


@pytest.mark.parametrize("edits, message", [
    ({"segment_count": 10**20}, "segment_count 100000000000000000000 is not in [0, 2**63)"),
    ({"segment_count": -1, "frame_count": -16}, "frame_count -16 is not in [0, 2**63)"),
    ({"segment_offset": -3}, "segment_offset -3 is not in [0, 2**63)"),
    ({"frame_count": 2**63}, f"frame_count {2**63} is not in [0, 2**63)"),
], ids=["count-1e20", "negative-counts", "negative-offset", "frames-2**63"])
def test_load_features_rejects_counts_outside_int64(tmp_path, edits, message):
    fs = two_video_set()
    fpath, mpath = tmp_path / "x.vadf", tmp_path / "x.json"
    save_features(fpath, mpath, fs)
    doc = json.loads(mpath.read_text())
    doc["videos"][1].update(edits)
    mpath.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=re.escape(f"manifest video 1: {message}")):
        load_features(fpath, mpath)


# --- data scale estimation -------------------------------------------------------------

def test_sigma_data_of_unit_spikes():
    feats = np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=np.float32)
    fs = FeatureSet(feats, [VideoRecord("a", 32, 0, 2)], segment_len=16)
    assert abs(estimate_sigma_data(fs).sigma_data - 1.0) <= 1e-7


def test_sigma_data_matches_two_pass_loop():
    rng = Rng(3)
    feats = (rng.standard_normal((40, 5)) * 1.7 + 0.3).astype(np.float32)
    fs = FeatureSet(feats, [VideoRecord("a", 40 * 16, 0, 40)])
    got = estimate_sigma_data(fs).sigma_data

    vals = [float(v) for row in feats for v in row]
    mean = sum(vals) / len(vals)
    var = sum((v - mean) ** 2 for v in vals) / len(vals)
    assert abs(got - np.sqrt(var)) <= 1e-6


def test_sigma_data_centering_returns_per_dim_means():
    rng = Rng(4)
    feats = (rng.standard_normal((30, 3)) + np.array([10.0, -5.0, 0.0])).astype(np.float32)
    fs = FeatureSet(feats, [VideoRecord("a", 30 * 16, 0, 30)])
    stats = estimate_sigma_data(fs, center=True)
    assert stats.center is not None
    assert np.abs(stats.center - feats.mean(axis=0)).max() <= 1e-6
    # centered scale must not see the offsets
    assert stats.sigma_data < 2.0


def test_sigma_data_permutation_invariant():
    rng = Rng(5)
    feats = rng.standard_normal((24, 4)).astype(np.float32)
    fs1 = FeatureSet(feats, [VideoRecord("a", 24 * 16, 0, 24)])
    perm = Rng(6).permutation(24)
    fs2 = FeatureSet(feats[perm], [VideoRecord("a", 24 * 16, 0, 24)])
    a = estimate_sigma_data(fs1).sigma_data
    b = estimate_sigma_data(fs2).sigma_data
    assert abs(a - b) <= 1e-9


@pytest.mark.parametrize("shape", [(2, 3), (2100, 64), (1000, 1000)])
@pytest.mark.parametrize("center", [False, True], ids=["pooled", "centred"])
def test_sigma_data_of_one_chunk_is_the_np_std_formula_bit_for_bit(shape, center):
    feats = (np.random.default_rng(1).standard_normal(shape) * 2.5 + 0.7).astype(np.float32)
    x = feats.astype(np.float64)
    stats = estimate_sigma_data(FeatureSet(feats, []), center=center)
    if center:
        means = x.mean(axis=0)
        assert np.array_equal(stats.center, means.astype(np.float32))
        x = x - means
    assert stats.sigma_data == float(np.std(x))


@pytest.mark.parametrize("chunk", [7, 1000, 2**14])
@pytest.mark.parametrize("center", [False, True], ids=["pooled", "centred"])
def test_sigma_data_over_many_chunks_agrees_to_1e_12(monkeypatch, chunk, center):
    """At most `chunk` elements per chunk (at least one 64-value row):
    64, 15 and 256 rows of the 3000."""
    feats = (np.random.default_rng(2).standard_normal((3000, 64)) * 2.5
             + np.linspace(-4, 9, 64)).astype(np.float32)
    want = estimate_sigma_data(FeatureSet(feats, []), center=center)
    monkeypatch.setattr(data, "_STAT_CHUNK", chunk)
    got = estimate_sigma_data(FeatureSet(feats, []), center=center)
    assert abs(got.sigma_data - want.sigma_data) <= 1e-12 * want.sigma_data
    if center:
        assert np.allclose(got.center, want.center, rtol=1e-6, atol=0)


def test_sigma_data_peak_heap_is_one_chunk_on_a_mapped_file(mapped_64_mib, peak_heap):
    """On 64 MiB of mapped float32 features the heap holds one float64 chunk
    of at most _STAT_CHUNK values (8 MiB) at a time, against 256 MiB for
    a float64 copy of the matrix and np.std's temporary."""
    fs = load_features(*mapped_64_mib)
    for center in (False, True):
        stats, peak = peak_heap(lambda: estimate_sigma_data(fs, center=center))
        assert peak < 1.25 * 8 * data._STAT_CHUNK, (center, peak / 2**20)
        assert 0.9 < stats.sigma_data < 3.5


def test_sigma_data_rejects_degenerate():
    feats = np.zeros((4, 3), dtype=np.float32)
    fs = FeatureSet(feats, [VideoRecord("a", 64, 0, 4)])
    with pytest.raises(DataError, match=r"degenerate \(pooled standard deviation 0\.0\)"):
        estimate_sigma_data(fs)
    one = FeatureSet(np.ones((1, 3), dtype=np.float32), [VideoRecord("a", 16, 0, 1)])
    with pytest.raises(DataError):
        estimate_sigma_data(one)


# --- batching ---------------------------------------------------------------------------
# fit slices one permutation of the rows per epoch.  Row i holds the value i, so
# each batch that dsm_loss receives names its rows.

def fit_batches(monkeypatch, n, batch_size, seed, epochs=1):
    x = np.repeat(np.arange(n, dtype=np.float32)[:, None], 6, axis=1)
    seen = []

    def recording(params, p, batch, *args, **kwargs):
        seen.append(batch[:, 0].astype(int).tolist())
        return dsm_loss(params, p, batch, *args, **kwargs)

    monkeypatch.setattr(training, "dsm_loss", recording)
    net = NetworkConfig(input_dim=6, encoder_widths=(8, 4), decoder_widths=(4, 8), embed_dim=8)
    fit(x, init_params(net, Rng(1), dtype=np.float32), Preconditioner(4.0),
        TrainConfig(epochs=epochs, batch_size=batch_size), TrainNoiseConfig(), Rng(seed))
    return seen


def test_batches_shape_and_tail(monkeypatch):
    batches = fit_batches(monkeypatch, 10, 4, seed=7, epochs=3)
    assert [len(b) for b in batches] == [4, 4, 2] * 3


def test_batches_partition_property(monkeypatch):
    for n, bs in [(1, 1), (7, 3), (100, 100), (5, 8)]:
        batches = fit_batches(monkeypatch, n, bs, seed=1, epochs=2)
        per_epoch = -(-n // bs)
        assert len(batches) == 2 * per_epoch
        epochs = [sum(batches[i : i + per_epoch], []) for i in (0, per_epoch)]
        assert all(sorted(rows) == list(range(n)) for rows in epochs)
        assert all(len(b) <= bs for b in batches)
    epochs = [sum(fit_batches(monkeypatch, 50, 8, seed=1, epochs=2)[i : i + 7], [])
              for i in (0, 7)]
    assert epochs[0] != epochs[1]  # each epoch draws its own order


def test_batches_shuffle_determinism(monkeypatch):
    a = fit_batches(monkeypatch, 50, 8, seed=9, epochs=2)
    assert fit_batches(monkeypatch, 50, 8, seed=9, epochs=2) == a
    assert a != fit_batches(monkeypatch, 50, 8, seed=10, epochs=2)


# --- synthetic corpus --------------------------------------------------------------------

def test_synth_shapes_and_label_totals():
    cfg = SynthConfig(n_normal=300, n_anomalous=60, dim=8, shift=3.0, seed=0)
    fs = synth_generate(cfg)
    assert fs.features.shape == (360, 8)
    assert fs.features.dtype == np.float32
    assert validate_manifest(fs.manifest, fs.segment_len) == 360
    seg_label_sum = 0
    for rec in fs.manifest:
        assert rec.labels is not None
        # frame labels are constant inside each 16-frame segment
        arr = np.asarray(rec.labels)
        for s in range(rec.segment_count):
            chunk = arr[s * 16 : (s + 1) * 16]
            assert chunk.min() == chunk.max()
            seg_label_sum += int(chunk[0])
    assert seg_label_sum == 60


def test_synth_zero_shift_labels_remain():
    cfg = SynthConfig(n_normal=200, n_anomalous=40, dim=4, shift=0.0, seed=1)
    fs = synth_generate(cfg)
    total = sum(int(np.asarray(r.labels)[::16].sum()) for r in fs.manifest)
    assert total == 40


def test_synth_shift_moves_anomalous_mean():
    cfg = SynthConfig(n_normal=4000, n_anomalous=800, dim=16, shift=3.0, seed=2)
    fs = synth_generate(cfg)
    flags = np.concatenate(
        [np.asarray(r.labels)[::16][: r.segment_count] for r in fs.manifest]
    ).astype(bool)
    assert flags.sum() == 800
    normal_mean = fs.features[~flags].mean(axis=0)
    anom_mean = fs.features[flags].mean(axis=0)
    gap = np.linalg.norm(anom_mean - normal_mean)
    assert abs(gap - 3.0) <= 0.25
    assert np.abs(normal_mean).max() <= 0.1


def test_synth_seed_determinism():
    a = synth_generate(SynthConfig(n_normal=100, n_anomalous=20, dim=4, seed=7))
    b = synth_generate(SynthConfig(n_normal=100, n_anomalous=20, dim=4, seed=7))
    c = synth_generate(SynthConfig(n_normal=100, n_anomalous=20, dim=4, seed=8))
    assert np.array_equal(a.features, b.features)
    assert [r.video_id for r in a.manifest] == [r.video_id for r in b.manifest]
    assert not np.array_equal(a.features, c.features)


def test_synth_features_independent_of_label_bookkeeping():
    # the per-row features depend only on each row's class, drawn from two
    # dedicated streams, so the interleaving layout cannot leak into values
    cfg = SynthConfig(n_normal=50, n_anomalous=10, dim=4, seed=3)
    fs = synth_generate(cfg)
    flags = np.concatenate(
        [np.asarray(r.labels)[::16][: r.segment_count] for r in fs.manifest]
    ).astype(bool)
    normal_rows = fs.features[~flags]
    rng = Rng(3)
    expected_normal = rng.split("normal-features").standard_normal((50, 4)).astype(np.float32)
    assert np.array_equal(np.sort(normal_rows, axis=0), np.sort(expected_normal, axis=0))


def test_synth_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_normal=10, n_anomalous=20)
    with pytest.raises(ValueError):
        SynthConfig(n_normal=0, n_anomalous=0)
    with pytest.raises(ValueError):
        SynthConfig(dim=0)
