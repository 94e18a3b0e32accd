"""Feature files, manifests, data statistics, batching, synthetic data.

Feature vectors live in a flat binary file (magic "VADF") holding one
float32 row per video segment.  A separate JSON manifest maps contiguous
segment ranges back to videos and carries optional per-frame 0/1 labels.
Labels are consumed exclusively by evaluation; training and scoring never
look at them.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .rng import Rng

SEGMENT_LEN = 16

_MAGIC = b"VADF"
_VERSION = 1


class DataError(ValueError):
    """Malformed or inconsistent feature file / manifest."""


@dataclass
class VideoRecord:
    video_id: str
    frame_count: int
    segment_offset: int
    segment_count: int
    labels: np.ndarray | None = None  # per-frame 0/1; evaluation only


@dataclass
class FeatureSet:
    features: np.ndarray  # (n_segments, dim) float32
    manifest: list[VideoRecord]
    segment_len: int = SEGMENT_LEN


@dataclass
class DataStats:
    sigma_data: float
    center: np.ndarray | None = None  # per-dimension means when centering is on


def validate_manifest(manifest: list[VideoRecord], segment_len: int) -> int:
    """Per-video consistency checks; returns the total segment count.

    Raises DataError naming the offending video.
    """
    if segment_len < 1:
        raise DataError(f"segment_len must be >= 1, got {segment_len}")
    offset = 0
    for rec in manifest:
        if rec.segment_offset != offset:
            raise DataError(
                f"video {rec.video_id!r}: segment_offset {rec.segment_offset}, expected {offset}"
            )
        expected = math.ceil(rec.frame_count / segment_len)
        if rec.segment_count != expected:
            raise DataError(
                f"video {rec.video_id!r}: {rec.frame_count} frames need {expected} "
                f"segments of {segment_len}, manifest says {rec.segment_count}"
            )
        if rec.labels is not None:
            labels = np.asarray(rec.labels)
            if labels.shape != (rec.frame_count,):
                raise DataError(
                    f"video {rec.video_id!r}: {labels.shape[0]} labels for {rec.frame_count} frames"
                )
            if not ((labels == 0) | (labels == 1)).all():
                raise DataError(f"video {rec.video_id!r}: labels must be 0 or 1")
        offset += rec.segment_count
    return offset


def validate(fs: FeatureSet) -> None:
    """Checks manifest/feature consistency; raises DataError naming the video."""
    total = validate_manifest(fs.manifest, fs.segment_len)
    n = fs.features.shape[0]
    if total != n:
        raise DataError(f"manifest covers {total} segments, feature file holds {n}")


def save_features(features_path, manifest_path, fs: FeatureSet) -> None:
    validate(fs)
    arr = np.ascontiguousarray(fs.features, dtype="<f4")
    with open(features_path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<HIQ", _VERSION, arr.shape[1], arr.shape[0]))
        fh.write(arr.tobytes())
    videos = []
    for rec in fs.manifest:
        entry = {
            "video_id": rec.video_id,
            "frame_count": rec.frame_count,
            "segment_offset": rec.segment_offset,
            "segment_count": rec.segment_count,
        }
        if rec.labels is not None:
            entry["labels"] = [int(v) for v in rec.labels]
        videos.append(entry)
    doc = {"version": _VERSION, "segment_len": fs.segment_len, "videos": videos}
    with open(manifest_path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _field(entry: dict, key: str, kind: type, where: str):
    """entry[key], which must be present and of exactly the JSON type `kind`."""
    if key not in entry:
        raise DataError(f"{where}: missing key {key!r}")
    value = entry[key]
    if type(value) is not kind:
        raise DataError(f"{where}: {key} must be {_JSON_TYPES[kind]}, got {_json_type(value)}")
    return value


def _video_record(i: int, entry) -> VideoRecord:
    """Manifest entry i, checked for its keys and their JSON types."""
    where = f"manifest video {i}"
    if type(entry) is not dict:
        raise DataError(f"{where}: expected an object, got {_json_type(entry)}")
    labels = None
    if entry.get("labels") is not None:
        raw = _field(entry, "labels", list, where)
        try:
            labels = np.asarray(raw, dtype=np.int8)
        except (TypeError, ValueError, OverflowError):
            raise DataError(f"{where}: labels must be an array of 0/1 integers") from None
    return VideoRecord(
        video_id=_field(entry, "video_id", str, where),
        frame_count=_field(entry, "frame_count", int, where),
        segment_offset=_field(entry, "segment_offset", int, where),
        segment_count=_field(entry, "segment_count", int, where),
        labels=labels,
    )


def load_manifest(manifest_path) -> tuple[list[VideoRecord], int]:
    """(video records, segment_len) from a manifest JSON file.

    Every structural fault (wrong JSON type, missing key) raises DataError
    naming the video index and the key; the checks run once per video,
    not per frame.  The records' consistency (offsets, segment counts,
    labels) is checked once by the stage that uses them: load_features
    through validate, evaluate through validate_manifest.
    """
    with open(manifest_path) as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise DataError(f"manifest is not valid JSON: {e}") from e
    if type(doc) is not dict:
        raise DataError(f"manifest must be a JSON object, got {_json_type(doc)}")
    if doc.get("version") != _VERSION:
        raise DataError(f"unsupported manifest version {doc.get('version')!r}")
    videos = _field(doc, "videos", list, "manifest")
    manifest = [_video_record(i, entry) for i, entry in enumerate(videos)]
    segment_len = doc.get("segment_len", SEGMENT_LEN)
    if type(segment_len) is not int or segment_len < 1:
        raise DataError(f"manifest segment_len must be a positive integer, got {segment_len!r}")
    return manifest, segment_len


def load_features(features_path, manifest_path) -> FeatureSet:
    with open(features_path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise DataError(f"bad feature file magic {magic!r}")
        header = fh.read(struct.calcsize("<HIQ"))
        if len(header) != struct.calcsize("<HIQ"):
            raise DataError("truncated feature file: incomplete header")
        version, dim, count = struct.unpack("<HIQ", header)
        if version != _VERSION:
            raise DataError(f"unsupported feature file version {version}")
        if dim < 1:
            raise DataError(f"feature file declares dim {dim}")
        # checked against the file size first, so a corrupt count cannot
        # ask for an allocation larger than the file
        available = os.fstat(fh.fileno()).st_size - fh.tell()
        if available < 4 * dim * count:
            raise DataError(
                f"truncated feature file: expected {count} rows of {dim}, "
                f"got {available // 4} values"
            )
        features = np.fromfile(fh, dtype="<f4", count=dim * count).reshape(count, dim)

    manifest, segment_len = load_manifest(manifest_path)
    fs = FeatureSet(features, manifest, segment_len=segment_len)
    validate(fs)
    return fs


def estimate_sigma_data(fs: FeatureSet, center: bool = False) -> DataStats:
    """Pooled scalar standard deviation of every feature entry.

    With centering on, per-dimension means are recorded and the deviation
    is measured around them; downstream callers must subtract the same
    means before training and scoring.
    """
    x = np.asarray(fs.features, dtype=np.float64)
    if x.shape[0] < 2:
        raise DataError(f"need at least 2 segments to estimate spread, got {x.shape[0]}")
    means = None
    if center:
        means = x.mean(axis=0)
        x = x - means
    sigma = float(np.std(x))  # population (divide-by-N) over all entries
    if sigma <= 0 or not np.isfinite(sigma):
        raise DataError("features are degenerate (zero pooled standard deviation)")
    return DataStats(sigma_data=sigma, center=means)


def make_batches(n: int, batch_size: int, shuffle: bool, rng: Rng | None = None):
    """Partition 0..n-1 into batches; the final one may be short."""
    if n < 1 or batch_size < 1:
        raise ValueError(f"need n >= 1 and batch_size >= 1, got ({n}, {batch_size})")
    if shuffle:
        if rng is None:
            raise ValueError("shuffled batching needs an rng")
        order = rng.permutation(n)
    else:
        order = np.arange(n)
    return [order[lo : lo + batch_size] for lo in range(0, n, batch_size)]


@dataclass(frozen=True)
class SynthConfig:
    n_normal: int = 20000
    n_anomalous: int = 1000
    dim: int = 64
    shift: float = 3.0  # Euclidean distance between the two cluster means
    seed: int = 0
    segment_len: int = SEGMENT_LEN

    def __post_init__(self):
        if self.n_normal < 1 or self.n_anomalous < 0:
            raise ValueError("need n_normal >= 1 and n_anomalous >= 0")
        if self.n_normal < self.n_anomalous:
            raise ValueError("anomalies must not outnumber normal segments")
        if self.dim < 1 or self.segment_len < 1:
            raise ValueError("dim and segment_len must be >= 1")
        if self.shift < 0:
            raise ValueError(f"shift must be >= 0, got {self.shift}")


def synth_generate(cfg: SynthConfig) -> FeatureSet:
    """Two Gaussian clusters arranged into pseudo-videos.

    Normal segments come from N(0, I); anomalous ones from an isotropic
    cluster whose mean sits `shift` away in Euclidean norm.  Anomalous
    segments appear as short runs embedded between longer normal runs,
    and a third of the videos end partway through their last segment so
    frame-count truncation is always exercised.  Features are drawn from
    streams separate from the layout stream, so the label arrangement
    never influences the feature values.
    """
    rng = Rng(cfg.seed)
    normal = rng.split("normal-features").standard_normal(
        (cfg.n_normal, cfg.dim), dtype=np.float64
    )
    offset = cfg.shift / math.sqrt(cfg.dim)
    anomalous = (
        rng.split("anomaly-features").standard_normal((cfg.n_anomalous, cfg.dim), dtype=np.float64)
        + offset
    )
    layout = rng.split("layout")

    # Interleave runs: long normal stretches with short anomalous bursts.
    flags = np.zeros(cfg.n_normal + cfg.n_anomalous, dtype=bool)
    pos = 0
    left_n, left_a = cfg.n_normal, cfg.n_anomalous
    while left_n or left_a:
        if left_n:
            run = min(int(layout.integers(5, 31)), left_n)
            pos += run
            left_n -= run
        if left_a:
            run = min(int(layout.integers(1, 9)), left_a)
            flags[pos : pos + run] = True
            pos += run
            left_a -= run

    features = np.empty((flags.size, cfg.dim), dtype=np.float32)
    features[~flags] = normal.astype(np.float32)
    features[flags] = anomalous.astype(np.float32)

    manifest = []
    pos = 0
    vid = 0
    total = flags.size
    while pos < total:
        count = min(int(layout.integers(8, 41)), total - pos)
        frame_count = count * cfg.segment_len
        if layout.integers(0, 3) == 0 and cfg.segment_len > 1:
            frame_count -= int(layout.integers(1, cfg.segment_len))
        seg_labels = flags[pos : pos + count].astype(np.int8)
        labels = np.repeat(seg_labels, cfg.segment_len)[:frame_count]
        manifest.append(
            VideoRecord(
                video_id=f"video{vid:04d}",
                frame_count=frame_count,
                segment_offset=pos,
                segment_count=count,
                labels=labels,
            )
        )
        pos += count
        vid += 1

    fs = FeatureSet(features, manifest, segment_len=cfg.segment_len)
    validate(fs)
    return fs


def strip_labels(fs: FeatureSet) -> FeatureSet:
    """The same FeatureSet with every label array removed."""
    manifest = [
        VideoRecord(r.video_id, r.frame_count, r.segment_offset, r.segment_count, None)
        for r in fs.manifest
    ]
    return FeatureSet(fs.features, manifest, fs.segment_len)
