"""Feature files, manifests, data statistics, synthetic data.

Feature vectors live in a .npy file (version 1.0) of one float32 row per
video segment, which load_features maps and returns as a read-only view.
A separate JSON manifest maps contiguous segment ranges back to videos
and carries optional per-frame 0/1 labels, JSON integers (true and false
read as 1 and 0), loaded as int8 arrays.  Labels are consumed
exclusively by evaluation; training and scoring never look at them.  The
data statistics come back as the network's Preconditioner, the record
training and scoring share.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .files import map_file, read_npy_header, replacing
from .network import Preconditioner
from .rng import Rng

SEGMENT_LEN = 16
_VIDEO_SEGS = 40  # segments in the longest synthetic video

_MANIFEST_VERSION = 1
_STAT_CHUNK = 2**20  # float64 elements per row chunk of estimate_sigma_data
_LABEL_GROUP = 2**18  # frame labels checked or counted at once


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


def label_groups(arrays):
    """(first index, group) for the concatenation of `arrays` in consecutive
    groups of _LABEL_GROUP to 2 * _LABEL_GROUP elements, the last one
    shorter: short arrays are joined and long ones cut, so a group's size
    does not grow with the arrays'."""
    parts, size, start = [], 0, 0
    for a in arrays:
        for piece in (a,) if a.size <= _LABEL_GROUP else (
                a[at : at + _LABEL_GROUP] for at in range(0, a.size, _LABEL_GROUP)):
            parts.append(piece)
            size += piece.size
            if size >= _LABEL_GROUP:
                yield start, np.concatenate(parts)
                parts, size, start = [], 0, start + size
    if parts:
        yield start, np.concatenate(parts)


def validate_manifest(manifest: list[VideoRecord], segment_len: int) -> int:
    """Per-video consistency checks; returns the total segment count.

    Raises DataError naming the offending video, or a segment_len outside
    [1, 2**63).  The label values are checked after every per-video check,
    across videos in label_groups, so the check's arrays do not grow with
    the frame count.
    """
    if not 1 <= segment_len < 2**63:
        raise DataError(f"segment_len {segment_len} is not in [1, 2**63)")
    offset = 0
    labelled, labels_of = [], []  # the videos with labels, and their labels
    for rec in manifest:
        if rec.segment_offset != offset:
            raise DataError(
                f"video {rec.video_id!r}: segment_offset {rec.segment_offset}, expected {offset}"
            )
        expected = -(-rec.frame_count // segment_len)  # exact at any size, unlike a float
        if rec.segment_count != expected:
            raise DataError(
                f"video {rec.video_id!r}: {rec.frame_count} frames need {expected} "
                f"segments of {segment_len}, manifest says {rec.segment_count}"
            )
        if rec.labels is not None:
            labels = np.asarray(rec.labels)
            if labels.shape != (rec.frame_count,):
                raise DataError(f"video {rec.video_id!r}: labels of shape {labels.shape} "
                                f"for {rec.frame_count} frames")
            if labels.dtype.kind not in "biufO":  # no common type with numbers
                raise DataError(f"video {rec.video_id!r}: labels must be 0 or 1")
            labelled.append(rec)
            labels_of.append(labels)
        offset += rec.segment_count
    for start, group in label_groups(labels_of):
        bad = group != 0
        bad &= group != 1
        if bad.any():
            ends = np.cumsum([a.size for a in labels_of])
            v = int(np.searchsorted(ends, start + np.argmax(bad), side="right"))
            raise DataError(f"video {labelled[v].video_id!r}: labels must be 0 or 1")
    return offset


def validate(fs: FeatureSet) -> None:
    """Checks manifest/feature consistency; raises DataError naming the video."""
    total = validate_manifest(fs.manifest, fs.segment_len)
    n = fs.features.shape[0]
    if total != n:
        raise DataError(f"manifest covers {total} segments, feature file holds {n}")


def save_features(features_path, manifest_path, fs: FeatureSet) -> None:
    """Write the feature file and its manifest, each replacing its path
    whole (files.replacing), so a live map of an old file keeps its bytes.

    The feature file is np.save's output for the rows as a C-order <f4
    array: a version 1.0 .npy header padded to a multiple of 64 bytes,
    then the rows.  The manifest is one line of JSON from one json.dumps
    call (the C encoder) with no space after a separator, labels as JSON
    integers 0/1: load_manifest decodes the whole text into one str, so
    every byte saved there is heap that eval does not take.
    """
    validate(fs)
    arr = np.ascontiguousarray(fs.features, dtype="<f4")
    with replacing(features_path) as fh:
        np.lib.format.write_array(fh, arr)
    videos = []
    for rec in fs.manifest:
        entry = {key: getattr(rec, key) for key in _VIDEO_KEYS}
        if rec.labels is not None:
            entry["labels"] = np.asarray(rec.labels, dtype=np.int8).tolist()
        videos.append(entry)
    doc = {"version": _MANIFEST_VERSION, "segment_len": fs.segment_len, "videos": videos}
    with replacing(manifest_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, separators=(",", ":")))
        fh.write("\n")


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _field(entry: dict, key: str, kind: type, where: str):
    """entry[key], which must be present and of exactly the JSON type `kind`;
    an integer must lie in [0, 2**63), the range of a non-negative int64."""
    if key not in entry:
        raise DataError(f"{where}: missing key {key!r}")
    value = entry[key]
    if type(value) is not kind:
        raise DataError(f"{where}: {key} must be {_JSON_TYPES[kind]}, got {_json_type(value)}")
    if kind is int and not 0 <= value < 2**63:
        raise DataError(f"{where}: {key} {value} is not in [0, 2**63)")
    return value


# a manifest video's keys besides its labels, in the order they are checked
_VIDEO_KEYS = {"video_id": str, "frame_count": int, "segment_offset": int, "segment_count": int}


def _video_record(i: int, entry) -> VideoRecord:
    """Manifest entry i, checked for its keys and their JSON types."""
    where = f"manifest video {i}"
    if type(entry) is not dict:
        raise DataError(f"{where}: expected an object, got {_json_type(entry)}")
    labels = entry.get("labels")  # int8 already, unless _int8_labels could not convert it
    if labels is not None and type(labels) is not np.ndarray:
        _field(entry, "labels", list, where)
        raise DataError(f"{where}: labels must be an array of 0/1 integers")
    fields = {key: _field(entry, key, kind, where) for key, kind in _VIDEO_KEYS.items()}
    return VideoRecord(**fields, labels=labels)


def _int8_labels(obj: dict) -> dict:
    """json object_hook: a "labels" array becomes int8 as its object is
    parsed, so one video's labels at a time are Python ints.  The array
    owns its bytes: the bytearray it is read from is dropped at once."""
    raw = obj.get("labels")
    if type(raw) is list:
        # in C: a string, float, null, array or value outside 0-255 raises,
        # and the list stays for _video_record to reject
        with contextlib.suppress(TypeError, ValueError):
            obj["labels"] = np.frombuffer(bytearray(raw), dtype=np.int8).copy()
    return obj


def load_manifest(manifest_path) -> tuple[list[VideoRecord], int]:
    """(video records, segment_len) from a manifest JSON file, in one line
    or indented.

    Each video's labels become an int8 array that owns its bytes as the
    parser finishes that video, so the records hold the labels once, at
    one byte per frame.  A version other than the JSON integer 1 raises
    DataError, and so does every structural fault (wrong JSON type, missing
    key, a count or offset outside [0, 2**63)), naming the video index and
    the key; the checks run once per video, not per frame.
    The records' consistency (offsets, segment counts, labels) is checked
    once by the stage that uses them: load_features through validate,
    evaluate through validate_manifest.  The text is decoded as UTF-8 from
    a map of the file into one str, the largest allocation of `vadiff eval`,
    which is why save_features writes it without spaces.
    """
    try:
        doc = json.loads(str(map_file(manifest_path), "utf-8"), object_hook=_int8_labels)
    # a JSONDecodeError, a UnicodeDecodeError, or an integer longer than
    # Python's digit limit for int conversion (4300 by default)
    except ValueError as e:
        raise DataError(f"manifest is not valid JSON: {e}") from e
    if type(doc) is not dict:
        raise DataError(f"manifest must be a JSON object, got {_json_type(doc)}")
    if type(version := doc.get("version")) is not int or version != _MANIFEST_VERSION:
        raise DataError(f"unsupported manifest version {version!r}")
    videos = _field(doc, "videos", list, "manifest")
    manifest = [_video_record(i, entry) for i, entry in enumerate(videos)]
    segment_len = doc.get("segment_len", SEGMENT_LEN)
    if type(segment_len) is not int or segment_len < 1:
        raise DataError(f"manifest segment_len must be a positive integer, got {segment_len!r}")
    return manifest, segment_len


def load_features(features_path, manifest_path) -> FeatureSet:
    """The feature file and its manifest, checked against each other.

    The features are a read-only float32 view of a map of the file, not a
    copy: they cost no heap, and stay valid however the path is later
    rewritten by save_features.  numpy reads the .npy header from the same
    map; it must be a Python literal, not a Python 2 one, and declare
    C-order <f4 rows of dim >= 1 that the file holds.
    """
    buf = map_file(features_path)
    shape, fortran, dtype, at = read_npy_header(buf, DataError, "feature file")
    if dtype != "<f4" or fortran or len(shape) != 2 or shape[0] < 0 or shape[1] < 1:
        raise DataError(f"feature file holds a {'Fortran' if fortran else 'C'}-order {dtype} "
                        f"array of shape {shape}, not C-order float32 rows (segments, dim >= 1)")
    count, dim = shape
    if len(buf) < at + 4 * dim * count:
        raise DataError(f"truncated feature file: expected {count} rows of {dim}, "
                        f"got {(len(buf) - at) // 4} values")
    features = np.frombuffer(buf, "<f4", dim * count, at).reshape(count, dim)

    manifest, segment_len = load_manifest(manifest_path)
    fs = FeatureSet(features, manifest, segment_len=segment_len)
    validate(fs)
    # a NaN or inf makes its row's float64 sum non-finite; the sums take
    # one value per row, not a matrix-sized temporary
    with np.errstate(invalid="ignore"):
        finite = np.isfinite(features.sum(axis=1, dtype=np.float64))
    if not finite.all():
        row = int(np.argmin(finite))
        rec = next(r for r in manifest if row < r.segment_offset + r.segment_count)
        raise DataError(f"video {rec.video_id!r}, segment {row - rec.segment_offset}: "
                        f"non-finite feature value")
    return fs


def estimate_sigma_data(fs: FeatureSet, center: bool = False) -> Preconditioner:
    """The preconditioner of the features: sigma_data is the pooled scalar
    standard deviation of every feature entry.

    With centering on, the deviation is measured around the per-dimension
    means, and the record carries those means (as float32), which fit and
    score_dataset subtract from each batch.

    The passes are np.std's, over float64 copies of row chunks of at most
    _STAT_CHUNK elements (one row if a row is longer): the per-dimension
    means if centring, then the mean, then the squared deviations.  So the
    heap holds one chunk at a time, not a float64 copy of the matrix.
    Features that fit in one chunk get np.std's bits; beyond that the
    chunk sums add in order, which agrees to about 1e-12 relative.
    """
    x = np.asarray(fs.features)
    n, dim = x.shape
    if n < 2:
        raise DataError(f"need at least 2 segments to estimate spread, got {n}")
    rows = max(1, _STAT_CHUNK // max(dim, 1))

    def total(part, *shifts):
        """The sum over row chunks of part(chunk), each chunk in float64
        less each shift that is not None, in turn."""
        acc = None
        for r in range(0, n, rows):
            c = x[r : r + rows].astype(np.float64)
            for shift in shifts:
                if shift is not None:
                    c -= shift
            value = part(c)
            del c  # before the next chunk is made: one chunk at a time
            acc = value if acc is None else acc + value
        return acc

    means = total(lambda c: c.sum(axis=0)) / n if center else None
    mean = total(np.sum, means) / (n * dim)
    squares = total(lambda c: np.square(c, out=c).sum(), means, mean)
    sigma = float(np.sqrt(squares / (n * dim)))  # population (divide-by-N) over all entries
    if sigma <= 0 or not np.isfinite(sigma):
        raise DataError(f"features are degenerate (pooled standard deviation {sigma})")
    return Preconditioner(sigma, means)


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
            raise ValueError(f"dim and segment_len must be >= 1, "
                             f"got ({self.dim}, {self.segment_len})")
        if _VIDEO_SEGS * self.segment_len >= 2**63:  # a video's frame count must fit int64
            raise ValueError(f"segment_len must be < 2**63 / {_VIDEO_SEGS}, got {self.segment_len}")
        if not 0 <= self.shift / math.sqrt(self.dim) <= float(np.finfo(np.float32).max):
            raise ValueError(f"shift must be >= 0 with shift / sqrt(dim) finite in float32, "
                             f"got {self.shift}")


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
        count = min(int(layout.integers(8, _VIDEO_SEGS + 1)), total - pos)
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
