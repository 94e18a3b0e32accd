"""Per-batch anomaly decisions from reconstruction error.

Each segment is centred as the preconditioner says, partially noised
with its own rows of one noise stream, reconstructed through the reverse
process, and scored by its mean squared error.  Batches, ranges of
consecutive segments in manifest order, only set the decision threshold,
which is data-driven and batch-local: l_th = mu_p + k * sigma_p over the
batch's own losses, with strictly-greater comparison for the abnormal
flag.  Raw MSE doubles as the continuous score for ROC
evaluation; k moves only the flags.
`DatasetScores` is the one record of a scoring run: per segment its
score, flag, batch and threshold (the score CSV's columns), and per
batch the (mu_p, sigma_p) pair, from which the flags at any other k
follow without rescoring.
"""

from __future__ import annotations

import csv
import sys
import warnings
from dataclasses import dataclass
from functools import partial
from itertools import repeat

import numpy as np

from .data import DataError, FeatureSet
from .files import map_file, replacing
from .network import DenoiserParams, Preconditioner, as_denoiser
from .rng import Rng
from .sampling import lms_sample


@dataclass(frozen=True)
class ScoringConfig:
    start_index: int  # schedule index of the corruption level; score_dataset checks its range
    k: float = 1.0
    batch_size: int = 8192

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if not np.isfinite(self.k):
            raise ValueError(f"k must be finite, got {self.k}")


def batch_threshold(losses: np.ndarray, k: float) -> tuple[float, float, float]:
    """(mu_p, sigma_p, l_th) with population (divide-by-N) deviation."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.ndim != 1 or losses.size < 2:
        raise ValueError(f"need at least 2 losses, got shape {losses.shape}")
    mu = float(np.mean(losses))
    sigma = float(np.sqrt(np.mean((losses - mu) ** 2)))
    return mu, sigma, mu + k * sigma


# The most rows one sampling chain integrates at once, so that the sampler's
# heap does not grow with the row count.  n rows run as ceil(n / _BLOCK)
# blocks (np.array_split: sizes one row apart, the larger first), so above
# _BLOCK rows no block is below _BLOCK / 2: rows enough to keep GEMM
# efficient, and for OpenBLAS to give each row the bits it gets in one
# pass over all rows.
_BLOCK = 512

_NOISE_STREAM = "batch0"  # the label batch 0's own stream had: one-batch runs keep their scores


def _noised_start(noise: Rng, block: np.ndarray, sigmas: np.ndarray, t: int, dtype):
    """The displacement eps * sigmas[t] from block, eps standard normal,
    drawn and scaled in float64 and cast once to dtype (a float64 start is
    not copied); one beyond dtype's range raises FloatingPointError naming
    the level."""
    start = noise.standard_normal(block.shape, dtype=np.float64)
    start *= sigmas[t]
    try:
        with np.errstate(over="raise"):
            return start.astype(dtype, copy=False)
    except FloatingPointError:
        raise FloatingPointError(
            f"the noised start at sigmas[{t}] = {sigmas[t]:g} overflows {np.dtype(dtype)}: "
            "lower --sigma-max or raise --start-t") from None


@dataclass
class DatasetScores:
    mse: np.ndarray        # (n_segments,) continuous scores
    flags: np.ndarray      # (n_segments,) bool
    batch_ids: np.ndarray  # (n_segments,) int
    l_th: np.ndarray       # (n_segments,) threshold of the segment's batch
    batch_stats: list[tuple[float, float]]  # (mu_p, sigma_p) per batch, in batch-id order


def score_dataset(params: DenoiserParams, p: Preconditioner, sigmas: np.ndarray,
                  cfg: ScoringConfig, fs: FeatureSet, rng: Rng) -> DatasetScores:
    """Score every segment, then threshold it within its batch of
    consecutive rows in manifest order.

    The rows are reconstructed in ceil(n / _BLOCK) blocks of consecutive
    rows, each a view of fs.features, or a copy centred by p.center, if
    set, the same way fit centres its batches.  Every block draws its noise
    in turn from one stream split off `rng`, so each segment's noise is its
    own rows of that stream, and its loss depends neither on the batch size
    nor on where its batch starts.
    The corruption is additive, x + eps * sigmas[t] with standard normal
    eps and t = cfg.start_index, so t close to the end of the grid perturbs
    only slightly; LMS integration from sigmas[t] back to 0 reconstructs it.
    eps * sigmas[t] is drawn and formed in float64, then cast once to the
    weights' dtype.  The ODE state is that displacement from the clean
    block, and the denoiser is taken about the block (network.denoise's
    `base`), so the state and the skip path run in the weights' dtype and
    the state ends as the reconstruction error itself, whose mean square,
    reduced in float64, is the loss.  A float32 noised block would round
    the block by about 6e-8 of its scale, which at a late start is the
    scale of the reconstruction error itself; the displacement keeps the
    error at float32's relative precision.  A start that overflows the
    dtype raises FloatingPointError naming the level, and a non-finite loss
    raises FloatingPointError at the block that gave it.
    Each batch gets its own mu_p / sigma_p, reduced in float64; a final
    short batch too, unless it holds a single row: a threshold needs at
    least two losses, so a one-row tail joins the batch before it.
    """
    t = cfg.start_index
    if not 0 <= t < len(sigmas) - 1:
        raise ValueError(f"start_index must lie in [0, {len(sigmas) - 2}], got {t}")
    x = fs.features
    n = x.shape[0]
    if n < 2:
        raise DataError(f"scoring needs at least 2 segments, got {n}")
    noise, blocks = rng.split(_NOISE_STREAM), -(-n // _BLOCK)
    mse = np.empty(n, dtype=np.float64)
    denoiser = as_denoiser(params, p)  # its activation buffers serve every block
    for rows, out in zip(np.array_split(x, blocks), np.array_split(mse, blocks)):
        block = rows if p.center is None else rows - p.center
        # the state is the displacement from block: it ends as the error,
        # and no start or error outlives its block
        err = lms_sample(partial(denoiser, base=block),
                         _noised_start(noise, block, sigmas, t, params.dtype), sigmas,
                         start_index=t)
        out[:] = np.mean(np.square(err, dtype=np.float64), axis=1)
        del err
        if not np.isfinite(out).all():
            raise FloatingPointError("non-finite reconstruction loss")
    bounds = [*range(0, n - 1, cfg.batch_size), n]  # none at n - 1: no one-row tail
    stats = [batch_threshold(mse[lo:hi], cfg.k) for lo, hi in zip(bounds, bounds[1:])]
    sizes = np.diff(bounds)
    l_th = np.repeat([th for _, _, th in stats], sizes)
    return DatasetScores(mse, mse > l_th, np.repeat(np.arange(sizes.size), sizes), l_th,
                         [(mu_p, sigma_p) for mu_p, sigma_p, _ in stats])


_CSV_HEADER = ["video_id", "segment_index", "mse", "flagged", "batch_id", "l_th"]


def write_scores_csv(path, fs: FeatureSet, scores: DatasetScores) -> None:
    """One row per segment: video_id, index within the video, score, decision.
    The file replaces `path` whole (files.replacing), so a live map of an old
    one keeps its bytes, and a write that fails leaves it as it was."""
    with replacing(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for rec in fs.manifest:
            at = slice(rec.segment_offset, rec.segment_offset + rec.segment_count)
            writer.writerows(zip(repeat(rec.video_id), range(rec.segment_count),
                                 map(repr, scores.mse[at].tolist()),
                                 scores.flags[at].astype(int).tolist(),
                                 scores.batch_ids[at].tolist(),
                                 map(repr, scores.l_th[at].tolist())))


# the last three columns are zero-width: np.loadtxt counts them, stores nothing
_CSV_DTYPE = np.dtype([("video_id", object), ("segment_index", "i8"), ("mse", "f8"),
                       ("flagged", "S0"), ("batch_id", "S0"), ("l_th", "S0")])


def _raise_first_fault(path) -> None:
    """Rescan the score CSV row by row and raise DataError naming the first
    faulty line; returns if every row is well formed.

    Runs only after the fast parse in read_scores_csv failed or gave fewer
    rows than the body has lines, so a valid file never pays for it.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            next(reader)
            for row in reader:
                where = f"score CSV line {reader.line_num}"
                if len(row) != len(_CSV_HEADER):
                    raise DataError(f"{where}: expected {len(_CSV_HEADER)} fields, "
                                    f"got {row!r:.80}")
                for name, field, kind, noun in (("segment_index", row[1], int, "an int64 integer"),
                                                ("mse", row[2], float, "a number")):
                    # as np.loadtxt reads it: past the surrounding whitespace, ASCII
                    # without the underscores int and float take, and within int64
                    text = field.strip()
                    try:
                        value = kind(text) if text.isascii() and "_" not in text else None
                    except ValueError:
                        value = None
                    if value is None or kind is int and not -2**63 <= value < 2**63:
                        raise DataError(f"{where}: {name} {field!r:.40} is not {noun}")
        except csv.Error as e:
            raise DataError(f"score CSV line {reader.line_num}: {e}") from None
        except UnicodeDecodeError as e:
            raise DataError(f"score CSV is not valid text: {e}") from None


_SCAN = 2**18  # bytes per block of _line_count


def _line_count(buf, start) -> int:
    """How many lines buf[start:] holds, each ended by "\r\n", "\n" or "\r"
    (the last one perhaps by the end of the buffer), counted in blocks so
    that the temporaries stay small."""
    a = np.frombuffer(buf, np.uint8)
    n = 0
    for at in range(start, a.size, _SCAN):
        block = a[at : at + _SCAN + 1]  # and the byte after, for a "\r\n" across the edge
        lf, cr = block == 10, block == 13
        n += np.count_nonzero(lf[:_SCAN]) + np.count_nonzero(cr[:_SCAN])
        n -= np.count_nonzero(cr[:-1] & lf[1:])  # a "\r\n" ends one line, not two
    return n + (int(a[-1]) not in (10, 13))


def read_scores_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of a score CSV in file order, as three arrays: video ids,
    segment indices and scores (evaluation.join_scores puts them into
    manifest order).

    The header is checked with the csv module and the body is parsed in C
    by np.loadtxt; a body that fails that parse raises DataError naming the
    first faulty line.  Only the video_id, segment_index and mse columns are
    converted; the other three must be present but are not read, and are
    parsed into zero-width fields, so they cost no memory.  Each video id
    is interned as it is parsed, so all rows of a video share one str: the
    ids cost one pointer per row.  The header and the body's line count
    are read from a map of the file, which is never copied or decoded whole.
    """
    raw = map_file(path)
    ends = [at for at in (raw.find(b"\n"), raw.find(b"\r")) if at >= 0]
    end = min(ends, default=len(raw))  # the header's line end
    try:
        header = next(csv.reader([raw[:end].decode("utf-8")]))
    except UnicodeDecodeError as e:
        raise DataError(f"score CSV is not valid text: {e}") from None
    except csv.Error as e:
        raise DataError(f"score CSV line 1: {e}") from None
    if header != _CSV_HEADER:
        raise DataError(f"unexpected score CSV header {header!r:.200}")
    body = end + (2 if raw[end : end + 2] == b"\r\n" else 1)
    if body >= len(raw):
        rows = np.empty(0, dtype=_CSV_DTYPE)
        return rows["video_id"], rows["segment_index"], rows["mse"]
    lines = _line_count(raw, body)
    try:
        with warnings.catch_warnings():
            # numpy releases that parse an integer field such as "1.5"
            # through float warn instead of failing; fail on every release
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(path, dtype=_CSV_DTYPE, delimiter=",", quotechar='"',
                              comments=None, skiprows=1, ndmin=1, encoding="utf-8",
                              converters={0: sys.intern})
    except UnicodeDecodeError as e:
        raise DataError(f"score CSV is not valid text: {e}") from None
    except (ValueError, DeprecationWarning) as e:
        _raise_first_fault(path)
        raise DataError(f"malformed score CSV: {e}") from None
    # np.loadtxt skips empty lines, which the csv format reads as empty rows;
    # a line end inside a quoted id also leaves fewer rows than lines
    if rows.size != lines:
        _raise_first_fault(path)  # returns when every extra line end sits inside quotes
    return rows["video_id"], rows["segment_index"], rows["mse"]
