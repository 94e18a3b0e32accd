import argparse
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import pickle
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vadiff import (
    DatasetScores,
    FeatureSet,
    NetworkConfig,
    Preconditioner,
    Rng,
    ScheduleConfig,
    SynthConfig,
    TrainConfig,
    TrainNoiseConfig,
    init_params,
    load_features,
    param_count,
    read_scores_csv,
    save_checkpoint,
    save_features,
    synth_generate,
    VideoRecord,
    validate_manifest,
    write_scores_csv,
)
from vadiff import data, evaluation
from vadiff.cli import build_parser, main
from vadiff.sampling import MAX_STEPS


def run(*argv):
    return main(list(argv))


def make_data(tmp_path, n_normal=120, fraction=0.2, dim=6, seed=3, shift=3.0):
    tmp_path.mkdir(parents=True, exist_ok=True)
    f = tmp_path / "feat.vadf"
    m = tmp_path / "man.json"
    code = run(
        "synth", "--features", str(f), "--manifest", str(m),
        "--n-normal", str(n_normal), "--anomaly-fraction", str(fraction),
        "--dim", str(dim), "--seed", str(seed), "--shift", str(shift),
    )
    assert code == 0
    return f, m


def train_tiny(tmp_path, f, m, *extra):
    ck = tmp_path / "model.bin"
    code = run(
        "train", "--features", str(f), "--manifest", str(m),
        "--checkpoint", str(ck), "--seed", "0", "--epochs", "2",
        "--batch-size", "64", *extra,
    )
    assert code == 0
    return ck


# --- synth ----------------------------------------------------------------------

def test_synth_writes_loadable_files(tmp_path):
    f, m = make_data(tmp_path)
    fs = load_features(f, m)
    assert fs.features.shape == (144, 6)
    assert sum(r.segment_count for r in fs.manifest) == 144


def test_synth_seed_repeat_byte_identical(tmp_path):
    f1, m1 = make_data(tmp_path / "a", seed=9)
    f2, m2 = make_data(tmp_path / "b", seed=9)
    assert f1.read_bytes() == f2.read_bytes()
    assert m1.read_text() == m2.read_text()


def test_synth_zero_fraction_all_labels_zero(tmp_path):
    f, m = make_data(tmp_path, fraction=0.0)
    fs = load_features(f, m)
    for rec in fs.manifest:
        assert not np.any(np.asarray(rec.labels))


# --- train ----------------------------------------------------------------------

def test_train_smoke_writes_checkpoint_and_log(tmp_path):
    f, m = make_data(tmp_path)
    ck = train_tiny(tmp_path, f, m)
    assert ck.exists()
    log = tmp_path / "model.bin.log.csv"
    lines = log.read_text().splitlines()
    assert lines[0] == "epoch,step,lr,mean_loss"
    assert len(lines) == 3  # 2 epochs
    first = lines[1].split(",")
    assert float(first[2]) == 2e-4  # default initial learning rate echoed


def test_train_non_finite_weights_exit_3_no_checkpoint(tmp_path, capsys):
    """At --lr 1e308 the one step's loss is finite, but its update leaves
    non-finite weights, which no later loss sees: train exits 3 and writes
    no checkpoint."""
    f, m = make_data(tmp_path)
    ck = tmp_path / "model.bin"
    capsys.readouterr()
    code = run("train", "--features", str(f), "--manifest", str(m), "--checkpoint", str(ck),
               "--epochs", "1", "--lr", "1e308")
    assert (code, capsys.readouterr().err.splitlines()[-1]) == (
        3, "numeric failure: non-finite raw weights after step 1")
    assert not ck.exists()


def test_train_missing_features_exit_2_no_partial_checkpoint(tmp_path):
    _, m = make_data(tmp_path)
    ck = tmp_path / "never.bin"
    code = run(
        "train", "--features", str(tmp_path / "absent.vadf"), "--manifest", str(m),
        "--checkpoint", str(ck),
    )
    assert code == 2
    assert not ck.exists()


@pytest.mark.parametrize("argv, flag", [
    (["train", "--checkpoint", "c.bin", "--epochs", "0"], "--epochs"),
    (["train", "--checkpoint", "c.bin", "--lr", "nan"], "--lr"),
    (["score", "--checkpoint", "absent.bin", "--out", "s.csv", "--start-t", "99"], "--start-t"),
    # its noise gives no default schedule, which score would need
    (["train", "--checkpoint", "c.bin", "--p-std", "1e308"],
     "--p-mean -1.2 and --p-std 1e+308 give no schedule"),
], ids=["train-epochs", "train-lr-nan", "score-start-t", "train-p-std-huge"])
def test_bad_flag_is_usage_error_before_inputs_are_read(tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    code = run(*argv, "--features", "absent.vadf", "--manifest", "absent.json")
    err = capsys.readouterr().err
    assert code == 1, err
    assert flag in err and "absent" not in err
    assert not any(tmp_path.iterdir())


def test_train_rejects_unknown_config_key(tmp_path):
    f, m = make_data(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"learning_rate_typo": 1e-3}))
    code = run(
        "train", "--features", str(f), "--manifest", str(m),
        "--checkpoint", str(tmp_path / "x.bin"), "--config", str(cfg),
    )
    assert code == 1


def test_train_reads_config_file_values(tmp_path):
    f, m = make_data(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "batch_size": 64, "lr": 5e-4}))
    ck = tmp_path / "model.bin"
    code = run(
        "train", "--features", str(f), "--manifest", str(m),
        "--checkpoint", str(ck), "--config", str(cfg), "--seed", "0",
    )
    assert code == 0
    lines = (tmp_path / "model.bin.log.csv").read_text().splitlines()
    assert len(lines) == 2  # config epochs=1 applied
    assert float(lines[1].split(",")[2]) == 5e-4  # config lr applied


def test_flag_beats_config_beats_default(tmp_path):
    f, m = make_data(tmp_path, n_normal=100, fraction=0.3)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 3, "batch_size": 64}))
    code = run(
        "train", "--features", str(f), "--manifest", str(m),
        "--checkpoint", str(tmp_path / "model.bin"), "--config", str(cfg), "--epochs", "1",
    )
    assert code == 0
    lines = (tmp_path / "model.bin.log.csv").read_text().splitlines()
    assert len(lines) == 2  # the flag's one epoch, not the config's three
    assert float(lines[1].split(",")[2]) == 2e-4  # no flag or key: the built-in lr


@pytest.mark.parametrize("command, doc", [
    ("train", {"epochs": None}),
    ("train", {"lr": {}}),
    ("train", {"center": "no"}),
    ("score", {"start_t": [1]}),
    ("train", {"epochs": 1.7}),
], ids=["null", "object", "string-for-bool", "list-for-scalar", "fraction-for-int"])
def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys, command, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    capsys.readouterr()
    # the check runs before any input is read, so the inputs need not exist
    code = run(command, "--features", str(tmp_path / "f.vadf"), "--manifest",
               str(tmp_path / "m.json"), "--checkpoint", str(out), "--out", str(out),
               "--config", str(cfg))
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert f"config key {next(iter(doc))!r} must be " in err
    assert not out.exists()


# --- score ----------------------------------------------------------------------

def test_score_start_t_out_of_range_is_usage_error(tmp_path):
    f, m = make_data(tmp_path)
    ck = train_tiny(tmp_path, f, m)
    code = run(
        "score", "--features", str(f), "--manifest", str(m),
        "--checkpoint", str(ck), "--out", str(tmp_path / "s.csv"),
        "--steps", "10", "--start-t", "10",
    )
    assert code == 1
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("steps", ["0", "1"])
def test_score_steps_below_two_names_the_steps_not_the_start_t(tmp_path, capsys, steps):
    """Without --start-t, the start index is derived from --steps, which is
    checked first: the error names the flag the user gave."""
    code = run("score", "--features", str(tmp_path / "absent.npy"),
               "--manifest", str(tmp_path / "absent.json"),
               "--checkpoint", str(tmp_path / "absent.ckpt"),
               "--out", str(tmp_path / "s.csv"), "--steps", steps)
    assert (code, capsys.readouterr().err) == (1, f"error: --steps must be >= 2, got {steps}\n")


def test_score_same_seed_identical_csv(tmp_path):
    f, m = make_data(tmp_path)
    ck = train_tiny(tmp_path, f, m)
    for name in ("s1.csv", "s2.csv"):
        code = run(
            "score", "--features", str(f), "--manifest", str(m),
            "--checkpoint", str(ck), "--out", str(tmp_path / name), "--seed", "5",
        )
        assert code == 0
    assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()


def test_score_schedule_follows_the_checkpoint_training_noise(tmp_path):
    f, m = make_data(tmp_path)
    ck = train_tiny(tmp_path, f, m, "--p-mean", "0.5", "--p-std", "0.8")
    derived = score_tiny(tmp_path, f, m, ck, "derived.csv", "--start-t", "0")
    # e^(p_mean -+ 5 p_std) of the recorded noise
    explicit = score_tiny(tmp_path, f, m, ck, "explicit.csv", "--start-t", "0",
                          "--sigma-min", repr(float(np.exp(-3.5))),
                          "--sigma-max", repr(float(np.exp(4.5))))
    assert derived.read_bytes() == explicit.read_bytes()


def test_score_schedule_flags_are_checked_before_features_are_read(tmp_path, capsys):
    ck = tmp_path / "model.bin"
    _small_checkpoint(ck)
    capsys.readouterr()
    code = run("score", "--features", str(tmp_path / "absent.vadf"),
               "--manifest", str(tmp_path / "absent.json"), "--checkpoint", str(ck),
               "--out", str(tmp_path / "s.csv"), "--rho", "0")
    err = capsys.readouterr().err
    assert code == 1, err
    assert "rho must be positive" in err and "absent" not in err
    # --steps and --rho need no checkpoint, so they are checked before it is read
    for bad, message in ((["--steps", "1"], "--steps must be >= 2, got 1"),
                         (["--rho", "0"], "--rho must be positive, got 0.0"),
                         (["--rho", "-1", "--steps", "5"], "--rho must be positive, got -1.0"),
                         (["--rho", "nan"], "--rho must be finite, got nan"),
                         (["--rho", "inf"], "--rho must be finite, got inf"),
                         (["--rho", "0.001"], "--rho 0.001 is too small: "
                                              "--sigma-max ** (1 / --rho) overflows")):
        code = run("score", "--features", str(tmp_path / "absent.vadf"),
                   "--manifest", str(tmp_path / "absent.json"),
                   "--checkpoint", str(tmp_path / "absent.bin"),
                   "--out", str(tmp_path / "s.csv"), *bad)
        assert (code, capsys.readouterr().err) == (1, f"error: {message}\n")


def test_score_flag_count_non_increasing_in_k(tmp_path):
    f, m = make_data(tmp_path)
    ck = train_tiny(tmp_path, f, m)
    counts = []
    for i, k in enumerate((0.1, 0.5, 1.0)):
        out = tmp_path / f"k{i}.csv"
        code = run(
            "score", "--features", str(f), "--manifest", str(m),
            "--checkpoint", str(ck), "--out", str(out), "--seed", "1", "--k", str(k),
        )
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        counts.append(sum(r.split(",")[3] == "1" for r in rows))
    assert counts[0] >= counts[1] >= counts[2]


def test_score_dim_mismatch_is_data_error(tmp_path):
    f, m = make_data(tmp_path, dim=6)
    ck = train_tiny(tmp_path, f, m)
    f2, m2 = make_data(tmp_path / "other", dim=8)
    code = run(
        "score", "--features", str(f2), "--manifest", str(m2),
        "--checkpoint", str(ck), "--out", str(tmp_path / "s.csv"),
    )
    assert code == 2


@pytest.mark.parametrize("batch_size", [64, 16])
def test_score_one_row_tail_joins_previous_batch(tmp_path, batch_size):
    f, m = make_data(tmp_path, n_normal=65, fraction=0.0)
    ck = train_tiny(tmp_path, f, m)
    out = tmp_path / "s.csv"
    code = run(
        "score", "--features", str(f), "--manifest", str(m), "--checkpoint", str(ck),
        "--out", str(out), "--batch-size", str(batch_size),
    )
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 65
    batch_ids = [int(r.split(",")[4]) for r in rows]
    assert max(batch_ids) == 65 // batch_size - 1


def test_text_files_are_utf8_under_an_ascii_locale(tmp_path):
    """A video id outside ASCII goes through score and eval in fresh
    processes whose locale encoding is ASCII: the score CSV and the report
    are written and read as UTF-8, as the manifest is."""
    f, m = make_data(tmp_path)
    fs = load_features(f, m)
    fs.manifest[0] = dataclasses.replace(fs.manifest[0], video_id="vidéo")
    f, m = tmp_path / "accent.npy", tmp_path / "accent.json"
    save_features(f, m, fs)
    ck = train_tiny(tmp_path, f, m)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    scores, report = tmp_path / "s.csv", tmp_path / "r.json"
    for argv in (["score", "--features", f, "--manifest", m, "--checkpoint", ck,
                  "--out", scores],
                 ["eval", "--scores", scores, "--manifest", m, "--out", report]):
        done = subprocess.run([sys.executable, "-m", "vadiff", *map(str, argv)], env=env,
                              capture_output=True, text=True, encoding="utf-8")
        assert done.returncode == 0, done.stderr
    assert scores.read_bytes().splitlines()[1].startswith("vidéo,0,".encode())
    assert json.loads(report.read_text(encoding="utf-8"))["frame_count"] == sum(
        r.frame_count for r in fs.manifest)


def test_score_one_segment_is_data_error(tmp_path, capsys):
    f, m = tmp_path / "one.vadf", tmp_path / "one.json"
    save_features(f, m, FeatureSet(np.ones((1, 6), dtype=np.float32),
                                   [VideoRecord("v", 16, 0, 1)]))
    ck = tmp_path / "model.bin"
    _small_checkpoint(ck)
    out = tmp_path / "s.csv"
    capsys.readouterr()
    code = run("score", "--features", str(f), "--manifest", str(m), "--checkpoint", str(ck),
               "--out", str(out))
    _assert_data_error(code, capsys, "scoring needs at least 2 segments, got 1")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "score"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_feature_is_data_error_naming_the_segment(tmp_path, capsys, command, bad):
    """A NaN or inf in one row of the feature file exits 2 naming its video and
    segment, with nothing else on stderr: no numpy warning, no traceback."""
    f, m = make_data(tmp_path)
    manifest, _ = data.load_manifest(m)
    rec = manifest[len(manifest) // 2]
    row, col = rec.segment_offset + rec.segment_count - 1, 4
    raw = bytearray(f.read_bytes())
    at = len(raw) - 4 * 6 * sum(r.segment_count for r in manifest) + 4 * (6 * row + col)
    raw[at : at + 4] = struct.pack("<f", bad)
    f.write_bytes(bytes(raw))
    ck = tmp_path / "model.bin"
    args = ["--checkpoint", str(ck)]
    if command == "score":
        _small_checkpoint(ck)
        args += ["--out", str(tmp_path / "s.csv")]
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(command, "--features", str(f), "--manifest", str(m), *args)
    err = capsys.readouterr().err
    assert code == 2 and not caught, [str(w.message) for w in caught]
    assert err == (f"error: video {rec.video_id!r}, segment {rec.segment_count - 1}: "
                   f"non-finite feature value\n")


# the header of a feature file of 144 rows of 6 in the older VADF format (version 2)
_VADF = b"VADF" + struct.pack("<HIQ", 2, 6, 144)
_NOT_NPY = "feature file is not a version 1.0 .npy file: "
_HOLDS = "feature file holds a "


@pytest.mark.parametrize("corrupt, fragment", [
    (lambda raw: raw[:6] + bytes([1, 1]) + raw[8:], _NOT_NPY + "its version is 1.1"),
    (lambda raw: raw[:6] + bytes([3, 0]) + raw[8:], _NOT_NPY + "its version is 3.0"),
    (lambda raw: _VADF.ljust(128, b"\0") + raw[128:],
     _NOT_NPY + "the magic string is not correct; expected b'\\x93NUMPY', got b'VADF\\x02\\x00'"),
    (lambda raw: b"", "feature file is empty"),
    (lambda raw: raw[:17], "EOF: reading array header, expected 118 bytes got 7"),
    # the header's space padding to byte 128, cut short
    (lambda raw: raw[:100], "EOF: reading array header, expected 118 bytes got 90"),
    (lambda raw: raw[:-4], "truncated feature file: expected 144 rows of 6, got 863 values"),
    # numpy's fallback for Python 2 headers would read this one as (14, 6), with a warning
    (lambda raw: raw.replace(b"(144, 6)", b"(14L, 6)"),
     _NOT_NPY + "its header \"{'descr': '<f4', 'fortran_order': False, 'shape': (14L, 6), }\" "
     "is not a Python literal"),
    (lambda raw: raw.replace(b"6), }", b"6),  "),
     _NOT_NPY + "its header \"{'descr': '<f4', 'fortran_order': False, 'shape': (144, 6),\" "
     "is not a Python literal"),
    # one flipped header byte each: a backslash makes an invalid escape, which
    # the Python parser warns of, and '<f4' becomes numpy's deprecated '<a4'
    (lambda raw: raw.replace(b"'descr'", b"'\\escr'"), _NOT_NPY + "Cannot parse header: "),
    (lambda raw: raw.replace(b"'<f4'", b"'<a4'"), _NOT_NPY + "Data type alias 'a' was deprecated"),
], ids=["version-1", "version-3", "bad-magic", "empty", "header-cut", "padding-cut",
        "one-value-short", "python-2-long", "no-closing-brace", "escape-warning", "dtype-warning"])
def test_score_malformed_feature_file_is_data_error(tmp_path, capsys, corrupt, fragment):
    """Each exits 2 with one line on stderr naming the fault: no traceback,
    no warning."""
    f, m = make_data(tmp_path)
    f.write_bytes(corrupt(f.read_bytes()))
    ck = tmp_path / "model.bin"
    _small_checkpoint(ck)
    out = tmp_path / "s.csv"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("score", "--features", str(f), "--manifest", str(m), "--checkpoint", str(ck),
                   "--out", str(out))
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, err
    assert fragment in err
    assert not out.exists()


def _npy_header(fh, shape):
    np.lib.format.write_array_header_1_0(fh, {"descr": "<f4", "fortran_order": False,
                                              "shape": shape})


_DICT = b"{'descr': '<f4', 'fortran_order': False, 'shape': (144, 6), }"


def _raw_header(fh, text):
    """A version 1.0 header of `text`, which numpy's writer would not write."""
    fh.write(b"\x93NUMPY\x01\x00" + struct.pack("<H", len(text)) + text)


@pytest.mark.parametrize("write, fragment", [
    (lambda fh, x: np.save(fh, x.astype(np.float64)),
     _HOLDS + "C-order float64 array of shape (144, 6), not C-order float32 rows"),
    (lambda fh, x: np.save(fh, np.asfortranarray(x)),
     _HOLDS + "Fortran-order float32 array of shape (144, 6)"),
    (lambda fh, x: np.save(fh, x.ravel()), _HOLDS + "C-order float32 array of shape (864,)"),
    (lambda fh, x: np.save(fh, x.reshape(144, 2, 3)),
     _HOLDS + "C-order float32 array of shape (144, 2, 3)"),
    (lambda fh, x: np.save(fh, x.astype(object)), _HOLDS + "C-order object array of shape (144, 6)"),
    (lambda fh, x: (_npy_header(fh, (-1, 6)), fh.write(x.tobytes())),
     _HOLDS + "C-order float32 array of shape (-1, 6)"),
    (lambda fh, x: (_npy_header(fh, (144, 0)), fh.write(x.tobytes())),
     _HOLDS + "C-order float32 array of shape (144, 0)"),
    (lambda fh, x: (_npy_header(fh, (2**62, 6)), fh.write(x.tobytes())),
     "truncated feature file: expected 4611686018427387904 rows of 6, got 864 values"),
    # 10 050 bytes, past numpy's limit of 10 000
    (lambda fh, x: (_raw_header(fh, _DICT.ljust(10049) + b"\n"), fh.write(x.tobytes())),
     _NOT_NPY + "Header info length (10050) is large"),
    # numpy's parser raises tokenize.TokenError and TypeError for these two
    (lambda fh, x: (_raw_header(fh, _DICT[:-1].ljust(117) + b"\n"), fh.write(x.tobytes())),
     _NOT_NPY + "its header \"" + _DICT[:-1].decode().strip() + "\" is not a Python literal"),
    (lambda fh, x: (_raw_header(fh, b"{b" + _DICT[1:].ljust(116) + b"\n"),
                    fh.write(x.tobytes())),
     _NOT_NPY + "'<' not supported between instances of"),
    (lambda fh, x: np.lib.format.write_array(fh, x, version=(2, 0)),
     _NOT_NPY + "its version is 2.0"),
], ids=["float64", "fortran", "1-d", "3-d", "object", "negative-rows", "zero-dim", "huge-rows",
        "long-header", "unclosed-dict", "bytes-key", "version-2"])
def test_score_npy_of_another_array_is_data_error(tmp_path, capsys, monkeypatch, write, fragment):
    """An .npy file that does not hold one C-order float32 matrix of dim >= 1,
    or declares more rows than it holds, exits 2 naming the fault; an object
    array's pickled payload is never unpickled."""
    f, m = make_data(tmp_path)
    x = np.load(f)  # a copy: the file is rewritten in place below
    with open(f, "wb") as fh:
        write(fh, x)
    ck = tmp_path / "model.bin"
    _small_checkpoint(ck)
    for name in ("load", "loads"):
        monkeypatch.setattr(pickle, name, None)
    capsys.readouterr()
    code = run("score", "--features", str(f), "--manifest", str(m), "--checkpoint", str(ck),
               "--out", str(tmp_path / "s.csv"))
    _assert_data_error(code, capsys, "error: " + fragment)


def test_plain_np_save_output_is_a_feature_file(tmp_path):
    """A C-order float32 matrix written by np.save trains and scores to the
    same checkpoint and score CSV as the matrix written by save_features;
    np.load reads synth's output, and the rows start at a multiple of 64."""
    f, m = make_data(tmp_path)
    assert np.array_equal(np.load(f), load_features(f, m).features)
    with open(f, "rb") as fh:
        assert np.lib.format.read_magic(fh) == (1, 0)
        np.lib.format.read_array_header_1_0(fh)
        assert fh.tell() % 64 == 0
    manifest, _ = data.load_manifest(m)
    x = Rng(9).standard_normal((144, 6)).astype(np.float32) * 2 + 1
    outputs = []
    for name in ("saved", "plain"):
        run_dir = tmp_path / name
        run_dir.mkdir()
        features = run_dir / "x.npy"  # np.save adds the suffix to a path without it
        if name == "saved":
            save_features(features, run_dir / "m.json", FeatureSet(x, manifest))
        else:
            np.save(features, x)
        ck = train_tiny(run_dir, features, m)
        outputs.append((ck.read_bytes(), score_tiny(run_dir, features, m, ck).read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("weights", [[], ["--raw-weights"]], ids=["ema", "raw"])
def test_score_holds_one_weight_set(tmp_path, peak_heap, weights):
    """Scoring 840 rows of dim 64 with the default network at --start-t 0 (10
    NFEs), as two blocks of 420 rows, peaks under forward_raw's one 420 x
    1536 activation buffer (2.46 MiB) and 1 MiB for the rest (3.31 MiB in
    all, where two 420 x 1024 buffers took 4.13): the weights stay in the
    checkpoint's map, so no weight set (9.3 MiB each) is on the heap."""
    f, m = make_data(tmp_path, n_normal=800, fraction=0.05, dim=64)
    cfg = NetworkConfig(input_dim=64)
    params = init_params(cfg, Rng(0))
    ck = tmp_path / "model.bin"
    save_checkpoint(ck, params, params.copy(), Preconditioner(1.0), TrainNoiseConfig())
    del params
    bound = 4 * 420 * 1536 + 2**20
    code, peak = peak_heap(lambda: run(
        "score", "--features", str(f), "--manifest", str(m), "--checkpoint", str(ck),
        "--out", str(tmp_path / "s.csv"), "--start-t", "0", *weights))
    assert code == 0
    assert peak < bound, (peak / 2**20, bound / 2**20)


# --- eval -----------------------------------------------------------------------

def score_tiny(tmp_path, f, m, ck, name="scores.csv", *extra):
    out = tmp_path / name
    code = run(
        "score", "--features", str(f), "--manifest", str(m),
        "--checkpoint", str(ck), "--out", str(out), "--seed", "2", *extra,
    )
    assert code == 0
    return out


def test_eval_report_written_and_printed(tmp_path, capsys):
    f, m = make_data(tmp_path)
    ck = train_tiny(tmp_path, f, m)
    scores = score_tiny(tmp_path, f, m, ck)
    report = tmp_path / "report.json"
    capsys.readouterr()  # drop chatter from the helper commands
    code = run("eval", "--scores", str(scores), "--manifest", str(m), "--out", str(report))
    assert code == 0
    doc = json.loads(report.read_text())
    assert 0.0 <= doc["auc"] <= 1.0
    assert doc["frame_count"] == sum(
        r.frame_count for r in load_features(f, m).manifest
    )
    printed = json.loads(capsys.readouterr().out)
    assert printed["auc"] == doc["auc"]


def test_eval_unlabeled_manifest_is_data_error(tmp_path):
    f, m = make_data(tmp_path)
    ck = train_tiny(tmp_path, f, m)
    scores = score_tiny(tmp_path, f, m, ck)
    doc = json.loads(m.read_text())
    for video in doc["videos"]:
        video.pop("labels", None)
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    code = run("eval", "--scores", str(scores), "--manifest", str(bare),
               "--out", str(tmp_path / "r.json"))
    assert code == 2


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_eval_non_finite_score_is_numeric_error(tmp_path, capsys, bad):
    f, m = make_data(tmp_path)
    ck = train_tiny(tmp_path, f, m)
    scores = score_tiny(tmp_path, f, m, ck)
    lines = scores.read_text().splitlines()
    fields = lines[3].split(",")
    fields[2] = bad
    lines[3] = ",".join(fields)
    scores.write_text("\n".join(lines) + "\n")
    report = tmp_path / "r.json"
    capsys.readouterr()
    code = run("eval", "--scores", str(scores), "--manifest", str(m), "--out", str(report))
    assert code == 3
    err = capsys.readouterr().err
    assert f"video {fields[0]!r}, segment {fields[1]}" in err
    assert not report.exists()


def _assert_data_error(code, capsys, *fragments):
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    for fragment in fragments:
        assert fragment in err


@pytest.mark.parametrize("edit, fragments", [
    (lambda doc: doc["videos"], ["manifest must be a JSON object, got an array"]),
    (lambda doc: {**doc, "videos": [doc["videos"][0]]
                  + [{k: v for k, v in doc["videos"][1].items() if k != "frame_count"}]},
     ["manifest video 1", "'frame_count'"]),
    (lambda doc: {**doc, "videos": [doc["videos"][0], {
        **doc["videos"][1], "labels": [0.5, 1.7] + doc["videos"][1]["labels"][2:]}]},
     ["manifest video 1: labels must be an array of 0/1 integers"]),
    (lambda doc: {**doc, "videos": [doc["videos"][0], {
        **doc["videos"][1], "labels": ["0", 1] + doc["videos"][1]["labels"][2:]}]},
     ["manifest video 1: labels must be an array of 0/1 integers"]),
], ids=["top-level-list", "missing-frame-count", "fractional-labels", "string-labels"])
def test_eval_malformed_manifest_is_data_error(tmp_path, capsys, edit, fragments):
    _, m = make_data(tmp_path)
    m.write_text(json.dumps(edit(json.loads(m.read_text()))))
    capsys.readouterr()
    code = run("eval", "--scores", str(tmp_path / "unused.csv"), "--manifest", str(m),
               "--out", str(tmp_path / "r.json"))
    _assert_data_error(code, capsys, *fragments)


@pytest.mark.parametrize("column, field", [(1, "segment_index"), (2, "mse")])
def test_eval_non_numeric_score_field_is_data_error(tmp_path, capsys, column, field):
    _, m = make_data(tmp_path)
    first = json.loads(m.read_text())["videos"][0]["video_id"]
    fields = [first, "0", "0.5", "0", "0", "1.0"]
    fields[column] = "abc"
    scores = tmp_path / "s.csv"
    scores.write_text("video_id,segment_index,mse,flagged,batch_id,l_th\n"
                      + ",".join(fields) + "\n")
    capsys.readouterr()
    code = run("eval", "--scores", str(scores), "--manifest", str(m),
               "--out", str(tmp_path / "r.json"))
    _assert_data_error(code, capsys, f"score CSV line 2: {field} 'abc'")


@pytest.mark.parametrize("broken", ["manifest", "scores"])
def test_eval_undecodable_bytes_are_data_error(tmp_path, capsys, broken):
    _, m = make_data(tmp_path)
    scores = tmp_path / "s.csv"
    scores.write_text("video_id,segment_index,mse,flagged,batch_id,l_th\n")
    target = m if broken == "manifest" else scores
    target.write_bytes(target.read_bytes() + b"\xff\n")
    capsys.readouterr()
    code = run("eval", "--scores", str(scores), "--manifest", str(m),
               "--out", str(tmp_path / "r.json"))
    _assert_data_error(code, capsys, "manifest is not valid JSON" if broken == "manifest"
                       else "score CSV is not valid text")


def test_eval_missing_videos_message_is_capped(tmp_path, capsys):
    _, m = make_data(tmp_path, n_normal=1000)
    videos = len(json.loads(m.read_text())["videos"])
    assert videos > 5
    scores = tmp_path / "s.csv"
    scores.write_text("video_id,segment_index,mse,flagged,batch_id,l_th\n")
    capsys.readouterr()
    code = run("eval", "--scores", str(scores), "--manifest", str(m),
               "--out", str(tmp_path / "r.json"))
    err = capsys.readouterr().err
    assert code == 2
    assert f"{videos} manifest videos missing from scores: " in err
    assert f"and {videos - 5} more" in err
    assert len(err) < 200


def stand_in_scores(path, fs):
    """A score CSV for fs without a model: each row's distance from the origin."""
    mse = np.linalg.norm(fs.features.astype(np.float64), axis=1)
    n = mse.size
    write_scores_csv(path, fs, DatasetScores(
        mse, mse > 1.0, np.zeros(n, dtype=np.int64), np.ones(n), []))
    return path


@pytest.mark.parametrize("video, edits, fragment", [
    (0, {"segment_count": 10**20}, "segment_count 100000000000000000000 is not in [0, 2**63)"),
    (-1, {"segment_count": -1, "frame_count": -16}, "frame_count -16 is not in [0, 2**63)"),
], ids=["count-1e20", "negative-counts"])
def test_eval_manifest_count_outside_int64_is_data_error(tmp_path, capsys, video, edits,
                                                         fragment):
    f, m = make_data(tmp_path, n_normal=40)
    scores = stand_in_scores(tmp_path / "s.csv", load_features(f, m))
    doc = json.loads(m.read_text())
    doc["videos"][video].update(edits)
    m.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run("eval", "--scores", str(scores), "--manifest", str(m),
               "--out", str(tmp_path / "r.json"))
    index = video % len(doc["videos"])
    _assert_data_error(code, capsys, f"manifest video {index}: {fragment}")


def test_eval_manifest_integer_past_the_digit_limit_is_data_error(tmp_path, capsys):
    _, m = make_data(tmp_path, n_normal=40)
    m.write_text(m.read_text().replace('"frame_count": ', '"frame_count": ' + "9" * 5000, 1))
    capsys.readouterr()
    code = run("eval", "--scores", str(tmp_path / "unused.csv"), "--manifest", str(m),
               "--out", str(tmp_path / "r.json"))
    _assert_data_error(code, capsys, "manifest is not valid JSON: Exceeds the limit")


def _eval_report(tmp_path, scores, m):
    """The bytes of eval's report on the given score CSV and manifest."""
    report = tmp_path / "r.json"
    code = run("eval", "--scores", str(scores), "--manifest", str(m), "--out", str(report))
    assert code == 0
    return report.read_bytes()


def test_eval_reads_an_indented_manifest_to_the_same_report(tmp_path):
    f, m = make_data(tmp_path, n_normal=40)
    scores = stand_in_scores(tmp_path / "s.csv", load_features(f, m))
    want = _eval_report(tmp_path, scores, m)
    doc = json.loads(m.read_text())
    with open(m, "w") as fh:  # the layout manifests were first written in
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    assert _eval_report(tmp_path, scores, m) == want


def test_eval_accepts_empty_unread_score_fields(tmp_path):
    f, m = make_data(tmp_path, n_normal=40)
    scores = stand_in_scores(tmp_path / "s.csv", load_features(f, m))
    want = _eval_report(tmp_path, scores, m)
    header, *rows = scores.read_text().splitlines()
    scores.write_text("\n".join([header] + [row.rsplit(",", 1)[0] + "," for row in rows]) + "\n")
    assert _eval_report(tmp_path, scores, m) == want


def test_eval_peak_heap_per_frame(tmp_path, peak_heap):
    """The whole eval stage in-process, on about 230 000 frames, peaks at 6.8
    bytes of heap per frame (the manifest's text read), where the score
    CSV's decoded text, one str per row and the AUC's per-group arrays
    raised it to 10.5."""
    f, m = make_data(tmp_path, n_normal=12000, dim=1)
    scores = stand_in_scores(tmp_path / "s.csv", load_features(f, m))
    frames = sum(video["frame_count"] for video in json.loads(m.read_text())["videos"])
    assert frames >= 200_000
    code, peak = peak_heap(lambda: run("eval", "--scores", str(scores), "--manifest", str(m),
                                       "--out", str(tmp_path / "r.json")))
    assert code == 0
    assert peak < 8.5 * frames, peak / frames


@pytest.mark.parametrize("edit", [lambda row: row.rsplit(",", 1)[0], lambda row: row + ",7"],
                         ids=["five-fields", "seven-fields"])
def test_eval_score_row_field_count_is_data_error(tmp_path, capsys, edit):
    f, m = make_data(tmp_path, n_normal=40)
    scores = stand_in_scores(tmp_path / "s.csv", load_features(f, m))
    lines = scores.read_text().splitlines()
    lines[4] = edit(lines[4])
    scores.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = run("eval", "--scores", str(scores), "--manifest", str(m),
               "--out", str(tmp_path / "r.json"))
    _assert_data_error(code, capsys, "score CSV line 5: expected 6 fields")


def test_each_stage_validates_the_manifest_once(tmp_path, monkeypatch):
    f, m = make_data(tmp_path, n_normal=40)
    scores = stand_in_scores(tmp_path / "s.csv", load_features(f, m))
    calls = []

    def spy(*args):
        calls.append(args)
        return validate_manifest(*args)

    monkeypatch.setattr(data, "validate_manifest", spy)
    monkeypatch.setattr(evaluation, "validate_manifest", spy)
    load_features(f, m)
    assert len(calls) == 1
    assert run("eval", "--scores", str(scores), "--manifest", str(m),
               "--out", str(tmp_path / "r.json")) == 0
    assert len(calls) == 2


def test_eval_repeated_manifest_video_is_data_error(tmp_path, capsys):
    fs = FeatureSet(np.ones((4, 2), dtype=np.float32),
                    [VideoRecord("a", 32, 0, 2, labels=np.zeros(32, dtype=np.int8)),
                     VideoRecord("a", 32, 2, 2, labels=np.ones(32, dtype=np.int8))])
    save_features(tmp_path / "f.vadf", tmp_path / "m.json", fs)
    scores = stand_in_scores(tmp_path / "s.csv", fs)
    capsys.readouterr()
    code = run("eval", "--scores", str(scores), "--manifest", str(tmp_path / "m.json"),
               "--out", str(tmp_path / "r.json"))
    _assert_data_error(code, capsys, "manifest lists video 'a' more than once")


def test_benchmark_standin_scores_pass_eval(tmp_path, monkeypatch):
    # the eval-frames benchmark writes its score CSV through the library
    # (DatasetScores, batch_threshold, write_scores_csv); eval must accept it
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    monkeypatch.chdir(tmp_path)
    assert run("synth", "--features", "f.vadf", "--manifest", "m.json",
               "--n-normal", "200", "--dim", "4", "--seed", "1") == 0
    workloads._write_standin_scores()
    assert run("eval", "--scores", "s.csv", "--manifest", "m.json", "--out", "r.json") == 0


@pytest.mark.parametrize("label, absent", [(0, "anomalous (1)"), (1, "normal (0)")],
                         ids=["all-0", "all-1"])
def test_eval_single_class_manifest_is_data_error(tmp_path, capsys, label, absent):
    f, m = make_data(tmp_path, n_normal=40)
    fs = load_features(f, m)
    doc = json.loads(m.read_text())
    for video in doc["videos"]:
        video["labels"] = [label] * video["frame_count"]
    m.write_text(json.dumps(doc))
    scores = stand_in_scores(tmp_path / "s.csv", fs)
    report = tmp_path / "r.json"
    capsys.readouterr()
    code = run("eval", "--scores", str(scores), "--manifest", str(m), "--out", str(report))
    _assert_data_error(code, capsys, f"the manifest labels no {absent} frames")
    assert not report.exists()


# --- corrupted eval inputs ------------------------------------------------------------

@pytest.fixture(scope="module")
def eval_inputs(tmp_path_factory):
    """Bytes of a labelled manifest and its score CSV, and a scratch directory."""
    tmp = tmp_path_factory.mktemp("corrupt")
    fs = synth_generate(SynthConfig(n_normal=60, n_anomalous=6, dim=2, seed=5))
    save_features(tmp / "f.vadf", tmp / "m.json", fs)
    stand_in_scores(tmp / "s.csv", fs)
    files = {"manifest": (tmp / "m.json").read_bytes(), "scores": (tmp / "s.csv").read_bytes()}
    assert _eval_bytes(tmp, **files) == (0, "")
    return files, tmp


def _eval_bytes(directory, manifest: bytes, scores: bytes):
    """(exit code, stderr) of `vadiff eval` on the given file contents."""
    (directory / "cm.json").write_bytes(manifest)
    (directory / "cs.csv").write_bytes(scores)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["eval", "--scores", str(directory / "cs.csv"), "--manifest",
                     str(directory / "cm.json"), "--out", str(directory / "r.json")])
    return code, err.getvalue()


@given(target=st.sampled_from(["manifest", "scores"]), data=st.data())
def test_eval_truncated_input_is_data_error(eval_inputs, target, data):
    files, tmp = eval_inputs
    cut = data.draw(st.integers(0, len(files[target]) - 1), label="cut")
    code, err = _eval_bytes(tmp, **{**files, target: files[target][:cut]})
    assert "Traceback" not in err
    assert code in (0, 2), err
    last_row = files["scores"].rstrip(b"\r\n").rfind(b"\n") + 1
    if target == "scores" and cut <= last_row:  # at least one whole row is gone
        assert code == 2, err


@given(target=st.sampled_from(["manifest", "scores"]), data=st.data())
def test_eval_flipped_byte_is_data_error(eval_inputs, target, data):
    files, tmp = eval_inputs
    raw = bytearray(files[target])
    at = data.draw(st.integers(0, len(raw) - 1), label="offset")
    raw[at] ^= data.draw(st.integers(1, 255), label="mask")
    code, err = _eval_bytes(tmp, **{**files, target: bytes(raw)})
    assert "Traceback" not in err
    # a digit flipped to "e" can make an mse overflow to inf: the numeric exit
    assert code in (0, 2) or (code == 3 and "non-finite score" in err), err


@given(data=st.data())
def test_eval_report_ignores_score_row_order(eval_inputs, data):
    files, tmp = eval_inputs
    header, *body = files["scores"].splitlines(keepends=True)
    assert _eval_bytes(tmp, **files) == (0, "")
    want = (tmp / "r.json").read_bytes()
    shuffled = header + b"".join(data.draw(st.permutations(body), label="rows"))
    assert _eval_bytes(tmp, files["manifest"], shuffled) == (0, "")
    assert (tmp / "r.json").read_bytes() == want


def _drop_video(lines, video):
    return [line for line in lines if not line.startswith(video + ",")]


def _set_index(lines, at, index):
    fields = lines[at].split(",")
    fields[1] = index
    return lines[:at] + [",".join(fields)] + lines[at + 1:]


# the fixture's videos hold 13, 14, 26 and 13 segments, in that order
@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines + ["ghost,0,0.5,0,0,1.0"],
     "1 scored videos missing from manifest: ['ghost']"),
    (lambda lines: _drop_video(lines, "video0001"),
     "1 manifest videos missing from scores: ['video0001']"),
    (lambda lines: lines[:1] + lines[2:], "video 'video0000': segment 1 scored 0 times"),
    (lambda lines: lines[:14] + lines[13:], "video 'video0001': segment 0 scored 2 times"),
    (lambda lines: _set_index(lines, 20, "14"),
     "video 'video0001': segment_index 14 is not in [0, 14)"),
    (lambda lines: _set_index(lines, 0, "-1"),
     "video 'video0000': segment_index -1 is not in [0, 13)"),
    (lambda lines: [], "4 manifest videos missing from scores: "
                       "['video0000', 'video0001', 'video0002', 'video0003']"),
], ids=["unknown-video", "unscored-video", "missing-index", "repeated-index",
        "index-past-end", "negative-index", "header-only"])
def test_eval_score_join_fault_is_data_error(eval_inputs, edit, message):
    files, tmp = eval_inputs
    header, *lines = files["scores"].decode().splitlines()
    scores = "".join(f"{line}\n" for line in [header] + edit(lines)).encode()
    code, err = _eval_bytes(tmp, files["manifest"], scores)
    assert code == 2
    assert "Traceback" not in err
    assert err == f"error: {message}\n"


def test_eval_huge_declared_segment_count_is_data_error(tmp_path, capsys, peak_heap):
    """A count of 2**58 segments against one scored row: the join's memory
    follows the rows and videos, not the declared count."""
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"version": 1, "segment_len": 16, "videos": [
        {"video_id": "big", "frame_count": 2**62, "segment_offset": 0,
         "segment_count": 2**58}]}))
    scores = tmp_path / "s.csv"
    scores.write_text("video_id,segment_index,mse,flagged,batch_id,l_th\nbig,0,0.5,0,0,1.0\n")
    capsys.readouterr()
    code, peak = peak_heap(lambda: run("eval", "--scores", str(scores), "--manifest", str(m),
                                       "--out", str(tmp_path / "r.json")))
    _assert_data_error(code, capsys, "video 'big': segment 1 scored 0 times")
    assert peak < 2**20, peak


# --- corrupted checkpoints -------------------------------------------------------------

def _small_checkpoint(path):
    """A centered checkpoint for dim-6 features: a .npy record of 6 center
    values, 2 x 474 tensor values, then the config, sigma_data and the noise."""
    params = init_params(NetworkConfig(6, (8,), (8,), 8), Rng(0))
    save_checkpoint(path, params, params.copy(), Preconditioner(1.0, np.zeros(6)),
                    TrainNoiseConfig())
    return path.read_bytes()


def _edit(raw, **fields):
    """The checkpoint bytes `raw` with the record's `fields` set, as np.save
    writes the edited record: the same header and layout."""
    record = np.load(io.BytesIO(raw))
    for name, value in fields.items():
        record[name] = value
    out = io.BytesIO()
    np.save(out, record)
    return out.getvalue()


def _poke(raw, name, value, at=3):
    """The checkpoint bytes `raw` with value `at` of tensor field `name` set."""
    record = np.load(io.BytesIO(raw))
    record[name][at] = value
    out = io.BytesIO()
    np.save(out, record)
    return out.getvalue()


def _record_as(raw, name, kind):
    """The checkpoint bytes `raw` with field `name` stored as dtype `kind`."""
    record = np.load(io.BytesIO(raw))
    descr = [(n, kind if n == name else record.dtype[n]) for n in record.dtype.names]
    out = io.BytesIO()
    np.save(out, record.astype(descr))
    return out.getvalue()


_HUGE = 0x7FFFFFFF
_CK_NOT_NPY = "checkpoint is not a version 1.0 .npy file: "
# the first bytes of a checkpoint in the older VADW format (version 4, input_dim 6)
_VADW = b"VADW" + struct.pack("<HI", 4, 6)
_TOO_BIG = "too many for one checkpoint record"
_NOT_RECORD = "checkpoint holds a C-order [('center', '<f4', (6,)), "


@pytest.mark.parametrize("corrupt, fragment", [
    (lambda raw: raw[:-4], "checkpoint holds 3868 bytes after its header, its record takes 3872"),
    (lambda raw: raw + bytes(4),
     "checkpoint holds 3876 bytes after its header, its record takes 3872"),
    (lambda raw: raw[:6] + bytes([1, 1]) + raw[8:], _CK_NOT_NPY + "its version is 1.1"),
    (lambda raw: raw[:6] + bytes([2, 0]) + raw[8:], _CK_NOT_NPY + "its version is 2.0"),
    (lambda raw: raw[:6] + bytes([3, 0]) + raw[8:], _CK_NOT_NPY + "its version is 3.0"),
    (lambda raw: _VADW.ljust(64, b"\0") + raw[64:],
     _CK_NOT_NPY + "the magic string is not correct; expected b'\\x93NUMPY', "
     "got b'VADW\\x04\\x00'"),
    (lambda raw: _edit(raw, p_mean=float("nan")),
     "bad checkpoint header: need finite p_mean and p_std > 0, got (nan, 1.2)"),
    (lambda raw: _edit(raw, p_std=0.0),
     "bad checkpoint header: need finite p_mean and p_std > 0, got (-1.2, 0.0)"),
    (lambda raw: _edit(raw, p_std=-1.0),
     "bad checkpoint header: need finite p_mean and p_std > 0, got (-1.2, -1.0)"),
    # finite, but e^(p_mean -+ 5 p_std) gives no schedule
    (lambda raw: _edit(raw, p_mean=1e300),
     "bad checkpoint header: p_mean 1e+300 and p_std 1.2 give no schedule: "
     "need 0 < sigma_min < sigma_max, got (inf, inf)"),
    (lambda raw: _edit(raw, p_std=1e308),
     "bad checkpoint header: p_mean -1.2 and p_std 1e+308 give no schedule: "
     "need 0 < sigma_min < sigma_max, got (0.0, inf)"),
    (lambda raw: _edit(raw, input_dim=_HUGE), f"bad checkpoint header: NetworkConfig("
     f"input_dim={_HUGE}, encoder_widths=(8,), decoder_widths=(8,), embed_dim=8) has "
     f"{param_count(NetworkConfig(_HUGE, (8,), (8,), 8))} weights, " + _TOO_BIG),
    (lambda raw: _edit(raw, encoder_widths=[_HUGE]), f"bad checkpoint header: NetworkConfig("
     f"input_dim=6, encoder_widths=({_HUGE},), decoder_widths=(8,), embed_dim=8) has "
     f"{param_count(NetworkConfig(6, (_HUGE,), (8,), 8))} weights, " + _TOO_BIG),
    (lambda raw: _edit(raw, input_dim=7),
     "checkpoint field center is ('<f4', (6,)), its config implies ('<f4', (7,))"),
    (lambda raw: _edit(raw, embed_dim=4),
     "checkpoint field raw is ('<f4', (474,)), its config implies ('<f4', (344,))"),
    (lambda raw: _record_as(raw, "p_mean", "<f4"), "('sigma_data', '<f8'), ('p_mean', '<f4'), "),
    (lambda raw: _record_as(raw, "raw", (">f4", (474,))), _NOT_RECORD + "('raw', '>f4', (474,))"),
    (lambda raw: _record_as(raw, "input_dim", ("<i8", (1,))),
     "('ema', '<f4', (474,)), ('input_dim', '<i8', (1,)), "),
    (lambda raw: raw.replace(b"'raw'", b"'wei'", 1), _NOT_RECORD + "('wei', '<f4', (474,)), "),
    # the 310-byte header's space padding to byte 320, cut short
    (lambda raw: raw[:316], "EOF: reading array header, expected 310 bytes got 306"),
    (lambda raw: b"", "checkpoint is empty"),
    # the raw set goes unused without --raw-weights, and still exits 2
    (lambda raw: _poke(raw, "raw", np.nan), "checkpoint field raw holds a non-finite value"),
    (lambda raw: _poke(raw, "ema", np.inf, at=473),
     "checkpoint field ema holds a non-finite value"),
    (lambda raw: _poke(raw, "ema", -np.inf, at=0), "checkpoint field ema holds a non-finite value"),
    (lambda raw: _poke(raw, "center", np.nan, at=5),
     "checkpoint field center holds a non-finite value"),
], ids=["one-value-short", "one-value-long", "version-1", "version-2", "version-3", "vadw",
        "p-mean-nan", "p-std-0", "p-std-negative", "p-mean-huge", "p-std-huge", "huge-input-dim",
        "huge-width", "input-dim-mismatch", "embed-dim-mismatch", "meta-dtype", "tensor-dtype",
        "meta-shape", "field-names", "padding-cut", "empty", "raw-nan", "ema-inf",
        "ema-minus-inf", "center-nan"])
def test_score_malformed_checkpoint_is_data_error(tmp_path, capsys, corrupt, fragment):
    f, m = make_data(tmp_path)
    ck = tmp_path / "model.bin"
    ck.write_bytes(corrupt(_small_checkpoint(ck)))
    out = tmp_path / "s.csv"
    capsys.readouterr()
    code = run("score", "--features", str(f), "--manifest", str(m), "--checkpoint", str(ck),
               "--out", str(out))
    _assert_data_error(code, capsys, fragment)
    assert not out.exists()


@pytest.fixture(scope="module")
def score_inputs(tmp_path_factory):
    """Bytes of a small checkpoint, and a directory holding matching features."""
    tmp = tmp_path_factory.mktemp("corrupt-ck")
    make_data(tmp)
    raw = _small_checkpoint(tmp / "model.bin")
    assert _score_bytes(tmp, raw) == (0, "")
    return raw, tmp


def _score_bytes(directory, checkpoint: bytes, features: bytes | None = None):
    """(exit code, stderr) of `vadiff score` with the given checkpoint contents
    and, if given, feature file contents."""
    (directory / "c.bin").write_bytes(checkpoint)
    feats = directory / "feat.vadf"
    if features is not None:
        feats = directory / "flipped.npy"
        feats.write_bytes(features)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["score", "--features", str(feats), "--manifest",
                     str(directory / "man.json"), "--checkpoint", str(directory / "c.bin"),
                     "--out", str(directory / "s.csv")])
    return code, err.getvalue()


@given(data=st.data())
def test_score_truncated_checkpoint_is_data_error(score_inputs, data):
    raw, tmp = score_inputs
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
    code, err = _score_bytes(tmp, raw[:cut])
    assert code == 2 and "Traceback" not in err, err


@given(data=st.data())
def test_score_flipped_checkpoint_byte_never_escapes(score_inputs, data):
    raw = bytearray(score_inputs[0])
    at = data.draw(st.integers(0, len(raw) - 1), label="offset")
    raw[at] ^= data.draw(st.integers(1, 255), label="mask")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = _score_bytes(score_inputs[1], bytes(raw))
    assert "Traceback" not in err
    assert not caught, [str(w.message) for w in caught]
    # a flipped weight can overflow the reconstruction: the numeric exit
    assert code in (0, 2) or (code == 3 and "non-finite" in err), err


@given(data=st.data())
def test_score_flipped_feature_byte_never_escapes(score_inputs, data):
    raw = bytearray((score_inputs[1] / "feat.vadf").read_bytes())
    at = data.draw(st.integers(0, len(raw) - 1), label="offset")
    raw[at] ^= data.draw(st.integers(1, 255), label="mask")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = _score_bytes(score_inputs[1], score_inputs[0], bytes(raw))
    assert "Traceback" not in err
    assert not caught, [str(w.message) for w in caught]
    # a flipped header byte, or a NaN or inf value, exits 2; a huge value can
    # overflow the reconstruction: the numeric exit
    assert code in (0, 2) or (code == 3 and "non-finite" in err), err


def test_unknown_subcommand_is_usage_error():
    assert run("frobnicate") == 1
    assert run("--help") == 0


_COMMON = {"-h", "--help", "--config", "--seed"}
_SURFACE = {
    "synth": {"--features", "--manifest", "--n-normal", "--anomaly-fraction", "--dim",
              "--shift", "--segment-len"},
    "train": {"--features", "--manifest", "--checkpoint", "--out", "--p-mean", "--p-std",
              "--batch-size", "--epochs", "--lr", "--ema-decay", "--center"},
    "score": {"--features", "--manifest", "--checkpoint", "--out", "--sigma-min", "--sigma-max",
              "--rho", "--steps", "--start-t", "--k", "--batch-size", "--raw-weights"},
    "eval": {"--scores", "--manifest", "--out"},
}


@pytest.mark.parametrize("command", sorted(_SURFACE))
def test_subcommand_option_strings_are_pinned(command, capsys):
    def options(parser, name):
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return {s for action in sub.choices[name]._actions for s in action.option_strings}

    parser = build_parser(command)
    assert options(parser, command) == _COMMON | _SURFACE[command]
    # the parser built for one command holds no other command's flags
    assert all(options(parser, other) == {"-h", "--help"} for other in _SURFACE if other != command)
    assert run(command, "--help") == 0
    assert f"usage: vadiff {command}" in capsys.readouterr().out


# sha256 of `vadiff --help` and each `vadiff CMD --help` at 80 columns, as
# Python 3.11's argparse lays them out; a deliberate change to a flag, its help
# or a default updates these
_HELP_SHA256 = {
    (): "3c0fdc7adbd2ef3fffce53bd96f4eab88cbadecf7205b9f5a7a0c92e2f652a46",
    ("synth",): "3bf27092946761f1e66967d071d71efba72a552516f26e74738f70b73b77a1c9",
    ("train",): "b22033894f833549a25dfee080120bc1f0652513b176160e27bac601e6b12f97",
    ("score",): "00cf01380f16f4379578028128429befff900e72cb5d1fba564b6b915de97a11",
    ("eval",): "f213eed1547a9bd9a36d083734313c2bb6b4010d66b9696f8cb4fc787a4fc48f",
}


@pytest.mark.parametrize("argv", list(_HELP_SHA256), ids=lambda a: " ".join(a) or "top")
def test_help_text_is_pinned(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    capsys.readouterr()
    assert run(*argv, "--help") == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _HELP_SHA256[argv], out


# --- the parameter study (demos/06_parameter_study.py) ---------------------------

def study(*args, **kwargs):
    spec = importlib.util.spec_from_file_location(
        "parameter_study", Path(__file__).resolve().parents[1] / "demos" / "06_parameter_study.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.study(*args, **kwargs)


def test_sweep_single_cell_matches_manual_chain(tmp_path):
    f, m = make_data(tmp_path, n_normal=100, fraction=0.3)
    grid = tmp_path / "grid.csv"
    study(load_features(f, m), grid, p_means=(-1.2,), p_stds=(1.2,), start_ts=(4,), ks=(1.0,),
          train=TrainConfig(epochs=2, batch_size=64), seed=0)
    rows = [r.split(",") for r in grid.read_text().splitlines()]
    assert rows[0] == ["p_mean", "p_std", "t", "k", "auc", "flagged_frac"]
    # one grid cell plus its best-of row
    assert len(rows) == 3

    ck = train_tiny(tmp_path, f, m)  # same seed, same hyperparameters
    scores = score_tiny(tmp_path, f, m, ck, "manual.csv",
                        "--start-t", "4", "--seed", "0", "--batch-size", "64")
    report = tmp_path / "manual.json"
    assert run("eval", "--scores", str(scores), "--manifest", str(m),
               "--out", str(report)) == 0
    manual_auc = json.loads(report.read_text())["auc"]
    study_auc = float(rows[1][4])
    assert study_auc == manual_auc
    # the study derives its flags from the batch stats, the score CSV from l_th
    flagged = [int(r.split(",")[3]) for r in scores.read_text().splitlines()[1:]]
    assert float(rows[1][5]) == float(np.mean(flagged))


def test_sweep_row_count_and_k_invariance(tmp_path):
    f, m = make_data(tmp_path, n_normal=100, fraction=0.3)
    grid = tmp_path / "grid.csv"
    study(load_features(f, m), grid, p_means=(-1.2,), p_stds=(1.2,), start_ts=(2, 7),
          ks=(0.1, 0.5, 1.0), train=TrainConfig(epochs=1, batch_size=64), seed=0)
    rows = [r.split(",") for r in grid.read_text().splitlines()][1:]
    cells = [r for r in rows if r[2] != "best"]
    best = [r for r in rows if r[2] == "best"]
    assert len(cells) == 1 * 1 * 2 * 3
    assert len(best) == 3  # one per k for the single noise pair

    # AUC depends on t but never on k
    for t in ("2", "7"):
        aucs = {r[4] for r in cells if r[2] == t}
        assert len(aucs) == 1
    # flagged fraction must shrink as k grows, for each t
    for t in ("2", "7"):
        fracs = [float(r[5]) for r in cells if r[2] == t]
        assert fracs[0] >= fracs[1] >= fracs[2]


@pytest.mark.parametrize("argv, message", [
    (["score", "--steps", "1"], "--steps must be >= 2, got 1"),
    (["score", "--batch-size", "1"], "--batch-size must be >= 2, got 1"),
    (["score", "--rho", "0"], "--rho must be positive, got 0.0"),
    (["train", "--lr", "0"], "--lr must be positive and finite, got 0.0"),
    (["train", "--epochs", "0"], "--epochs and --batch-size must be >= 1, got (0, 8192)"),
    (["train", "--batch-size", "0"], "--epochs and --batch-size must be >= 1, got (50, 0)"),
    (["synth", "--dim", "0"], "--dim and --segment-len must be >= 1, got (0, 16)"),
], ids=["score-steps", "score-batch-size", "score-rho", "train-lr", "train-epochs",
        "train-batch-size", "synth-dim"])
def test_config_errors_name_the_flag(tmp_path, capsys, argv, message):
    """A flag value its config rejects exits 1 with the config's message,
    each field named by its flag."""
    f, m = make_data(tmp_path)
    ck = tmp_path / "model.bin"
    _small_checkpoint(ck)
    files = {"synth": ["--features", tmp_path / "new.npy", "--manifest", tmp_path / "new.json"],
             "train": ["--features", f, "--manifest", m, "--checkpoint", tmp_path / "new.bin"],
             "score": ["--features", f, "--manifest", m, "--checkpoint", ck,
                       "--out", tmp_path / "s.csv"]}
    capsys.readouterr()
    code = run(argv[0], *map(str, files[argv[0]]), *argv[1:])
    assert (code, capsys.readouterr().err) == (1, f"error: {message}\n")
    assert not any(tmp_path.glob("new*")) and not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("command", ["score"])
@pytest.mark.parametrize("steps", [2**40, 2**62, MAX_STEPS + 1], ids=["2**40", "2**62", "max+1"])
def test_huge_steps_names_the_flag_before_any_allocation(tmp_path, capsys, peak_heap,
                                                         command, steps):
    """--steps is bounded, by ScheduleConfig, before a schedule or an input
    exists.  The inputs are absent, so reading one would exit 2."""
    capsys.readouterr()
    paths = {"--features": "absent.vadf", "--manifest": "absent.json", "--out": "out.csv",
             "--checkpoint": "absent.ckpt"}
    argv = [a for flag, name in paths.items() for a in (flag, str(tmp_path / name))]
    code, peak = peak_heap(lambda: run(command, *argv, "--steps", str(steps)))
    err = capsys.readouterr().err
    assert code == 1
    assert f"--steps must be <= {MAX_STEPS}, got {steps}" in err
    assert "Traceback" not in err
    assert peak < 2**20


def test_schedule_config_bounds_steps():
    ScheduleConfig(steps=MAX_STEPS)
    with pytest.raises(ValueError, match=f"steps must be <= {MAX_STEPS}"):
        ScheduleConfig(steps=MAX_STEPS + 1)


@pytest.mark.parametrize("n_normal", [2**40, 2**62], ids=["refused", "unaddressable"])
def test_synth_huge_n_normal_names_the_flag(tmp_path, capsys, n_normal):
    """At --dim 64, 2**40 rows are 512 TiB of float64, which the allocator
    refuses at once, and 2**62 rows are past what numpy can address: both
    exit 1 naming the flags, and no file is written."""
    capsys.readouterr()
    f, m = tmp_path / "f.vadf", tmp_path / "m.json"
    code = run("synth", "--features", str(f), "--manifest", str(m),
               "--n-normal", str(n_normal), "--dim", "64")
    err = capsys.readouterr().err
    assert code == 1
    assert f"--n-normal {n_normal} at --dim 64 and --segment-len 16: " in err
    assert "Traceback" not in err
    assert not f.exists() and not m.exists()


def test_synth_huge_segment_len_names_the_flag(tmp_path, capsys):
    """40 segments of 2**40 frames make label arrays of many TiB, which the
    allocator refuses at once: synth exits 1 naming --segment-len with the
    other sizes, and no file is written."""
    capsys.readouterr()
    f, m = tmp_path / "f.npy", tmp_path / "m.json"
    code = run("synth", "--features", str(f), "--manifest", str(m),
               "--n-normal", "40", "--dim", "4", "--segment-len", str(2**40))
    err = capsys.readouterr().err
    assert code == 1
    assert f"--n-normal 40 at --dim 4 and --segment-len {2**40}: Unable to allocate" in err
    assert "Traceback" not in err
    assert not f.exists() and not m.exists()


@pytest.mark.parametrize("segment_len", [2**62, 2**63, 2**64], ids=["2**62", "2**63", "2**64"])
def test_synth_segment_len_past_int64_frames_names_the_flag(tmp_path, capsys, segment_len):
    """A video of synth's longest, 40 segments, must have fewer than 2**63
    frames, as a manifest's frame_count must: a longer --segment-len exits 1
    naming it before any array is made, and no file is written."""
    capsys.readouterr()
    f, m = tmp_path / "f.npy", tmp_path / "m.json"
    code = run("synth", "--features", str(f), "--manifest", str(m),
               "--segment-len", str(segment_len))
    assert (code, capsys.readouterr().err) == (
        1, f"error: --segment-len must be < 2**63 / 40, got {segment_len}\n")
    assert not f.exists() and not m.exists()


@pytest.mark.parametrize("segment_len", [2**62, 2**63, 2**64], ids=["2**62", "2**63", "2**64"])
def test_eval_segment_len_outside_int64_is_data_error(tmp_path, capsys, segment_len):
    """Videos of one segment each, as any segment_len beyond their frame
    counts declares: [1, 2**63) is evaluated, anything longer exits 2
    naming segment_len."""
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"version": 1, "segment_len": segment_len, "videos": [
        {"video_id": v, "frame_count": 16, "segment_offset": i, "segment_count": 1,
         "labels": [i] * 16} for i, v in enumerate("ab")]}))
    scores = tmp_path / "s.csv"
    scores.write_text("video_id,segment_index,mse,flagged,batch_id,l_th\n"
                      "a,0,0.25,0,0,1.0\nb,0,0.5,0,0,1.0\n")
    capsys.readouterr()
    code = run("eval", "--scores", str(scores), "--manifest", str(m),
               "--out", str(tmp_path / "r.json"))
    if segment_len < 2**63:
        assert code == 0 and json.loads((tmp_path / "r.json").read_text())["auc"] == 1.0
    else:
        _assert_data_error(code, capsys, f"error: segment_len {segment_len} is not in [1, 2**63)")


@pytest.mark.parametrize("rho", ["1e300", "1e17"])
def test_score_rho_with_repeated_sigmas_exits_1(tmp_path, capsys, rho):
    """At these --rho values every sigma between the pinned ends rounds to
    1.0, so the grid does not strictly decrease and LMS would divide by 0:
    score exits 1 naming --rho, with one line on stderr and no warning."""
    f, m = make_data(tmp_path)
    ck = train_tiny(tmp_path, f, m)
    out = tmp_path / "s.csv"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("score", "--features", str(f), "--manifest", str(m), "--checkpoint", str(ck),
                   "--out", str(out), "--start-t", "0", "--rho", rho)
    assert not caught, [str(w.message) for w in caught]
    assert (code, capsys.readouterr().err) == (
        1, f"error: --rho {float(rho)} gives a grid whose sigmas do not strictly decrease\n")
    assert not out.exists()


def test_schedule_config_needs_strictly_decreasing_sigmas():
    ScheduleConfig(rho=1e15)
    for rho in (1e16, 1e17, 1e300):
        with pytest.raises(ValueError, match="do not strictly decrease"):
            ScheduleConfig(rho=rho)


@pytest.mark.parametrize("shift", ["nan", "inf", "1e200"])
def test_synth_shift_past_float32_exits_1(tmp_path, capsys, shift):
    """A shift that is not finite, or whose anomalous rows overflow float32,
    would write inf or nan features: synth exits 1 naming --shift, with one
    line on stderr and no warning, and writes no file."""
    f, m = tmp_path / "f.npy", tmp_path / "m.json"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("synth", "--features", str(f), "--manifest", str(m), "--n-normal", "40",
                   "--dim", "4", "--shift", shift)
    assert not caught, [str(w.message) for w in caught]
    assert (code, capsys.readouterr().err) == (
        1, f"error: --shift must be >= 0 with --shift / sqrt(--dim) finite in float32, "
           f"got {float(shift)}\n")
    assert not f.exists() and not m.exists()


def test_synth_largest_float32_shift_writes_finite_features(tmp_path):
    f, m = make_data(tmp_path, dim=4, shift=2 * 3.4e38)  # an offset of 3.4e38 per dimension
    assert np.isfinite(load_features(f, m).features).all()


def test_train_numeric_failure_prints_one_line(tmp_path, capsys):
    """The overflow that ends training in its first step raises no numpy
    warning: stderr holds the numeric failure alone, and no checkpoint is
    written."""
    f, m = make_data(tmp_path)
    ck = tmp_path / "model.bin"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("train", "--features", str(f), "--manifest", str(m), "--checkpoint", str(ck),
                   "--epochs", "3", "--batch-size", "64", "--lr", "1e30")
    assert not caught, [str(w.message) for w in caught]
    assert (code, capsys.readouterr().err) == (
        3, "numeric failure: non-finite loss nan at epoch 0, step 1\n")
    assert not ck.exists()


def test_score_overflowing_reconstruction_exits_3_in_one_line(tmp_path, capsys):
    """Output weights of 3e38 overflow the network's float32 output: with
    numpy's warnings off, score_dataset's own check still exits 3."""
    f, m = make_data(tmp_path)
    ck = tmp_path / "model.bin"
    params = init_params(NetworkConfig(6, (8,), (8,), 8), Rng(0))
    params.out_w[...] = 3e38
    save_checkpoint(ck, params, params.copy(), Preconditioner(1.0), TrainNoiseConfig())
    out = tmp_path / "s.csv"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("score", "--features", str(f), "--manifest", str(m), "--checkpoint", str(ck),
                   "--out", str(out))
    assert not caught, [str(w.message) for w in caught]
    assert (code, capsys.readouterr().err) == (
        3, "numeric failure: non-finite reconstruction loss\n")
    assert not out.exists()


@pytest.mark.parametrize("sigma_max, code, err", [
    ("1e39", 3, "numeric failure: the noised start at sigmas[0] = 1e+39 overflows float32: "
                "lower --sigma-max or raise --start-t\n"),
    ("1e37", 0, ""),
], ids=["1e39", "1e37"])
def test_score_start_level_beyond_float32_exits_3_naming_it(tmp_path, capsys, sigma_max, code,
                                                             err):
    """The noised start is held in the weights' float32: a start level of
    1e39 overflows it, and the exit names the level and its two flags
    without a numpy warning; 1e37 still scores."""
    f, m = make_data(tmp_path)
    ck = tmp_path / "model.bin"
    params = init_params(NetworkConfig(6, (8,), (8,), 8), Rng(0))
    save_checkpoint(ck, params, params.copy(), Preconditioner(1.0), TrainNoiseConfig())
    out = tmp_path / "s.csv"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = run("score", "--features", str(f), "--manifest", str(m), "--checkpoint", str(ck),
                  "--out", str(out), "--start-t", "0", "--sigma-max", sigma_max)
    assert not caught, [str(w.message) for w in caught]
    assert (got, capsys.readouterr().err) == (code, err)
    assert out.exists() == (code == 0)


def test_eval_nan_score_exits_3_in_one_line(tmp_path, capsys):
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"version": 1, "segment_len": 16, "videos": [
        {"video_id": v, "frame_count": 16, "segment_offset": i, "segment_count": 1,
         "labels": [i] * 16} for i, v in enumerate("ab")]}))
    scores = tmp_path / "s.csv"
    scores.write_text("video_id,segment_index,mse,flagged,batch_id,l_th\n"
                      "a,0,0.25,0,0,1.0\nb,0,nan,0,0,1.0\n")
    capsys.readouterr()
    code = run("eval", "--scores", str(scores), "--manifest", str(m),
               "--out", str(tmp_path / "r.json"))
    assert (code, capsys.readouterr().err) == (
        3, "numeric failure: video 'b', segment 0: non-finite score nan\n")
