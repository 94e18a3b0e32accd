import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vadiff import (
    DatasetScores,
    NetworkConfig,
    Rng,
    SynthConfig,
    init_params,
    load_features,
    read_scores_csv,
    save_checkpoint,
    save_features,
    synth_generate,
    validate_manifest,
    write_scores_csv,
)
from vadiff import data, evaluation
from vadiff.cli import main


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


def test_train_missing_features_exit_2_no_partial_checkpoint(tmp_path):
    _, m = make_data(tmp_path)
    ck = tmp_path / "never.bin"
    code = run(
        "train", "--features", str(tmp_path / "absent.vadf"), "--manifest", str(m),
        "--checkpoint", str(ck),
    )
    assert code == 2
    assert not ck.exists()


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
], ids=["top-level-list", "missing-frame-count"])
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


@pytest.mark.parametrize("corrupt, fragment", [
    ("activation", "activation name b'sil\\xe9' is not ASCII"),
    ("shape", "EMA weights: tensor layers[0].w has shape (4, 5), config implies (6, 8)"),
])
def test_score_malformed_checkpoint_is_data_error(tmp_path, capsys, corrupt, fragment):
    f, m = make_data(tmp_path)
    params = init_params(NetworkConfig(6, (8,), (8,), 8), Rng(0))
    ema = params.copy()
    if corrupt == "shape":
        ema.layers[0].w = np.zeros((4, 5), dtype=np.float32)
    ck = tmp_path / "model.bin"
    save_checkpoint(ck, params, ema, sigma_data=1.0)
    if corrupt == "activation":
        ck.write_bytes(ck.read_bytes().replace(b"silu", b"sil\xe9", 1))
    out = tmp_path / "s.csv"
    capsys.readouterr()
    code = run("score", "--features", str(f), "--manifest", str(m), "--checkpoint", str(ck),
               "--out", str(out))
    _assert_data_error(code, capsys, fragment)
    assert not out.exists()


def test_unknown_subcommand_is_usage_error():
    assert run("frobnicate") == 1
    assert run("--help") == 0


# --- sweep ----------------------------------------------------------------------

def test_sweep_single_cell_matches_manual_chain(tmp_path):
    f, m = make_data(tmp_path, n_normal=100, fraction=0.3)
    grid = tmp_path / "grid.csv"
    code = run(
        "sweep", "--features", str(f), "--manifest", str(m), "--out", str(grid),
        "--seed", "0", "--epochs", "2", "--batch-size", "64",
        "--p-mean", "-1.2", "--p-std", "1.2", "--start-t", "4", "--k", "1.0",
    )
    assert code == 0
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
    sweep_auc = float(rows[1][4])
    assert sweep_auc == manual_auc


def test_sweep_row_count_and_k_invariance(tmp_path):
    f, m = make_data(tmp_path, n_normal=100, fraction=0.3)
    grid = tmp_path / "grid.csv"
    code = run(
        "sweep", "--features", str(f), "--manifest", str(m), "--out", str(grid),
        "--seed", "0", "--epochs", "1", "--batch-size", "64",
        "--p-mean", "-1.2", "--p-std", "1.2",
        "--start-t", "2", "7", "--k", "0.1", "0.5", "1.0",
    )
    assert code == 0
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
