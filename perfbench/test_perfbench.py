"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import vadiff  # noqa: E402
from vadiff import cli  # noqa: E402


def test_self_time_of_nested_spans():
    #  a [0, 10]
    #  +- b [1, 4]
    #  +- c [5, 9]
    #     +- d [6, 7]
    tree = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0],
            ["c", 5.0, 9.0, 0, 0], ["d", 6.0, 7.0, 2, 0]]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    tree = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 3.0, 6.0, 0, 0]]
    assert spans.self_times(tree)[0] == pytest.approx(5.0)
    assert spans.union_length([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7.0)


def test_run_metrics_accounts_for_wall_time():
    tree = [["cli.cmd_eval", 1.0, 5.0, -1, 0], ["evaluation.evaluate", 2.0, 4.0, 0, 0],
            ["evaluation.roc_auc", 2.5, 3.0, 1, 0]]
    m = spans.run_metrics(tree, {0: {"evaluation.frames": 7}}, walls=[6.0])
    assert m["cli.cmd_eval.self_s"] == pytest.approx(2.0)
    assert m["evaluation.evaluate.self_s"] == pytest.approx(1.5)
    assert m["evaluation.evaluate.total_s"] == pytest.approx(2.0)
    assert m["tracing.gap_s"] == pytest.approx(2.0)
    assert m["tracing.self_total_s"] + m["tracing.gap_s"] == pytest.approx(6.0)
    assert m["evaluation.frames"] == 7
    assert m["training.fit.calls"] == 0


def _bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "vadiff" or name.startswith("vadiff."):
            for key, value in vars(mod).items():
                out[name, key] = value
                if isinstance(value, dict) and key != "__builtins__":
                    out.update({(name, key, k): v for k, v in value.items()})
    out.update({("Rng", k): v for k, v in vars(vadiff.Rng).items()})
    return out


def test_traced_run_restores_every_binding(tmp_path, capsys):
    before = _bindings()
    f, m, c = (str(tmp_path / n) for n in ("f.vadf", "m.json", "c.ckpt"))
    s, r = str(tmp_path / "s.csv"), str(tmp_path / "r.json")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli._DISPATCH["train"] is not before["vadiff.cli", "_DISPATCH", "train"]
        assert vadiff.forward_raw is not before["vadiff", "forward_raw"]
        for argv in (["synth", "--features", f, "--manifest", m, "--n-normal", "40",
                      "--dim", "4", "--shift", "6"],
                     ["train", "--features", f, "--manifest", m, "--checkpoint", c,
                      "--epochs", "1", "--batch-size", "16"],
                     ["score", "--features", f, "--manifest", m, "--checkpoint", c,
                      "--out", s, "--start-t", "0"],
                     ["eval", "--scores", s, "--manifest", m, "--out", r]):
            assert cli.main(argv) == 0
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
    names = {rec[0] for rec in tracer.spans}
    assert set(spans.TRACED) - names == {"data.estimate_sigma_data"} - names
    m = spans.run_metrics(tracer.spans, tracer.counts, walls=[1e6])
    assert m["network.denoise.calls"] == 10
    assert m["network.denoise.f64_share"] == 1.0


def test_oracle_matches_vadiff_auc_on_ties():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 400))
        scores = rng.integers(0, 4, n).astype(np.float64)
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        assert checks.mann_whitney_auc(scores, labels) == pytest.approx(
            vadiff.roc_auc(scores, labels), abs=1e-12)


def test_oracle_matches_pairwise_count():
    scores = np.array([0.3, 0.3, 0.1, 0.9, 0.3, 0.5])
    labels = np.array([1, 0, 0, 1, 1, 0])
    pos, neg = scores[labels == 1], scores[labels == 0]
    pairs = [(p > q) + 0.5 * (p == q) for p in pos for q in neg]
    assert checks.mann_whitney_auc(scores, labels) == pytest.approx(np.mean(pairs))


def test_output_checks_reject_bad_outputs(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"segment_len": 2, "videos": [
        {"video_id": "v", "frame_count": 3, "segment_count": 2, "labels": [0, 1, 1]}]}))
    scores = tmp_path / "s.csv"
    header = "video_id,segment_index,mse,flagged,batch_id,l_th\n"
    scores.write_text(header + "v,0,0.5,0,0,1.0\nv,1,nan,0,0,1.0\n")
    with pytest.raises(ValueError, match="non-finite"):
        checks.check_scores(manifest, scores)
    scores.write_text(header + "v,0,0.5,0,0,1.0\n")
    with pytest.raises(ValueError, match="do not match"):
        checks.check_scores(manifest, scores)
    report = tmp_path / "r.json"
    report.write_text(json.dumps({"auc": 0.75}))
    assert checks.check_report(report, 0.75) == 0.75
    with pytest.raises(ValueError, match="oracle"):
        checks.check_report(report, 0.75 + 1e-8)


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(
        run.END_TO_END_UNITS.items())
    assert [m["name"] for m in doc["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in doc["per_layer"])
