import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "layers.py"


def test_layers_tool_writes_its_record_at_tiny_sizes(tmp_path):
    out = tmp_path / "layers.json"
    printed = subprocess.run([sys.executable, str(TOOL), "--rows", "8", "--dims", "4", "6",
                              "--lms-dim", "4", "--auc-scores", "10", "--io-normal", "40",
                              "--scale", "16", "4",
                              "--reps", "1", "--out", str(out)],
                             capture_output=True, text=True, check=True).stdout
    record = json.loads(out.read_text())
    assert set(record) == {"environment", "config", "layers", "scale"}
    assert set(record["environment"]) >= {"python", "numpy", "blas", "cpus"}
    training = [(name, dim) for dim in (4, 6) for name in ("dsm_loss_fold", "dsm_loss",
                                                            "adam_ema")]
    assert [(r["layer"], r["dim"]) for r in record["layers"]] == training + [
        ("hidden_layer", 1024), ("nfe", 4), ("nfe", 6), ("lms_sample", 4), ("roc_auc", 1),
        ("load_manifest", 1), ("read_scores_csv", 1), ("join_scores", 1), ("evaluate", 1),
        ("load_features", 8), ("load_checkpoint", 8)]
    timed = {"layer", "rows", "dim", "median_s", "quartiles_s", "reps"}
    for i, r in enumerate(record["layers"]):
        io = i >= len(training) + 5  # from load_manifest on, each row has its heap peak
        assert set(r) == timed | ({"heap_peak_mib"} if io else set())
        assert r["reps"] == 1 and r["median_s"] > 0 and (not io or r["heap_peak_mib"] > 0)
    # 42 segments: 40 normal and 5 % as many anomalous
    assert [r["rows"] for r in record["layers"]] == [8] * 10 + [10, 42, 42, 42, 42, 42, 1]
    scale = record["scale"]
    assert set(scale) == {"rows", "dim", "wall_s", "wall_quartiles_s", "reps", "heap_peak_mib",
                          "rss_setup_mib", "rss_peak_mib"}
    assert (scale["rows"], scale["dim"]) == (16, 4)
    assert 0 < scale["heap_peak_mib"] and 0 < scale["rss_setup_mib"] <= scale["rss_peak_mib"]
    lines = printed.splitlines()
    assert lines[0].split() == ["layer", "rows", "dim", "median", "s", "q1", "s", "q3", "s",
                                "heap", "MiB"]
    assert len(lines[1].split()) == 6 and len(lines[-2].split()) == 7  # dsm_loss_fold, I/O
    assert printed.splitlines()[-1].startswith("scale: one 16 x 4 batch at start_index 0")
