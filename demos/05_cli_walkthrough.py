"""Drive the command line end to end and look at every artifact.

The four subcommands mirror the library pipeline:

    synth -> train -> score -> eval

Demo 06, the parameter study, runs a grid over the training noise, the
start index and k through the library.

Each stage reads and writes plain files: a NumPy .npy feature file, a JSON
manifest, a binary checkpoint, CSVs, and a JSON report, so any stage can
be swapped for your own tooling.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

def cli(*args):
    cmd = [sys.executable, "-m", "vadiff.cli", *map(str, args)]
    print("$ vadiff " + " ".join(map(str, args)))
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(out.stderr)
    return out.stdout

work = Path(tempfile.mkdtemp(prefix="vadiff-demo-"))
feats, manifest = work / "features.npy", work / "manifest.json"
ckpt, scores_csv, report = work / "model.ckpt", work / "scores.csv", work / "report.json"

# 1. synthesize a labeled corpus
cli("synth", "--features", feats, "--manifest", manifest,
    "--n-normal", 300, "--anomaly-fraction", 0.08, "--dim", 12, "--shift", 6.0, "--seed", 4)
records = json.loads(manifest.read_text(encoding="utf-8"))
print(f"  -> {len(records['videos'])} videos; first record: {records['videos'][0]['video_id']},"
      f" {records['videos'][0]['frame_count']} frames\n")

# 2. train; the log CSV holds one row per epoch
cli("train", "--features", feats, "--manifest", manifest, "--checkpoint", ckpt,
    "--epochs", 8, "--batch-size", 64, "--lr", "3e-3", "--ema-decay", 0.95, "--seed", 0)
log = (work / "model.ckpt.log.csv").read_text(encoding="utf-8").splitlines()
print("  training log: " + log[0])
print("                " + log[1])
print("                " + log[-1] + "\n")

# 3. score with heavy corruption (start index 0 of a 10-step schedule)
cli("score", "--features", feats, "--manifest", manifest, "--checkpoint", ckpt,
    "--out", scores_csv, "--sigma-min", 0.05, "--sigma-max", 5.0, "--steps", 10,
    "--start-t", 0, "--k", 1.0, "--seed", 0)
rows = scores_csv.read_text(encoding="utf-8").splitlines()
print("  score CSV: " + rows[0])
print("             " + rows[1] + f"   ... {len(rows) - 1} segments\n")

# 4. evaluate against the manifest labels; the report is printed and saved
out = cli("eval", "--scores", scores_csv, "--manifest", manifest, "--out", report)
doc = json.loads(report.read_text(encoding="utf-8"))
print(f"  -> frame AUC {doc['auc']:.4f} on {doc['frame_count']} frames"
      f" ({doc['positive_count']} anomalous)")
print(f"\nartifacts kept in {work}")
