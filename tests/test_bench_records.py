"""The committed BENCH_<pr>.json trajectory stays machine-readable: every
record carries the keys that a reader of the whole trajectory relies on."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = {"pr", "change", "environment", "benchmark", "src_lines", "tests", "criterion_7_auc"}


def test_bench_records_exist():
    assert RECORDS, "no BENCH_*.json beside the tests"


@pytest.mark.parametrize("path", RECORDS, ids=[f.name for f in RECORDS])
def test_bench_record_carries_the_shared_keys(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    assert KEYS <= set(record), sorted(KEYS - set(record))
    assert record["pr"] == int(re.fullmatch(r"BENCH_(\d+)\.json", path.name)[1])
