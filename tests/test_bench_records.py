"""Every benchmark record at the repository root (``BENCH_*.json``) compares
a change with its parent commit on the benchmark's workloads: the medians of
each end-to-end metric on both sides over alternating run pairs, the result
fingerprint on both sides, and the environment that measured them. A record
missing any of these fails here rather than standing as evidence."""

import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
METRICS = ("op_rel", "setup_s", "peak_rss_mb")
ENVIRONMENT = ("python", "numpy", "scipy", "blas", "blas_threads", "nproc")
SIDES = ("parent", "change")
MIN_PAIRS = 6


def finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def test_a_record_exists():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_carries_medians_fingerprint_and_environment(path):
    record = json.loads(path.read_text())
    assert all(record["environment"][key] not in (None, "") for key in ENVIRONMENT)
    assert record["command"] and record["pairs"] >= MIN_PAIRS
    assert record["workloads"]
    for name, entry in record["workloads"].items():
        for side in SIDES:
            for metric in METRICS:
                runs = entry["runs"][side][metric]
                assert len(runs) == record["pairs"] and all(map(finite, runs)), (name, metric)
                assert entry["medians"][side][metric] == statistics.median(runs)
            fingerprint = entry["fingerprint"][side]
            quality = (("test_accuracy",) if "test_accuracy" in fingerprint
                       else ("test_ndcg1", "test_rmse"))
            for key in ("final_objective", "k") + quality:
                assert finite(fingerprint[key]), (name, side, key)
