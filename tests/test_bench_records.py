"""The committed benchmark trajectory: one BENCH_<n>.json per measured tree."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_the_trajectory_has_records():
    assert len(RECORDS) >= 2, RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_holds_every_workload_correct_with_its_metrics(path):
    record = json.loads(path.read_text())
    assert re.fullmatch(r"BENCH_\d+\.json", path.name)
    assert {"tree", "command", "machine", "results"} <= set(record)
    assert record["tree"] and record["machine"]
    # a seed-0 run of the committed bench script, long enough to hold passes
    seconds = re.fullmatch(r"python3 perfbench/bench\.py --workload W --seed 0 --seconds (\S+)",
                           record["command"])
    assert seconds and float(seconds.group(1)) >= 20, record["command"]
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    assert sorted(record["results"]) == sorted(workloads)
    for name, result in record["results"].items():
        assert result["correct"] is True and result["failed"] == 0, name
        assert result["attempted"] > 0, name
        metrics = result["metrics"]
        assert set(metrics) == set(units), name
        for metric, unit in units.items():
            assert metrics[metric]["unit"] == unit, (name, metric)
            assert metrics[metric]["value"] > 0, (name, metric)
