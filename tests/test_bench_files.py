"""The benchmark trajectory files stay machine-readable.

Each ``BENCH_*.json`` at the repository root holds the result lines of
one change and its parent under ``BENCHMARK.json``'s workloads and
end-to-end metrics; these tests read them, and ``BENCHMARK.json``, without
writing either.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


@pytest.fixture(scope="module")
def bench_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({w["name"] for w in spec["workloads"]},
            {m["name"]: m["unit"] for m in spec["end_to_end"]})


def test_there_are_trajectory_files():
    assert len(BENCH_FILES) >= 9


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_trajectory_file_schema(path, bench_spec):
    workloads, units = bench_spec
    data = json.loads(path.read_text())
    assert {"change", "command", "protocol", "machine", "runs"} <= set(data)
    assert data["runs"]
    sides = Counter()
    for run in data["runs"]:
        assert run["workload"] in workloads
        assert run["side"] in ("parent", "change")
        sides[run["workload"], run["side"]] += 1
        result = run["result"]
        assert result["correct"] is True and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == units
        assert all(isinstance(m["value"], (int, float))
                   for m in result["metrics"].values())
    for workload in {w for w, _ in sides}:
        assert sides[workload, "parent"] == sides[workload, "change"]
