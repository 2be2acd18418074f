"""The benchmark's smoke mode: every workload runs and passes its checks."""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_smoke_runs_every_workload_with_checks():
    res = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr[-4000:]
    lines = [json.loads(line) for line in res.stdout.splitlines() if line.startswith("{")]
    assert [line["workload"] for line in lines] == [w["name"] for w in SPEC["workloads"]]
    # the smoke run is too short for a tail percentile
    wanted = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]} - {"op_ms_tail"}
    for line in lines:
        assert line["correct"] and line["failed"] == 0, line["workload"]
        assert line["attempted"] >= 2
        assert wanted <= set(line["metrics"]), wanted - set(line["metrics"])
        for metric in line["metrics"].values():
            assert isinstance(metric["value"], float) and metric["unit"]


def test_refuses_to_run_without_the_sources(tmp_path):
    """Outside a checkout (no src/sdckit) it prints no result and fails."""
    bench = tmp_path / "benchmark"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    res = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "rsdc-n80",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert res.returncode != 0
    assert not res.stdout.strip()
