"""Smoke test of the benchmark on tiny inputs.

Checks the result format, that every metric named in BENCHMARK.json is
emitted with its unit, and that every output check of each workload ran.
It asserts no timing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3"]
    cmd += ["--seconds", "0.2", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric_and_runs_every_check(workload, trace, tmp_path):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.splitlines()
    detail, result = json.loads(detail_line), json.loads(result_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"], m["name"]
        assert isinstance(metric["value"], (int, float)), m["name"]

    plan = workloads.build_plan(workload, 3, ROOT / "src", tmp_path, smoke=True)
    assert set(detail["checks"]) == workloads.checks_of(plan)
    assert all(count >= 1 for count in detail["checks"].values())


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "point_queries", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
