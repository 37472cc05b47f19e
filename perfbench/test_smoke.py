"""Smoke test of the benchmark itself, every workload at tiny size.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
import run  # noqa: E402

# every workload run.py offers, also those BENCHMARK.json leaves out
WORKLOADS = list(run.WORKLOADS)


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace, section):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stdout
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    for name in declared:
        assert isinstance(result["metrics"][name]["value"], (int, float))
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert f"fail_ratio     0 (0 of {result['attempted']} items)" in proc.stdout


def test_benchmark_workloads_are_offered():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_fail_ratio_counts_raised_and_wrong_items():
    run.import_library()
    import workloads

    rnd = workloads.Round()
    rnd.add("right", lambda: 1, lambda out: None if out == 1 else "not 1")
    rnd.add("raises", lambda: 1 / 0, lambda out: None)
    rnd.add("wrong", lambda: 2, lambda out: None if out == 1 else "not 1")
    latencies, failures = run.run_round(rnd)
    assert len(latencies) == 3
    assert [f.split(":")[0] for f in failures] == ["raises", "wrong"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
