"""Tests of the benchmark itself, on its tiny ``smoke`` workload.

    python3 -m pytest -q benchmark/test_benchmark.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    proc = _bench(ROOT, "--workload", "smoke", "--seed", "3", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 4
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


def test_wrong_oracle_value_is_counted_as_failed(monkeypatch):
    monkeypatch.setitem(workloads.REFERENCE, "wi3_grid3_p_max", 0.5)
    details = run.run_workload("smoke", 3, 1, trace=True)
    line = details["result"]
    runs = len(details["runs"])
    assert line["correct"] is False
    assert line["failed"] == runs  # the wi3 grid op misses its reference once per run
    assert line["metrics"]["failed_ops"]["value"] == pytest.approx(runs / line["attempted"])
    statuses = [op["status"] for r in details["runs"] for op in r["ops"]]
    assert statuses.count("failed") == runs


def test_without_sources_it_exits_nonzero_and_prints_no_result():
    lone = ROOT / ".benchmark_out" / "lone"
    shutil.rmtree(lone, ignore_errors=True)
    (lone / "benchmark").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", lone)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, lone / "benchmark")
    try:
        proc = _bench(lone, "--workload", "smoke", "--seed", "1", "--seconds", "1")
    finally:
        shutil.rmtree(lone)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
