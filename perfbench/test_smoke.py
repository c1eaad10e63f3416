"""Smoke test of the benchmark itself: every workload on a small horizon/grid.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each run, of the gated workloads in BENCHMARK.json and of
compare4, reports every metric named there with its unit, on the last line
and in the printed lines above it, that the outputs pass their checks, and
that the benchmark refuses to run without sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["run_dense", "compare4", "design_sweep"])
def test_every_metric_reported_with_unit(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {tuple(ln.split()[:1]): ln.split() for ln in lines[:-1] if ln.strip()}
    for name, unit in expected.items():
        assert unit in printed.get((name,), []), f"{name} not printed with unit {unit}"
    assert "fail_frac" in proc.stdout
    if trace:
        assert "tracing overhead" in proc.stdout
        if workload != "design_sweep":
            assert "4 x steps per member" in proc.stdout and ": True" in proc.stdout


def test_refuses_without_sources():
    bare = ROOT / "perfbench" / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in (ROOT / "perfbench").glob("*.py"):
            shutil.copy(f, bare / "perfbench")
        proc = bench(bare, "run_dense", 0)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
