"""Smoke tests of the benchmark: every workload on a handful of n+m = 6 inputs.

Run from the repository root with `python -m pytest bench`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("richness.k_used_sum", "richness.k_full_sum", "identify.q_bits_max", "adversary.pair_bits_max")


def _run(cwd: Path, workload: str, trace: int, smoke: bool = True) -> subprocess.CompletedProcess:
    args = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["designed", "deficient", "cli"])
def test_smoke_run_is_correct_and_prints_every_metric(workload, trace):
    result = _result(_run(ROOT, workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["designed", "deficient"])
def test_traced_counts_repeat_exactly(workload):
    first, second = (_result(_run(ROOT, workload, 1))["metrics"] for _ in range(2))
    assert any(first[name]["value"] for name in COUNTS)
    assert {name: first[name] for name in COUNTS} == {name: second[name] for name in COUNTS}
    calls = [name for name in first if name.endswith(".calls")]
    assert {name: first[name] for name in calls} == {name: second[name] for name in calls}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path, "designed", 0, smoke=False)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
