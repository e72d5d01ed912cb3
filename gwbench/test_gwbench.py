"""Tests of the gateway benchmark itself (not part of the tier-1 suite).

    python3 -m pytest gwbench -q

The smoke runs use a one-second load; each still pays the benchmark's
fixed set-up and verification minimums, so the file takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from workloads import DEFAULT_SEED, HELDOUT_SEED, WORKLOADS, Schedule, kernel_of  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "gwbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace,seed", [("0", DEFAULT_SEED), ("1", HELDOUT_SEED)])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_emits_every_metric_with_its_unit(workload, trace, seed):
    code, lines = _run(
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", trace
    )
    result = json.loads(lines[-1])
    assert code == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tampered_receipt_fails_the_workload():
    code, lines = _run("--workload", "mix-closed", "--seconds", "1", "--tamper")
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False
    assert any("fail verification" in line for line in lines)
    assert any("serial baseline" in line for line in lines)


def test_without_the_program_it_fails_without_a_result():
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "gwbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, bare / "gwbench")
    try:
        code, lines = _run("--workload", "mix-closed", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_schedule_is_a_function_of_the_seed():
    tenants = [f"tenant-{k}" for k in ("atax", "bicg", "mvt", "trisolv", "gesummv", "jacobi-1d")]

    def draw(seed, zipf_s=None, n=600):
        schedule = Schedule(tenants, seed, zipf_s)
        return [schedule.next() for _ in range(n)]

    assert draw(1) == draw(1)
    assert draw(1) != draw(2)
    # without Zipf, every round of six visits each tenant once
    rounds = draw(5)
    assert all(sorted(rounds[i:i + 6]) == sorted(tenants) for i in range(0, 600, 6))
    assert draw(1, 1.1) == draw(1, 1.1)
    assert draw(1, 1.1) != draw(2, 1.1)


def test_kernel_of_tenant_ids():
    assert kernel_of("tenant-atax") == "atax"
    assert kernel_of("tenant-jacobi-1d") == "jacobi-1d"
    assert kernel_of("tenant-jacobi-1d-017") == "jacobi-1d"
    assert kernel_of("tenant-mvt-002") == "mvt"
