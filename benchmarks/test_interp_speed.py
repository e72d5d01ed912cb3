"""Interpreter throughput — legacy loop vs. pre-decoded vs. compiled engine.

Times all three engines on a set of PolyBench kernels in interleaved rounds
(:func:`repro.obs.bench.interleaved_rounds`) and reports wall-clock
instructions/second plus the median per-round speedup ratios.  The pre-decoded threaded
dispatcher (``repro.wasm.predecode``) must deliver >= 3x over the legacy
loop on at least two kernels, and the Wasm→Python compilation engine
(``repro.wasm.compile_engine``) must deliver >= 3x geomean over predecode —
those are the acceptance bars for shipping each as a selectable engine.

Artefacts:

* ``benchmarks/results/interp_speed.txt`` — the human-readable table;
* ``BENCH_interp.json`` (repo root) — machine-readable per-kernel numbers
  for CI/regression tracking, plus a capped timestamped ``trajectory`` of
  distilled points (one per run) appended via the ``repro.obs.bench``
  helpers so throughput drift is visible across runs.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_interp_speed.py -q -s``.
"""

from __future__ import annotations

import json
import pathlib
import statistics

import pytest

from benchmarks.conftest import emit_table, record
from repro.obs.bench import (
    TRAJECTORY_LIMIT,
    interleaved_rounds,
    paired_ratio,
    write_bench,
)
from repro.wasm.interpreter import Instance
from repro.workloads import POLYBENCH_KERNELS

REPO_ROOT = pathlib.Path(__file__).parent.parent

#: A spread of kernel shapes: dense linalg (gemm, 2mm), stencils (jacobi-1d,
#: jacobi-2d), triangular solve (trisolv) and a reduction-heavy one (atax).
KERNELS = ["gemm", "2mm", "jacobi-1d", "jacobi-2d", "trisolv", "atax"]

ENGINES = ["legacy", "predecode", "compile"]

ROUNDS = 5


def _engine_arm(name: str, engine: str, executed: set[int]):
    """One kernel run under one engine; instantiation and setup untimed."""
    spec = POLYBENCH_KERNELS[name]

    def run(lap) -> None:
        instance = Instance(spec.compile().clone(), engine=engine)
        for fn, args in spec.setup:
            instance.invoke(fn, *args)
        with lap:
            instance.invoke(spec.run[0], *spec.run[1])
        executed.add(instance.stats.executed)

    return run


@pytest.fixture(scope="module")
def speed_rows():
    rows = []
    results = {}
    for name in KERNELS:
        counts: set[int] = set()
        measured = interleaved_rounds(
            {engine: _engine_arm(name, engine, counts) for engine in ENGINES},
            ROUNDS,
        )
        config = measured.pop("config")
        assert len(counts) == 1, "engines disagree on instruction count"
        executed = counts.pop()
        ips = {e: executed / measured["arms"][e]["median"] for e in ENGINES}
        speedup = paired_ratio(measured, "legacy", "predecode")
        compile_speedup = paired_ratio(measured, "predecode", "compile")
        rows.append(
            [name, executed]
            + [f"{ips[engine] / 1e6:.2f}" for engine in ENGINES]
            + [f"{speedup['median']:.2f}x", f"{compile_speedup['median']:.2f}x"]
        )
        results[name] = {
            **measured, "executed": executed, "speedup": speedup,
            "compile_speedup": compile_speedup,
            "ips": {engine: round(value) for engine, value in ips.items()},
        }

    def geomean(key: str) -> float:
        return statistics.geometric_mean(r[key]["median"] for r in results.values())

    bench_record = {
        "config": config,
        "kernels": results,
        "geomean_predecode_over_legacy": geomean("speedup"),
        "geomean_compile_over_predecode": geomean("compile_speedup"),
    }
    by_kernel = {name: r["ips"] for name, r in results.items()}
    write_bench(str(REPO_ROOT / "BENCH_interp.json"), "interp_speed", bench_record,
                {"by_kernel": by_kernel})
    return rows


def test_interp_speed_table(speed_rows, benchmark):
    emit_table(
        "interp_speed",
        "Interpreter throughput: legacy loop vs. pre-decoded vs. compiled "
        "engine (Minstr/s, wall clock)",
        [
            "kernel",
            "instructions",
            "legacy Mi/s",
            "predecode Mi/s",
            "compile Mi/s",
            "pre/legacy",
            "cmp/pre",
        ],
        speed_rows,
    )
    record(benchmark)


def test_predecode_speedup_at_least_3x_on_two_kernels(speed_rows, benchmark):
    speedups = {row[0]: float(row[5].rstrip("x")) for row in speed_rows}
    fast_enough = [k for k, s in speedups.items() if s >= 3.0]
    assert len(fast_enough) >= 2, f"speedups too low: {speedups}"
    record(benchmark)


def test_compile_speedup_geomean_at_least_3x(speed_rows, benchmark):
    """The compile engine's acceptance bar: >= 3x geomean over predecode."""
    speedups = [float(row[6].rstrip("x")) for row in speed_rows]
    geomean = statistics.geometric_mean(speedups)
    assert geomean >= 3.0, f"compile/predecode geomean too low: {geomean:.2f}"
    record(benchmark)


def test_bench_json_written(speed_rows, benchmark):
    data = json.loads((REPO_ROOT / "BENCH_interp.json").read_text())
    bench = data["interp_speed"]
    assert set(bench["kernels"]) == set(KERNELS)
    assert bench["config"]["python"] and bench["config"]["cores"] >= 1
    for entry in bench["kernels"].values():
        assert set(entry["arms"]) == set(ENGINES)
        for summary in entry["arms"].values():
            assert summary["n"] == ROUNDS and summary["median"] > 0
    record(benchmark)


def test_bench_trajectory_appended(speed_rows, benchmark):
    data = json.loads((REPO_ROOT / "BENCH_interp.json").read_text())
    trajectory = data["trajectory"]
    assert 1 <= len(trajectory) <= TRAJECTORY_LIMIT
    latest = trajectory[-1]
    assert latest["key"] == "interp_speed"
    assert latest["geomean_compile_over_predecode"] > 0
    assert set(latest["by_kernel"]) == set(KERNELS)
    record(benchmark)
