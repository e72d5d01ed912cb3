"""Warm-start pools vs. cold instantiation, and snapshot round-trip cost.

Per-request setup for an instrumented module is instantiation-dominated:
the predecode engine translates every function body, the compile engine
builds its template at ``Instance()`` time.  A warm pool pays that once —
each subsequent request resets a pooled instance to the captured warm
image in place.  The acceptance bar: warm per-request setup must be at
least **5x** cheaper than cold setup (instantiate + bind) on the PolyBench
kernels, per engine.

Artefacts:

* ``benchmarks/results/snapshot_warm_start.txt`` — human-readable table;
* ``BENCH_snapshot.json`` (repo root) — machine-readable numbers plus a
  capped timestamped ``trajectory`` (via :mod:`repro.obs.bench`).

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_snapshot.py -q -s``.
"""

from __future__ import annotations

import pathlib
import statistics

import pytest

from benchmarks.conftest import emit_table, record
from repro.core.instrumentation_enclave import InstrumentationEnclave
from repro.obs.bench import interleaved_rounds, write_bench
from repro.service.warmpool import WarmPool
from repro.wasm.interpreter import ExecutionLimits, Instance
from repro.wasm.runtime import HostEnvironment, IOChannel
from repro.wasm.snapshot import (
    SnapshotCaptured,
    decode_snapshot,
    encode_snapshot,
)
from repro.workloads import POLYBENCH_KERNELS

REPO_ROOT = pathlib.Path(__file__).parent.parent

KERNELS = ["trisolv", "atax", "jacobi-1d"]
ENGINES = ["predecode", "compile"]
ROUNDS = 15
REQUIRED_SPEEDUP = 5.0


def _instrumented(name: str):
    ie = InstrumentationEnclave()
    result, _evidence = ie.instrument(POLYBENCH_KERNELS[name].compile().clone())
    return result.module


def _setup_arms(module, engine: str, pool: WarmPool) -> dict:
    """Cold set-up (instantiate + bind) against a warm-pool acquire/release."""

    def cold(lap) -> None:
        with lap:
            channel = IOChannel()
            env = HostEnvironment(channel=channel, account_io=True)
            env.instantiate(module, limits=ExecutionLimits(), engine=engine)

    def warm(lap) -> None:
        with lap:
            pool.release(pool.acquire())

    return {"cold": cold, "warm": warm}


@pytest.fixture(scope="module")
def warm_rows():
    rows = []
    results: dict = {}
    for name in KERNELS:
        module = _instrumented(name)
        per_engine = {}
        for engine in ENGINES:
            pool = WarmPool(module=module, engine=engine, max_size=1)
            measured = interleaved_rounds(_setup_arms(module, engine, pool), ROUNDS,
                                          baseline="warm", config={"engine": engine})
            assert pool.stats()["builds"] == 1
            per_engine[engine] = measured
            rows.append(
                [name, engine]
                + [f"{measured['arms'][arm]['median'] * 1e6:.1f}" for arm in ("cold", "warm")]
                + [f"{measured['ratios']['cold']['median']:.1f}x"]
            )
        results[name] = per_engine

    # snapshot round-trip cost on a mid-flight suspension, for context
    spin = _instrumented("trisolv")
    inst = Instance(spin, limits=ExecutionLimits())
    spec = POLYBENCH_KERNELS["trisolv"]
    for fn, args in spec.setup:
        inst.invoke(fn, *args)
    inst.limits = ExecutionLimits(snapshot_at=inst.stats.executed + 2000)
    with pytest.raises(SnapshotCaptured) as captured:
        inst.invoke(spec.run[0], *spec.run[1])
    snapshot = captured.value.snapshot

    def roundtrip(lap) -> None:
        with lap:
            decode_snapshot(encode_snapshot(snapshot))

    codec = interleaved_rounds({"roundtrip": roundtrip}, ROUNDS)
    speedups = [results[name][engine]["ratios"]["cold"]["median"]
                for name in KERNELS for engine in ENGINES]
    summary = {
        "config": codec.pop("config"),
        "kernels": results,
        "snapshot_bytes": len(encode_snapshot(snapshot)),
        "snapshot_roundtrip": codec["arms"]["roundtrip"],
        "geomean_speedup": statistics.geometric_mean(speedups),
        "min_speedup": min(speedups),
        "required_speedup": REQUIRED_SPEEDUP,
    }
    write_bench(str(REPO_ROOT / "BENCH_snapshot.json"), "warm_start", summary)
    return rows, summary


def test_warm_start_table(warm_rows, benchmark):
    rows, _summary = warm_rows
    emit_table(
        "snapshot_warm_start",
        "Warm-pool request setup vs. cold instantiation (microseconds)",
        ["kernel", "engine", "cold us", "warm us", "speedup"],
        rows,
    )
    record(benchmark)


def test_warm_start_at_least_5x(warm_rows, benchmark):
    """The warm-pool acceptance bar: >= 5x cheaper setup, every cell."""
    _rows, summary = warm_rows
    assert summary["min_speedup"] >= REQUIRED_SPEEDUP, (
        f"warm-start speedup below bar: min {summary['min_speedup']:.1f}x"
    )
    record(benchmark)


def test_warm_clone_runs_match_cold_runs(warm_rows, benchmark):
    """A pooled instance must compute exactly what a cold one does."""
    module = _instrumented("trisolv")
    spec = POLYBENCH_KERNELS["trisolv"]
    pool = WarmPool(module=module, max_size=1)

    def run(instance) -> tuple:
        for fn, args in spec.setup:
            instance.invoke(fn, *args)
        value = instance.invoke(spec.run[0], *spec.run[1])
        return value, instance.stats.executed

    cold = Instance(module, limits=ExecutionLimits())
    handle = pool.acquire()
    assert run(handle.instance) == run(cold)
    record(benchmark)
