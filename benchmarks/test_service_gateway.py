"""Metering-gateway loadtest: throughput/latency scaling across worker counts.

Drives :func:`repro.service.gateway.run_loadtest` over the PolyBench tenant
mix on both execution backends and emits the scaling table referenced by
EXPERIMENTS.md.  The ``modeled`` backend paces requests with the Fig. 9
service-time model, so its worker scaling is honest even on a single-core
container; the ``wasm`` backend executes for real and scales only with
physical cores.

Shape targets: every epoch verifies offline, the over-quota probe tenant is
rejected with a typed error at every sweep point, aggregate metered totals
are byte-identical to a serial single-sandbox run, and the modeled backend
shows >=1.5x throughput at 4 workers over 1.
"""

from __future__ import annotations

import statistics

import pytest

from benchmarks.conftest import emit_table, record
from repro.obs.bench import interleaved_rounds
from repro.service.gateway import run_loadtest

WORKER_COUNTS = (1, 2, 4)
REQUESTS = 12
KERNELS = ("atax", "trisolv", "gesummv")
ROUNDS = 5


@pytest.fixture(scope="module")
def modeled_sweep():
    return run_loadtest(
        worker_counts=WORKER_COUNTS,
        requests=REQUESTS,
        pool="thread",
        kernels=KERNELS,
        backend="modeled",
        time_scale=0.4,
    )


@pytest.fixture(scope="module")
def wasm_sweep():
    return run_loadtest(
        worker_counts=WORKER_COUNTS,
        requests=REQUESTS,
        pool="thread",
        kernels=KERNELS,
        backend="wasm",
    )


def _emit(name: str, title: str, result) -> None:
    rows = [
        [
            point["workers"],
            round(point["throughput_rps"], 1),
            round(point["latency_s"]["p50"] * 1000, 2),
            round(point["latency_s"]["p95"] * 1000, 2),
            round(point["latency_s"]["p99"] * 1000, 2),
            point["epoch_ok"],
            point["quota_rejection"]["code"],
        ]
        for point in result["sweep"]
    ]
    emit_table(
        name,
        title,
        ["workers", "rps", "p50 [ms]", "p95 [ms]", "p99 [ms]", "epoch ok", "probe rejection"],
        rows,
    )


def test_gateway_modeled_scaling(modeled_sweep, benchmark):
    record(benchmark)
    _emit(
        "service_gateway_modeled",
        "Metering gateway: modeled backend (Fig. 9 service times), PolyBench mix",
        modeled_sweep,
    )
    for point in modeled_sweep["sweep"]:
        assert point["epoch_ok"]
        assert point["quota_rejection"]["code"] == "instruction-budget-exhausted"
    assert modeled_sweep["serial_totals_match"]
    # paced replay makes worker scaling honest even on one core
    assert modeled_sweep["speedup_4_over_1"] >= 1.5


def test_gateway_wasm_backend(wasm_sweep, benchmark):
    record(benchmark)
    _emit(
        "service_gateway_wasm",
        "Metering gateway: wasm backend (real execution), PolyBench mix",
        wasm_sweep,
    )
    for point in wasm_sweep["sweep"]:
        assert point["epoch_ok"]
        assert point["quota_rejection"]["code"] == "instruction-budget-exhausted"
        assert point["throughput_rps"] > 0
    assert wasm_sweep["serial_totals_match"]
    # real execution only scales with physical cores: the sweep records the
    # core count and marks the gate advisory when the box has fewer cores
    # than workers, in which case we only require no collapse (adaptive
    # sizing keeps the oversubscribed pool at parity instead of thrashing)
    gate = wasm_sweep["speedup_gate"]
    assert gate["cores_available"] == wasm_sweep["cores_available"]
    if gate["advisory"]:
        assert wasm_sweep["speedup_4_over_1"] > 0.5
    else:
        assert wasm_sweep["speedup_4_over_1"] >= 1.5


def test_gateway_batched_sealing_throughput(benchmark):
    """Batched Merkle sealing vs per-receipt signing, overhead-isolated.

    ``time_scale=0`` zeroes the modeled service times so the sweep measures
    pure gateway overhead — admission, dispatch, accounting, sealing — which
    is where per-receipt RSA signing dominates.  One signature per flush
    window (over the Merkle root of 16 receipt bodies) replaces one per
    receipt; measured uplift on this path is 3-5x per run (6x+ at longer
    runs), gated conservatively at 2x to absorb CI noise.
    """
    record(benchmark)
    common = dict(
        worker_counts=(4,),
        requests=200,
        pool="thread",
        kernels=("trisolv", "atax"),
        backend="modeled",
        time_scale=0.0,
        quota_probe=False,
        verify_serial=False,
    )
    runs: dict = {None: [], 16: []}

    def arm(seal_window: int | None):
        def run(_lap) -> float:
            runs[seal_window].append(run_loadtest(seal_window=seal_window, **common))
            return runs[seal_window][-1]["sweep"][0]["wall_s"]

        return run

    arms = {"unbatched": None, "batched": 16}
    measured = interleaved_rounds(
        {name: arm(window) for name, window in arms.items()}, ROUNDS,
        baseline="batched", config={"pool": "thread"},
    )
    rows = []
    for label, name in (("per-receipt", "unbatched"), ("batched (window 16)", "batched")):
        points = [run["sweep"][0] for run in runs[arms[name]][-ROUNDS:]]
        rows.append([
            label, round(common["requests"] / measured["arms"][name]["median"], 1),
            round(statistics.median(p["latency_s"]["p95"] for p in points) * 1000, 2),
            round(points[-1]["signatures"]["per_request"], 4),
            all(p["epoch_ok"] for p in points),
        ])
    emit_table(
        "service_gateway_batched_sealing",
        "Batched Merkle sealing vs per-receipt signing (modeled, 4 workers, "
        f"overhead only, median of {ROUNDS} interleaved rounds)",
        ["sealing", "rps", "p95 [ms]", "AE sigs/request", "epoch ok"],
        rows,
    )
    unbatched, batched = runs[None][-1]["sweep"][0], runs[16][-1]["sweep"][0]
    assert unbatched["epoch_ok"] and batched["epoch_ok"]
    assert unbatched["signatures"]["per_request"] == 1.0
    assert batched["signatures"]["per_receipt"] == 0
    assert batched["signatures"]["batch_seals"] > 0
    # unbatched / batched wall time per round = the batched throughput uplift
    ratio = measured["ratios"]["unbatched"]["median"]
    assert ratio >= 2.0, f"batched sealing uplift collapsed: {ratio:.2f}x"


def test_gateway_loadtest_measurement(benchmark):
    benchmark.pedantic(
        lambda: run_loadtest(
            worker_counts=(1,),
            requests=4,
            pool="thread",
            kernels=("trisolv",),
            verify_serial=False,
            quota_probe=False,
        ),
        rounds=1,
        iterations=1,
    )
