"""Observability overhead — the off-by-default no-ops must stay (nearly) free.

Two layers of measurement:

* Micro: the per-call cost of a disabled ``span()`` and a disabled
  ``Counter.inc()`` in nanoseconds, against the enabled variants, so the
  "no-op when off" claim is a number rather than a slogan.
* Macro: PolyBench interpreter runs (both engines) with observability off
  vs. on.  Three configurations: everything off, tracing + metrics enabled
  (the production observability path — spans and counters sit at invoke /
  account granularity, never inside the dispatch loop), and additionally the
  attribution profiler (an opt-in diagnostic that hooks every call and, on
  the legacy engine, every instruction).  Gates: repeated obs-off runs must
  agree within 2% (the "no-op when off" claim), and tracing + metrics must
  cost under 5% — the CI gate, because CI runs the traced/metered workloads.
  Profiler cost is reported but not gated: per-instruction attribution on
  the legacy engine is inherently paid for only when ``--profile`` is asked
  for.

Every ratio is the median per-round ratio of
:func:`repro.obs.bench.interleaved_rounds`.

Artefacts:

* ``benchmarks/results/obs_overhead.txt`` — human-readable table;
* ``BENCH_obs.json`` (repo root) — machine-readable numbers merged with the
  ``repro loadtest --metrics-out`` snapshot for CI regression tracking.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_obs_overhead.py -q -s``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from benchmarks.conftest import emit_table, record
from repro.obs import (
    disable_all,
    enable_metrics,
    enable_profiling,
    enable_tracing,
    get_registry,
)
from repro.obs.bench import interleaved_rounds, write_bench
from repro.obs.events import EventLog, enable_events
from repro.obs.events import emit as emit_event
from repro.obs.metrics import Counter
from repro.obs.trace import span
from repro.wasm.interpreter import Instance
from repro.workloads import POLYBENCH_KERNELS

REPO_ROOT = pathlib.Path(__file__).parent.parent
BENCH_PATH = str(REPO_ROOT / "BENCH_obs.json")

KERNEL = "gemm"  # ~160k instructions: long enough to beat scheduler jitter
RUNS = 15
MICRO_ITERS = 20_000

#: Relative overhead ceilings (fractions). The enabled bound is the CI gate.
DISABLED_CEILING = 0.02
ENABLED_CEILING = 0.05


@pytest.fixture(autouse=True)
def _obs_off():
    disable_all()
    yield
    disable_all()
    get_registry().reset()


def _enable(profile: bool = False) -> None:
    enable_tracing()
    enable_metrics()
    if profile:
        enable_profiling()


def _micro_arm(call, enabled: bool):
    """``MICRO_ITERS`` calls of ``call`` with observability off or on."""

    def run(lap) -> None:
        if enabled:
            _enable()
            enable_events(EventLog(capacity=MICRO_ITERS + 1))
        with lap:
            for _ in range(MICRO_ITERS):
                call()
        disable_all()

    return run


def _micro_costs() -> dict[str, float]:
    counter = Counter("obs_overhead_probe", "micro-benchmark probe")

    def span_call():
        with span("probe", tenant="t"):
            pass

    def counter_call():
        counter.inc(tenant="t")

    def emit_call():
        emit_event("probe", tenant="t")

    calls = {"span": span_call, "counter": counter_call, "emit": emit_call}
    arms = {"call_baseline": _micro_arm(lambda: None, False)}
    for state in ("disabled", "enabled"):
        for name, call in calls.items():
            arms[f"{name}_{state}"] = _micro_arm(call, state == "enabled")
    return interleaved_rounds(arms, RUNS)


def _kernel_arm(engine: str, setup):
    """One interpreter run of the kernel under an obs configuration."""
    spec = POLYBENCH_KERNELS[KERNEL]

    def run(lap) -> None:
        instance = Instance(spec.compile().clone(), engine=engine)
        for fn, args in spec.setup:
            instance.invoke(fn, *args)
        setup()
        with lap:
            instance.invoke(spec.run[0], *spec.run[1])
        disable_all()
        get_registry().reset()

    return run


@pytest.fixture(scope="module")
def overhead_numbers():
    """No-op micro costs, and kernel runs with obs off, off again, traced +
    metered and profiled, in interleaved rounds per engine."""
    disable_all()
    micro = _micro_costs()
    micro_ns = {f"{name}_ns": summary["median"] / MICRO_ITERS * 1e9
                for name, summary in micro["arms"].items()}
    results = {"config": micro.pop("config"), "micro_ns": micro_ns, "micro": micro,
               "end_to_end": {}}
    rows = [
        [f"{name} ({state})", f"{micro_ns[f'{name}_{state}_ns']:.0f} ns", "-"]
        for name in ("span", "counter", "emit")
        for state in ("disabled", "enabled")
    ]

    for engine in ("predecode", "legacy"):
        setups = {"off": lambda: None, "off2": lambda: None, "traced": _enable,
                  "profiled": lambda: _enable(profile=True)}
        measured = interleaved_rounds(
            {name: _kernel_arm(engine, setup) for name, setup in setups.items()},
            RUNS, baseline="off", config={"engine": engine},
        )
        ratios = measured["ratios"]
        overhead = ratios["traced"]["median"] - 1.0
        profiled_overhead = ratios["profiled"]["median"] - 1.0
        off_s = measured["arms"]["off"]["median"]
        results["end_to_end"][engine] = {
            **measured,
            "kernel": KERNEL,
            "obs_off_s": off_s,
            "disabled_jitter": abs(ratios["off2"]["median"] - 1.0),
            "enabled_overhead": overhead,
            "profiled_overhead": profiled_overhead,
        }
        rows.append(
            [f"{KERNEL} ({engine})", f"{off_s * 1e3:.1f} ms off",
             f"{overhead * 100:+.1f}% traced+metered, "
             f"{profiled_overhead * 100:+.1f}% profiled"]
        )

    emit_table(
        "obs_overhead",
        "Observability overhead (off-by-default no-ops vs. fully enabled)",
        ["probe", "cost", "overhead"],
        rows,
    )
    write_bench(BENCH_PATH, "obs_overhead", results)
    return results


def test_disabled_noop_cost_is_negligible(overhead_numbers, benchmark):
    micro = overhead_numbers["micro_ns"]
    # a disabled span/counter/emit call is a function call, one global check
    # and a shared constant — order-of-a-microsecond, thousands of times
    # cheaper than the multi-millisecond operations they would wrap
    assert micro["span_disabled_ns"] < 2000
    assert micro["counter_disabled_ns"] < 2000
    assert micro["emit_disabled_ns"] < 2000
    assert micro["span_disabled_ns"] < micro["span_enabled_ns"]
    record(benchmark)


def test_disabled_overhead_bound_under_two_percent(overhead_numbers, benchmark):
    """Deterministic bound on the disabled-path cost of one sandbox run.

    A workload invocation passes ~8 disabled obs call sites (deploy, attest,
    submit, instrument, invoke, execute, account spans plus the sandbox
    counters).  Bounding generously at 4x that, the total disabled cost must
    stay under 2% of the fastest measured kernel run — a gate that does not
    depend on comparing two noisy wall-clock samples.
    """
    micro = overhead_numbers["micro_ns"]
    per_call_ns = max(micro["span_disabled_ns"], micro["counter_disabled_ns"])
    worst_disabled_s = 32 * per_call_ns * 1e-9
    for engine, numbers in overhead_numbers["end_to_end"].items():
        bound = worst_disabled_s / numbers["obs_off_s"]
        assert bound < DISABLED_CEILING, (
            f"{engine}: disabled obs call sites could cost {bound:.2%} of a "
            f"{numbers['obs_off_s'] * 1e3:.1f} ms run (gate {DISABLED_CEILING:.0%})"
        )
        # sanity: repeated obs-off runs should agree within the machine's
        # jitter band; wildly divergent repeats mean the numbers above are
        # not trustworthy at all
        assert numbers["disabled_jitter"] < 0.10, (
            f"{engine}: repeat obs-off runs differ by "
            f"{numbers['disabled_jitter']:.1%}; machine too noisy to measure"
        )
    record(benchmark)


def test_enabled_overhead_under_ci_gate(overhead_numbers, benchmark):
    for engine, numbers in overhead_numbers["end_to_end"].items():
        assert numbers["enabled_overhead"] < ENABLED_CEILING, (
            f"{engine}: full observability costs "
            f"{numbers['enabled_overhead']:.1%} (gate {ENABLED_CEILING:.0%})"
        )
    record(benchmark)


def test_bench_artifact_written(overhead_numbers, benchmark):
    doc = json.loads(pathlib.Path(BENCH_PATH).read_text())
    assert "obs_overhead" in doc
    assert set(doc["obs_overhead"]["end_to_end"]) == {"predecode", "legacy"}
    assert doc["obs_overhead"]["config"]["cores"] >= 1
    record(benchmark)


# -- loadtest overheads: telemetry pipeline, distributed tracing ---------------

LOADTEST_ROUNDS = 9
PIPELINE_CEILING = 0.05  # the CI gate for the full pipeline
TRACE_CEILING = 0.05  # the CI gate for tracing + backhaul + stitching


def _loadtest_arm(stitched: list[bool] | None = None, **options):
    """A 12-request x 2-worker loadtest's own wall time (bring-up excluded)."""
    from repro.service.gateway import run_loadtest

    def run(_lap) -> float:
        result = run_loadtest(
            worker_counts=(2,), requests=12, pool="thread", backend="wasm",
            kernels=("trisolv",), verify_serial=False, quota_probe=False,
            **options,
        )
        if stitched is not None:
            stitched.append(result["trace_ok"])
        return result["sweep"][0]["wall_s"]

    return run


def _loadtest_overhead(name: str, title: str, probe: str, off, on, **config) -> dict:
    """Interleaved off/on rounds; the overhead is the median per-round
    wall-clock ratio minus one."""
    disable_all()
    measured = interleaved_rounds(
        {"off": off, "on": on}, LOADTEST_ROUNDS, baseline="off",
        config={"pool": "thread", **config},
    )
    overhead = measured["ratios"]["on"]["median"] - 1.0
    emit_table(
        name, f"{title} (interleaved rounds)", ["probe", "cost", "overhead"],
        [[probe, f"{measured['arms']['off']['median'] * 1e3:.1f} ms off",
          f"{overhead * 100:+.1f}%"]],
    )
    return {**measured, "overhead": overhead}


@pytest.fixture(scope="module")
def pipeline_numbers():
    """A metered loadtest with events + aggregation + audit off vs on."""
    results = _loadtest_overhead(
        "obs_pipeline_overhead",
        "Telemetry pipeline overhead on a metered loadtest",
        "loadtest 12 req x 2 workers (wasm), events+aggregation+audit",
        _loadtest_arm(pipeline=False), _loadtest_arm(pipeline=True),
    )
    write_bench(BENCH_PATH, "obs_pipeline_overhead", results)
    return results


def test_pipeline_overhead_under_gate(pipeline_numbers, benchmark):
    assert pipeline_numbers["overhead"] < PIPELINE_CEILING, (
        f"telemetry pipeline costs {pipeline_numbers['overhead']:.1%} of a "
        f"metered loadtest (gate {PIPELINE_CEILING:.0%})"
    )
    record(benchmark)


@pytest.fixture(scope="module")
def trace_numbers(tmp_path_factory):
    """A preempting loadtest, untraced vs fully traced.

    The traced arm mints a context per request, activates the worker-side
    capture on every hop, ships spans/events/metric deltas back inside each
    ``WorkerResult``, merges them into the gateway tracer and verifies the
    per-request stitch — the complete distributed-tracing path.  Both arms
    preempt: every checkpoint re-dispatch is an extra hop whose capture must
    ship home, so the traced arm pays the backhaul at its worst while the
    untraced arm pays the same preemption cost.
    """
    trace_out = str(tmp_path_factory.mktemp("trace") / "trace.json")
    stitched: list[bool] = []
    results = _loadtest_overhead(
        "trace_backhaul_overhead",
        "Distributed tracing overhead on a preempting loadtest",
        "loadtest 12 req x 2 workers, preempted, propagation+backhaul+stitch",
        _loadtest_arm(preempt_after=400),
        _loadtest_arm(stitched, preempt_after=400, trace_out=trace_out),
        preempt_after=400,
    )
    results["stitched_every_round"] = all(stitched)
    write_bench(BENCH_PATH, "trace_backhaul_overhead", results)
    return results


def test_trace_backhaul_overhead_under_gate(trace_numbers, benchmark):
    assert trace_numbers["overhead"] < TRACE_CEILING, (
        f"distributed tracing costs {trace_numbers['overhead']:.1%} of a "
        f"preempting loadtest (gate {TRACE_CEILING:.0%})"
    )
    record(benchmark)


def test_trace_backhaul_stitches_while_measured(trace_numbers, benchmark):
    assert trace_numbers["stitched_every_round"] is True
    record(benchmark)


def test_pipeline_off_keeps_signed_totals_byte_identical(benchmark):
    """Differential pin: the pipeline must be an observer, never a participant.

    With the pipeline off (the default), the gateway's aggregate signed
    totals must match a serial single-sandbox re-run byte for byte — exactly
    as before the pipeline existed.  And turning the pipeline *on* must not
    perturb them either: events narrate the billing path, they do not touch
    it.
    """
    from repro.service.gateway import run_loadtest

    for pipeline in (False, True):
        result = run_loadtest(
            worker_counts=(1,), requests=6, pool="thread", backend="wasm",
            kernels=("trisolv",), verify_serial=True, quota_probe=False,
            pipeline=pipeline,
        )
        assert result["serial_totals_match"] is True, (
            f"pipeline={pipeline}: signed totals diverged from serial baseline"
        )
        assert ("telemetry" in result) is pipeline
        if pipeline:
            assert result["telemetry"]["drift_ok"] is True
    record(benchmark)
