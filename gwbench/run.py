"""Closed-loop benchmark of the metering gateway.

    python3 gwbench/run.py --workload mix-closed --seed 1 --seconds 20 --trace 0

Run from the repository root.  Prints every metric by name with its unit,
then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the separate traced run and reports
the per-layer metrics.  Any wrong bill makes the run incorrect and the exit
code 1.  See ``gwbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: set-up is repeated on fresh gateways until both limits are reached
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 5.0
#: memory is read after this many answered requests of the load (or at its
#: end, if it is shorter), so it does not grow with throughput
RSS_AT_REQUESTS = 500
#: offline verification passes are repeated until both limits are reached
VERIFY_MIN_PASSES = 3
VERIFY_MIN_SECONDS = 3.0


def metric_units(kind: str) -> dict:
    """Metric name -> unit, in order, from ``BENCHMARK.json``'s ``kind`` list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _enable_control_plane_obs():
    """Metrics registry and event pipeline on, as ``repro top`` runs them."""
    from repro.obs import enable_metrics
    from repro.obs.events import EventLog, enable_events
    from repro.obs.rollup import RollingAggregator

    aggregator = RollingAggregator(slice_s=0.5, slices=240)
    log = enable_events(EventLog())
    log.subscribe(aggregator.observe)
    enable_metrics()
    return log


# The benchmark's own modules import the program, so each function imports
# them only after main() has found the program and put it on the path.


def run_timed(w, mix, baseline, seed, seconds, nproc, tamper, pacer):
    """Set-up repeated on fresh gateways, then the closed-loop load on the
    last one, then the final seal and repeated offline verification."""
    from hostspeed import factor_here
    from workloads import (
        Schedule, blocks, bring_up, check_billing, child_pids, closed_loop,
        fingerprint, rss_mb, tamper_one_receipt, verify_passes,
    )

    not_gateway = child_pids()  # the host pacer's spinners
    bring_ups = []  # (seconds, host factor)
    up = None
    while len(bring_ups) < SETUP_MIN_REPS or sum(b[0] for b in bring_ups) < SETUP_MIN_SECONDS:
        if up is not None:
            up.gateway.shutdown()
        before = factor_here()
        up = bring_up(w, mix, nproc)
        bring_ups.append((up.seconds, (before + factor_here()) / 2))
    gw = up.gateway
    try:
        schedule = Schedule([t for t, _m, _r in mix], seed, w.zipf_s)
        runs = {t: run for t, _m, run in mix}
        load = closed_loop(
            gw, runs, schedule, nproc, seconds, w.seal_every,
            at_count=(RSS_AT_REQUESTS, lambda: rss_mb(exclude=not_gateway)),
        )
        rss = load.at_count_value or rss_mb(exclude=not_gateway)
        gw.seal_epoch()
        if tamper:
            tamper_one_receipt(gw)
        verdicts, passes = verify_passes(
            gw, VERIFY_MIN_PASSES, VERIFY_MIN_SECONDS, speed=factor_here
        )
        problems = check_billing(gw, up.responses + load.responses, verdicts, baseline)
        info = {"config": fingerprint(w, gw, seed, nproc)}
    finally:
        gw.shutdown()
    pacer.stop()
    metrics, raw, per_block = timed_metrics(load, bring_ups, passes, rss, pacer.factor)
    info.update(
        blocks=[dict(zip(("rps", "p50_ms", "p95_ms", "host_factor"), b)) for b in per_block],
        raw_metrics=raw,
        host_factor_load=pacer.factor(load.started, load.started + load.wall_s),
        setup_reps=len(bring_ups),
        verify_passes=len(passes),
        latency_samples=len(load.samples),
        load_blocks=len(blocks(load)),
    )
    return metrics, load.attempted, load.failures, problems, info


def timed_metrics(load, bring_ups, passes, rss, factor) -> tuple[dict, dict, list]:
    """The end-to-end metrics, the same over the whole run without
    normalisation, and the per-block figures.

    Load metrics are medians over blocks of 200 answered requests, each
    block normalised by the host factor of its own time window (``factor``).
    Set-up and verification are medians over their repetitions, each
    normalised by the factor measured around it.
    """
    from workloads import blocks, percentile

    per_block = []
    for t0, t1, latencies in blocks(load):
        f = factor(t0, t1)
        per_block.append(
            (
                len(latencies) / (t1 - t0) * f,
                percentile(latencies, 0.50) * 1e3 / f,
                percentile(latencies, 0.95) * 1e3 / f,
                f,
            )
        )
    latencies = [l for _t, l in load.samples]
    raw = {
        "throughput_rps": len(load.samples) / load.wall_s,
        "latency_p50_ms": percentile(latencies, 0.50) * 1e3,
        "latency_p95_ms": percentile(latencies, 0.95) * 1e3,
        "setup_s": statistics.median(s for s, _f in bring_ups),
        "verify_us_per_receipt": statistics.median(
            t / max(1, n) * 1e6 for t, n, _f in passes
        ),
        "rss_mb": rss,
    }
    normalised = {
        "throughput_rps": statistics.median(b[0] for b in per_block),
        "latency_p50_ms": statistics.median(b[1] for b in per_block),
        "latency_p95_ms": statistics.median(b[2] for b in per_block),
        "setup_s": statistics.median(s / f for s, f in bring_ups),
        "verify_us_per_receipt": statistics.median(
            t / max(1, n) * 1e6 / f for t, n, f in passes
        ),
        "rss_mb": rss,
    }
    return normalised, raw, per_block


def run_traced(w, mix, baseline, seed, seconds, nproc, tamper, event_log, pacer):
    """The separate traced run: one traced bring-up, then four equal load
    segments alternating untraced and traced (the two untraced ones give
    ``trace_overhead``), then a traced seal and verification pass."""
    from layers import LayerTracer, layer_metrics, probe_wasm
    from workloads import (
        Schedule, bring_up, check_billing, closed_loop, fingerprint,
        tamper_one_receipt, verify_passes,
    )

    probes = None if w.control_plane else probe_wasm(mix)
    tracer = LayerTracer()
    tracer.install()
    try:
        up = bring_up(w, mix, nproc)
    finally:
        tracer.uninstall()
    gw = up.gateway
    try:
        cache = gw.cache.stats()
        schedule = Schedule([t for t, _m, _r in mix], seed, w.zipf_s)
        runs = {t: run for t, _m, run in mix}
        segments = {False: [], True: []}
        events_in_load = 0
        for traced in (False, True, False, True):
            if traced:
                tracer.phase = "load"
                tracer.install()
            emitted = event_log.stats()["emitted"] if event_log is not None else 0
            try:
                segment = closed_loop(
                    gw, runs, schedule, nproc, seconds / 4, w.seal_every,
                    tracer=tracer if traced else None,
                )
            finally:
                tracer.uninstall()
            if traced and event_log is not None:
                events_in_load += event_log.stats()["emitted"] - emitted
            segments[traced].append(segment)
        tracer.phase = "seal"
        tracer.install()
        try:
            gw.seal_epoch()
            if tamper:
                tamper_one_receipt(gw)
            tracer.phase = "verify"
            verdicts, _ = verify_passes(gw, 1, 0.0)
        finally:
            tracer.uninstall()
        loads = segments[False] + segments[True]
        responses = up.responses + [r for s in loads for r in s.responses]
        problems = check_billing(gw, responses, verdicts, baseline)
        rebuilds = gw.resilience_stats()["pool_rebuilds"]
        dropped = event_log.stats()["dropped"] if event_log is not None else 0
        info = {"config": fingerprint(w, gw, seed, nproc)}
    finally:
        gw.shutdown()
    pacer.stop()

    def rps(loads):
        # each segment normalised to the reference host speed: the traced
        # and untraced segments ran at different times
        return statistics.fmean(
            len(s.responses) / s.wall_s * pacer.factor(s.started, s.started + s.wall_s)
            for s in loads
        )

    metrics, rows, trace_problems = layer_metrics(
        tracer,
        traced_loads=segments[True],
        first_request_s=up.first_request_s,
        probes=probes,
        cache_stats=cache,
        verdicts=verdicts,
        pool_rebuilds=rebuilds,
        events_in_load=events_in_load,
        events_dropped=dropped,
        rejections=sum(s.rejections for s in loads),
        trace_overhead=rps(segments[False]) / rps(segments[True]),
    )
    problems += trace_problems
    info.update(
        traced_requests=len(rows),
        self_time_ms_per_request={
            layer: sum(r["layers_s"].get(layer, 0.0) for r in rows) / max(1, len(rows)) * 1e3
            for layer in sorted({k for r in rows for k in r["layers_s"]})
        },
        unattributed_ms_per_request=sum(r["unattributed_s"] for r in rows) / max(1, len(rows)) * 1e3,
    )
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{w.name}-seed{seed}.json"
    tracer.write(str(spans_path), rows)
    info["spans_file"] = str(spans_path.relative_to(ROOT))
    failures: dict[str, int] = {}
    for s in loads:
        for code, n in s.failures.items():
            failures[code] = failures.get(code, 0) + n
    return metrics, sum(s.attempted for s in loads), failures, problems, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="request-order seed (default: the development seed)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the measured load phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", action="store_true",
                        help="negative control: alter one signed receipt; "
                             "the run must then be reported incorrect")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"gwbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from hostspeed import HostPacer
    from repro.service.worker import cores_available
    from repro.service.gateway import polybench_tenant_mix
    from workloads import DEFAULT_SEED, WORKLOADS, serial_vectors

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    nproc = cores_available()
    started = time.perf_counter()
    # (tenant_id, module, (export, args)); MiniC compilation is the tenant's
    # toolchain, so it happens once here, untimed
    mix = polybench_tenant_mix(tenants=w.tenants)
    baseline = serial_vectors(mix)
    event_log = _enable_control_plane_obs() if w.control_plane else None
    with HostPacer(nproc) as pacer:
        if args.trace:
            metrics, attempted, failures, problems, info = run_traced(
                w, mix, baseline, seed, args.seconds, nproc, args.tamper, event_log, pacer
            )
            units = metric_units("per_layer")
        else:
            metrics, attempted, failures, problems, info = run_timed(
                w, mix, baseline, seed, args.seconds, nproc, args.tamper, pacer
            )
            units = metric_units("end_to_end")
    failed = sum(failures.values())
    if failed:
        problems.append(f"{failed} request(s) failed: {failures}")
    correct = not problems
    info.update(
        correct=correct,
        problems=problems,
        attempted=attempted,
        failed=failed,
        wall_s=time.perf_counter() - started,
        metrics={k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    )
    OUT_DIR.mkdir(exist_ok=True)
    result_path = OUT_DIR / f"{w.name}-seed{seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(info, indent=2, default=str) + "\n")

    print(f"workload {w.name}  seed {seed}  trace {args.trace}")
    print("config " + json.dumps(info["config"], sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:<44} {metrics[name]:>14.4f} {unit}")
    if "raw_metrics" in info:
        print(f"  host factor {info['host_factor_load']:.4f} during the load; unnormalised:")
        for name, unit in units.items():
            print(f"    {name:<42} {info['raw_metrics'][name]:>14.4f} {unit}")
        print(f"  latency samples: {info['latency_samples']} "
              f"in {info['load_blocks']} blocks")
    print(f"  attempted {attempted}  failed {failed}  correct {correct}")
    for problem in problems:
        print(f"  WRONG: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": info["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
