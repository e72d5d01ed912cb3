"""Workload definitions, seeded schedules, the closed-loop load generator and the
billing checks of the gateway benchmark.

Every workload drives a real in-process :class:`MeteringGateway` built with
its shipped constructor defaults plus ``workers=nproc`` (the ``repro serve``
default); each workload changes only what its description names.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from dataclasses import dataclass, replace

from repro.core.resource_log import ResourceVector
from repro.core.sandbox import SandboxConfig, TwoWaySandbox
from repro.service import AdmissionError, GatewayFailure, MeteringGateway
from repro.service.backends import SimulatedFaaSBackend
from repro.service.worker import cores_available

#: The seed used while the benchmark and a change are developed.
DEFAULT_SEED = 1
#: The seed kept back for claims: a gain must also hold here.
HELDOUT_SEED = 20191209


@dataclass(frozen=True)
class Workload:
    """One traffic mix; why each exists is in ``BENCHMARK.json`` and the
    benchmark's README."""

    name: str
    #: ``None``: one tenant per PolyBench kernel; else that many tenants
    #: cycling the kernels
    tenants: int | None = None
    #: draw requests from a seeded Zipf(s) popularity instead of shuffled
    #: rounds that visit every tenant once
    zipf_s: float | None = None
    preempt_after: int | None = None
    #: serve from ``SimulatedFaaSBackend(time_scale=0)`` with the metrics
    #: registry and the event pipeline on, as ``repro top`` runs them
    control_plane: bool = False
    #: seal an epoch after every this many completed requests of the load
    seal_every: int | None = None
    #: warm-up requests per tenant at the end of each bring-up
    warmup_per_tenant: int = 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mix-closed"),
        Workload("preempt-closed", preempt_after=5000),
        Workload(
            "control-closed",
            tenants=48,
            zipf_s=1.1,
            control_plane=True,
            seal_every=500,
            warmup_per_tenant=1,
        ),
    )
}


class Schedule:
    """The seeded request order; the gateway sees only what it yields.

    Without Zipf, requests come in rounds that visit every tenant once in a
    seeded order, so the kernel proportions are the same for every seed.
    With Zipf, the seed ranks the tenants and draws each request from the
    resulting popularity.  ``next`` is safe to call from several clients;
    the sequence of tenants handed out is fixed by the seed.
    """

    def __init__(self, tenant_ids: list[str], seed: int, zipf_s: float | None = None):
        self._rng = random.Random(seed)
        self._tenants = list(tenant_ids)
        self._lock = threading.Lock()
        self._round: list[str] = []
        self._cum_weights = None
        if zipf_s is not None:
            self._rng.shuffle(self._tenants)  # popularity rank per tenant
            total = 0.0
            self._cum_weights = []
            for rank in range(len(self._tenants)):
                total += 1.0 / (rank + 1) ** zipf_s
                self._cum_weights.append(total)

    def next(self) -> str:
        with self._lock:
            if self._cum_weights is not None:
                return self._rng.choices(self._tenants, cum_weights=self._cum_weights)[0]
            if not self._round:
                self._round = list(self._tenants)
                self._rng.shuffle(self._round)
            return self._round.pop()


def kernel_of(tenant_id: str) -> str:
    # tenant-atax or tenant-atax-007 -> atax (jacobi-1d keeps its dash)
    name = tenant_id[len("tenant-"):]
    head, _, tail = name.rpartition("-")
    return head if tail.isdigit() and len(tail) == 3 else name


def make_gateway(workload: Workload, nproc: int) -> MeteringGateway:
    backend = None
    if workload.control_plane:
        backend = SimulatedFaaSBackend(workers=nproc, time_scale=0)
    return MeteringGateway(
        workers=nproc, backend=backend, preempt_after=workload.preempt_after
    )


@dataclass
class BringUp:
    gateway: MeteringGateway
    seconds: float
    first_request_s: float
    responses: list


def bring_up(workload: Workload, mix: list, nproc: int) -> BringUp:
    """Construct, register every tenant, and serve the warm-up requests."""
    started = time.perf_counter()
    gw = make_gateway(workload, nproc)
    try:
        for tenant_id, module, _run in mix:
            gw.register_tenant(tenant_id, module=module.clone())
        warmup = [run for _ in range(workload.warmup_per_tenant) for run in mix]
        first = time.perf_counter()
        tenant_id, _module, (export, args) = warmup[0]
        responses = [gw.execute(tenant_id, export, *args)]
        first_request_s = time.perf_counter() - first
        futures = [
            gw.submit(tenant_id, export, *args)
            for tenant_id, _module, (export, args) in warmup[1:]
        ]
        responses.extend(f.result() for f in futures)
    except BaseException:
        gw.shutdown()
        raise
    return BringUp(gw, time.perf_counter() - started, first_request_s, responses)


@dataclass
class LoadResult:
    started: float
    wall_s: float
    #: (completion time, latency) per answered request, in completion order
    samples: list
    responses: list
    #: failure code -> count; admission rejections are counted here too
    failures: dict
    rejections: int
    attempted: int
    #: what ``at_count``'s callable returned, if the load got that far
    at_count_value: object = None


def closed_loop(
    gw: MeteringGateway,
    runs: dict,
    schedule: Schedule,
    clients: int,
    seconds: float,
    seal_every: int | None = None,
    tracer=None,
    at_count: tuple | None = None,
) -> LoadResult:
    """``clients`` threads, each sending its next request only after the
    previous one is answered, until ``seconds`` have passed.

    Latency is caller-side: from the ``submit`` call to the signed response.
    With ``seal_every``, the client completing every N-th request seals an
    epoch outside its latency timer.  ``at_count=(n, fn)`` calls ``fn()``
    once, when the n-th request is answered.  ``tracer`` (see ``layers.py``)
    is told where each request starts and ends.
    """
    lock = threading.Lock()
    samples: list[tuple[float, float]] = []
    responses: list = []
    failures: dict[str, int] = {}
    counts = {"attempted": 0, "rejections": 0}
    at_count_value = []

    def client() -> None:
        while time.perf_counter() < deadline:
            tenant_id = schedule.next()
            export, args = runs[tenant_id]
            ref = tracer.begin_request() if tracer is not None else None
            t0 = time.perf_counter()
            try:
                response = gw.submit(tenant_id, export, *args).result()
            except (AdmissionError, GatewayFailure) as exc:
                with lock:
                    counts["attempted"] += 1
                    counts["rejections"] += isinstance(exc, AdmissionError)
                    failures[exc.code] = failures.get(exc.code, 0) + 1
                continue
            t1 = time.perf_counter()
            if ref is not None:
                tracer.end_request(ref, response.request_id, t0, t1)
            with lock:
                counts["attempted"] += 1
                samples.append((t1, t1 - t0))
                responses.append(response)
                done = len(responses)
            if seal_every and done % seal_every == 0:
                gw.seal_epoch()
            if at_count is not None and done == at_count[0]:
                at_count_value.append(at_count[1]())

    threads = [threading.Thread(target=client, name=f"client-{i}") for i in range(clients)]
    started = time.perf_counter()
    deadline = started + seconds
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return LoadResult(
        started,
        time.perf_counter() - started,
        samples,
        responses,
        failures,
        counts["rejections"],
        counts["attempted"],
        at_count_value[0] if at_count_value else None,
    )


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


#: requests per block: the p95 of a block has ten requests beyond it
BLOCK = 200


def blocks(load: LoadResult) -> list[tuple[float, float, list[float]]]:
    """The load cut into consecutive blocks of :data:`BLOCK` answered
    requests, as ``(start, end, latencies)``; a run too short for one block
    is one block.  Leftover requests after the last full block are dropped.
    """
    if len(load.samples) < BLOCK:
        return [(load.started, load.started + load.wall_s, [l for _t, l in load.samples])]
    out = []
    start = load.started
    for i in range(BLOCK, len(load.samples) + 1, BLOCK):
        chunk = load.samples[i - BLOCK:i]
        end = chunk[-1][0]
        out.append((start, end, [l for _t, l in chunk]))
        start = end
    return out


def verify_passes(gw: MeteringGateway, min_passes: int, min_seconds: float, speed=None):
    """Verify every sealed epoch offline, repeatedly until the passes cover
    ``min_seconds``.

    Returns the verdicts (of a failing pass, if any) and, per pass, its
    ``(seconds, receipts checked, host factor)``; ``speed()``, when given,
    measures the host factor right before and after each pass.
    """
    verdicts = None
    passes = []
    spent = 0.0
    while len(passes) < min_passes or spent < min_seconds:
        before = speed() if speed is not None else 1.0
        t0 = time.perf_counter()
        batch = [gw.verify_epoch(seal) for seal in gw.ledger.seals]
        elapsed = time.perf_counter() - t0
        after = speed() if speed is not None else 1.0
        spent += elapsed
        passes.append((elapsed, sum(v.receipts_checked for v in batch), (before + after) / 2))
        if verdicts is None or not all(v.ok for v in batch):
            verdicts = batch
    return verdicts, passes


def tamper_one_receipt(gw: MeteringGateway) -> None:
    """Negative control: raise one signed receipt's instruction count by one,
    keeping its signature.  No public API mutates a recorded chain, so this
    reaches into the ledger's storage."""
    tenant_id = gw.ledger.tenants()[0]
    chain = gw.ledger._receipts[tenant_id]
    index = len(chain) // 2
    receipt = chain[index]
    vector = replace(
        receipt.entry.vector,
        weighted_instructions=receipt.entry.vector.weighted_instructions + 1,
    )
    chain[index] = replace(receipt, entry=replace(receipt.entry, vector=vector))


def serial_vectors(mix: list) -> dict:
    """Per kernel, the vector one serial ``TwoWaySandbox`` run signs.

    Every request of a kernel is the same call, so one run per distinct
    request stands in for all of them, scaled by its count.
    """
    vectors = {}
    for tenant_id, module, (export, args) in mix:
        kernel = kernel_of(tenant_id)
        if kernel in vectors:
            continue
        sandbox = TwoWaySandbox.deploy(SandboxConfig())
        workload = sandbox.submit_module(module.clone())
        vectors[kernel] = workload.invoke(export, *args).vector
    return vectors


def _vector_key(v: ResourceVector) -> tuple:
    return (
        v.weighted_instructions,
        v.peak_memory_bytes,
        v.memory_integral_page_instructions,
        v.io_bytes_in,
        v.io_bytes_out,
    )


def check_billing(gw: MeteringGateway, responses: list, verdicts: list, baseline: dict) -> list[str]:
    """Every way a bill can be wrong; an empty list means the run is correct.

    * every sealed epoch verifies, and receipts checked == receipts issued;
    * billing is exactly once: one final receipt per answered request, and
      no request id (final or ``#cpN`` checkpoint) receipted twice;
    * the receipts of each request sum to the serial baseline vector of its
      kernel, and each tenant's totals equal the scaled baseline, byte for
      byte.
    """
    problems = []
    bad = [v for v in verdicts if not v.ok]
    if bad:
        problems.append(f"{len(bad)} epoch(s) fail verification: {bad[0].errors[:2]}")
    tenants = gw.ledger.tenants()
    receipts = {t: gw.ledger.receipts(t) for t in tenants}
    issued = sum(len(r) for r in receipts.values())
    checked = sum(v.receipts_checked for v in verdicts)
    if checked != issued:
        problems.append(f"receipts checked {checked} != receipts issued {issued}")
    billed = gw.ledger.billed_requests()
    if billed != issued:
        problems.append(f"distinct billed ids {billed} != receipts {issued}")
    answered = {(r.tenant_id, r.request_id) for r in responses}
    finals = {
        (t, r.request_id) for t, rs in receipts.items() for r in rs if isinstance(r.request_id, int)
    }
    if len(answered) != len(responses) or finals != answered:
        problems.append(
            f"final receipts {len(finals)} do not match answered requests {len(responses)}"
        )
    per_request: dict = {}
    for tenant_id, rs in receipts.items():
        for r in rs:
            base = int(str(r.request_id).split("#", 1)[0])
            acc = per_request.setdefault((tenant_id, base), [0, 0, 0, 0, 0])
            for i, x in enumerate(_vector_key(r.entry.vector)):
                acc[i] += x
    wrong = [
        key for key, acc in per_request.items()
        if tuple(acc) != _vector_key(baseline[kernel_of(key[0])])
    ]
    if wrong:
        problems.append(f"{len(wrong)} request(s) billed differently from the serial baseline")
    counts: dict[str, int] = {}
    for tenant_id, _request_id in answered:
        counts[tenant_id] = counts.get(tenant_id, 0) + 1
    for tenant_id in tenants:
        n = counts.get(tenant_id, 0)
        v = baseline[kernel_of(tenant_id)]
        expected = ResourceVector(
            weighted_instructions=n * v.weighted_instructions,
            peak_memory_bytes=v.peak_memory_bytes if n else 0,
            memory_integral_page_instructions=n * v.memory_integral_page_instructions,
            io_bytes_in=n * v.io_bytes_in,
            io_bytes_out=n * v.io_bytes_out,
            label="totals",
        )
        got = json.dumps(gw.ledger.totals(tenant_id).to_json(), sort_keys=True)
        if got != json.dumps(expected.to_json(), sort_keys=True):
            problems.append(f"totals of {tenant_id} differ from the serial baseline")
            break
    return problems


def child_pids() -> set[str]:
    """Live child processes of this process."""
    children: set[str] = set()
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/children") as fh:
                children.update(fh.read().split())
        except OSError:
            continue
    return children


def rss_mb(exclude: set[str]) -> float:
    """Peak resident memory of this process plus its live child processes
    (the gateway's workers), leaving out the ``exclude`` pids."""

    def hwm_kb(pid: str) -> int:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    workers = child_pids() - exclude
    return (hwm_kb("self") + sum(hwm_kb(pid) for pid in workers)) / 1024.0


def fingerprint(workload: Workload, gw: MeteringGateway, seed: int, clients: int) -> dict:
    """What was measured: every setting that changes the numbers."""
    import platform

    from repro.obs import events_enabled, metrics_enabled, tracing_enabled
    from repro.wasm.engines import resolve_engine

    pool = getattr(gw.backend, "pool", None)
    return {
        "workload": workload.name,
        "seed": seed,
        "engine": resolve_engine(gw.config.engine),
        "pool": pool.kind if pool is not None else "none",
        "workers_requested": gw.requested_workers,
        "workers_effective": gw.effective_workers,
        "clients": clients,
        "warm_pool": gw.warm_pool,
        "preempt_after": gw.preempt_after,
        "seal_window": gw.seal_window,
        "seal_every_requests": workload.seal_every,
        "shards": gw.shards,
        "backend": gw.backend.kind,
        "observability": {
            "events": events_enabled(),
            "metrics": metrics_enabled(),
            "tracing": tracing_enabled(),
        },
        "cores": cores_available(),
        "python": platform.python_version(),
        "env_overrides": {
            k: os.environ[k]
            for k in ("REPRO_WASM_ENGINE", "REPRO_WASM_FUSION", "REPRO_TRACE_SAMPLE")
            if k in os.environ
        },
    }
