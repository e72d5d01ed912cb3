"""The metering gateway façade: many tenants, one attested platform.

One :class:`MeteringGateway` is what the paper's infrastructure provider
runs: a single SGX platform hosting one instrumentation enclave (shared,
with its instrumented-module cache) and **one accounting enclave per
tenant**, so every tenant's receipts carry their own attested signing key
and no tenant can be billed for another's work.  Requests fan out to an
execution backend (worker processes by default) and come back as raw meter
readings; the tenant's AE signs each into a receipt, and the billing ledger
seals receipts into Merkle-rooted epochs.

The module also houses the wall-clock load-test driver behind
``repro loadtest`` — the serving-layer counterpart of the Fig. 9 throughput
experiment, measured for real instead of simulated.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field, replace

from repro.core.accounting_enclave import AccountingEnclave, WorkloadResult
from repro.core.cache import InstrumentationCache
from repro.core.instrumentation_enclave import InstrumentationEnclave
from repro.core.resource_log import ResourceUsageLog, ResourceVector
from repro.core.sandbox import SandboxConfig
from repro.obs.context import TraceContext, env_sample_rate, trace_id_for
from repro.obs.events import (
    EventLog,
    disable_events,
    enable_events,
    events_enabled,
    get_event_log,
)
from repro.obs.events import emit as emit_event
from repro.obs.instruments import (
    GATEWAY_DEADLINE_EXCEEDED,
    GATEWAY_REQUEST_LATENCY,
    GATEWAY_REQUESTS,
    GATEWAY_RESULTS_REJECTED,
    GATEWAY_RETRIES,
    TRACE_BACKHAUL_BYTES,
    TRACE_SPANS_DROPPED,
    TRACES_SAMPLED_TOTAL,
)
from repro.obs.metrics import get_registry
from repro.obs.trace import (
    Span,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    tracing_enabled,
)
from repro.obs.trace import span as obs_span
from repro.service.backends import ExecutionBackend, WasmBackend
from repro.service.faults import (
    DeadlineExceeded,
    FaultPlan,
    GatewayFailure,
    ResiliencePolicy,
    ResultRejected,
    RetriesExhausted,
    is_transient,
    validate_raw,
)
from repro.service.ledger import (
    BillingLedger,
    EpochSeal,
    EpochVerification,
    Receipt,
    verify_epoch,
)
from repro.service.quota import (
    AdmissionController,
    AdmissionError,
    TenantQuota,
    UnknownTenant,
)
from repro.service.sharding import DEFAULT_SHARDS, shard_index_for
from repro.service.worker import (
    ExecutionTask,
    WorkerPool,
    WorkerResult,
    cores_available,
)
from repro.sgx.attestation import (
    AttestationError,
    AttestationService,
    QuotingEnclave,
    remote_attest,
    verify_service_report,
)
from repro.sgx.enclave import SGXPlatform
from repro.tcrypto.hashing import sha256
from repro.wasm.binary import encode_module
from repro.wasm.interpreter import ExecutionLimits
from repro.wasm.memory import PAGE_SIZE
from repro.wasm.module import Module


@dataclass
class _Tenant:
    tenant_id: str
    ae: AccountingEnclave
    module_bytes: bytes
    module_hash: bytes
    counter_index: int
    memory_required_bytes: int
    shard: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


@dataclass
class GatewayResponse:
    """What a tenant gets back for one request."""

    tenant_id: str
    request_id: int
    result: WorkloadResult
    receipt: Receipt
    latency_s: float
    exec_wall_s: float


@dataclass
class _RequestState:
    """One admitted request's lifecycle, owned by its serving coroutine.

    ``finalized`` is the exactly-once gate: whichever of {worker result,
    deadline, terminal failure} claims it first settles the admission slot,
    ends the span and resolves the future — and only the claimant may sign
    a receipt, so a result arriving after its deadline is dropped unbilled.
    The whole lifecycle runs on the front-end event loop, so the claim is
    a belt-and-braces invariant rather than a race arbiter.
    """

    request_id: int
    tenant: "_Tenant"
    label: str
    response: "Future[GatewayResponse]"
    span: object
    submitted: float
    #: absolute wall-clock deadline (``perf_counter`` domain), or None
    deadline: float | None = None
    lock: threading.Lock = field(default_factory=threading.Lock)
    finalized: bool = False
    #: preemption bookkeeping: checkpoint receipts signed so far, and the
    #: (counter, io_in, io_out) totals they billed — the final receipt
    #: bills only the delta past this baseline (both mutated under the
    #: tenant lock, alongside the checkpoint signing they describe)
    checkpoints: int = 0
    billed: tuple = (0, 0, 0)
    #: distributed-trace context for this request (``None`` when neither
    #: tracing nor events are on); re-minted to the next hop on every
    #: checkpoint re-dispatch and retry, always on the single serving
    #: coroutine for the request, so no extra locking is needed
    trace: "TraceContext | None" = None

    def claim(self) -> bool:
        with self.lock:
            if self.finalized:
                return False
            self.finalized = True
            return True

    def remaining(self) -> float | None:
        if self.deadline is None:
            return None
        return self.deadline - time.perf_counter()


# gateway ids are minted once per gateway construction — cold path, unlike
# request ids, which are minted per shard on the submit hot path
_GATEWAY_SEQ = 0
_GATEWAY_SEQ_LOCK = threading.Lock()


def _next_gateway_id() -> str:
    global _GATEWAY_SEQ
    with _GATEWAY_SEQ_LOCK:
        _GATEWAY_SEQ += 1
        return f"gw-{_GATEWAY_SEQ}"


class _AsyncFrontend:
    """The gateway's event loop, run on one daemon thread.

    Admission stays synchronous in the caller's thread; everything after —
    dispatch, deadline watch, retry backoff, checkpoint re-dispatch,
    accounting — is one coroutine per request on this loop.  Replaces the
    two-timers-per-request scheme (a ``threading.Timer`` watchdog plus
    backoff timers), whose thread churn was part of the multi-worker cliff.
    """

    def __init__(self, name: str):
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        # coroutines enqueued but not yet scheduled on the loop: waking the
        # loop costs a self-pipe write per call, so bursts of submits share
        # one wake-up (the scheduled drain empties the whole queue)
        self._pending: list = []
        self._pending_lock = threading.Lock()
        self._drain_scheduled = False
        self._thread.start()
        self._started.wait()
        self.closed = False

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.call_soon(self._started.set)
        self._loop.run_forever()

    def spawn(self, coro) -> None:
        """Schedule one request-serving coroutine from any thread."""
        self._enqueue(coro)

    def post(self, fn) -> None:
        """Run a plain callable on the loop, sharing the batched wake-up."""
        self._enqueue(fn)

    def bridge(self, inner: Future) -> "asyncio.Future":
        """An asyncio future (on this loop) resolved when ``inner`` completes.

        Replaces :func:`asyncio.wrap_future` on the hot path: the pool's
        done-callback goes through the batched wake queue instead of
        paying one self-pipe write per completion.  The bridged future
        carries no result or exception — callers classify the outcome via
        the pool future itself — so an abandoned (post-deadline) waiter
        never triggers "exception was never retrieved".  Must be called
        from the loop thread.
        """
        fut = self._loop.create_future()

        def _resolve() -> None:
            if not fut.done():
                fut.set_result(None)

        inner.add_done_callback(lambda _f: self.post(_resolve))
        return fut

    def _enqueue(self, item) -> None:
        if self.closed:  # pragma: no cover - late completion after shutdown
            return
        with self._pending_lock:
            self._pending.append(item)
            wake = not self._drain_scheduled
            if wake:
                self._drain_scheduled = True
        if wake:
            try:
                self._loop.call_soon_threadsafe(self._drain)
            except RuntimeError:  # pragma: no cover - loop closed mid-enqueue
                pass

    def _drain(self) -> None:
        while True:
            with self._pending_lock:
                pending, self._pending = self._pending, []
                if not pending:
                    self._drain_scheduled = False
                    return
            for item in pending:
                if callable(item):  # coroutine objects are not callable
                    item()
                else:
                    self._loop.create_task(item)

    def shutdown(self) -> None:
        if self.closed:
            return
        self.closed = True
        with self._pending_lock:
            pending, self._pending = self._pending, []
        for item in pending:  # pragma: no cover - shutdown race
            if not callable(item):
                item.close()
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5)
        if not self._thread.is_alive():
            self._loop.close()


class MeteringGateway:
    """A live multi-tenant metering service over the two-way sandbox."""

    def __init__(
        self,
        workers: int = 1,
        pool: str = "process",
        config: SandboxConfig | None = None,
        backend: ExecutionBackend | None = None,
        cache_entries: int | None = 256,
        resilience: ResiliencePolicy | None = None,
        fault_plan: FaultPlan | None = None,
        preempt_after: int | None = None,
        warm_pool: bool = False,
        trace_sample: float | None = None,
        seal_window: int | None = None,
        shards: int = DEFAULT_SHARDS,
        adaptive: bool = True,
    ):
        if seal_window is not None and seal_window < 1:
            raise ValueError("seal_window must be >= 1")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.config = config or SandboxConfig()
        #: Batched receipt sealing: with ``seal_window=N`` each tenant's AE
        #: signs one Merkle root per N receipts (flushed at epoch seals)
        #: instead of one RSA op per request; ``None`` keeps the paper's
        #: per-receipt signing byte-identical to previous behaviour.
        self.seal_window = seal_window
        #: Tenant-hash shard count for admission state, the ledger, and
        #: request-id minting (see :mod:`repro.service.sharding`).
        self.shards = shards
        #: Head-sampling rate for the worker telemetry backhaul, in [0, 1].
        #: Defaults to ``REPRO_TRACE_SAMPLE`` (1.0 when unset).  Sampling
        #: gates only the backhaul: trace ids are minted (and stamped onto
        #: receipts/events) for every request once tracing or events are on.
        self.trace_sample = (
            env_sample_rate()
            if trace_sample is None
            else min(1.0, max(0.0, trace_sample))
        )
        #: Budget-boundary preemption: when set, every dispatched slice
        #: suspends after this many further executed instructions; the
        #: gateway signs a checkpoint receipt for the consumed delta and
        #: re-dispatches the snapshot (possibly onto another worker).
        self.preempt_after = preempt_after
        #: Serve requests from per-worker warm pools (instantiate once,
        #: reset a pooled instance per request) instead of instantiating
        #: per request.
        self.warm_pool = warm_pool
        #: Process-unique telemetry identity: every event this gateway (and
        #: its ledger) emits is stamped ``gateway=<id>``, so a shared event
        #: log can be sliced per gateway — e.g. one drift audit per sweep
        #: point of a multi-gateway load test.
        self.gateway_id = _next_gateway_id()
        #: Failure-handling policy.  The default retries transient worker
        #: crashes a couple of times and enforces no deadline — fault-free
        #: behaviour (and its signed vectors) is byte-identical to a gateway
        #: with no policy at all.
        self.resilience = resilience or ResiliencePolicy()
        #: Chaos-testing hook: when set, outgoing tasks are stamped with the
        #: plan's fault for their request id (``repro loadtest --faults``).
        self.fault_plan = fault_plan
        self._resilience_lock = threading.Lock()
        self._retries = 0
        self._deadline_exceeded = 0
        self._results_rejected = 0
        self._preemptions = 0
        self._faults_injected: dict[str, int] = {}
        self.platform = SGXPlatform(platform_id="gateway-0")
        self.attestation_service = AttestationService()
        weight_table = self.config.weight_table()
        self.ie = InstrumentationEnclave(weight_table=weight_table, level=self.config.level)
        self.platform.launch(self.ie)
        self.qe = QuotingEnclave()
        self.platform.launch(self.qe)
        self.attestation_service.provision(self.qe)
        self.cache = InstrumentationCache(self.ie, max_entries=cache_entries)
        #: Adaptive worker sizing: a process pool is shrunk to the cores
        #: actually available — oversubscription is the other half of the
        #: multi-worker cliff (4 CPU-bound workers on 1 core run slower
        #: than 1).  The requested count stays visible in :meth:`stats`.
        self.requested_workers = workers
        self.backend: ExecutionBackend = backend or WasmBackend(
            WorkerPool(workers=workers, kind=pool, adaptive=adaptive)
        )
        inner_pool = getattr(self.backend, "pool", None)
        self.effective_workers = getattr(inner_pool, "workers", workers)
        self.admission = AdmissionController(shards=shards)
        self.ledger = BillingLedger(owner=self.gateway_id, shards=shards)
        self._tenants: dict[str, _Tenant] = {}
        # per-shard request-id minting: shard s hands out s+1, s+1+shards,
        # s+1+2*shards, … — globally unique ints with no cross-shard lock
        self._id_counters = [0] * shards
        self._id_locks = [threading.Lock() for _ in range(shards)]
        self._frontend = _AsyncFrontend(name=f"{self.gateway_id}-frontend")

    # -- tenant lifecycle --------------------------------------------------------

    def register_tenant(
        self,
        tenant_id: str,
        module: Module | None = None,
        minic: str | None = None,
        wat: str | None = None,
        quota: TenantQuota | None = None,
    ) -> None:
        """Admit a tenant: instrument their module (cached), launch and
        attest their accounting enclave, and open their ledger chain."""
        if tenant_id in self._tenants:
            raise ValueError(f"tenant {tenant_id!r} already registered")
        if module is None:
            if minic is not None:
                from repro.minic import compile_source

                module = compile_source(minic)
            elif wat is not None:
                from repro.wasm.wat_parser import parse_wat

                module = parse_wat(wat)
            else:
                raise ValueError("register_tenant needs a module, minic= or wat=")

        with obs_span("gateway.register_tenant", tenant=tenant_id):
            self._register_tenant(tenant_id, module, quota)

    def _register_tenant(
        self, tenant_id: str, module: Module, quota: TenantQuota | None
    ) -> None:
        instrumented, evidence, _counter_export = self.cache.instrument(module)
        ae = AccountingEnclave(
            ie_public_key=self.ie.evidence_public_key,
            ie_measurement=self.ie.mrenclave,
            weight_table=self.config.weight_table(),
            memory_policy=self.config.memory_policy,
            key_seed=self._tenant_key_seed(tenant_id),
            limits=ExecutionLimits(max_instructions=self.config.max_instructions),
            engine=self.config.engine,
            batch_window=self.seal_window,
        )
        self.platform.launch(ae)
        self._attest(ae, tenant_id)
        ae.load_workload(instrumented, evidence)

        module_bytes = encode_module(instrumented)
        if instrumented.memories:
            limits = instrumented.memories[0].limits
            pages = limits.maximum if limits.maximum is not None else limits.minimum
        else:
            pages = 0
        tenant = _Tenant(
            tenant_id=tenant_id,
            ae=ae,
            module_bytes=module_bytes,
            module_hash=sha256(module_bytes),
            counter_index=evidence.counter_global_index,
            memory_required_bytes=pages * PAGE_SIZE,
            shard=shard_index_for(tenant_id, self.shards),
        )
        self._tenants[tenant_id] = tenant
        self.admission.register(tenant_id, quota or TenantQuota())
        self.ledger.register_tenant(tenant_id, ae.log_public_key)

    @staticmethod
    def _tenant_key_seed(tenant_id: str) -> int:
        # deterministic but tenant-unique AE signing keys
        return int.from_bytes(sha256(b"tenant-ae:" + tenant_id.encode())[:6], "big") | 1

    def _attest(self, ae: AccountingEnclave, tenant_id: str) -> None:
        nonce = sha256(b"gateway-attest:" + tenant_id.encode())[:16]
        user_data = ae.report_data_binding()
        verdict = remote_attest(ae, self.qe, self.attestation_service, nonce, user_data)
        ok = (
            verdict.ok
            and verify_service_report(self.attestation_service.public_key, verdict)
            and verdict.quote.mrenclave == ae.mrenclave
            and sha256(sha256(nonce + user_data)) == sha256(verdict.quote.report_data)
        )
        if not ok:
            raise AttestationError(
                f"accounting enclave for tenant {tenant_id!r} failed attestation"
            )

    # -- request path ------------------------------------------------------------

    def _mint_request_id(self, shard: int) -> int:
        with self._id_locks[shard]:
            n = self._id_counters[shard]
            self._id_counters[shard] = n + 1
        return n * self.shards + shard + 1

    @property
    def _requests(self) -> int:
        """Requests admitted so far (sum over the shard counters)."""
        return sum(self._id_counters)

    def submit(
        self,
        tenant_id: str,
        export: str,
        *args,
        input_data: bytes = b"",
        label: str = "",
    ) -> "Future[GatewayResponse]":
        """Admit and dispatch one request; resolves to a signed response.

        Raises a typed :class:`~repro.service.quota.AdmissionError`
        *synchronously* when the tenant is over quota — rejected requests
        never reach the pool.  Everything after admission is one coroutine
        on the gateway's event loop: post-admission failures resolve the
        future to a typed :class:`~repro.service.faults.GatewayFailure`,
        transient worker crashes are retried (same ``request_id``,
        exponential backoff with deterministic jitter) within
        :attr:`resilience`'s budget, a wall-clock deadline is enforced by
        the serving coroutine (a late worker result is dropped unbilled),
        and meter readings are sanity-validated before the tenant's
        accounting enclave signs them.  Whatever happens, the request is
        billed at most once and its admission slot is settled exactly once.
        """
        if self._frontend.closed:
            raise RuntimeError("gateway is shut down")
        req_span = obs_span(
            "gateway.request", detached=True, tenant=tenant_id, export=export
        )
        try:
            tenant = self._tenants.get(tenant_id)
            if tenant is None:
                raise UnknownTenant(f"tenant {tenant_id!r} is not registered")
            with obs_span("gateway.admit", parent=req_span, tenant=tenant_id):
                self.admission.admit(tenant_id, tenant.memory_required_bytes)
        except AdmissionError as exc:
            GATEWAY_REQUESTS.inc(tenant=tenant_id, outcome=f"rejected:{exc.code}")
            emit_event(
                "reject", gateway=self.gateway_id, tenant=tenant_id, code=exc.code
            )
            req_span.set_attribute("outcome", f"rejected:{exc.code}")
            req_span.end()
            raise
        except BaseException:
            req_span.end()
            raise
        request_id = self._mint_request_id(tenant.shard)
        req_span.set_attribute("request_id", request_id)
        # trace identity: minted once per admitted request whenever anyone
        # is watching (tracer or event log); obs-off runs skip it entirely
        ctx: TraceContext | None = None
        if tracing_enabled() or events_enabled():
            ctx = TraceContext.mint(
                self.gateway_id,
                request_id,
                sample_rate=self.trace_sample,
                parent_span_id=getattr(req_span, "span_id", 0),
            )
            TRACES_SAMPLED_TOTAL.inc(
                decision="sampled" if ctx.sampled else "unsampled"
            )
            req_span.set_attribute("trace_id", ctx.trace_id)
        emit_event(
            "admit",
            gateway=self.gateway_id,
            tenant=tenant_id,
            request_id=request_id,
            trace_id=ctx.trace_id if ctx is not None else None,
        )
        task = ExecutionTask(
            module_bytes=tenant.module_bytes,
            module_hash=tenant.module_hash,
            counter_global_index=tenant.counter_index,
            export=export,
            args=args,
            input_data=input_data,
            engine=self.config.engine,
            max_instructions=self.config.max_instructions,
            snapshot_at=self.preempt_after,
            warm=self.warm_pool,
            trace=ctx.to_wire() if ctx is not None and ctx.sampled else None,
        )
        if self.fault_plan is not None:
            fault = self.fault_plan.fault_for(request_id)
            if fault is not None:
                task = replace(
                    task, fault=fault, fault_arg=self.fault_plan.fault_arg(fault)
                )
                req_span.set_attribute("injected_fault", fault)
                with self._resilience_lock:
                    self._faults_injected[fault] = (
                        self._faults_injected.get(fault, 0) + 1
                    )
                emit_event(
                    "fault_injected",
                    gateway=self.gateway_id,
                    tenant=tenant_id,
                    request_id=request_id,
                    fault=fault,
                    trace_id=ctx.trace_id if ctx is not None else None,
                )
        response: Future[GatewayResponse] = Future()
        submitted = time.perf_counter()
        state = _RequestState(
            request_id=request_id,
            tenant=tenant,
            label=label or export,
            response=response,
            span=req_span,
            submitted=submitted,
            deadline=(
                submitted + self.resilience.deadline_s
                if self.resilience.deadline_s is not None
                else None
            ),
            trace=ctx,
        )
        self._frontend.spawn(self._serve(state, task))
        return response

    # -- the resilient serving coroutine -----------------------------------------

    async def _serve(self, state: _RequestState, task: ExecutionTask) -> None:
        """One request's whole post-admission lifecycle as a coroutine.

        Dispatch, the deadline watch, retry backoff, checkpoint
        re-dispatch and final accounting all run here, on the front-end
        loop — workers stay processes (or threads), and their results come
        back through the pool future the coroutine awaits.
        """
        attempt = 0
        try:
            while True:
                remaining = state.remaining()
                if remaining is not None and remaining <= 0:
                    self._deadline_exceeded_now(state)
                    return
                try:
                    inner = self.backend.submit(task)
                except BaseException as exc:  # noqa: BLE001 - classified below
                    retry = await self._task_failed(state, task, attempt, exc)
                    if retry is None:
                        return
                    task, attempt = retry
                    continue
                if not await self._await_result(inner, remaining):
                    # the deadline landed first: the late result (or hang)
                    # is abandoned, never accounted, never billed
                    self._deadline_exceeded_now(state)
                    return
                exc = inner.exception()
                if exc is not None:
                    retry = await self._task_failed(state, task, attempt, exc)
                    if retry is None:
                        return
                    task, attempt = retry
                    continue
                worker_result = inner.result()
                if worker_result.telemetry:
                    self._merge_telemetry(state, worker_result.telemetry)
                if worker_result.snapshot is not None:
                    resumed = self._checkpoint(state, task, worker_result)
                    if resumed is None:
                        return
                    task, attempt = resumed
                    continue
                self._account(state, worker_result)
                return
        except BaseException as exc:  # noqa: BLE001 - never strand the future
            self._finalize_failure(state, exc)

    async def _await_result(self, inner: Future, remaining: float | None) -> bool:
        """Await the pool future; False when the deadline expires first.

        Uses :func:`asyncio.wait` rather than ``wait_for`` so a timeout
        never cancels the pool future — the worker may still be running,
        and pool bookkeeping (slot release, backlog drain) must proceed;
        the result is simply dropped, exactly as the old watchdog did.
        """
        if inner.done():  # fast workers beat the coroutine here
            return True
        waiter = self._frontend.bridge(inner)
        if remaining is None:
            # no deadline: a bare await skips asyncio.wait's task setup;
            # the caller classifies failures via inner.exception()
            await waiter
            return True
        done, _pending = await asyncio.wait({waiter}, timeout=remaining)
        return bool(done)

    def _merge_telemetry(self, state: _RequestState, telemetry: dict) -> None:
        """Fold one worker capture into the gateway's tracer/log/registry.

        Spans keep their origin pid and land re-parented under the request
        span (one stitched trace per request, however many workers served
        its hops).  Worker events re-emit through the gateway log — fresh,
        strictly monotonic ``seq``; the worker's own clock and pid ride
        along as fields — so JSONL replay order stays deterministic.
        Metric deltas are applied only when the capture crossed a process
        boundary: a thread-pool worker's direct increments already landed
        in the shared registry, and replaying them would double-count.
        """
        trace_id = telemetry.get("trace_id")
        origin_pid = int(telemetry.get("pid", 0))
        TRACE_BACKHAUL_BYTES.observe(float(len(json.dumps(telemetry, default=str))))
        dropped = int(telemetry.get("spans_dropped", 0)) + int(
            telemetry.get("events_dropped", 0)
        )
        if dropped:
            TRACE_SPANS_DROPPED.inc(dropped)
        tracer = get_tracer()
        if tracer is not None and telemetry.get("spans"):
            parent = state.span if isinstance(state.span, Span) else None
            tracer.ingest(
                telemetry["spans"], parent=parent, pid=origin_pid, trace_id=trace_id
            )
        for record in telemetry.get("events", ()):
            fields = dict(record.get("fields", ()))
            fields.update(
                gateway=self.gateway_id,
                request_id=state.request_id,
                trace_id=trace_id,
                origin_pid=origin_pid,
                worker_ts_s=record.get("ts_s"),
            )
            emit_event(record["kind"], **fields)
        if origin_pid != os.getpid():
            registry = get_registry()
            for delta in telemetry.get("metrics", ()):
                name, kind, value, labels = delta
                metric = registry.get(name)
                if metric is None:
                    continue
                if kind == "histogram":
                    metric.observe(value, **dict(labels))
                else:
                    metric.inc(value, **dict(labels))

    async def _task_failed(
        self,
        state: _RequestState,
        task: ExecutionTask,
        attempt: int,
        exc: BaseException,
    ) -> "tuple[ExecutionTask, int] | None":
        """Classify one failure; returns the retry ``(task, attempt)`` after
        awaiting its backoff, or ``None`` once the request is finalized."""
        if is_transient(exc) and attempt < self.resilience.max_retries:
            tenant_id = state.tenant.tenant_id
            GATEWAY_RETRIES.inc(tenant=tenant_id)
            with self._resilience_lock:
                self._retries += 1
            emit_event(
                "retry",
                gateway=self.gateway_id,
                tenant=tenant_id,
                request_id=state.request_id,
                attempt=attempt + 1,
                trace_id=state.trace.trace_id if state.trace is not None else None,
            )
            state.span.set_attribute("attempts", attempt + 2)
            # retries reuse the request id (exactly-once billing) but never
            # re-inject the fault: the crash already happened
            clean = replace(task, fault=None, fault_arg=0.0)
            if state.trace is not None:
                state.trace = state.trace.next_hop()
                if state.trace.sampled:
                    clean = replace(clean, trace=state.trace.to_wire())
            delay = self.resilience.backoff_s(state.request_id, attempt)
            remaining = state.remaining()
            if remaining is not None and delay >= remaining:
                # the deadline lands before the retry could dispatch
                if remaining > 0:
                    await asyncio.sleep(remaining)
                self._deadline_exceeded_now(state)
                return None
            await asyncio.sleep(delay)
            return clean, attempt + 1
        if is_transient(exc):
            exc = RetriesExhausted(
                f"request {state.request_id} failed after {attempt + 1} attempts; "
                f"last error: {exc}"
            )
        self._finalize_failure(state, exc)
        return None

    def _checkpoint(
        self, state: _RequestState, task: ExecutionTask, worker_result: WorkerResult
    ) -> "tuple[ExecutionTask, int] | None":
        """Bill a preempted slice with a checkpoint receipt.

        The worker suspended at the slice budget and shipped a snapshot back.
        The tenant's AE signs a checkpoint receipt for the *delta* consumed
        since the last checkpoint (so the sum of a request's receipts equals
        the uninterrupted vector componentwise) under a derived request id
        ``<id>#cpN`` — the ledger's exactly-once layer still dedups each
        checkpoint individually, and the final receipt keeps the bare id.
        Returns the resumed task for the serving coroutine to re-dispatch
        (free to land on any worker), or ``None`` if the request was
        finalized as a failure here.
        """
        tenant = state.tenant
        problems = (
            validate_raw(worker_result.raw, self.config.max_instructions)
            if self.resilience.validate_results
            else []
        )
        if problems:
            GATEWAY_RESULTS_REJECTED.inc(tenant=tenant.tenant_id)
            with self._resilience_lock:
                self._results_rejected += 1
            self._finalize_failure(
                state, ResultRejected("implausible meter readings: " + "; ".join(problems))
            )
            return None
        trace_id = state.trace.trace_id if state.trace is not None else None
        try:
            with obs_span(
                "gateway.checkpoint",
                parent=state.span,
                tenant=tenant.tenant_id,
                checkpoint=state.checkpoints + 1,
                trace_id=trace_id,
            ):
                with tenant.lock:
                    tenant.ae.account_span(
                        worker_result.raw,
                        label=state.label,
                        baseline=state.billed,
                        final=False,
                        trace_id=trace_id,
                    )
                    self.ledger.record(
                        tenant.tenant_id,
                        tenant.ae.log.entries[-1],
                        request_id=f"{state.request_id}#cp{state.checkpoints + 1}",
                        trace_id=trace_id,
                        engine=worker_result.engine,
                    )
                    for batch in tenant.ae.log.drain_batches():
                        self.ledger.record_batch(tenant.tenant_id, batch)
                    state.checkpoints += 1
                    state.billed = (
                        worker_result.raw.counter_value,
                        worker_result.raw.io_bytes_in,
                        worker_result.raw.io_bytes_out,
                    )
        except BaseException as exc:  # noqa: BLE001 - relayed to the caller
            self._finalize_failure(state, exc)
            return None
        with self._resilience_lock:
            self._preemptions += 1
        emit_event(
            "checkpoint",
            gateway=self.gateway_id,
            tenant=tenant.tenant_id,
            request_id=state.request_id,
            checkpoint=state.checkpoints,
            snapshot_bytes=len(worker_result.snapshot),
            trace_id=trace_id,
        )
        state.span.set_attribute("checkpoints", state.checkpoints)
        # the resumed slice carries the snapshot; never re-inject the fault
        resumed = replace(
            task, snapshot=worker_result.snapshot, fault=None, fault_arg=0.0
        )
        if state.trace is not None:
            state.trace = state.trace.next_hop()
            if state.trace.sampled:
                resumed = replace(resumed, trace=state.trace.to_wire())
        return resumed, 0

    def _account(self, state: _RequestState, worker_result: WorkerResult) -> None:
        tenant = state.tenant
        problems = (
            validate_raw(worker_result.raw, self.config.max_instructions)
            if self.resilience.validate_results
            else []
        )
        if problems:
            # a lying worker, not a failing one: reject, never sign, no retry
            GATEWAY_RESULTS_REJECTED.inc(tenant=tenant.tenant_id)
            with self._resilience_lock:
                self._results_rejected += 1
            self._finalize_failure(
                state, ResultRejected("implausible meter readings: " + "; ".join(problems))
            )
            return
        if not state.claim():
            return  # already finalized (belt and braces): drop, unbilled
        trace_id = state.trace.trace_id if state.trace is not None else None
        try:
            with obs_span(
                "gateway.account", parent=state.span, tenant=tenant.tenant_id
            ):
                # narrow critical section: only the AE signing and the
                # chain append are under the tenant lock — settling the
                # admission slot, metrics, events and resolving the future
                # all happen outside it
                with tenant.lock:
                    if state.checkpoints:
                        # preempted request: the final receipt bills only the
                        # delta past the checkpoints already sealed
                        result = tenant.ae.account_span(
                            worker_result.raw,
                            label=state.label,
                            baseline=state.billed,
                            final=True,
                            trace_id=trace_id,
                        )
                    else:
                        result = tenant.ae.account(
                            worker_result.raw, label=state.label, trace_id=trace_id
                        )
                    receipt = self.ledger.record(
                        tenant.tenant_id,
                        tenant.ae.log.entries[-1],
                        request_id=state.request_id,
                        trace_id=trace_id,
                        engine=worker_result.engine,
                    )
                    for batch in tenant.ae.log.drain_batches():
                        self.ledger.record_batch(tenant.tenant_id, batch)
        except BaseException as exc:  # noqa: BLE001 - relayed to the caller
            self._fail_finalized(state, exc)
            return
        # settle the slot for the request's full consumption: the final
        # receipt's delta plus everything the checkpoint receipts billed
        self.admission.settle(
            tenant.tenant_id,
            result.vector.weighted_instructions + state.billed[0],
        )
        latency_s = time.perf_counter() - state.submitted
        GATEWAY_REQUESTS.inc(tenant=tenant.tenant_id, outcome="ok")
        # the exemplar links this latency bucket to the request's trace
        GATEWAY_REQUEST_LATENCY.observe(
            latency_s, exemplar=trace_id, tenant=tenant.tenant_id
        )
        emit_event(
            "settled",
            gateway=self.gateway_id,
            tenant=tenant.tenant_id,
            request_id=state.request_id,
            outcome="ok",
            latency_s=latency_s,
            trace_id=trace_id,
        )
        state.span.set_attribute("outcome", "ok")
        state.span.end()
        state.response.set_result(
            GatewayResponse(
                tenant_id=tenant.tenant_id,
                request_id=state.request_id,
                result=result,
                receipt=receipt,
                latency_s=latency_s,
                exec_wall_s=worker_result.exec_wall_s,
            )
        )

    def _deadline_exceeded_now(self, state: _RequestState) -> None:
        if not state.claim():
            return
        tenant_id = state.tenant.tenant_id
        GATEWAY_DEADLINE_EXCEEDED.inc(tenant=tenant_id)
        with self._resilience_lock:
            self._deadline_exceeded += 1
        self._fail_finalized(
            state,
            DeadlineExceeded(
                f"request {state.request_id} exceeded its "
                f"{self.resilience.deadline_s}s deadline"
            ),
        )

    def _finalize_failure(self, state: _RequestState, exc: BaseException) -> None:
        if not state.claim():
            return
        self._fail_finalized(state, exc)

    def _fail_finalized(self, state: _RequestState, exc: BaseException) -> None:
        """Failure bookkeeping once the state is claimed: settle the slot,
        end the span, resolve the future — each exactly once."""
        self.admission.settle(state.tenant.tenant_id, 0)
        outcome = exc.code if isinstance(exc, GatewayFailure) else "error"
        GATEWAY_REQUESTS.inc(tenant=state.tenant.tenant_id, outcome=outcome)
        emit_event(
            "settled",
            gateway=self.gateway_id,
            tenant=state.tenant.tenant_id,
            request_id=state.request_id,
            outcome=outcome,
            latency_s=time.perf_counter() - state.submitted,
            trace_id=state.trace.trace_id if state.trace is not None else None,
        )
        state.span.set_attribute("outcome", outcome)
        state.span.end()
        state.response.set_exception(exc)

    def resilience_stats(self) -> dict:
        """Counters for the failure-containment layer (chaos-run report)."""
        with self._resilience_lock:
            stats = {
                "retries": self._retries,
                "deadline_exceeded": self._deadline_exceeded,
                "results_rejected": self._results_rejected,
                "preemptions": self._preemptions,
                "faults_injected": dict(self._faults_injected),
            }
        pool = getattr(self.backend, "pool", None)
        stats["pool_rebuilds"] = getattr(pool, "rebuilds", 0)
        stats["backend_kind"] = self.backend.kind
        return stats

    def execute(
        self,
        tenant_id: str,
        export: str,
        *args,
        input_data: bytes = b"",
        label: str = "",
    ) -> GatewayResponse:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(
            tenant_id, export, *args, input_data=input_data, label=label
        ).result()

    # -- billing -----------------------------------------------------------------

    def seal_epoch(self) -> EpochSeal:
        """Seal all outstanding receipts; instruction budgets reset.

        In batched-sealing mode every tenant's pending receipt window is
        flushed first (one short batch each), so AE batches never straddle
        an epoch boundary and the sealed epoch verifies offline from the
        receipts plus the recorded batches alone.
        """
        with obs_span("gateway.seal_epoch"):
            if self.seal_window is not None:
                for tenant in self._tenants.values():
                    with tenant.lock:
                        tenant.ae.log.flush()
                        for batch in tenant.ae.log.drain_batches():
                            self.ledger.record_batch(tenant.tenant_id, batch)
            seal = self.ledger.seal_epoch()
            self.admission.reset_epoch()
            return seal

    def verify_epoch(self, seal: EpochSeal | None = None) -> EpochVerification:
        """Offline audit of an epoch (defaults to the most recent seal)."""
        if seal is None:
            if not self.ledger.seals:
                raise ValueError("no epoch sealed yet")
            seal = self.ledger.seals[-1]
        receipts = {
            span.tenant_id: self.ledger.epoch_receipts(seal, span.tenant_id)
            for span in seal.spans
        }
        keys = {span.tenant_id: self.ledger.ae_key(span.tenant_id) for span in seal.spans}
        batches = {
            span.tenant_id: self.ledger.batches(span.tenant_id) for span in seal.spans
        }
        previous = self.ledger.seals[seal.epoch - 1] if seal.epoch > 0 else None
        verdict = verify_epoch(
            seal,
            receipts,
            keys,
            self.ledger.public_key,
            previous_seal=previous,
            batches_by_tenant=batches,
        )
        emit_event(
            "epoch_audit",
            gateway=self.gateway_id,
            epoch=verdict.epoch,
            outcome="ok" if verdict.ok else "failed",
            receipts_checked=verdict.receipts_checked,
            errors=len(verdict.errors),
        )
        return verdict

    def totals(self, tenant_id: str | None = None) -> ResourceVector:
        """Aggregate usage — one tenant's, or across the whole gateway."""
        if tenant_id is not None:
            return self.ledger.totals(tenant_id)
        log = ResourceUsageLog(signing_key=None)
        log.entries = [
            receipt.entry
            for tid in sorted(self._tenants)
            for receipt in self.ledger.receipts(tid)
        ]
        return log.totals()

    # -- operations --------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "backend": self.backend.kind,
            "tenants": len(self._tenants),
            "requests": self._requests,
            "epochs_sealed": len(self.ledger.seals),
            "shards": self.shards,
            "seal_window": self.seal_window,
            "workers": {
                "requested": self.requested_workers,
                "effective": self.effective_workers,
                "cores_available": cores_available(),
            },
            "cache": self.cache.stats(),
            "resilience": self.resilience_stats(),
            "admission": {
                tid: self.admission.stats(tid) for tid in sorted(self._tenants)
            },
        }

    def shutdown(self) -> None:
        self.backend.shutdown()
        self._frontend.shutdown()

    def __enter__(self) -> "MeteringGateway":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


# -- synthetic tenant mixes and the load-test driver ---------------------------


def polybench_tenant_mix(
    kernels: tuple[str, ...] = (), tenants: int | None = None
) -> list[tuple[str, Module, tuple[str, tuple]]]:
    """A mixed-tenant workload: one tenant per PolyBench kernel.

    Returns ``(tenant_id, module, (export, args))`` triples.  The default
    mix spans linear algebra, solvers and a stencil — small enough to load
    quickly, varied enough that request service times differ by ~10x.

    ``tenants`` fans the mix out to that many distinct tenants, cycling the
    kernels (``tenant-atax-000``, ``tenant-bicg-001``, …) — the same
    workload shapes under many more tenant identities, for exercising
    admission sharding and telemetry cardinality through the *real*
    gateway.  Each registered tenant mints an attested AE (an RSA keypair,
    ~1 s of pure-python keygen apiece), so real-gateway fan-out is for
    tens-to-hundreds of tenants; the million-tenant scale soak
    (:mod:`repro.obs.soak`) models the backend instead.
    """
    from repro.workloads.polybench import POLYBENCH_KERNELS

    names = kernels or ("atax", "bicg", "mvt", "trisolv", "gesummv", "jacobi-1d")
    mix = []
    if tenants is None:
        for name in names:
            spec = POLYBENCH_KERNELS[name]
            mix.append((f"tenant-{name}", spec.compile().clone(), spec.run))
        return mix
    if tenants < 1:
        raise ValueError("tenants must be >= 1")
    # compile each kernel once; clone per tenant so instances stay isolated
    compiled = {name: POLYBENCH_KERNELS[name].compile() for name in names}
    for i in range(tenants):
        name = names[i % len(names)]
        mix.append(
            (
                f"tenant-{name}-{i:03d}",
                compiled[name].clone(),
                POLYBENCH_KERNELS[name].run,
            )
        )
    return mix


#: The quota-probe tenant every load test carries: its instruction budget is
#: below one request's cost, so its second request must come back as a typed
#: ``instruction-budget-exhausted`` rejection — exercising admission control
#: under load on every run.
_PROBE_KERNEL = "trisolv"
_PROBE_BUDGET = 1000


def _request_schedule(
    mix: list[tuple[str, Module, tuple[str, tuple]]], requests: int
) -> list[tuple[str, str, tuple]]:
    """Round-robin ``(tenant_id, export, args)`` list for one sweep point."""
    schedule = []
    for i in range(requests):
        tenant_id, _module, (export, args) = mix[i % len(mix)]
        schedule.append((tenant_id, export, args))
    return schedule


def serial_baseline_totals(
    mix: list[tuple[str, Module, tuple[str, tuple]]],
    schedule: list[tuple[str, str, tuple]],
    engine: str | None = None,
) -> ResourceVector:
    """Run the exact same requests serially through a single two-way sandbox.

    The ground truth for the gateway's aggregate accounting: whatever the
    worker pool does, totals must come out byte-identical to this.
    """
    from repro.core.sandbox import TwoWaySandbox

    sandbox = TwoWaySandbox.deploy(SandboxConfig(engine=engine))
    modules = {tenant_id: module for tenant_id, module, _run in mix}
    for tenant_id, export, args in schedule:
        workload = sandbox.submit_module(modules[tenant_id].clone())
        workload.invoke(export, *args)
    return sandbox.totals()


def run_loadtest(
    worker_counts: tuple[int, ...] = (1, 2, 4),
    requests: int = 60,
    pool: str = "process",
    engine: str | None = None,
    kernels: tuple[str, ...] = (),
    backend: str = "wasm",
    time_scale: float = 1.0,
    verify_serial: bool = True,
    quota_probe: bool = True,
    faults: "str | FaultPlan | None" = None,
    fault_seed: int = 0,
    deadline_s: float | None = None,
    hang_s: float = 3.0,
    max_retries: int | None = None,
    events_out: str | None = None,
    slo_rules: str | None = None,
    validate_results: bool = True,
    pipeline: bool | None = None,
    preempt_after: int | None = None,
    warm_pool: bool = False,
    trace_out: str | None = None,
    seal_window: int | None = 16,
    adaptive: bool = True,
    tenants: int | None = None,
) -> dict:
    """Drive the gateway at each worker count and report wall-clock numbers.

    Each sweep point serves ``requests`` requests round-robin across the
    PolyBench tenant mix, seals the epoch, audits it offline, and records
    throughput plus latency percentiles.  With ``quota_probe`` a tenant with
    a too-small instruction budget rides along and must be rejected with a
    typed error; with ``verify_serial`` the same requests are re-run
    serially through one :class:`TwoWaySandbox` and the aggregate resource
    totals must match byte-for-byte.  The result feeds
    ``BENCH_service.json``.

    ``backend="wasm"`` executes every request for real on the worker pool —
    throughput then scales with *physical* cores.  ``backend="modeled"``
    paces requests with the Fig. 9 FaaS service-time model instead
    (:class:`~repro.service.backends.SimulatedFaaSBackend`), which measures
    the gateway/ledger serving overhead itself and scales with workers even
    on a single core (modeled service time is waiting, not CPU).

    The telemetry pipeline rides along when asked: ``events_out`` records
    the structured event stream to JSONL, ``slo_rules`` evaluates a
    declarative rule file over it (via the same replay path ``repro alerts``
    uses offline), and either one also runs the per-tenant billing-drift
    audit after each sweep point's epoch seals.  ``pipeline`` forces the
    event log on (or off) independently of the two outputs — the overhead
    benchmark uses it to measure the pipeline's cost without touching disk.
    The gate verdict lands in ``result["telemetry"]["ok"]``:
    ``repro loadtest --slo`` exits non-zero when it is false.

    ``validate_results=False`` disables worker meter-reading validation —
    only useful to demonstrate that the drift auditor catches what
    validation normally prevents (a ``corrupt`` fault's implausible reading
    signed into a receipt).

    ``faults`` turns the run into a *chaos loadtest*: a
    :class:`~repro.service.faults.FaultPlan` (or spec string like
    ``"crash:7,hang:13"``) injects deterministic worker failures while the
    resilience layer (deadline watchdog, bounded retries, pool rebuilds)
    keeps the gateway serving.  Chaos runs drop the serial-equivalence and
    quota-probe checks (failed requests have no serial counterpart) and
    instead report the failure-containment invariants: the epoch still
    audits clean, and billing is exactly-once — receipt count == distinct
    billed request ids == successful responses.

    ``trace_out`` turns on distributed tracing for the run and writes the
    stitched Chrome/Perfetto trace there: every request's gateway-side
    spans, backhauled worker spans (origin pids intact) and AE signing
    spans render as one connected timeline, and each sweep point gains a
    ``trace`` stitch report — per completed request, the span tree must be
    connected and every one of its receipts must carry the recomputable
    ``trace_id``.  The aggregate verdict lands in ``result["trace_ok"]``.

    ``seal_window`` (default 16) runs the gateway with batched receipt
    sealing: per tenant, one AE signature over a Merkle root of N receipt
    bodies per flush window instead of one RSA op per request.  Pass
    ``None`` for the paper's per-receipt signing.  ``adaptive`` (default
    on) shrinks process pools to the cores actually available — points
    record both requested and effective worker counts, and the
    ``speedup_gate`` entry marks the 4-vs-1 comparison *advisory* when the
    box has fewer cores than the widest sweep point (a 1-core runner
    cannot demonstrate a parallelism cliff, only scheduler thrash).

    ``tenants`` fans the kernel mix out to that many distinct tenant
    identities (see :func:`polybench_tenant_mix`) — useful for driving
    admission sharding and telemetry cardinality through the real gateway
    at tens-to-hundreds of tenants.  Per-tenant AE keygen makes larger
    fan-outs impractical here; the synthetic scale soak
    (``repro soak`` / :mod:`repro.obs.soak`) covers 10^3..10^6 tenants
    with a modeled backend instead.

    ``preempt_after`` turns on budget-boundary preemption: every request is
    suspended after that many executed instructions per slice, checkpoint-
    billed, and re-dispatched from its snapshot.  Aggregate billing must be
    unaffected — the serial-equivalence gate stays on, comparing the *sum*
    of each request's receipts.  ``warm_pool`` serves requests from the
    workers' per-module warm pools instead of instantiating per request.
    Both require the real ``wasm`` backend (the modeled backend never
    executes, so it can neither suspend nor clone).
    """
    if backend == "modeled" and (preempt_after is not None or warm_pool):
        raise ValueError(
            "preemption and warm pools need backend='wasm': the modeled "
            "backend does not execute requests"
        )
    mix = polybench_tenant_mix(kernels, tenants=tenants)
    schedule = _request_schedule(mix, requests)
    plan: FaultPlan | None = None
    if faults is not None:
        plan = (
            faults
            if isinstance(faults, FaultPlan)
            else FaultPlan.parse(faults, seed=fault_seed, hang_s=hang_s)
        )
        if deadline_s is None:
            deadline_s = 2.0  # must outlast honest requests, not the hangs
        verify_serial = False  # failed requests have no serial counterpart
        quota_probe = False  # a fault on the probe would invalidate its assertion
    policy = ResiliencePolicy(
        deadline_s=deadline_s,
        max_retries=(4 if plan is not None else 2) if max_retries is None else max_retries,
        backoff_base_s=0.05,
        backoff_cap_s=0.5,
        jitter_seed=fault_seed,
        validate_results=validate_results,
    )
    probe_spec = None
    if quota_probe:
        from repro.workloads.polybench import POLYBENCH_KERNELS

        probe_spec = POLYBENCH_KERNELS[_PROBE_KERNEL]

    pipeline_on = (
        pipeline
        if pipeline is not None
        else (events_out is not None or slo_rules is not None)
    )
    previous_log = get_event_log()
    event_log: EventLog | None = None
    if pipeline_on:
        event_log = enable_events(EventLog())
    previous_tracer = get_tracer()
    tracer: Tracer | None = None
    if trace_out is not None:
        tracer = enable_tracing(Tracer())

    sweep = []
    try:
        sweep.extend(
            _run_sweep_point(
                workers=workers,
                pool=pool,
                engine=engine,
                backend=backend,
                time_scale=time_scale,
                mix=mix,
                schedule=schedule,
                policy=policy,
                plan=plan,
                probe_spec=probe_spec,
                verify_serial=verify_serial,
                event_log=event_log,
                preempt_after=preempt_after,
                warm_pool=warm_pool,
                seal_window=seal_window,
                adaptive=adaptive,
            )
            for workers in worker_counts
        )
    finally:
        if pipeline_on:
            if previous_log is not None:
                enable_events(previous_log)
            else:
                disable_events()
        if trace_out is not None:
            if tracer is not None:
                tracer.flush_truncated()
                tracer.write_chrome_trace(trace_out)
            if previous_tracer is not None:
                enable_tracing(previous_tracer)
            else:
                disable_tracing()
    cores = cores_available()
    result = {
        "benchmark": "metering-gateway-loadtest",
        "mix": [tenant_id for tenant_id, _m, _r in mix],
        "requests_per_point": requests,
        "pool": pool,
        "engine": engine or "default",
        "execution_backend": backend,
        "cores_available": cores,
        "seal_window": seal_window,
        "sweep": sweep,
    }
    if preempt_after is not None:
        result["preempt_after"] = preempt_after
    if warm_pool:
        result["warm_pool"] = True
    if trace_out is not None:
        result["trace_out"] = trace_out
        result["trace_ok"] = all(
            point.get("trace", {}).get("ok", True) for point in sweep
        )
    if plan is not None:
        result["fault_plan"] = plan.describe()
        result["deadline_s"] = deadline_s
    if verify_serial:
        serial = serial_baseline_totals(mix, schedule, engine=engine).to_json()
        result["serial_totals"] = serial
        result["serial_totals_match"] = all(
            point.get("gateway_totals") == serial for point in sweep
        )
    by_workers = {point["workers"]: point for point in sweep}
    if 1 in by_workers and 4 in by_workers:
        result["speedup_4_over_1"] = (
            by_workers[4]["throughput_rps"] / by_workers[1]["throughput_rps"]
        )
    # the 4-vs-1 gate is only meaningful where 4 workers can actually run
    # in parallel: on an undersized box the number measures scheduler
    # thrash (or, with adaptive sizing, nothing at all), not a cliff
    max_workers = max(worker_counts) if worker_counts else 1
    result["speedup_gate"] = {
        "cores_available": cores,
        "max_workers": max_workers,
        "advisory": cores < max_workers,
    }
    if event_log is not None:
        telemetry: dict = {"events": event_log.stats(), "events_path": events_out}
        if events_out is not None:
            telemetry["events_meta"] = event_log.write_jsonl(events_out)
        drift_ok = all(point.get("drift", {}).get("ok", True) for point in sweep)
        telemetry["drift_ok"] = drift_ok
        engine = None
        if slo_rules is not None:
            from repro.obs.slo import load_rules
            from repro.obs.slo import replay as replay_slo

            engine, _agg = replay_slo(event_log.events(), load_rules(slo_rules))
            telemetry["slo_rules"] = slo_rules
            telemetry["slo"] = engine.report()
        telemetry["ok"] = drift_ok and (engine is None or not engine.gating_alerts())
        result["telemetry"] = telemetry
    return result


def _run_sweep_point(
    workers: int,
    pool: str,
    engine: str | None,
    backend: str,
    time_scale: float,
    mix: list,
    schedule: list,
    policy: ResiliencePolicy,
    plan: "FaultPlan | None",
    probe_spec,
    verify_serial: bool,
    event_log: "EventLog | None",
    preempt_after: int | None = None,
    warm_pool: bool = False,
    seal_window: int | None = None,
    adaptive: bool = True,
) -> dict:
    """One worker-count sweep point of :func:`run_loadtest`."""
    config = SandboxConfig(engine=engine)
    if backend == "modeled":
        from repro.service.backends import SimulatedFaaSBackend

        gw_backend: ExecutionBackend | None = SimulatedFaaSBackend(
            workers=workers, time_scale=time_scale
        )
    elif backend == "wasm":
        gw_backend = None
    else:
        raise ValueError(f"unknown loadtest backend {backend!r}")
    with MeteringGateway(
        workers=workers,
        pool=pool,
        config=config,
        backend=gw_backend,
        resilience=policy,
        fault_plan=plan,
        preempt_after=preempt_after,
        warm_pool=warm_pool,
        seal_window=seal_window,
        adaptive=adaptive,
    ) as gw:
        for tenant_id, module, _run in mix:
            gw.register_tenant(tenant_id, module=module.clone())
        rejection = None
        if probe_spec is not None:
            gw.register_tenant(
                "tenant-overquota",
                module=probe_spec.compile().clone(),
                quota=TenantQuota(instruction_budget=_PROBE_BUDGET),
            )
            export, args = probe_spec.run
            gw.execute("tenant-overquota", export, *args)  # spends the budget
            try:
                gw.execute("tenant-overquota", export, *args)
            except AdmissionError as exc:
                rejection = exc.to_json()
                rejection["tenant"] = "tenant-overquota"

        started = time.perf_counter()
        futures = [
            gw.submit(tenant_id, export, *args)
            for tenant_id, export, args in schedule
        ]
        responses = []
        failures: dict[str, int] = {}
        for future in futures:
            try:
                responses.append(future.result())
            except GatewayFailure as exc:
                failures[exc.code] = failures.get(exc.code, 0) + 1
        wall_s = time.perf_counter() - started
        seal = gw.seal_epoch()
        verdict = gw.verify_epoch(seal)
        latencies = sorted(r.latency_s for r in responses) or [0.0]

        def pct(q: float) -> float:
            return latencies[min(len(latencies) - 1, int(q * len(latencies)))]

        # signatures-per-request: the batched-sealing win in one number.
        # Per-receipt mode signs every entry; batched mode signs one Merkle
        # root per flush window (plus per-entry checkpoint receipts keep
        # their own signatures only when unbatched).
        ledger_tenants = gw.ledger.tenants()
        all_entries = [
            receipt.entry
            for tenant_id in ledger_tenants
            for receipt in gw.ledger.receipts(tenant_id)
        ]
        per_receipt_sigs = sum(1 for entry in all_entries if entry.signature)
        batch_seals = sum(
            len(gw.ledger.batches(tenant_id)) for tenant_id in ledger_tenants
        )
        point = {
            "workers": workers,
            "workers_effective": gw.effective_workers,
            "backend": gw.backend.kind,
            "requests": len(responses),
            "wall_s": wall_s,
            "throughput_rps": len(responses) / wall_s,
            "latency_s": {
                "p50": pct(0.50),
                "p95": pct(0.95),
                "p99": pct(0.99),
                "mean": sum(latencies) / len(latencies),
            },
            "epoch_ok": verdict.ok,
            "epoch_errors": list(verdict.errors),
            "receipts_checked": verdict.receipts_checked,
            "quota_rejection": rejection,
            "cache": gw.cache.stats(),
            "signatures": {
                "receipts": len(all_entries),
                "per_receipt": per_receipt_sigs,
                "batch_seals": batch_seals,
                "per_request": (
                    (per_receipt_sigs + batch_seals) / len(all_entries)
                    if all_entries
                    else 0.0
                ),
            },
        }
        if preempt_after is not None or warm_pool:
            point["preemption"] = {
                "preempt_after": preempt_after,
                "warm_pool": warm_pool,
                "preemptions": gw.resilience_stats()["preemptions"],
            }
        if plan is not None:
            all_receipts = [
                receipt
                for tenant_id, _module, _run in mix
                for receipt in gw.ledger.receipts(tenant_id)
            ]
            # checkpoint receipts bill under derived ids ("<id>#cpN"); each
            # request still gets exactly one *final* receipt under its bare id
            final_receipts = sum(
                1 for receipt in all_receipts if isinstance(receipt.request_id, int)
            )
            billed = gw.ledger.billed_requests()
            point["faults"] = dict(gw.resilience_stats(), failures=failures)
            point["billing"] = {
                "receipts": len(all_receipts),
                "final_receipts": final_receipts,
                "distinct_requests_billed": billed,
                "ok_responses": len(responses),
                "exactly_once": (
                    len(all_receipts) == billed
                    and final_receipts == len(responses)
                ),
            }
        if event_log is not None:
            from repro.obs.audit import audit_billing

            drift = audit_billing(
                gw.ledger,
                gw.admission,
                events=event_log.events(),
                gateway_id=gw.gateway_id,
            )
            point["drift"] = drift.to_json()
        tracer = get_tracer()
        if tracer is not None:
            point["trace"] = _stitch_report(gw, tracer, responses)
        if verify_serial:
            # totals over the scheduled mix only — the probe tenant's
            # served request is not part of the serial baseline
            mix_totals = ResourceUsageLog(signing_key=None)
            mix_totals.entries = [
                receipt.entry
                for tenant_id, _module, _run in mix
                for receipt in gw.ledger.receipts(tenant_id)
            ]
            point["gateway_totals"] = mix_totals.totals().to_json()
        return point


def _stitch_report(
    gw: MeteringGateway, tracer: Tracer, responses: list[GatewayResponse]
) -> dict:
    """Verify, per completed request, that its trace stitched end to end.

    Three properties, all recomputable offline because trace ids are a pure
    function of (gateway id, request id):

    * **connected** — every span carrying the request's trace id reaches
      the ``gateway.request`` root by walking parent links (worker spans
      were re-parented at merge; checkpoint hops all hang under one root);
    * **origin pids** — merged worker spans keep the pid of the process
      that recorded them (distinct from the gateway's on a process pool);
    * **receipt linkage** — every AE receipt the request produced (final
      and every ``#cpN`` checkpoint) carries the same trace id.
    """
    spans = tracer.finished()
    by_id = {s.span_id: s for s in spans}
    own_pid = os.getpid()
    worker_pids: set[int] = set()
    stitched = 0
    unlinked_receipts = 0

    def _reaches(span: Span, root: Span) -> bool:
        seen: set[int] = set()
        current: Span | None = span
        while current is not None and current.span_id not in seen:
            if current.span_id == root.span_id:
                return True
            seen.add(current.span_id)
            current = (
                by_id.get(current.parent_id)
                if current.parent_id is not None
                else None
            )
        return False

    for response in responses:
        tid = trace_id_for(gw.gateway_id, response.request_id)
        root = next(
            (
                s
                for s in spans
                if s.name == "gateway.request"
                and s.attributes.get("trace_id") == tid
            ),
            None,
        )
        members = [
            s
            for s in spans
            if s.attributes.get("trace_id") == tid and s is not root
        ]
        connected = root is not None and all(_reaches(s, root) for s in members)
        worker_pids |= {
            s.pid for s in members if s.pid and s.pid != own_pid
        }
        receipts = [
            r
            for r in gw.ledger.receipts(response.tenant_id)
            if r.request_id == response.request_id
            or (
                isinstance(r.request_id, str)
                and r.request_id.startswith(f"{response.request_id}#cp")
            )
        ]
        linked = bool(receipts) and all(r.trace_id == tid for r in receipts)
        if not linked:
            unlinked_receipts += 1
        if connected and linked:
            stitched += 1
    return {
        "requests_checked": len(responses),
        "stitched": stitched,
        "unlinked_receipts": unlinked_receipts,
        "worker_pids": sorted(worker_pids),
        "ok": stitched == len(responses),
    }
