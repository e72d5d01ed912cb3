"""The outside-in layer trace of the gateway benchmark.

:class:`LayerTracer` wraps each layer's public functions — class methods and
module-level functions, swapped in for the traced run and restored after —
and records one span per call: name, start, end, parent span and the
gateway request id shared by every span of one request.  Nothing inside the
program records a span.  Spans stay in memory and are written out at the end.

A span's request id comes from, in order: the call's own arguments
(``BillingLedger.record(request_id=...)``); the serving coroutine's request
state in a calling frame (the front-end thread serves many requests, so the
thread cannot tell them apart); the enclosing span on the same thread; and
the client thread's current request, whose id is filled in once its
response arrives.

Layer self time is a span's duration minus the part its children cover.
Per request, the spans of every thread are laid on one timeline from the
client's ``submit`` call to its signed response; each instant goes to the
innermost span covering it, or to ``unattributed``, so the layer times and
the unattributed time add up to the request's latency exactly.  The wait
from ``submit``'s return to the first dispatch (the front-end queue) counts
as the gateway's.
"""

from __future__ import annotations

import functools
import itertools
import json
import pickle
import statistics
import sys
import threading
import time
from collections import defaultdict

from repro.core.accounting_enclave import AccountingEnclave
from repro.core.cache import InstrumentationCache
from repro.core.instrumentation_enclave import InstrumentationEnclave
from repro.core.sandbox import SandboxConfig
from repro.obs.events import EventLog
from repro.service.backends import SimulatedFaaSBackend, WasmBackend
from repro.service.gateway import MeteringGateway
from repro.service.ledger import BillingLedger
from repro.service.quota import AdmissionController
from repro.tcrypto import rsa
from repro.wasm.interpreter import ExecutionLimits
from repro.wasm.runtime import HostEnvironment, IOChannel


class Span:
    __slots__ = ("sid", "name", "parent", "req", "phase", "t0", "t1")

    def __init__(self, sid, name, parent, req, phase):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.req = req
        self.phase = phase
        self.t0 = self.t1 = 0.0


class RequestRef:
    """A client-side request whose gateway id is known only once answered."""

    __slots__ = ("id",)

    def __init__(self):
        self.id = None


class Roundtrip:
    """One dispatch: ``backend.submit`` until its future is done."""

    __slots__ = ("req", "phase", "t0", "t1", "result", "task", "executes")

    def __init__(self, req, phase, t0, t1, result, task, executes):
        self.req = req
        self.phase = phase
        self.t0 = t0
        self.t1 = t1
        self.result = result
        self.task = task  # kept only when it crossed a process boundary
        self.executes = executes  # False for a backend that runs no wasm


def _resolve(req):
    return req.id if isinstance(req, RequestRef) else req


def _request_in_calling_frames(depth: int = 6):
    """The request id of a serving coroutine up the stack, if any."""
    frame = sys._getframe(2)
    for _ in range(depth):
        if frame is None:
            return None
        state = frame.f_locals.get("state")
        request_id = getattr(state, "request_id", None)
        if isinstance(request_id, int):
            return request_id
        frame = frame.f_back
    return None


def _request_of_caller(args, kwargs):
    return _request_in_calling_frames()


def _request_of_record(args, kwargs):
    request_id = kwargs.get("request_id", args[3] if len(args) > 3 else None)
    if request_id is None:
        return None
    return int(str(request_id).split("#", 1)[0])  # "<id>#cpN" checkpoints


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class LayerTracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.roundtrips: list[Roundtrip] = []
        #: (gateway request id, client start, client end) per answered request
        self.requests: list[tuple] = []
        #: which part of the run new spans belong to ("setup", "load", ...)
        self.phase = "setup"
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    # -- client-side request scope ------------------------------------------------

    def begin_request(self) -> RequestRef:
        ref = RequestRef()
        self._local.ref = ref
        return ref

    def end_request(self, ref: RequestRef, request_id: int, t0: float, t1: float) -> None:
        ref.id = request_id
        self._local.ref = None
        self.requests.append((request_id, t0, t1))

    # -- wrappers ----------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, name: str, fn, req_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            req = req_of(args, kwargs) if req_of is not None else None
            if req is None:
                req = parent.req if parent is not None else getattr(tracer._local, "ref", None)
            span = Span(
                next(tracer._ids),
                name,
                parent.sid if parent is not None else None,
                req,
                tracer.phase,
            )
            stack.append(span)
            span.t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)

        return traced

    def _dispatch(self, fn):
        """``backend.submit``: a round trip lasts until the future is done."""
        tracer = self

        @functools.wraps(fn)
        def submit(backend, task):
            req = _request_in_calling_frames(depth=4)
            phase = tracer.phase
            crosses_process = getattr(getattr(backend, "pool", None), "kind", "") == "process"
            executes = not isinstance(backend, SimulatedFaaSBackend)
            t0 = time.perf_counter()
            future = fn(backend, task)

            def done(f) -> None:
                t1 = time.perf_counter()
                result = None if f.cancelled() or f.exception() is not None else f.result()
                tracer.roundtrips.append(
                    Roundtrip(req, phase, t0, t1, result,
                              task if crosses_process else None, executes)
                )

            future.add_done_callback(done)
            return future

        return submit

    def install(self) -> None:
        """Swap the wrappers in (idempotent)."""
        if self._patches:
            return
        methods = [
            (MeteringGateway, "submit", "gateway.submit", None),
            (MeteringGateway, "register_tenant", "gateway.register_tenant", None),
            (MeteringGateway, "verify_epoch", "gateway.verify_epoch", None),
            (AdmissionController, "admit", "quota.admit", None),
            (AdmissionController, "settle", "quota.settle", _request_of_caller),
            (AccountingEnclave, "account_span", "accounting_enclave.account", _request_of_caller),
            (BillingLedger, "record", "ledger.record", _request_of_record),
            (BillingLedger, "record_batch", "ledger.record_batch", _request_of_caller),
            (BillingLedger, "seal_epoch", "ledger.seal", None),
            (InstrumentationCache, "instrument", "instrument.cache", None),
            (InstrumentationEnclave, "instrument", "instrument.instrument", None),
            (EventLog, "emit", "obs.emit", _request_of_caller),
        ]
        for owner, attr, name, req_of in methods:
            self._swap(owner, attr, self._timed(name, owner.__dict__[attr], req_of))
        for owner in (WasmBackend, SimulatedFaaSBackend):
            self._swap(owner, "submit", self._dispatch(owner.__dict__["submit"]))
        # module-level functions are imported by name: patch every binding
        gateway_module = sys.modules[MeteringGateway.__module__]
        self._swap(
            gateway_module, "remote_attest",
            self._timed("sgx.attest", gateway_module.remote_attest),
        )
        for attr, name in (
            ("rsa_sign", "tcrypto.sign"),
            ("rsa_verify", "tcrypto.verify"),
            ("rsa_generate", "tcrypto.keygen"),
        ):
            original = getattr(rsa, attr)
            wrapped = self._timed(name, original)
            for module in list(sys.modules.values()):
                if (
                    getattr(module, "__name__", "").startswith("repro")
                    and module.__dict__.get(attr) is original
                ):
                    self._swap(module, attr, wrapped)

    def _swap(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------------------

    def spans_named(self, name: str, phases: tuple) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.phase in phases]

    def breakdown(self) -> tuple[list[dict], list[str]]:
        """Per traced request: layer self times and unattributed time (s).

        Returns the rows and a list of problems: a request whose spans do
        not have the expected shape, or leave its client-side window.
        """
        spans_by_req = defaultdict(list)
        for s in self.spans:
            if s.phase == "load":
                rid = _resolve(s.req)
                if rid is not None:
                    spans_by_req[rid].append(s)
        trips_by_req = defaultdict(list)
        for rt in self.roundtrips:
            if rt.phase == "load" and rt.req is not None:
                trips_by_req[rt.req].append(rt)
        rows, problems = [], []
        for rid, start, end in self.requests:
            spans = spans_by_req.get(rid, [])
            trips = trips_by_req.get(rid, [])
            intervals = [(s.name, s.t0, s.t1) for s in spans]
            submits = [s for s in spans if s.name == "gateway.submit"]
            accounts = sum(1 for s in spans if s.name == "accounting_enclave.account")
            records = sum(1 for s in spans if s.name == "ledger.record")
            if len(submits) != 1 or not trips or not (len(trips) == accounts == records):
                problems.append(
                    f"request {rid}: {len(submits)} submit, {len(trips)} dispatch, "
                    f"{accounts} account, {records} record spans"
                )
                continue
            first_dispatch = min(rt.t0 for rt in trips)
            if first_dispatch > submits[0].t1:
                intervals.append(("gateway.frontend_wait", submits[0].t1, first_dispatch))
            for rt in trips:
                intervals.append(("worker.roundtrip", rt.t0, rt.t1))
                exec_s = min(_exec_s(rt), rt.t1 - rt.t0)
                if exec_s > 0:
                    # only the duration is measured (in the worker); place it
                    # inside the round trip, where no other span of the
                    # request runs
                    lo = rt.t0 + (rt.t1 - rt.t0 - exec_s) / 2
                    intervals.append(("wasm.exec", lo, lo + exec_s))
            outside = [iv for iv in intervals if iv[1] < start or iv[2] > end]
            if outside:
                problems.append(f"request {rid}: {outside[0][0]} span outside its latency")
            per_layer, unattributed = _sweep(intervals, start, end)
            latency = end - start
            if abs(sum(per_layer.values()) + unattributed - latency) > 1e-9 * max(1.0, latency):
                problems.append(f"request {rid}: layer times do not add up to its latency")
            rows.append(
                {
                    "request_id": rid,
                    "latency_s": latency,
                    "layers_s": dict(per_layer),
                    "unattributed_s": unattributed,
                    "dispatches": len(trips),
                }
            )
        if not rows:
            problems.append("no traced request")
        return rows, problems

    def write(self, path: str, rows: list[dict]) -> None:
        """Spans, round trips and the per-request breakdown as one JSON file."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": [
                        [s.sid, s.name, s.t0, s.t1, s.parent, _resolve(s.req), s.phase]
                        for s in self.spans
                    ],
                    "span_fields": ["id", "name", "start_s", "end_s", "parent", "request_id", "phase"],
                    "roundtrips": [
                        [rt.req, rt.phase, rt.t0, rt.t1, _exec_s(rt)] for rt in self.roundtrips
                    ],
                    "roundtrip_fields": ["request_id", "phase", "start_s", "end_s", "exec_s"],
                    "requests": rows,
                },
                fh,
            )


def _exec_s(rt: Roundtrip) -> float:
    return rt.result.exec_wall_s if rt.executes and rt.result is not None else 0.0


def _sweep(intervals: list[tuple], start: float, end: float):
    """Give each instant of [start, end] to the innermost covering interval
    (latest start; the shorter one on a tie), else to ``unattributed``."""
    cuts = sorted(
        {start, end}
        | {min(max(t, start), end) for _name, lo, hi in intervals for t in (lo, hi)}
    )
    per_layer: dict[str, float] = defaultdict(float)
    unattributed = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        covering = [iv for iv in intervals if iv[1] <= lo and iv[2] >= hi]
        if not covering:
            unattributed += hi - lo
            continue
        name = max(covering, key=lambda iv: (iv[1], -iv[2]))[0]
        per_layer[layer_of(name)] += hi - lo
    return per_layer, unattributed


def probe_wasm(mix: list, repeats: int = 3) -> dict:
    """Direct instantiate and invoke of every distinct module of the mix on
    the configured engine, instrumented and not.

    Returns, per kernel: median instantiate and invoke seconds of the
    instrumented module, and the instructions the injected counter adds
    (instrumented minus uninstrumented ``ExecutionStats.executed``).
    """
    from workloads import kernel_of

    config = SandboxConfig()
    ie = InstrumentationEnclave(weight_table=config.weight_table(), level=config.level)
    probes = {}
    for tenant_id, module, (export, args) in mix:
        kernel = kernel_of(tenant_id)
        if kernel in probes:
            continue
        instrumented = ie.instrument(module.clone())[0].module
        executed = {}
        timings = {"instantiate": [], "invoke": []}
        for label, mod in (("plain", module), ("instrumented", instrumented)):
            for _ in range(repeats):
                env = HostEnvironment(channel=IOChannel(), account_io=True)
                t0 = time.perf_counter()
                instance = env.instantiate(mod, limits=ExecutionLimits(), engine=config.engine)
                t1 = time.perf_counter()
                instance.invoke(export, *args)
                t2 = time.perf_counter()
                executed[label] = instance.stats.executed
                if label == "instrumented":
                    timings["instantiate"].append(t1 - t0)
                    timings["invoke"].append(t2 - t1)
        probes[kernel] = {
            "instantiate_s": statistics.median(timings["instantiate"]),
            "invoke_s": statistics.median(timings["invoke"]),
            "counter_instructions": executed["instrumented"] - executed["plain"],
        }
    return probes


def _mean(values, scale: float = 1.0) -> float:
    return statistics.fmean(values) * scale if values else 0.0


def layer_metrics(
    tracer: LayerTracer,
    *,
    traced_loads: list,
    first_request_s: float,
    probes: dict | None,
    cache_stats: dict,
    verdicts: list,
    pool_rebuilds: int,
    events_in_load: int,
    events_dropped: int,
    rejections: int,
    trace_overhead: float,
) -> tuple[dict, list[dict], list[str]]:
    """Every per-layer metric of a traced run, the per-request breakdown and
    its problems.  Times of calls are means per call; counts are per
    request or per receipt as named.  A layer a workload does not use
    reports 0."""
    from workloads import kernel_of

    rows, problems = tracer.breakdown()
    requests = max(1, len(tracer.requests))

    def per_call(name, phases=("load",), scale=1e6):
        return _mean([s.t1 - s.t0 for s in tracer.spans_named(name, phases)], scale)

    def calls(name, phases=("load",)):
        return len(tracer.spans_named(name, phases))

    trips = [rt for rt in tracer.roundtrips if rt.phase == "load"]
    snapshots = [len(rt.result.snapshot) for rt in trips if rt.result is not None and rt.result.snapshot]
    first_dispatch: dict = {}
    for rt in trips:
        first_dispatch[rt.req] = min(rt.t0, first_dispatch.get(rt.req, rt.t0))
    waits = [
        max(0.0, first_dispatch[_resolve(s.req)] - s.t1)
        for s in tracer.spans_named("gateway.submit", ("load",))
        if _resolve(s.req) in first_dispatch
    ]
    # the direct wasm probes, weighted by the kernels the traced load served
    served = [kernel_of(r.tenant_id) for load in traced_loads for r in load.responses]

    def probed(key):
        return statistics.fmean(probes[k][key] for k in served) if probes and served else 0.0

    latency = sum(r["latency_s"] for r in rows)
    metrics = {
        "gateway.submit_us": per_call("gateway.submit"),
        "gateway.frontend_wait_us": _mean(waits, 1e6),
        "gateway.unattributed_share": (
            sum(r["unattributed_s"] for r in rows) / latency if latency else 0.0
        ),
        "quota.admit_us": per_call("quota.admit"),
        "quota.rejections": rejections,
        "worker.roundtrip_ms": _mean([rt.t1 - rt.t0 for rt in trips], 1e3),
        "worker.ipc_ms": _mean([rt.t1 - rt.t0 - _exec_s(rt) for rt in trips], 1e3),
        "worker.task_bytes": _mean(
            [len(pickle.dumps(rt.task)) for rt in trips if rt.task is not None]
        ),
        "worker.first_request_ms": first_request_s * 1e3,
        "worker.pool_rebuilds": pool_rebuilds,
        "wasm.exec_ms": sum(_exec_s(rt) for rt in trips) / requests * 1e3,
        "wasm.instantiate_ms": probed("instantiate_s") * 1e3,
        "wasm.invoke_ms": probed("invoke_s") * 1e3,
        "snapshot.checkpoints_per_request": len(snapshots) / requests,
        "snapshot.slices_per_request": len(trips) / requests,
        "snapshot.bytes_per_checkpoint": _mean(snapshots),
        "accounting_enclave.account_us": per_call("accounting_enclave.account"),
        "tcrypto.sign_us": per_call("tcrypto.sign"),
        "tcrypto.signs_per_receipt": calls("tcrypto.sign") / max(1, calls("ledger.record")),
        "ledger.record_us": per_call("ledger.record"),
        "ledger.seal_ms": per_call("ledger.seal", ("load", "seal"), 1e3),
        "tcrypto.verify_calls_per_receipt": calls("tcrypto.verify", ("verify",))
        / max(1, sum(v.receipts_checked for v in verdicts)),
        "instrument.instrument_ms": per_call("instrument.instrument", ("setup",), 1e3),
        "instrument.cache_hit_ratio": cache_stats["hit_rate"],
        "instrument.counter_instructions_per_request": probed("counter_instructions"),
        "sgx.attest_ms": per_call("sgx.attest", ("setup",), 1e3),
        "tcrypto.keygen_ms": per_call("tcrypto.keygen", ("setup",), 1e3),
        "tcrypto.keygen_calls": calls("tcrypto.keygen", ("setup",)),
        "obs.emit_us": per_call("obs.emit"),
        "obs.events_per_request": events_in_load / requests,
        "obs.events_dropped": events_dropped,
        "trace_overhead": trace_overhead,
    }
    return metrics, rows, problems
