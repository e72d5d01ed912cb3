"""One benchmark estimator and the ``BENCH_*.json`` files it feeds.

Every gated speed-up or overhead in the repo is a ratio against a baseline,
measured on machines whose speed drifts by tens of percent over seconds.
:func:`interleaved_rounds` is the one estimator behind all of them: named
*arms* run in rounds (a warm-up round first, the order reversing every
round), and each ratio is the median of the per-round ratios — drift hits
both sides of a round and cancels, and a burst in one round is outvoted.
:func:`write_bench` is the one writer of ``BENCH_*.json``: it merges a
record under its key and appends a distilled point to the file's capped
``trajectory``, which ``repro loadtest --bench-append`` also extends
(:func:`distill_point` / :func:`append_point`).
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import time
from typing import Callable, Mapping

#: Bump when a trajectory point's shape changes.
TRAJECTORY_SCHEMA = 1

#: Oldest points are dropped beyond this many.
TRAJECTORY_LIMIT = 200

#: Rounds run first and discarded: imports, caches and lazily built state
#: settle in them.
WARMUP_ROUNDS = 1

#: Environment variables that change what a benchmark measures; any that
#: are set are recorded in the fingerprint.
_ENV_PREFIXES = ("REPRO_WASM_", "REPRO_TRACE_SAMPLE")


class Lap:
    """The timed region of one arm call: ``with lap: ...`` (summed if
    entered again; set-up outside it is untimed).

    The cyclic garbage collector is paused inside unless ``pause_gc`` is
    false, as :mod:`timeit` does: a collection's cost is set by the whole
    process heap, not by the arm, and since allocation counts repeat run to
    run it would land in the same arm of the same round every time.
    """

    def __init__(self, timer: Callable[[], float] = time.perf_counter,
                 pause_gc: bool = True):
        self._timer = timer
        self._pause_gc = pause_gc
        self.seconds: float | None = None

    def __enter__(self) -> "Lap":
        self._gc_was_enabled = gc.isenabled()
        if self._pause_gc:
            gc.disable()
        self._started = self._timer()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = (self.seconds or 0.0) + self._timer() - self._started
        if self._gc_was_enabled:
            gc.enable()


def summarize(samples: list[float]) -> dict:
    """``n``, median and quartiles (inclusive method) of ``samples``."""
    if len(samples) == 1:
        q1 = q3 = samples[0]
    else:
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"n": len(samples), "median": statistics.median(samples), "q1": q1, "q3": q3}


def fingerprint(**config) -> dict:
    """The configuration a measurement ran under: ``config`` as given
    (``engine``, ``pool``, ``warm``, ``preempt_after`` and ``seal_window``
    ``None`` unless given: a dimension the arms vary is named by the arms)
    plus cores, Python version and ``REPRO_WASM_*``/``REPRO_TRACE_SAMPLE``.
    """
    from repro.service.worker import cores_available

    fields = dict.fromkeys(("engine", "pool", "warm", "preempt_after", "seal_window"))
    fields.update(config)
    fields["cores"] = cores_available()
    fields["python"] = platform.python_version()
    env = sorted(os.environ.items())
    fields["env"] = {name: value for name, value in env if name.startswith(_ENV_PREFIXES)}
    return fields


def interleaved_rounds(
    arms: Mapping[str, Callable[[Lap], float | None]],
    rounds: int,
    *,
    baseline: str | None = None,
    config: dict | None = None,
    timer: Callable[[], float] = time.perf_counter,
) -> dict:
    """Measure ``arms`` in ``rounds`` interleaved rounds after the warm-up.

    An arm is called with a :class:`Lap`; its sample is the lap's time or,
    if it returns a number, that number (for a workload that reports its
    own measurement, such as a loadtest's wall time without bring-up).
    Round ``r`` (warm-up rounds counted and discarded) runs the arms in
    order when ``r`` is even, reversed when odd.  Returns the ``samples``,
    an ``arms`` summary each (:func:`summarize`), with ``baseline`` a
    ``ratios`` summary of ``arm / baseline`` per round for the other arms,
    and ``config`` through :func:`fingerprint`.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if baseline is not None and baseline not in arms:
        raise ValueError(f"baseline {baseline!r} is not an arm")
    names = list(arms)
    samples: dict[str, list[float]] = {name: [] for name in names}
    for r in range(WARMUP_ROUNDS + rounds):
        for name in names if r % 2 == 0 else names[::-1]:
            lap = Lap(timer)
            value = arms[name](lap)
            sample = lap.seconds if value is None else value
            if sample is None:
                raise ValueError(f"arm {name!r} timed no region and returned no sample")
            if r >= WARMUP_ROUNDS:
                samples[name].append(float(sample))
    result = {
        "rounds": rounds,
        "baseline": baseline,
        "config": fingerprint(**(config or {})),
        "samples": samples,
        "arms": {name: summarize(samples[name]) for name in names},
    }
    if baseline is not None:
        result["ratios"] = {
            name: paired_ratio(result, name, baseline)
            for name in names
            if name != baseline
        }
    return result


def paired_ratio(result: dict, numerator: str, denominator: str) -> dict:
    """Summary of ``numerator / denominator`` taken round by round."""
    pairs = zip(result["samples"][numerator], result["samples"][denominator])
    return summarize([a / b for a, b in pairs])


def read_bench(path: str) -> dict:
    """A bench file's JSON object; empty if missing or unreadable."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, ValueError):
        return {}
    return doc if isinstance(doc, dict) else {}


def _append_and_dump(path: str, doc: dict, point: dict, limit: int) -> dict:
    doc["trajectory"] = (doc.get("trajectory", []) + [point])[-limit:]
    doc["trajectory_schema"] = TRAJECTORY_SCHEMA
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return doc


def write_bench(path: str, key: str, record: dict, extra: dict | None = None) -> dict:
    """Store ``record`` under ``key``, keeping the file's other keys, and
    append a point: the record's top-level scalars, the median of each
    top-level summary, its ``config`` and the fields of ``extra`` (such as
    per-kernel throughput).  Returns the document written.
    """
    doc = read_bench(path)
    doc[key] = record
    point: dict = {"schema": TRAJECTORY_SCHEMA, "ts_s": time.time(), "key": key}
    for name, value in record.items():
        if isinstance(value, (bool, int, float, str)):
            point[name] = value
        elif isinstance(value, dict) and "median" in value:
            point[name] = value["median"]
    if "config" in record:
        point["config"] = record["config"]
    point.update(extra or {})
    return _append_and_dump(path, doc, point, TRAJECTORY_LIMIT)


def distill_point(report: dict, ts_s: float | None = None) -> dict:
    """Compress one ``run_loadtest`` report into a single trajectory point."""
    per_workers = {}
    for point in report.get("sweep", []):
        per_workers[str(point["workers"])] = {
            "throughput_rps": point["throughput_rps"],
            "wall_s": point["wall_s"],
            "p50_s": point["latency_s"]["p50"],
            "p99_s": point["latency_s"]["p99"],
            "epoch_ok": point.get("epoch_ok"),
        }
    distilled = {
        "schema": TRAJECTORY_SCHEMA,
        "ts_s": time.time() if ts_s is None else ts_s,
        "requests_per_point": report.get("requests_per_point"),
        "execution_backend": report.get("execution_backend"),
        "engine": report.get("engine"),
        "pool": report.get("pool"),
        "cores_available": report.get("cores_available"),
        "by_workers": per_workers,
    }
    if "speedup_4_over_1" in report:
        distilled["speedup_4_over_1"] = report["speedup_4_over_1"]
    if "serial_totals_match" in report:
        distilled["serial_totals_match"] = report["serial_totals_match"]
    return distilled


def append_point(path: str, point: dict, limit: int = TRAJECTORY_LIMIT) -> dict:
    """Append one distilled point to the trajectory inside a bench file.

    Creates the file if missing; preserves every other key it already holds
    (the latest full report lives alongside the history).  Returns the full
    document as written.
    """
    return _append_and_dump(path, read_bench(path), point, limit)
