"""Host pacing for a shared VM: keep the vCPUs awake, and measure their speed.

Two effects of a shared 2-vCPU VM swamp the differences the benchmark is
meant to show:

* **Idle vCPUs wake slowly.**  A vCPU with nothing to run is handed back to
  the host, and waking it takes as long as the host takes to find it a core
  again — on a busy host, milliseconds.  The control-plane workload is
  mostly thread hand-offs (client, front-end loop, backend thread and
  back), so its throughput swung between about 320 and 560 requests/s from
  one 20 s run to the next.  :class:`HostPacer` therefore runs one spinner
  process per core at nice 19, the lowest priority, so no vCPU ever idles
  (what ``idle=poll`` does on a host one controls).  The scheduler gives a
  nice-19 process about 1.5% of a core the benchmark wants.
* **Cores run at different speeds from minute to minute.**  The same
  CPU-bound loop takes 20-40% longer in some minutes than in others, and a
  20 s window is hardly steadier than a 5 s one.  So every timed metric is
  reported *normalised* to a reference host speed, next to its raw value.
  The probe is a fixed pure-Python loop of about 1 ms, timed in thread CPU
  time, so waiting for a core does not count while a slower core does.  The
  host factor is the probe time over :data:`REFERENCE_MS`; a metric is
  divided (times) or multiplied (rates) by the factor of the window it was
  measured in.  The spinners run the probe loop and time it, which gives
  the factor of the load, when both cores are busy; a phase that runs on
  one thread (set-up, offline verification) measures it in that thread,
  right before and after the measured work (:func:`factor_here`), because
  two vCPUs drift apart.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time

#: probe loop length; the spinners record at most one sample per PERIOD_S
LOOP_ITERATIONS = 20_000
PERIOD_S = 0.025
#: the probe time that defines the reference host speed (factor 1.0)
REFERENCE_MS = 1.0


def _loop_ms() -> float:
    started = time.thread_time()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i
    return (time.thread_time() - started) * 1e3


def factor_here(repeats: int = 3) -> float:
    """The host factor measured in this thread, now."""
    return statistics.median(_loop_ms() for _ in range(repeats)) / REFERENCE_MS


def _spin() -> None:
    """A spinner's body: probe until SIGTERM, then print the samples as JSON."""
    os.nice(19)
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    print("ready", flush=True)
    samples = []
    last = 0.0
    while not stop:
        ms = _loop_ms()
        now = time.perf_counter()  # CLOCK_MONOTONIC: shared with the parent
        if now - last >= PERIOD_S:
            samples.append((now, ms))
            last = now
    json.dump(samples, sys.stdout)


class HostPacer:
    """Spinner processes, one per core, for the life of a ``with`` block.

    The spinners are plain subprocesses rather than ``multiprocessing``
    children: a ``multiprocessing`` start method other than fork launches a
    resource-tracker process that outlives the benchmark.
    """

    def __init__(self, cores: int):
        self.cores = cores
        self.samples: list[tuple[float, float]] = []
        self._spinners: list[subprocess.Popen] = []

    def __enter__(self) -> "HostPacer":
        try:
            for _ in range(self.cores):
                self._spinners.append(
                    subprocess.Popen(
                        [sys.executable, __file__, "--spin"],
                        stdin=subprocess.DEVNULL,
                        stdout=subprocess.PIPE,
                        text=True,
                    )
                )
            for spinner in self._spinners:
                if spinner.stdout.readline().strip() != "ready":
                    raise RuntimeError("host pacer did not start")
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        """Stop every spinner, wait for it to end and collect its samples
        (idempotent)."""
        for spinner in self._spinners:
            if spinner.poll() is None:
                spinner.send_signal(signal.SIGTERM)
        for spinner in self._spinners:
            try:
                out, _ = spinner.communicate(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover - a hung spinner
                spinner.kill()
                spinner.communicate()
                continue
            if spinner.returncode == 0 and out:
                self.samples.extend(tuple(s) for s in json.loads(out))
        self._spinners = []

    def factor(self, t0: float, t1: float) -> float:
        """Median probe time in [t0, t1] over the reference (> 1: slower).

        A window too short to hold three samples is widened until it does.
        """
        pad = 0.0
        while True:
            inside = [ms for t, ms in self.samples if t0 - pad <= t <= t1 + pad]
            if len(inside) >= 3 or pad > 60:
                break
            pad += PERIOD_S * 2
        if not inside:
            raise RuntimeError("host pacer recorded no samples")
        return statistics.median(inside) / REFERENCE_MS


if __name__ == "__main__" and sys.argv[1:] == ["--spin"]:
    _spin()
