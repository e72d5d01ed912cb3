"""The shared benchmark estimator and the bench-file writer.

Every timing here comes from an injected fake clock that only the arms
advance, so the expected samples, quartiles and ratios are exact.
"""

import gc
import json

import pytest

from repro.obs.bench import (
    TRAJECTORY_LIMIT,
    WARMUP_ROUNDS,
    Lap,
    fingerprint,
    interleaved_rounds,
    paired_ratio,
    summarize,
    write_bench,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _arm(clock, name, durations, calls):
    """An arm whose timed region lasts ``durations[i]`` on its i-th call."""
    def run(lap):
        calls.append(name)
        with lap:
            clock.now += durations[sum(c == name for c in calls) - 1]

    return run


def test_rounds_alternate_order_after_a_warmup():
    clock, calls = FakeClock(), []
    arms = {name: _arm(clock, name, [1.0] * 4, calls) for name in ("a", "b", "c")}
    result = interleaved_rounds(arms, 3, timer=clock)
    assert calls == [
        "a", "b", "c",  # warm-up round, discarded
        "c", "b", "a",
        "a", "b", "c",
        "c", "b", "a",
    ]
    assert WARMUP_ROUNDS == 1 and result["rounds"] == 3
    assert all(len(samples) == 3 for samples in result["samples"].values())


def test_warmup_samples_are_discarded_and_quartiles_exact():
    clock, calls = FakeClock(), []
    arms = {"a": _arm(clock, "a", [100.0, 1.0, 2.0, 3.0, 4.0, 5.0], calls)}
    result = interleaved_rounds(arms, 5, timer=clock)
    assert result["samples"]["a"] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert result["arms"]["a"] == {"n": 5, "median": 3.0, "q1": 2.0, "q3": 4.0}


def test_ratio_is_the_median_of_per_round_ratios():
    clock, calls = FakeClock(), []
    # per-round ratios b/a: 2.0, 1.5, 10.0 — the median ignores the burst
    arms = {
        "a": _arm(clock, "a", [9.0, 2.0, 2.0, 1.0], calls),
        "b": _arm(clock, "b", [9.0, 4.0, 3.0, 10.0], calls),
    }
    result = interleaved_rounds(arms, 3, baseline="a", timer=clock)
    assert result["baseline"] == "a"
    assert set(result["ratios"]) == {"b"}
    assert result["ratios"]["b"] == {"n": 3, "median": 2.0, "q1": 1.75, "q3": 6.0}
    assert paired_ratio(result, "a", "b")["median"] == 0.5


def test_returned_number_is_the_sample():
    reported = iter([9.0, 0.25, 0.5])  # the warm-up call reports 9.0
    result = interleaved_rounds(
        {"self-timed": lambda lap: next(reported)}, 2, timer=FakeClock()
    )
    assert result["samples"]["self-timed"] == [0.25, 0.5]


def test_arm_without_a_sample_is_an_error():
    with pytest.raises(ValueError, match="no sample"):
        interleaved_rounds({"idle": lambda lap: None}, 1, timer=FakeClock())
    with pytest.raises(ValueError, match="baseline"):
        interleaved_rounds({"a": lambda lap: 1.0}, 1, baseline="b")
    with pytest.raises(ValueError, match="rounds"):
        interleaved_rounds({"a": lambda lap: 1.0}, 0)


def test_lap_sums_regions_and_pauses_the_collector():
    clock = FakeClock()
    lap = Lap(clock)
    assert gc.isenabled()
    with lap:
        assert not gc.isenabled()
        clock.now += 1.5
    clock.now += 100.0  # untimed
    with lap:
        clock.now += 0.5
    assert gc.isenabled()
    assert lap.seconds == 2.0


def test_summarize_single_sample():
    assert summarize([7.0]) == {"n": 1, "median": 7.0, "q1": 7.0, "q3": 7.0}


def test_fingerprint_names_the_configuration(monkeypatch):
    monkeypatch.setenv("REPRO_WASM_ENGINE", "compile")
    monkeypatch.setenv("REPRO_TRACE_SAMPLE", "0.5")
    monkeypatch.setenv("UNRELATED_SETTING", "x")
    fields = fingerprint(engine="compile", pool="thread", warm=True, seal_window=16,
                         tenant_counts=[200, 2000])
    assert fields["engine"] == "compile"
    assert fields["pool"] == "thread"
    assert fields["warm"] is True
    assert fields["preempt_after"] is None
    assert fields["seal_window"] == 16
    assert fields["tenant_counts"] == [200, 2000]
    assert fields["cores"] >= 1
    assert fields["python"].count(".") == 2
    assert fields["env"] == {"REPRO_TRACE_SAMPLE": "0.5", "REPRO_WASM_ENGINE": "compile"}
    result = interleaved_rounds({"a": lambda lap: 1.0}, 1, config={"pool": "process"})
    assert result["config"]["pool"] == "process"


def test_write_bench_merges_and_appends_a_trajectory_point(tmp_path):
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps({"other": {"kept": True}, "trajectory": [{"old": 1}]}))
    record = {
        "config": {"engine": "compile"},
        "geomean": 3.5,
        "ok": True,
        "overhead_ratio": {"n": 3, "median": 1.1, "q1": 1.0, "q3": 1.2},
        "samples": {"a": [1.0]},
    }
    doc = write_bench(str(path), "bench_x", record)
    assert json.loads(path.read_text()) == doc
    assert doc["other"] == {"kept": True}
    assert doc["bench_x"] == record
    assert doc["trajectory"][0] == {"old": 1}
    point = doc["trajectory"][-1]
    assert point["key"] == "bench_x"
    assert point["geomean"] == 3.5 and point["ok"] is True
    assert point["overhead_ratio"] == 1.1
    assert point["config"] == {"engine": "compile"}
    assert "samples" not in point
    doc = write_bench(str(path), "bench_x", record, {"by_kernel": {"gemm": 2.0}})
    assert doc["trajectory"][-1]["by_kernel"] == {"gemm": 2.0}
    assert doc["trajectory"][-1]["geomean"] == 3.5


def test_write_bench_caps_the_trajectory(tmp_path):
    path = str(tmp_path / "BENCH_x.json")
    for i in range(TRAJECTORY_LIMIT + 5):
        doc = write_bench(path, "bench_x", {"i": i})
    assert len(doc["trajectory"]) == TRAJECTORY_LIMIT
    assert doc["trajectory"][0]["i"] == 5
    assert doc["trajectory"][-1]["i"] == TRAJECTORY_LIMIT + 4
    assert doc["bench_x"] == {"i": TRAJECTORY_LIMIT + 4}
