"""The CI perf gate's verdict rule (``tools/perf_gate.py``), without runs."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "perf_gate", REPO / "tools" / "perf_gate.py")
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

#: Ten parent runs of one metric: median 10, interquartile range 0.5.
PARENT = [9.6, 9.8, 9.9, 10.0, 10.0, 10.0, 10.1, 10.2, 10.3, 10.4]


def _runs(parent, change, name="latency_p50_ms", correct=True):
    def result(value, ok=True):
        return {"correct": ok, "failed": 0 if ok else 1,
                "metrics": {name: {"value": value}}}

    return {"parent": [result(v) for v in parent],
            "change": [result(v, correct) for v in change]}


def test_metrics_and_directions_come_from_benchmark_json():
    workloads, metrics = perf_gate.load_spec(REPO)
    assert workloads == ["paper-full", "route-warm", "route-cold"]
    assert metrics["latency_p90_ms"] == "lower"
    assert metrics["throughput_rps"] == "higher"


def test_a_consistent_slowdown_fails():
    slower = [v + 3.0 for v in PARENT]
    assert perf_gate.worse_pairs(PARENT, slower, "lower") == len(PARENT)
    [failure] = perf_gate.judge(_runs(PARENT, slower),
                                {"latency_p50_ms": "lower"})
    assert "latency_p50_ms" in failure and "10 of 10" in failure


def test_noise_and_gains_pass():
    shuffled = PARENT[::-1]
    faster = [v - 3.0 for v in PARENT]
    for change in (shuffled, faster):
        assert perf_gate.judge(_runs(PARENT, change),
                               {"latency_p50_ms": "lower"}) == []


def test_higher_is_better_metrics_fail_when_they_fall():
    fewer = [v - 3.0 for v in PARENT]
    assert perf_gate.worse_pairs(PARENT, fewer, "higher") == len(PARENT)
    assert perf_gate.worse_pairs(PARENT, fewer, "lower") == 0


def test_a_wrong_output_fails_even_when_fast():
    failures = perf_gate.judge(_runs(PARENT, PARENT, correct=False),
                               {"latency_p50_ms": "lower"})
    assert len(failures) == len(PARENT)
    assert "wrong output" in failures[0]
