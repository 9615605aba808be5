"""The warm path and its accounting: the plan-key memo and the latency
histograms of ``GET /v1/stats``.

* a warm hit on a seeded request neither rebuilds its demands nor hashes
  them — the event loop finds its plan key in the memo;
* the memo is bounded by the service's ``capacity``, skips explicit
  ``demands`` bodies, and is left alone by rejected (400) bodies;
* every 200 route response lands in its source's latency histogram, so
  each histogram's count equals the matching ``warm`` / ``cold`` /
  ``coalesced`` counter.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.sim.plancache
import repro.sim.task
from repro.service import ServiceRunner
from repro.service.app import LATENCY_EDGES_MS, LatencyHistogram
from repro.service.jobs import PlanKeyMemo, RouteRequest

# ~0.2 s to route: concurrent submits all land in the coalescing window.
SLOW_JOB = {"topology": "mesh2d", "n": 4096, "workload": "dense-permutation"}
CHEAP_JOB = {"topology": "mesh2d", "n": 16, "workload": "dense-permutation"}
DEMANDS_JOB = {"topology": "mesh2d", "n": 16, "demands": [[0, 15], [15, 0]]}
SOURCES = ("warm", "cold", "coalesced")


@pytest.fixture
def calls(monkeypatch):
    """Count in-process calls of ``build_workload`` and ``plan_key``."""
    counts = {"build_workload": 0, "plan_key": 0}
    for module, name in (
        (repro.sim.task, "build_workload"),
        (repro.sim.plancache, "plan_key"),
    ):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def _memo_snapshot(runner):
    return list(runner.service.keys._entries.items())


class TestWarmPath:
    def test_primed_warm_request_derives_nothing(self, runner, client, calls):
        cold = client.route(CHEAP_JOB)
        assert cold.body["source"] == "cold"
        # The event loop keyed the new request itself (the worker's own
        # calls happen in another process and are not counted here).
        assert calls == {"build_workload": 1, "plan_key": 1}

        calls.update(build_workload=0, plan_key=0)
        for _ in range(3):
            warm = client.route(CHEAP_JOB)
            assert warm.body["source"] == "warm"
            assert warm.body["digest"] == cold.body["digest"]
            assert warm.body["key"] == cold.body["key"]
            assert warm.body["packets"] == cold.body["packets"]
            assert warm.body["stats"] == cold.body["stats"]
        assert calls == {"build_workload": 0, "plan_key": 0}

    def test_explicit_demands_still_hash(self, runner, client, calls):
        before = _memo_snapshot(runner)
        assert client.route(DEMANDS_JOB).body["source"] == "cold"
        assert client.route(DEMANDS_JOB).body["source"] == "warm"
        assert calls["plan_key"] == 2  # one hash per request
        assert calls["build_workload"] == 0
        assert _memo_snapshot(runner) == before

    def test_rejected_bodies_leave_the_memo_unchanged(self, runner, client):
        assert client.route(CHEAP_JOB).ok
        before = _memo_snapshot(runner)
        assert len(before) == 1
        for body in (
            {**CHEAP_JOB, "seed": "one"},
            {**CHEAP_JOB, "topology": "torus9"},
            {**CHEAP_JOB, "demands": [[0, 1]]},
            {**CHEAP_JOB, "fault": {"drop_prob": 2.0}},
            {**CHEAP_JOB, "arbitration": "lottery"},
        ):
            assert client.route(body).status == 400
        assert _memo_snapshot(runner) == before
        assert client.stats().body["service"]["rejected"] == 5

    def test_workload_that_does_not_fit_n_is_a_400(self, runner, client):
        # 36 is a valid mesh side squared, but bit reversal needs 2^k nodes;
        # only building the workload finds out.
        response = client.route(
            {"topology": "mesh2d", "n": 36, "workload": "bit-reversal"}
        )
        assert response.status == 400
        assert "power of two" in response.body["fields"]["workload"]
        assert len(runner.service.keys) == 0
        service = client.stats().body["service"]
        assert service["rejected"] == 1 and service["routes"] == 0


class TestMemoBound:
    def test_service_memo_holds_at_most_capacity(self, tmp_path):
        with ServiceRunner(
            plan_root=str(tmp_path / "plans"), max_workers=1, capacity=2
        ) as runner:
            client = runner.client()
            for seed in range(5):
                assert client.route({**CHEAP_JOB, "seed": seed}).ok
                assert len(runner.service.keys) <= 2
            assert len(runner.service.keys) == 2

    def test_memo_evicts_least_recently_used(self):
        memo = PlanKeyMemo(capacity=2)
        jobs = [
            RouteRequest.from_body({**CHEAP_JOB, "seed": seed}) for seed in range(3)
        ]
        memo.keyed(jobs[0])
        memo.keyed(jobs[1])
        memo.keyed(jobs[0])  # refresh: jobs[1] is now the oldest
        memo.keyed(jobs[2])
        assert len(memo) == 2
        assert {k[3] for k in memo._entries} == {0, 2}

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            PlanKeyMemo(0)


class TestLatencyHistograms:
    def test_record_uses_upper_inclusive_edges(self):
        h = LatencyHistogram()
        h.record(LATENCY_EDGES_MS[0] / 1e3)  # on the first edge: bucket 0
        h.record(0.0)
        h.record(LATENCY_EDGES_MS[-1] / 1e3 * 10)  # past the last: overflow
        assert h.buckets[0] == 2
        assert h.buckets[-1] == 1
        assert h.to_dict()["count"] == 3
        assert len(h.buckets) == len(LATENCY_EDGES_MS) + 1

    def test_edges_are_log_spaced_and_increasing(self):
        assert LATENCY_EDGES_MS[0] == 0.01 and LATENCY_EDGES_MS[-1] == 100000.0
        ratios = {
            round(b / a, 2) for a, b in zip(LATENCY_EDGES_MS, LATENCY_EDGES_MS[1:])
        }
        assert ratios <= {1.77, 1.78, 1.79}

    def test_counts_match_counters_after_a_mixed_run(self, runner, client):
        assert client.route(CHEAP_JOB).body["source"] == "cold"
        assert client.route(CHEAP_JOB).body["source"] == "warm"
        assert client.route(DEMANDS_JOB).body["source"] == "cold"
        assert client.route(DEMANDS_JOB).body["source"] == "warm"
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(client.route, [SLOW_JOB] * 4))
        assert sorted(r.body["source"] for r in results) == [
            "coalesced", "coalesced", "coalesced", "cold",
        ]
        # Failures are counted by outcome, never as a serving source.
        assert client.route({"topology": "nope"}).status == 400
        timed_out = client.route({**SLOW_JOB, "seed": 5, "timeout": 0.01})
        assert timed_out.status == 504

        body = client.stats().body
        service, latency = body["service"], body["latency"]
        assert latency["edges_ms"] == list(LATENCY_EDGES_MS)
        assert {s: service[s] for s in SOURCES} == {
            "warm": 2, "cold": 3, "coalesced": 3,
        }
        for source in SOURCES:
            histogram = latency[source]
            assert histogram["count"] == service[source], source
            assert sum(histogram["buckets"]) == histogram["count"]
            assert histogram["sum_ms"] > 0
        assert service["routes"] == sum(
            service[name]
            for name in (*SOURCES, "timeouts", "unroutable", "failed")
        )
        # counters() is exported as tracer counters: ints only.
        assert all(type(v) is int for v in runner.service.counters().values())
