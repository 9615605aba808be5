"""Concurrent service behavior: the guarantees ISSUE.md names.

* request coalescing — N identical concurrent submits cost exactly one
  engine run; every waiter gets the same digest and stats;
* timeout — a cold computation past its budget answers HTTP 504 and the
  pool worker is *actually killed* (``pool.killed`` advances), and the
  pool keeps serving afterwards on a fresh worker (``pool.spawned``);
* graceful shutdown — in-flight requests drain to real responses while
  new connections are refused;
* draining flag — route submissions on a draining service answer 503.

The slow job (``mesh2d`` n=4096, dense permutation) routes in ~0.2 s on
this host — long enough that simultaneous clients always land inside the
coalescing window and a 10 ms budget always expires, short enough to keep
the suite quick.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.service import ServiceError

SLOW_JOB = {"topology": "mesh2d", "n": 4096, "workload": "dense-permutation"}
CHEAP_JOB = {"topology": "mesh2d", "n": 16, "workload": "dense-permutation"}


def fire_together(client, jobs):
    """POST every job from its own thread, released by one barrier."""
    barrier = threading.Barrier(len(jobs))
    results = [None] * len(jobs)

    def fire(i, job):
        barrier.wait()
        results[i] = client.route(job)

    threads = [
        threading.Thread(target=fire, args=(i, job))
        for i, job in enumerate(jobs)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


class TestCoalescing:
    def test_n_identical_submits_one_engine_run(self, runner, client):
        N = 6
        results = fire_together(client, [dict(SLOW_JOB)] * N)

        assert all(r.ok for r in results)
        digests = {r.body["digest"] for r in results}
        assert len(digests) == 1
        stats = {tuple(sorted(r.body["stats"].items())) for r in results}
        assert len(stats) == 1  # every waiter saw the one computation

        sources = sorted(r.body["source"] for r in results)
        assert sources == ["coalesced"] * (N - 1) + ["cold"]

        body = client.stats().body
        assert body["service"]["computations"] == 1
        assert body["service"]["coalesced"] == N - 1
        assert body["pool"]["jobs"] == 1
        assert body["plancache"]["coalesced"] == N - 1
        assert body["plancache"]["inflight"] == 0  # all settled

    def test_distinct_jobs_do_not_coalesce(self, client):
        results = fire_together(
            client, [{**CHEAP_JOB, "seed": seed} for seed in (1, 2, 3)]
        )
        assert all(r.ok for r in results)
        assert {r.body["source"] for r in results} == {"cold"}
        assert client.stats().body["service"]["computations"] == 3


class TestTimeout:
    def test_budget_expiry_kills_the_worker(self, client):
        response = client.route({**SLOW_JOB, "timeout": 0.01})
        assert response.status == 504
        assert response.body["timeout"] == 0.01
        assert "worker killed" in response.body["error"]

        body = client.stats().body
        assert body["service"]["timeouts"] == 1
        assert body["pool"]["killed"] == 1
        assert body["pool"]["spawned"] == 1
        assert body["service"]["inflight"] == 0

        # The pool survives the kill: the same job with a sane budget
        # computes cold (the killed run never recorded a plan) on the
        # slot's fresh worker.
        retry = client.route(SLOW_JOB)
        assert retry.ok
        assert retry.body["source"] == "cold"
        pool = client.stats().body["pool"]
        assert pool["killed"] == 1
        assert pool["spawned"] == 2


class TestShutdown:
    def test_graceful_shutdown_drains_inflight(self, runner, client):
        outcome = {}

        def slow_route():
            outcome["response"] = client.route(SLOW_JOB)

        thread = threading.Thread(target=slow_route)
        thread.start()
        time.sleep(0.1)  # let the request past admission, into the pool
        runner.shutdown()
        thread.join(timeout=30)

        assert outcome["response"].ok
        assert outcome["response"].body["source"] == "cold"
        # The listener is closed: fresh connections are refused.
        with pytest.raises(ServiceError):
            client.healthz()

    def test_draining_route_submissions_get_503(self, runner, client):
        runner.service._draining = True
        try:
            assert client.healthz().body["draining"] is True
            response = client.route(CHEAP_JOB)
            assert response.status == 503
            assert "draining" in response.body["error"]
        finally:
            runner.service._draining = False
        assert client.route(CHEAP_JOB).ok
