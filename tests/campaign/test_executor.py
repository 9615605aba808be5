"""Executor: parallel execution, caching/resume, and failure isolation.

Uses the ``repro.campaign.testing`` entry points to inject each failure mode
(raise, hang, hard process death, unpicklable and unrebuildable payloads) into otherwise-healthy
campaigns.
"""

import multiprocessing
import threading
import time

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    TaskSpec,
    run_campaign,
)

ECHO = "repro.campaign.testing:echo_task"
FAIL = "repro.campaign.testing:failing_task"
SLEEP = "repro.campaign.testing:sleeping_task"
CRASH = "repro.campaign.testing:crashing_task"
UNPICKLABLE = "repro.campaign.testing:unpicklable_task"
UNREBUILDABLE = "repro.campaign.testing:unrebuildable_task"
#: ``sys.exit(params)``: a task that raises ``SystemExit``.
EXIT = "sys:exit"


def echo_campaign(name="echo", count=4):
    return CampaignSpec(
        name, tuple(TaskSpec(ECHO, {"index": i}) for i in range(count))
    )


class TestExecution:
    def test_runs_all_tasks_and_preserves_spec_order(self):
        result = run_campaign(echo_campaign(count=5), workers=2)
        assert result.ok
        assert [r.payload["echo"]["index"] for r in result.records] == list(range(5))
        assert all(r.worker_id is not None for r in result.records)

    def test_single_worker_equivalent(self):
        parallel = run_campaign(echo_campaign(), workers=2)
        serial = run_campaign(echo_campaign(), workers=1)
        assert [r.payload["echo"] for r in serial.records] == [
            r.payload["echo"] for r in parallel.records
        ]

    def test_summary_counts(self):
        result = run_campaign(echo_campaign(count=3), workers=2)
        s = result.summary
        assert (s.total, s.ok, s.failed, s.executed, s.cache_hits) == (3, 3, 0, 3, 0)
        assert s.wall_seconds > 0 and s.task_seconds >= 0

    def test_progress_callback_sees_every_task(self):
        seen = []
        run_campaign(echo_campaign(), workers=2, progress=seen.append)
        assert len(seen) == 4

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            run_campaign(echo_campaign(), workers=0)
        with pytest.raises(ValueError):
            run_campaign(echo_campaign(), retries=-1)
        # A budget every task overruns is refused, not run to all-timeouts.
        for timeout in (0, -1.0):
            with pytest.raises(ValueError, match="task_timeout must be > 0"):
                run_campaign(echo_campaign(), task_timeout=timeout)

    def test_serial_progress_follows_spec_order(self):
        seen = []
        run_campaign(echo_campaign(count=6), workers=1, progress=seen.append)
        assert [r.payload["echo"]["index"] for r in seen] == list(range(6))

    def test_worker_ids_are_small_per_run_integers(self):
        result = run_campaign(echo_campaign(count=6), workers=2)
        assert {r.worker_id for r in result.records} <= {0, 1}
        serial = run_campaign(echo_campaign(count=3), workers=1)
        assert [r.worker_id for r in serial.records] == [0, 0, 0]

    def test_bookkeeping_runs_on_the_calling_thread(self, tmp_path):
        threads = set()

        class Store(ResultStore):
            def put_record(self, record):
                threads.add(threading.get_ident())
                return super().put_record(record)

        spec = CampaignSpec(
            "threads",
            tuple(TaskSpec(ECHO, {"index": i}) for i in range(4))
            + (TaskSpec(FAIL, {"message": "x"}),),
        )
        run_campaign(spec, Store(tmp_path), workers=2, retries=1,
                     progress=lambda record: threads.add(threading.get_ident()))
        assert threads == {threading.get_ident()}

    def test_a_raising_callback_reaps_every_worker(self):
        """The first record's callback raises while a sibling task hangs:
        the run ends at once, and no worker process outlives it."""
        spec = CampaignSpec(
            "abort",
            (TaskSpec(ECHO, {"index": 0}), TaskSpec(SLEEP, {"seconds": 60})),
        )

        def progress(record):
            raise KeyboardInterrupt

        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            run_campaign(spec, workers=2, progress=progress)
        assert time.perf_counter() - t0 < 30
        assert multiprocessing.active_children() == []

    def test_unknown_entry_is_a_failed_record(self):
        spec = CampaignSpec("bad", (TaskSpec("repro.no_such_module:f", {}),))
        result = run_campaign(spec, workers=1, retries=0)
        record = result.records[0]
        assert not record.ok and record.failure_kind == "exception"
        assert "no_such_module" in record.traceback


class TestFailureIsolation:
    def test_exception_recorded_with_traceback_siblings_complete(self):
        spec = CampaignSpec(
            "mixed",
            (
                TaskSpec(ECHO, {"index": 0}),
                TaskSpec(FAIL, {"message": "injected-boom"}),
                TaskSpec(ECHO, {"index": 2}),
            ),
        )
        result = run_campaign(spec, workers=2, retries=0)
        assert not result.ok
        by_label = {r.label: r for r in result.records}
        failed = by_label["message=injected-boom"]
        assert failed.status == "failed" and failed.failure_kind == "exception"
        assert "RuntimeError: injected-boom" in failed.traceback
        assert by_label["index=0"].ok and by_label["index=2"].ok

    def test_crash_isolated_and_pool_refilled(self):
        spec = CampaignSpec(
            "crashy",
            (TaskSpec(CRASH, {"code": 11}),)
            + tuple(TaskSpec(ECHO, {"index": i}) for i in range(3)),
        )
        result = run_campaign(spec, workers=2, retries=0)
        crashed = result.records[0]
        assert crashed.failure_kind == "crash"
        assert "exited with code 11" in crashed.traceback
        assert sum(r.ok for r in result.records) == 3

    def test_timeout_kills_hung_task(self):
        spec = CampaignSpec(
            "hang",
            (
                TaskSpec(SLEEP, {"seconds": 60}),
                TaskSpec(ECHO, {"index": 1}),
            ),
        )
        result = run_campaign(spec, workers=2, retries=0, task_timeout=0.5)
        hung = result.records[0]
        assert hung.failure_kind == "timeout"
        assert "0.5s timeout" in hung.traceback
        assert result.records[1].ok

    def test_unpicklable_payload_is_a_failed_exception_record(self):
        """The worker replies with the pickling error instead of a payload
        it cannot send: no hang, no timeout, and the worker lives on."""
        spec = CampaignSpec(
            "unpicklable",
            (
                TaskSpec(ECHO, {"index": 0}),
                TaskSpec(UNPICKLABLE, {}),
                TaskSpec(ECHO, {"index": 2}),
            ),
        )
        t0 = time.perf_counter()
        result = run_campaign(spec, workers=1, retries=0, task_timeout=10)
        assert time.perf_counter() - t0 < 10
        first, bad, last = result.records
        assert bad.status == "failed" and bad.failure_kind == "exception"
        assert "lock" in bad.traceback
        assert first.ok and last.ok
        assert first.payload["pid"] == last.payload["pid"]

    def test_unrebuildable_payload_is_a_failed_exception_record(
        self, monkeypatch
    ):
        """A payload that pickles in the worker but cannot be unpickled in
        the parent fails its task alone: the campaign goes on, and the
        worker, which sent a whole reply, is not counted as crashed."""
        from repro.campaign import executor

        pools = []

        class RecordingPool(executor.WorkerPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(executor, "WorkerPool", RecordingPool)
        spec = CampaignSpec(
            "unrebuildable",
            (
                TaskSpec(ECHO, {"index": 0}),
                TaskSpec(UNREBUILDABLE, {}),
                TaskSpec(ECHO, {"index": 2}),
            ),
        )
        result = run_campaign(spec, workers=1, retries=0)
        first, bad, last = result.records
        assert bad.status == "failed" and bad.failure_kind == "exception"
        assert "this payload cannot be rebuilt" in bad.traceback
        assert first.ok and last.ok
        assert first.payload["pid"] == last.payload["pid"]
        (pool,) = pools
        assert (pool.crashed, pool.failures) == (0, 1)

    def test_system_exit_is_a_failed_exception_record(self):
        """``SystemExit`` from a task is a failure with a traceback, and
        its worker serves the next task."""
        spec = CampaignSpec(
            "exit",
            (
                TaskSpec(ECHO, {"index": 0}),
                TaskSpec(EXIT, {"code": 5}),
                TaskSpec(ECHO, {"index": 2}),
            ),
        )
        result = run_campaign(spec, workers=1, retries=0)
        first, exited, last = result.records
        assert exited.status == "failed" and exited.failure_kind == "exception"
        assert "SystemExit" in exited.traceback
        assert first.ok and last.ok
        assert first.payload["pid"] == last.payload["pid"]

    def test_bounded_retry_counts_attempts(self):
        spec = CampaignSpec("retry", (TaskSpec(FAIL, {"message": "x"}),))
        result = run_campaign(spec, workers=1, retries=2)
        assert result.records[0].attempts == 3
        assert result.records[0].status == "failed"
        assert result.summary.retried == 1


class TestCachingAndResume:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        spec = echo_campaign()
        store = ResultStore(tmp_path)
        first = run_campaign(spec, store, workers=2)
        assert first.summary.executed == 4
        second = run_campaign(spec, store, workers=2)
        assert second.summary.cache_hits == 4
        assert second.summary.executed == 0
        # Cached payloads are the stored ones, in spec order.
        assert [r.payload["echo"]["index"] for r in second.records] == [0, 1, 2, 3]

    def test_resume_after_partial_run_executes_only_remainder(self, tmp_path):
        """A killed run leaves completed blobs behind; re-running the spec
        executes only what is missing (simulated by pre-running a prefix)."""
        full = echo_campaign(count=6)
        prefix = CampaignSpec("echo", full.tasks[:4])
        store = ResultStore(tmp_path)
        run_campaign(prefix, store, workers=2)

        resumed = run_campaign(full, store, workers=2)
        assert resumed.summary.cache_hits == 4
        assert resumed.summary.executed == 2
        executed = [r for r in resumed.records if not r.cache_hit]
        assert {r.payload["echo"]["index"] for r in executed} == {4, 5}

    def test_failed_tasks_are_retried_on_resume(self, tmp_path):
        spec = CampaignSpec("flaky", (TaskSpec(FAIL, {"message": "x"}),))
        store = ResultStore(tmp_path)
        first = run_campaign(spec, store, workers=1, retries=0)
        assert not first.ok
        # A stored failure is not a cache hit: the task runs again.
        second = run_campaign(spec, store, workers=1, retries=0)
        assert second.summary.executed == 1 and second.summary.cache_hits == 0

    def test_force_reexecutes_despite_cache(self, tmp_path):
        spec = echo_campaign()
        store = ResultStore(tmp_path)
        run_campaign(spec, store, workers=2)
        forced = run_campaign(spec, store, workers=2, reuse=False)
        assert forced.summary.executed == 4 and forced.summary.cache_hits == 0

    def test_store_survives_for_status_reporting(self, tmp_path):
        spec = echo_campaign()
        store = ResultStore(tmp_path)
        run_campaign(spec, store, workers=2)
        assert store.read_spec() == spec
        assert len(list(store.manifest())) == 4
        assert store.completed_hashes() == {t.task_hash for t in spec.tasks}


class TestSimIntegration:
    def test_routing_campaign_matches_direct_execution(self, tmp_path):
        from repro.sim.task import run_routing_task

        spec = CampaignSpec.from_grid(
            "mini-sweep",
            "repro.sim.task:run_routing_task",
            {"topology": ["mesh2d", "hypermesh2d"], "n": [64],
             "workload": ["dense-permutation", "bit-reversal"]},
            base={"seed": 99},
        )
        result = run_campaign(spec, ResultStore(tmp_path), workers=2)
        assert result.ok
        for record in result.records:
            direct = run_routing_task(dict(record.params))
            for key in ("steps", "total_hops", "packets", "delivered"):
                assert record.payload[key] == direct[key], record.label
