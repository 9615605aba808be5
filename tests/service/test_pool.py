"""The worker pool on its own: one long-lived worker per slot.

The pool is :class:`repro.workers.WorkerPool`, which the service reaches
as ``repro.service.pool`` and the campaign executor uses directly.  Each
test drives it with the small module-level jobs below (a pool pickles
``fn`` by reference) and checks which process ran them: a slot's worker
serves job after job, survives a job that raises (``SystemExit``
included) or returns a result that cannot be pickled, and is replaced
after a crash or a timeout kill; the blocking ``run`` serves threads
without an event loop; ``close()`` reaps every worker, busy ones
included; a worker whose server is SIGKILLed exits on the EOF of its
pipe; and the pool works under the spawn start method.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro
from repro.workers import JobCrashed, JobFailed, JobTimeout, WorkerPool


def worker_pid(params: dict) -> int:
    return os.getpid()


def raise_value_error(params: dict) -> None:
    raise ValueError(params["message"])


def exit_abruptly(params: dict) -> None:
    os._exit(params["code"])


def exit_politely(params: dict) -> None:
    sys.exit(params["code"])


def return_a_lock(params: dict) -> threading.Lock:
    return threading.Lock()


def sleep_then_pid(params: dict) -> int:
    time.sleep(params["seconds"])
    return os.getpid()


def drive(scenario, **pool_kwargs):
    """Run ``scenario(pool)`` on a fresh event loop; close the pool after."""

    async def main():
        pool = WorkerPool(**pool_kwargs)
        try:
            return await scenario(pool)
        finally:
            pool.close()

    return asyncio.run(main())


def gone(pid: int) -> bool:
    """Has ``pid`` exited and been reaped?"""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class TestOneWorkerPerSlot:
    def test_two_jobs_share_the_slot_worker(self):
        async def scenario(pool):
            first = await pool.submit(worker_pid, {})
            second = await pool.submit(worker_pid, {})
            return first, second, pool.counters()

        first, second, counters = drive(scenario, max_workers=1)
        assert first == second != os.getpid()
        assert counters["spawned"] == 1
        assert counters["jobs"] == 2

    def test_a_raising_job_keeps_its_worker(self):
        async def scenario(pool):
            before = await pool.submit(worker_pid, {})
            with pytest.raises(JobFailed) as failed:
                await pool.submit(raise_value_error, {"message": "no route"})
            after = await pool.submit(worker_pid, {})
            return before, failed.value, after, pool.counters()

        before, failed, after, counters = drive(scenario, max_workers=1)
        assert failed.kind == "ValueError"
        assert failed.message == "no route"
        assert "raise_value_error" in failed.traceback
        assert after == before
        assert counters["failures"] == 1
        assert counters["spawned"] == 1

    def test_system_exit_fails_and_keeps_its_worker(self):
        async def scenario(pool):
            before = await pool.submit(worker_pid, {})
            with pytest.raises(JobFailed) as failed:
                await pool.submit(exit_politely, {"code": 5})
            after = await pool.submit(worker_pid, {})
            return before, failed.value, after, pool.counters()

        before, failed, after, counters = drive(scenario, max_workers=1)
        assert (failed.kind, failed.message) == ("SystemExit", "5")
        assert "exit_politely" in failed.traceback
        assert after == before
        assert (counters["failures"], counters["crashed"]) == (1, 0)

    def test_an_unpicklable_result_fails_and_keeps_its_worker(self):
        async def scenario(pool):
            before = await pool.submit(worker_pid, {})
            with pytest.raises(JobFailed) as failed:
                await pool.submit(return_a_lock, {})
            after = await pool.submit(worker_pid, {})
            return before, failed.value, after, pool.counters()

        before, failed, after, counters = drive(scenario, max_workers=1)
        assert "lock" in failed.message
        assert after == before
        assert (counters["failures"], counters["crashed"]) == (1, 0)
        assert counters["spawned"] == 1

    def test_a_crash_replaces_the_worker(self):
        async def scenario(pool):
            before = await pool.submit(worker_pid, {})
            with pytest.raises(JobCrashed) as crashed:
                await pool.submit(exit_abruptly, {"code": 3})
            after = await pool.submit(worker_pid, {})
            return before, crashed.value, after, pool.counters()

        before, crashed, after, counters = drive(scenario, max_workers=1)
        assert crashed.exitcode == 3
        assert gone(before)
        assert after != before
        assert counters["crashed"] == 1
        assert counters["spawned"] == 2

    def test_a_timeout_kills_the_worker_and_the_slot_respawns(self):
        async def scenario(pool):
            before = await pool.submit(worker_pid, {})
            with pytest.raises(JobTimeout) as timed_out:
                await pool.submit(sleep_then_pid, {"seconds": 30}, timeout=0.2)
            killed_gone = gone(before)
            after = await pool.submit(worker_pid, {})
            return before, timed_out.value, killed_gone, after, pool.counters()

        before, timed_out, killed_gone, after, counters = drive(
            scenario, max_workers=1
        )
        assert timed_out.seconds == 0.2
        assert killed_gone
        assert after != before
        assert counters["killed"] == 1
        assert counters["spawned"] == 2

    def test_a_worker_killed_while_idle_is_replaced(self):
        async def scenario(pool):
            before = await pool.submit(worker_pid, {})
            os.kill(before, signal.SIGKILL)
            os.waitid(os.P_PID, before, os.WEXITED | os.WNOWAIT)  # not reaped
            after = await pool.submit(worker_pid, {})
            return before, after, pool.counters()

        before, after, counters = drive(scenario, max_workers=1)
        assert after != before
        assert gone(before)
        assert (counters["crashed"], counters["spawned"]) == (1, 2)

    def test_concurrent_jobs_get_their_own_workers(self):
        async def scenario(pool):
            return await asyncio.gather(
                *(pool.submit(sleep_then_pid, {"seconds": 0.3}) for _ in range(2))
            ), pool.counters()

        pids, counters = drive(scenario, max_workers=2)
        assert len(set(pids)) == 2
        assert counters["spawned"] == 2


def test_many_concurrent_jobs_keep_the_books():
    """More slots than cores, succeeding and raising jobs all at once, and
    a short switch interval: every job is counted once, and no slot ever
    holds a second worker."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        async def scenario(pool):
            jobs = [
                pool.submit(raise_value_error if i % 3 == 0 else worker_pid,
                            {"message": str(i)})
                for i in range(48)
            ]
            results = await asyncio.wait_for(
                asyncio.gather(*jobs, return_exceptions=True), timeout=120
            )
            return results, pool.counters()

        results, counters = drive(scenario, max_workers=6)
    finally:
        sys.setswitchinterval(interval)
    failed = [r for r in results if isinstance(r, JobFailed)]
    pids = {r for r in results if isinstance(r, int)}
    assert len(failed) == 16
    assert sum(isinstance(r, int) for r in results) == 32
    assert (counters["jobs"], counters["failures"], counters["inflight"]) == (
        48, 16, 0)
    assert len(pids) <= counters["spawned"] <= 6
    assert multiprocessing.active_children() == []


class TestBlockingRun:
    def test_threads_share_the_pool_without_an_event_loop(self):
        pool = WorkerPool(2)
        try:
            with ThreadPoolExecutor(2) as threads:
                pids = list(threads.map(
                    lambda _: pool.run(sleep_then_pid, {"seconds": 0.3}),
                    range(2),
                ))
            again = pool.run(worker_pid, {})
            with pytest.raises(JobTimeout):
                pool.run(sleep_then_pid, {"seconds": 30}, timeout=0.2)
            counters = pool.counters()
        finally:
            pool.close()
        assert len(set(pids)) == 2 and again in pids
        assert (counters["jobs"], counters["inflight"]) == (4, 0)
        assert (counters["spawned"], counters["killed"]) == (2, 1)
        assert multiprocessing.active_children() == []


class TestClose:
    def test_close_reaps_idle_and_busy_workers(self):
        async def scenario(pool):
            busy = asyncio.ensure_future(
                pool.submit(sleep_then_pid, {"seconds": 30})
            )
            while pool.spawned < 1:  # the slow job holds the first worker
                await asyncio.sleep(0.01)
            idle = await pool.submit(worker_pid, {})
            assert pool.spawned == 2
            pool.close()
            children = multiprocessing.active_children()
            with pytest.raises(JobCrashed):
                await busy
            with pytest.raises(RuntimeError, match="closed"):
                await pool.submit(worker_pid, {})
            return idle, children

        idle, children = drive(scenario, max_workers=2)
        assert children == []
        assert gone(idle)

    def test_close_is_idempotent(self):
        async def scenario(pool):
            await pool.submit(worker_pid, {})
            pool.close()
            pool.close()
            return multiprocessing.active_children()

        assert drive(scenario, max_workers=1) == []


ORPHAN_SCRIPT = """
import asyncio, os, time
from repro.service.pool import WorkerPool

def worker_pid(params):
    return os.getpid()

async def main():
    pool = WorkerPool(1)
    print(await pool.submit(worker_pid, {}), flush=True)
    time.sleep(60)

asyncio.run(main())
"""


def test_a_worker_exits_when_its_server_is_killed():
    """The worker keeps the server's stdout; the pipe reads EOF only once
    the SIGKILLed server *and* its worker are gone."""
    src = str(Path(repro.__file__).resolve().parents[1])
    server = subprocess.Popen(
        [sys.executable, "-c", ORPHAN_SCRIPT],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    pid = None
    try:
        pid = int(server.stdout.readline())
        server.send_signal(signal.SIGKILL)
        server.communicate(timeout=30)  # EOF: the worker exited
    finally:
        server.kill()
        server.wait()
        if pid is not None and not gone(pid):
            os.kill(pid, signal.SIGKILL)
    assert server.returncode == -signal.SIGKILL


def test_spawn_start_method():
    async def scenario(pool):
        first = await pool.submit(worker_pid, {})
        second = await pool.submit(worker_pid, {})
        with pytest.raises(JobFailed):
            await pool.submit(raise_value_error, {"message": "spawned"})
        return first, second

    first, second = drive(scenario, max_workers=1, start_method="spawn")
    assert first == second != os.getpid()
