"""The one process pool: long-lived workers the caller can kill.

Campaign tasks (:mod:`repro.campaign.executor`) and the service's cold
route computations (:mod:`repro.service.app`) both run here.
``concurrent.futures.ProcessPoolExecutor`` cannot cancel a *running*
call — a timed-out job would keep burning its worker until it finished,
and a stuck worker would poison the pool.  :class:`WorkerPool` instead
keeps long-lived worker processes and kills one when its job overruns:

* :meth:`WorkerPool.run` blocks its calling thread for one job and
  starts a worker when no idle one is left, so a pool has at most as
  many workers as concurrent callers; :meth:`WorkerPool.submit` is its
  awaitable form, bounded to ``max_workers`` concurrent jobs (an
  :class:`asyncio.Semaphore`) and run in a thread
  (``asyncio.to_thread``), so neither the fork nor the wait stalls the
  event loop;
* a worker is started lazily, on a slot's first job or after its
  previous worker died, and then serves job after job over one duplex
  pipe (``recv (fn, params) -> fn(params) -> send``);
* a job that raises an ``Exception`` or ``SystemExit`` comes back as
  :class:`JobFailed` and its worker stays; so does a job whose result
  cannot be pickled (the worker replies with the pickling error instead);
* on timeout the worker is **killed** (SIGKILL) and the caller gets
  :class:`JobTimeout`; the slot starts a fresh worker on its next job,
  and the half-written plan blob the dead worker may leave behind is
  harmless by construction (unique tmp names, atomic renames; see
  :mod:`repro.sim.plancache`);
* a worker that dies without reporting (segfault, ``os._exit``,
  OOM-kill) surfaces as :class:`JobCrashed` with its exit code, never as
  a hung wait, and is replaced on the slot's next job.

A worker first closes every file descriptor it inherited except stdio and
its own pipe end: a forked worker would otherwise hold the server's
listening socket and the connections open at the fork, so a client could
wait on a closed response forever.  It ignores SIGINT (the parent drives
shutdown, so ^C reaches only the parent) and exits by itself when its
pipe hits EOF — on :meth:`WorkerPool.close`, or when the parent dies.

Fork is preferred when available (the worker starts with the engine
already imported); spawn is the fallback.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import traceback
from typing import Any, Callable

__all__ = ["JobTimeout", "JobCrashed", "JobFailed", "WorkerPool"]

#: Seconds a worker gets to exit on the EOF of its pipe before it is killed.
EXIT_GRACE = 2.0


class JobTimeout(Exception):
    """The job exceeded its budget; its worker process was killed."""

    def __init__(self, seconds: float):
        super().__init__(f"job exceeded {seconds:g}s; worker killed")
        self.seconds = seconds


class JobCrashed(Exception):
    """The worker died without reporting a result (signal, OOM, ...)."""

    def __init__(self, exitcode: int | None):
        super().__init__(f"worker died without a result (exitcode {exitcode})")
        self.exitcode = exitcode


class JobFailed(Exception):
    """The job raised; carries the worker-side exception rendering."""

    def __init__(self, kind: str, message: str, tb: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message
        self.traceback = tb


def _error(exc: BaseException) -> tuple:
    return ("error", type(exc).__name__, str(exc), traceback.format_exc())


def _worker_main(conn) -> None:
    """Worker-process loop: one reply per ``(fn, params)`` until EOF."""
    keep = conn.fileno()
    os.closerange(3, keep)
    os.closerange(keep + 1, os.sysconf("SC_OPEN_MAX"))
    # A forked worker inherits the parent's signal set-up, whose wakeup fd
    # was just closed (and may be reused by the job's own files).  The
    # parent drives shutdown, so the worker ignores ^C and dies on SIGTERM.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    while True:
        try:
            fn, params = conn.recv()
        except EOFError:  # the pool closed its end, or the parent died
            return
        # Report, never escape: the pipe is the API.
        try:
            message = ("ok", fn(params))
        except (Exception, SystemExit) as exc:
            message = _error(exc)
        try:
            conn.send(message)
        except OSError:  # the parent is gone
            return
        except Exception as exc:  # send pickles before it writes a byte
            conn.send(_error(exc))


class _Worker:
    """One slot's worker process and the pool's end of its pipe."""

    def __init__(self, ctx):
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_worker_main, args=(child,), daemon=True)
        self.proc.start()
        child.close()  # the parent's copy; the worker holds the other end

    def retire(self, *, kill: bool) -> None:
        """Close the pipe (an idle worker exits on the EOF), SIGKILL first
        if ``kill``, and reap the process.

        A worker still alive :data:`EXIT_GRACE` seconds after the EOF is
        killed.  The wait polls: the worker closed its copy of the pipe
        ``Process.join(timeout)`` waits on, so that timeout would not hold.
        """
        self.conn.close()
        if kill:
            self.proc.kill()
        deadline = time.monotonic() + EXIT_GRACE
        while self.proc.is_alive() and time.monotonic() < deadline:
            time.sleep(0.002)
        self.proc.kill()  # a no-op once the worker is reaped
        self.proc.join()


class WorkerPool:
    """Kill-on-timeout pool of long-lived worker processes.

    Counters: ``jobs`` run, ``spawned`` worker processes, ``killed`` on
    timeout, ``crashed`` workers, ``failures`` (job raised), and the
    ``inflight`` gauge.
    """

    def __init__(self, max_workers: int = 2, *, start_method: str | None = None):
        if max_workers < 1:
            raise ValueError("worker pool needs max_workers >= 1")
        self.max_workers = int(max_workers)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._ctx = multiprocessing.get_context(start_method)
        self._slots = None  # submit's asyncio.Semaphore, made on first use
        # Workers waiting for a job, and workers running one; the job
        # threads and close() hand them over, and count, under the lock.
        self._lock = threading.Lock()
        self._settled = threading.Condition(self._lock)
        self._idle: list[_Worker] = []
        self._busy: set[_Worker] = set()
        self._closed = False
        self.jobs = 0
        self.spawned = 0
        self.killed = 0
        self.crashed = 0
        self.failures = 0
        self.inflight = 0

    async def submit(
        self, fn: Callable[[dict], Any], params: dict, *, timeout: float | None = None
    ) -> Any:
        """:meth:`run` in a thread, at most ``max_workers`` at a time."""
        # Imported here: asyncio adds about 3 MB to every process that
        # imports it, and campaign runs, which only call run(), need none.
        import asyncio

        if self._slots is None:
            self._slots = asyncio.Semaphore(self.max_workers)
        async with self._slots:
            return await asyncio.to_thread(self.run, fn, params, timeout)

    def run(
        self, fn: Callable[[dict], Any], params: dict, timeout: float | None = None
    ) -> Any:
        """Run ``fn(params)`` in a worker process; block for its result.

        ``fn`` and ``params`` travel to the worker pickled, so ``fn`` must
        be a module-level function.  ``timeout`` is wall-clock seconds from
        the job's hand-over to its worker; on expiry the worker is killed
        and :class:`JobTimeout` raised.  Safe to call from many threads;
        each concurrent call holds its own worker.
        """
        with self._lock:
            self.jobs += 1
            self.inflight += 1
        try:
            message = self._exchange(fn, params, timeout)
        finally:
            with self._lock:
                self.inflight -= 1
        if message[0] == "ok":
            return message[1]
        with self._lock:
            self.failures += 1
        _tag, kind, text, tb = message
        raise JobFailed(kind, text, tb)

    def _exchange(self, fn, params, timeout) -> tuple:
        """Send one job to a checked-out worker and return its reply."""
        worker = self._checkout()
        replied = False
        try:
            try:
                worker.conn.send((fn, params))
                if timeout is not None and not worker.conn.poll(max(timeout, 0)):
                    worker.proc.kill()
                    with self._lock:
                        self.killed += 1
                    raise JobTimeout(timeout)
                message = worker.conn.recv()  # blocks; EOF when the worker dies
            except (EOFError, OSError):
                worker.proc.join()
                with self._lock:
                    self.crashed += 1
                raise JobCrashed(worker.proc.exitcode) from None
            replied = True
        finally:
            self._checkin(worker, replied)
        return message

    def _checkout(self) -> _Worker:
        """A live idle worker, else a freshly started one; marked busy.

        The start happens under the lock, so :meth:`close` never misses a
        worker that is being started.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            while self._idle:
                worker = self._idle.pop()
                if worker.proc.is_alive():
                    break
                self.crashed += 1  # died while idle; is_alive() reaped it
                worker.retire(kill=False)
            else:
                worker = _Worker(self._ctx)
                self.spawned += 1
            self._busy.add(worker)
            return worker

    def _checkin(self, worker: _Worker, replied: bool) -> None:
        """Put a worker that replied back on the idle list; reap any other
        (killed or crashed, or the pool closed meanwhile)."""
        with self._lock:
            if replied and not self._closed:
                self._busy.discard(worker)
                self._idle.append(worker)
                return
        worker.retire(kill=not replied)
        with self._lock:
            self._busy.discard(worker)
            self._settled.notify_all()

    def close(self) -> None:
        """Stop every worker and reap it; later jobs raise RuntimeError.

        Busy workers are killed (their callers get :class:`JobCrashed`),
        idle ones exit on the EOF of their pipe.  Idempotent.
        """
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
            for worker in self._busy:
                worker.proc.kill()
        for worker in idle:
            worker.retire(kill=False)
        with self._lock:  # the job threads reap the killed workers
            self._settled.wait_for(lambda: not self._busy)

    def counters(self) -> dict[str, int]:
        return {
            "workers": self.max_workers,
            "jobs": self.jobs,
            "spawned": self.spawned,
            "inflight": self.inflight,
            "killed": self.killed,
            "crashed": self.crashed,
            "failures": self.failures,
        }
