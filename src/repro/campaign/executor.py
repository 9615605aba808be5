"""Campaign executor: tasks in worker processes, failures as records.

The executor runs every task of a :class:`~repro.campaign.spec.CampaignSpec`
on :class:`repro.workers.WorkerPool`, the process pool the routing service
uses too: ``workers`` threads each hold one worker process and hand it one
attempt at a time (:func:`_call_entry`, which resolves the entry and times
it in the worker).  That buys three properties an in-process loop cannot
give:

* **parallelism** across cores for CPU-bound simulator sweeps;
* **per-task timeouts** — a hung task's worker is SIGKILLed and replaced,
  the campaign continues;
* **crash isolation** — a task that takes its interpreter down (segfault,
  ``os._exit``) is recorded as ``failed`` with a diagnostic while sibling
  tasks complete.

Failures are data, not exceptions: every task ends as a
:class:`~repro.campaign.metrics.TaskRecord` with ``status`` ``"ok"`` or
``"failed"``, a bounded number of retries having been attempted first.  The
kind follows the pool's error: :class:`~repro.workers.JobFailed` (the task
raised an ``Exception`` or ``SystemExit``, or returned a payload that
cannot be pickled) is ``exception``, :class:`~repro.workers.JobTimeout`
is ``timeout`` and :class:`~repro.workers.JobCrashed` is ``crash``.  The
calling thread does all the bookkeeping (retries, records, the store and
the progress callback), so those never see another thread.  When a
:class:`~repro.campaign.store.ResultStore` is attached, records persist as
they complete, so killing a run and re-running with resume executes only the
remaining tasks.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable

from ..workers import JobCrashed, JobFailed, JobTimeout, WorkerPool
from .metrics import CampaignSummary, TaskRecord, summarize
from .spec import CampaignSpec, TaskSpec
from .store import ResultStore

__all__ = ["run_campaign", "CampaignResult", "resolve_entry"]


def resolve_entry(entry: str) -> Callable[[dict], Any]:
    """Import a ``"module.path:function"`` reference and return the callable."""
    module_name, _, func_name = entry.partition(":")
    if not module_name or not func_name:
        raise ValueError(f"entry {entry!r} must be 'module.path:function'")
    module = importlib.import_module(module_name)
    try:
        fn = getattr(module, func_name)
    except AttributeError as exc:
        raise ValueError(f"{module_name!r} has no attribute {func_name!r}") from exc
    if not callable(fn):
        raise ValueError(f"entry {entry!r} is not callable")
    return fn


@dataclass
class CampaignResult:
    """Everything a campaign run produced, in spec order."""

    spec: CampaignSpec
    records: list[TaskRecord]
    summary: CampaignSummary

    @property
    def ok(self) -> bool:
        return self.summary.all_ok

    def payloads(self) -> list[Any]:
        """Payloads of successful tasks, in spec order."""
        return [r.payload for r in self.records if r.ok]


def _call_entry(job: dict) -> tuple[Any, float]:
    """One attempt, worker side: resolve ``job["entry"]``, call it on
    ``job["params"]`` and time both where they run."""
    t0 = time.perf_counter()
    payload = resolve_entry(job["entry"])(dict(job["params"]))
    return payload, time.perf_counter() - t0


def run_campaign(
    spec: CampaignSpec,
    store: ResultStore | None = None,
    *,
    workers: int = 1,
    task_timeout: float | None = None,
    retries: int = 1,
    reuse: bool = True,
    progress: Callable[[TaskRecord], None] | None = None,
) -> CampaignResult:
    """Execute a campaign and return per-task records plus a summary.

    Parameters
    ----------
    spec:
        The expanded campaign (see :meth:`CampaignSpec.from_grid`).
    store:
        Optional result store.  With a store attached, tasks whose stored
        record is already a success are served as cache hits (``reuse=True``),
        and every newly completed task is persisted immediately — this is
        what makes ``--resume`` after a mid-flight kill execute only the
        remaining tasks.  ``store=None`` runs everything in memory.
    workers:
        Worker processes, each driven by one thread of this process; a
        record's ``worker_id`` is that thread's number, ``0`` to
        ``workers - 1``.  ``workers=1`` still uses a subprocess, so crash
        isolation and timeouts behave identically at any width.
    task_timeout:
        Per-task wall-clock budget in seconds; an over-budget task's worker
        is SIGKILLed and replaced.  ``None`` disables the deadline.
    retries:
        Extra attempts per task after the first failure (exception, timeout
        or crash) before it is recorded as ``failed``.
    reuse:
        Set ``False`` to ignore stored successes and re-execute every task
        (the CLI's ``--force``).
    progress:
        Optional callback invoked with each completed :class:`TaskRecord`.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")

    t_start = time.perf_counter()
    if store is not None:
        store.write_spec(spec)

    records: dict[int, TaskRecord] = {}
    pending: list[tuple[int, TaskSpec]] = []
    for index, task in enumerate(spec.tasks):
        cached = store.load_record(task.task_hash) if (store and reuse) else None
        if cached is not None and cached.ok:
            cached.cache_hit = True
            records[index] = cached
            if progress is not None:
                progress(cached)
        else:
            pending.append((index, task))

    if pending:
        _execute(
            pending,
            records,
            store=store,
            workers=min(workers, len(pending)),
            task_timeout=task_timeout,
            retries=retries,
            progress=progress,
        )

    ordered = [records[i] for i in sorted(records)]
    summary = summarize(ordered, wall_seconds=time.perf_counter() - t_start)
    return CampaignResult(spec=spec, records=ordered, summary=summary)


def _execute(
    pending: list[tuple[int, TaskSpec]],
    records: dict[int, TaskRecord],
    *,
    store: ResultStore | None,
    workers: int,
    task_timeout: float | None,
    retries: int,
    progress: Callable[[TaskRecord], None] | None,
) -> None:
    """Run ``pending`` on ``workers`` pool threads, one worker process
    each; this thread does the retries and every record's bookkeeping."""
    pool = WorkerPool(workers)
    slot = threading.local()
    slot_ids = itertools.count()

    def name_slot() -> None:
        slot.worker_id = next(slot_ids)

    def attempt(task: TaskSpec) -> tuple:
        """``(failure_kind, payload, traceback, wall, worker_id)``, where
        ``failure_kind`` is ``None`` on success."""
        t0 = time.perf_counter()
        job = {"entry": task.entry, "params": dict(task.params)}
        try:
            payload, wall = pool.run(_call_entry, job, task_timeout)
            return None, payload, None, wall, slot.worker_id
        except JobFailed as exc:
            kind, tb = "exception", exc.traceback
        except JobTimeout:
            kind, tb = "timeout", (
                f"task {task.label!r} exceeded its "
                f"{task_timeout:g}s timeout and was killed"
            )
        except JobCrashed as exc:
            kind, tb = "crash", (
                f"worker {slot.worker_id} running task {task.label!r} "
                f"exited with code {exc.exitcode}"
            )
        return kind, None, tb, time.perf_counter() - t0, slot.worker_id

    threads = ThreadPoolExecutor(workers, initializer=name_slot)
    try:
        running = {
            threads.submit(attempt, task): (index, task, 1)
            for index, task in pending
        }
        while running:
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in sorted(done, key=lambda f: running[f][0]):
                index, task, tries = running.pop(future)
                kind, payload, tb, wall, worker_id = future.result()
                if kind is not None and tries <= retries:
                    running[threads.submit(attempt, task)] = (index, task, tries + 1)
                    continue
                # Tasks that wrote an observability trace advertise it
                # through a "trace_ref" payload key; lift it onto the
                # record so reports can link each task to its trace
                # without parsing payloads.
                trace_ref = (
                    payload.get("trace_ref") if isinstance(payload, dict) else None
                )
                record = TaskRecord(
                    task_hash=task.task_hash,
                    label=task.label,
                    entry=task.entry,
                    params=dict(task.params),
                    status="ok" if kind is None else "failed",
                    failure_kind=kind,
                    wall_seconds=wall,
                    worker_id=worker_id,
                    attempts=tries,
                    payload=payload,
                    traceback=tb,
                    trace_ref=trace_ref,
                )
                records[index] = record
                if store is not None:
                    store.put_record(record)
                if progress is not None:
                    progress(record)
    finally:
        # Kill what still runs (a ^C, a raising callback) before joining
        # the threads that wait on it.
        pool.close()
        threads.shutdown(cancel_futures=True)
