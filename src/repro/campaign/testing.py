"""Deterministic task entry points for exercising the executor.

These are real entry points (importable by worker processes) used by the
test suite and the CI campaign smoke job to inject each failure mode the
executor must isolate: a raised exception, a hang that trips the per-task
timeout, a hard process death, a payload that cannot be pickled, and one
that pickles but cannot be unpickled.  They live in the package, not in the
tests, so spec files written by users (and the CI workflow) can reference
them by dotted path.
"""

from __future__ import annotations

import os
import threading
import time

__all__ = [
    "echo_task",
    "failing_task",
    "sleeping_task",
    "crashing_task",
    "unpicklable_task",
    "unrebuildable_task",
]


def echo_task(params: dict) -> dict:
    """Return the parameters, tagged with the worker's pid — the no-op task."""
    return {"echo": dict(params), "pid": os.getpid()}


def failing_task(params: dict) -> dict:
    """Raise: the executor must record a ``failed``/``exception`` record
    carrying this traceback while sibling tasks complete."""
    raise RuntimeError(params.get("message", "injected campaign failure"))


def sleeping_task(params: dict) -> dict:
    """Sleep ``params['seconds']`` (default 60) — the timeout-path probe."""
    seconds = float(params.get("seconds", 60.0))
    time.sleep(seconds)
    return {"slept": seconds}


def crashing_task(params: dict) -> dict:
    """Kill the worker process outright (no Python-level cleanup), the way a
    segfaulting extension would."""
    os._exit(int(params.get("code", 17)))


def unpicklable_task(params: dict) -> object:
    """Return a payload the worker cannot send back (a lock does not
    pickle): the executor must record a ``failed``/``exception`` record
    naming the type, not hang or file a timeout."""
    return threading.Lock()


def _refuse_rebuild() -> None:
    raise ValueError("this payload cannot be rebuilt")


class _Unrebuildable:
    """Pickles fine; unpickling calls :func:`_refuse_rebuild`, which raises."""

    def __reduce__(self):
        return (_refuse_rebuild, ())


def unrebuildable_task(params: dict) -> object:
    """Return a payload that pickles in the worker but raises when the
    parent unpickles it: the executor must record a ``failed``/``exception``
    record and keep the worker, which sent a whole reply."""
    return _Unrebuildable()
