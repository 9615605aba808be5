"""The service's worker pool, re-exported from :mod:`repro.workers`.

The pool moved to :mod:`repro.workers`, where campaign tasks run too.
This path stays because the benchmark's span layer wraps
``repro.service.pool.WorkerPool.submit`` by dotted name
(``perfbench/spans.py``); once that reference names ``repro.workers``,
this module can go.
"""

from ..workers import JobCrashed, JobFailed, JobTimeout, WorkerPool

__all__ = ["JobTimeout", "JobCrashed", "JobFailed", "WorkerPool"]
