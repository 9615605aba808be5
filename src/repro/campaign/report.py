"""Campaign reporting: status tables for humans, BENCH-style JSON for tools.

The JSON shape is a ``benchmark`` identifier, a flat ``rows`` list, and a
summary block, so one reader handles every campaign's report.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path
from typing import Iterable, Sequence

from .metrics import TaskRecord, summarize
from .spec import CampaignSpec

__all__ = ["campaign_report", "format_status_table", "write_report"]


def format_status_table(records: Sequence[TaskRecord]) -> str:
    """Render one line per task: label, status, attempts, cache, wall."""
    from ..viz import format_table

    rows = []
    for r in records:
        status = r.status.upper()
        if r.failure_kind:
            status = f"{status}({r.failure_kind})"
        rows.append(
            [
                r.label or r.task_hash,
                status,
                r.attempts,
                "hit" if r.cache_hit else "run",
                f"{r.wall_seconds * 1e3:.1f}",
            ]
        )
    return format_table(["task", "status", "attempts", "cache", "wall ms"], rows)


def campaign_report(
    spec: CampaignSpec | None,
    records: Iterable[TaskRecord],
    *,
    wall_seconds: float = 0.0,
    extra: dict | None = None,
) -> dict:
    """Aggregate records into a BENCH-style JSON document."""
    records = list(records)
    summary = summarize(records, wall_seconds=wall_seconds)
    name = spec.name if spec is not None else "campaign"
    report = {
        "benchmark": f"repro.campaign::{name}",
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": _cpu_count(),
        },
        "summary": summary.to_dict(),
        "rows": [
            {
                "task": r.label or r.task_hash,
                "task_hash": r.task_hash,
                "status": r.status,
                "failure_kind": r.failure_kind,
                "attempts": r.attempts,
                "cache_hit": r.cache_hit,
                "wall_seconds": round(r.wall_seconds, 6),
                "trace_ref": r.trace_ref,
                "payload": r.payload,
            }
            for r in records
        ],
    }
    congestion = _congestion_rollup(records)
    if congestion:
        report["congestion"] = congestion
    if spec is not None:
        report["spec_hash"] = spec.spec_hash
        report["meta"] = dict(spec.meta)
    if extra:
        report.update(extra)
    return report


def _congestion_rollup(records: Sequence[TaskRecord]) -> list[dict]:
    """Per-task link-utilization summaries for tasks that carried traces.

    A traced routing task (``run_routing_task`` with ``trace`` set) reports
    its most-congested channels in the payload's ``"top_links"`` key; this
    lifts them next to the trace refs so a report reader sees *where* the
    steps went without opening the JSONL files.
    """
    rows = []
    for r in records:
        top = r.payload.get("top_links") if isinstance(r.payload, dict) else None
        if r.trace_ref is None and not top:
            continue
        rows.append(
            {
                "task": r.label or r.task_hash,
                "trace_ref": r.trace_ref,
                "top_links": top or [],
            }
        )
    return rows


def _cpu_count() -> int:
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def write_report(report: dict, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, default=str) + "\n")
    return path
