"""Content-addressed on-disk result store for campaigns.

Layout (one directory per campaign, default root ``results/campaigns/``)::

    results/campaigns/<name>/
        spec.json            # the expanded CampaignSpec that produced it
        manifest.jsonl       # one line per task completion, append-only
        tasks/<hash>.json    # one result blob per task, content-addressed

The blob name is the task's content hash (entry + params), so the store
doubles as a cache: a task whose blob already records ``status == "ok"`` is
served from disk instead of re-executed, which is what makes resuming a
killed run and repeat invocations cheap.  Blobs are written atomically (tmp + rename)
and the manifest is append-only, so a run killed mid-flight leaves every
completed task durable and nothing half-written.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator

from .metrics import TaskRecord
from .spec import CampaignSpec

__all__ = ["ResultStore"]


def _json_default(value):
    """Blobs must always serialize: degrade exotic payload values (numpy
    scalars, dataclasses, ...) to strings rather than losing the record."""
    return str(value)


class ResultStore:
    """Result store rooted at one campaign directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.tasks_dir = self.root / "tasks"
        self.manifest_path = self.root / "manifest.jsonl"
        self.spec_path = self.root / "spec.json"
        self.tasks_dir.mkdir(parents=True, exist_ok=True)

    @classmethod
    def for_campaign(
        cls, name: str, root: str | Path = "results/campaigns"
    ) -> "ResultStore":
        return cls(Path(root) / name)

    # -- spec ---------------------------------------------------------------

    def write_spec(self, spec: CampaignSpec) -> None:
        spec.save(self.spec_path)

    def read_spec(self) -> CampaignSpec | None:
        if not self.spec_path.exists():
            return None
        return CampaignSpec.load(self.spec_path)

    # -- task blobs ---------------------------------------------------------

    def _blob_path(self, task_hash: str) -> Path:
        return self.tasks_dir / f"{task_hash}.json"

    def load_record(self, task_hash: str) -> TaskRecord | None:
        path = self._blob_path(task_hash)
        if not path.exists():
            return None
        try:
            return TaskRecord.from_dict(json.loads(path.read_text()))
        except (json.JSONDecodeError, KeyError, ValueError):
            # A corrupt blob (e.g. torn write from a previous crash on a
            # filesystem without atomic rename) is treated as absent: the
            # task simply re-runs.
            return None

    def completed_hashes(self) -> set[str]:
        """Hashes whose stored record is a success — the resume skip-set."""
        done = set()
        for path in self.tasks_dir.glob("*.json"):
            record = self.load_record(path.stem)
            if record is not None and record.ok:
                done.add(record.task_hash)
        return done

    def put_record(self, record: TaskRecord) -> None:
        """Persist one completed task: atomic blob write + manifest append."""
        blob = json.dumps(record.to_dict(), indent=2, default=_json_default)
        path = self._blob_path(record.task_hash)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(blob + "\n")
        os.replace(tmp, path)
        line = {
            "task_hash": record.task_hash,
            "label": record.label,
            "status": record.status,
            "failure_kind": record.failure_kind,
            "wall_seconds": round(record.wall_seconds, 6),
            "worker_id": record.worker_id,
            "attempts": record.attempts,
            "cache_hit": record.cache_hit,
        }
        with self.manifest_path.open("a") as fh:
            fh.write(json.dumps(line, default=_json_default) + "\n")

    # -- manifest -----------------------------------------------------------

    def manifest(self) -> Iterator[dict]:
        """Yield manifest lines in append order (skipping torn tails)."""
        if not self.manifest_path.exists():
            return
        with self.manifest_path.open() as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError:
                    continue

    def records(self) -> list[TaskRecord]:
        """All stored task records, in manifest (completion) order; tasks
        never seen in the manifest come last in blob-directory order."""
        seen: dict[str, TaskRecord] = {}
        for line in self.manifest():
            h = line.get("task_hash")
            if h and h not in seen:
                record = self.load_record(h)
                if record is not None:
                    seen[h] = record
        for path in sorted(self.tasks_dir.glob("*.json")):
            if path.stem not in seen:
                record = self.load_record(path.stem)
                if record is not None:
                    seen[path.stem] = record
        return list(seen.values())
