"""Parallel, resumable, content-addressed experiment campaign runner.

The paper's results are parameter sweeps — tables over (topology x machine
size x workload), speedup-vs-N asymptotics — and this package runs such
sweeps as first-class *campaigns*:

* :mod:`~repro.campaign.spec` — declarative :class:`TaskSpec` /
  :class:`CampaignSpec` with grid expansion and a deterministic content hash
  per task;
* :mod:`~repro.campaign.store` — a content-addressed on-disk result store
  (JSON blobs + an append-only JSONL manifest under ``results/campaigns/``),
  so finished work is never repeated and killed runs resume;
* :mod:`~repro.campaign.executor` — runs the tasks on
  :class:`repro.workers.WorkerPool` with per-task timeout, bounded retry
  and crash isolation;
* :mod:`~repro.campaign.metrics` / :mod:`~repro.campaign.report` —
  structured per-task metrics aggregated into tables and BENCH-style
  JSON.

Quick start::

    from repro.campaign import CampaignSpec, ResultStore, run_campaign

    spec = CampaignSpec.from_grid(
        "demo",
        "repro.sim.task:run_routing_task",
        {"topology": ["mesh2d", "hypermesh2d"], "n": [64, 256],
         "workload": ["dense-permutation"]},
        base={"seed": 99},
    )
    result = run_campaign(spec, ResultStore.for_campaign("demo"), workers=4)
    assert result.ok and result.summary.executed == 4
    # Run it again: everything is a cache hit, nothing re-executes.
    again = run_campaign(spec, ResultStore.for_campaign("demo"), workers=4)
    assert again.summary.cache_hits == 4
"""

from .builtins import BUILTIN_CAMPAIGNS, builtin_campaign, list_builtin_campaigns
from .executor import CampaignResult, resolve_entry, run_campaign
from .metrics import CampaignSummary, TaskRecord, summarize
from .report import campaign_report, format_status_table, write_report
from .spec import CampaignSpec, TaskSpec, canonical_json
from .store import ResultStore

__all__ = [
    "TaskSpec",
    "CampaignSpec",
    "canonical_json",
    "ResultStore",
    "run_campaign",
    "CampaignResult",
    "resolve_entry",
    "TaskRecord",
    "CampaignSummary",
    "summarize",
    "campaign_report",
    "format_status_table",
    "write_report",
    "BUILTIN_CAMPAIGNS",
    "builtin_campaign",
    "list_builtin_campaigns",
]
