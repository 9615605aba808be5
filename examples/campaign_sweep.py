"""Walkthrough: running a simulator sweep as a resumable campaign.

The paper's results are sweeps over (topology x machine size x workload).
``repro.campaign`` runs such grids as first-class jobs: parallel workers,
content-addressed caching (re-runs skip finished work), and failure
isolation (a crashing task is recorded, its siblings complete).

Run with::

    PYTHONPATH=src python examples/campaign_sweep.py
"""

from pathlib import Path
from tempfile import TemporaryDirectory

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    TaskSpec,
    campaign_report,
    format_status_table,
    run_campaign,
)


def main() -> None:
    # 1. Declare the grid: 2 topologies x 2 sizes x 2 workloads = 8 tasks.
    #    Every task is one call of repro.sim.task:run_routing_task — a
    #    picklable entry point taking a JSON dict and returning flat metrics.
    #    The workload seed is part of each task's content hash, so cache
    #    hits are only claimed for genuinely identical work.
    spec = CampaignSpec.from_grid(
        "example-sweep",
        "repro.sim.task:run_routing_task",
        {
            "topology": ["mesh2d", "hypermesh2d"],
            "n": [64, 256],
            "workload": ["dense-permutation", "bit-reversal"],
        },
        base={"seed": 99, "arbitration": "overtaking"},
    )
    print(f"campaign {spec.name}: {len(spec)} tasks, hash {spec.spec_hash}")

    with TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / spec.name)

        # 2. Execute with 2 worker processes.  Results land in the store as
        #    they complete: tasks/<hash>.json blobs + manifest.jsonl lines.
        result = run_campaign(spec, store, workers=2)
        print(format_status_table(result.records))
        print(
            f"pass 1: {result.summary.executed} executed, "
            f"{result.summary.cache_hits} cache hits\n"
        )

        # 3. Run the same spec again: 100% cache hits, nothing re-executes.
        #    Killing a run mid-flight behaves the same way — completed tasks
        #    are durable, so a re-run resumes from where it stopped.
        again = run_campaign(spec, store, workers=2)
        print(
            f"pass 2: {again.summary.executed} executed, "
            f"{again.summary.cache_hits} cache hits (resume semantics)\n"
        )

        # 4. Failures are data, not crashes.  Add a task that raises: it is
        #    recorded as failed (with traceback) while siblings still run.
        flaky = CampaignSpec(
            "example-flaky",
            spec.tasks[:2]
            + (
                TaskSpec(
                    "repro.campaign.testing:failing_task",
                    {"message": "injected failure"},
                ),
            ),
        )
        mixed = run_campaign(
            flaky, ResultStore(Path(tmp) / flaky.name), workers=2, retries=1
        )
        for record in mixed.records:
            kind = f" ({record.failure_kind})" if record.failure_kind else ""
            print(f"  {record.label}: {record.status}{kind}")
        print()

        # 5. Aggregate into a BENCH-style JSON report.
        report = campaign_report(spec, result.records)
        best = max(report["rows"], key=lambda r: r["payload"]["steps"])
        print(
            f"report: {report['benchmark']}, slowest cell "
            f"{best['task']} at {best['payload']['steps']} steps"
        )

    # The CLI drives the same machinery against results/campaigns/:
    #   repro campaign run engine-sweep --workers 4
    #   repro campaign status engine-sweep
    #   repro campaign report engine-sweep --output engine-sweep-report.json


if __name__ == "__main__":
    main()
