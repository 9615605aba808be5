"""paper-full: ``run_paper(profile="full")`` on an empty store, then warm.

Each cold pass runs the whole reproduction pipeline in-process in a fresh
working directory (the routed-steps tasks write their plan cache under
``results/plans`` relative to it), on an empty campaign store, followed by
the golden check against ``results/paper/golden/full``.  Warm passes rerun
the pipeline on the same store, so every campaign task is a store hit.

The request whose latency and throughput this workload reports is one
warm pass (``repro paper`` on a warm store), so ``latency_p50_ms`` is the
median warm pass.  Per-task gaps of a cold pass are not used: the 34 tasks
take from 0.1 ms to 0.9 s, and the median falls in a gap between them.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import time
from pathlib import Path

import spans as tracing
from common import (
    GOLDEN_FULL,
    ROOT,
    WORK,
    Outcome,
    compile_program,
    fresh_dir,
    median,
    peak_rss_mb,
    quantile,
    write_trace,
)

HERE = Path(__file__).resolve().parent

#: Steps and hops of every routed paper cell, pinned for every run.
EXPECTED_ROUTED = {
    label: tuple(counts) for label, counts in
    json.loads((HERE / "expected.json").read_text())["paper-routed"].items()
}
#: Set-ups of each cold pass's directory; the reported set-up time is the
#: median over all of them.  One takes ~4 ms, half of it file-system work
#: that varies from call to call, so a steady median needs many, and doing
#: them before every cold pass spreads them over the run as the passes are.
SETUPS_PER_PASS = 25
#: Seconds of warm passes after each cold pass.  Warm passes (~25 ms, JSON
#: work in this process) follow the host's speed more than the ~5.5 s cold
#: passes do, so they get over a third of the run's time.
WARM_BLOCK_S = 3.0
#: Warm passes of each kind (untraced, traced) in the traced run.
TRACED_WARM = 25


def _prepare(dest: Path) -> float:
    """Set up one pass directory; returns the seconds it took.

    This is the workload's own preparation, done in the benchmark process
    that runs the passes: expand the full-profile campaign, create the
    empty campaign store, and copy in the committed ``BENCH_*.json``
    trajectory files that the bench-trajectories section charts from its
    working directory.
    """
    from repro.campaign import ResultStore
    from repro.paper import PROFILES, paper_campaign

    t0 = time.perf_counter()
    spec = paper_campaign(PROFILES["full"], None)
    fresh_dir(dest)
    ResultStore.for_campaign(spec.name, dest / "results" / "campaigns")
    for bench in sorted(ROOT.glob("BENCH_*.json")):
        shutil.copyfile(bench, dest / bench.name)
    return time.perf_counter() - t0


def _warm_up() -> None:
    """Untimed: compile bytecode, import the pipeline, warm the page cache."""
    compile_program()
    _prepare(WORK / "warm-up")
    shutil.rmtree(WORK / "warm-up")


def _routed_counts(records) -> dict[str, tuple]:
    """Steps and hops of every routed campaign cell, by task label."""
    return {
        r.label: (r.payload.get("steps"), r.payload.get("total_hops"))
        for r in records
        if isinstance(r.payload, dict) and "total_hops" in r.payload
    }


class PaperPasses:
    """Runs and checks paper passes inside one pass directory."""

    def __init__(self, outcome: Outcome):
        from repro.paper import check_goldens, run_paper

        self._run_paper = run_paper
        self._check_goldens = check_goldens
        self.outcome = outcome
        self.last_campaign = None

    def run(self, pass_dir: Path, *, cold: bool) -> float:
        """One pass (pipeline + golden check); returns its wall seconds."""
        kind = "cold" if cold else "warm"
        os.chdir(pass_dir)
        try:
            t0 = time.perf_counter()
            result = self._run_paper(profile="full", workers=1)
            report = self._check_goldens(
                result.artifacts, "results/paper", "full",
                golden_dir=GOLDEN_FULL,
            )
            elapsed = time.perf_counter() - t0
        finally:
            os.chdir(ROOT)
        self.outcome.attempted += 1
        self.last_campaign = result.campaign
        self._check(result, report, kind)
        return elapsed

    def _check(self, result, report, kind: str) -> None:
        summary = result.campaign.summary
        wrong = []
        if not result.ok:
            wrong.append(f"failed sections {sorted(result.failed_sections)}")
        if summary.failed:
            wrong.append(f"failed tasks {summary.failures}")
        if not report.ok or report.checked == 0:
            wrong.append(report.format().splitlines()[-1])
            wrong.extend(report.format().splitlines()[:3])
        hits = summary.cache_hits if kind == "warm" else summary.executed
        if hits != summary.total:
            wrong.append(f"{kind} pass served {summary.cache_hits} of "
                         f"{summary.total} tasks from the store")
        routed = _routed_counts(result.campaign.records)
        if routed != EXPECTED_ROUTED:
            wrong.append(f"routed steps/hops {routed} != expected.json "
                         f"{EXPECTED_ROUTED}")
        if wrong:
            self.outcome.op_failed(f"{kind} paper pass: " + "; ".join(wrong))


def _pass_dir(index: int) -> Path:
    return WORK / f"pass-{index}"


def run(seed: int, seconds: float) -> Outcome:
    outcome = Outcome()
    _warm_up()
    passes = PaperPasses(outcome)

    setup_times: list[float] = []
    cold_times: list[float] = []
    warm_times: list[float] = []
    t_start = time.perf_counter()
    while not cold_times or time.perf_counter() - t_start < seconds:
        pass_dir = _pass_dir(len(cold_times))
        setup_times += [_prepare(pass_dir) for _ in range(SETUPS_PER_PASS)]
        cold_times.append(passes.run(pass_dir, cold=True))
        block_end = time.perf_counter() + WARM_BLOCK_S
        while time.perf_counter() < block_end:
            warm_times.append(passes.run(pass_dir, cold=False))

    outcome.metrics = {
        "cold_pass_s": median(cold_times),
        "warm_pass_ms": median(warm_times) * 1e3,
        "latency_p50_ms": quantile(warm_times, 50) * 1e3,
        "latency_p90_ms": quantile(warm_times, 90) * 1e3,
        "throughput_rps": len(warm_times) / sum(warm_times),
        "setup_s": median(setup_times),
        "peak_rss_mb": max(peak_rss_mb(resource.RUSAGE_SELF),
                           peak_rss_mb(resource.RUSAGE_CHILDREN)),
    }
    return outcome


def run_traced(seed: int, seconds: float) -> Outcome:
    """Per-layer breakdown: untraced cold pass, traced cold pass, warm
    passes alternating untraced and traced, then in-process tasks.

    The campaign executes its tasks in a forked worker, whose spans are
    lost, so the task layers (bounds, algos, fft, engine, ...) come from
    running the same campaign tasks once more in-process.  The tracing
    overhead compares the medians of the untraced and traced warm passes.
    """
    from repro.campaign.executor import resolve_entry
    from repro.paper import PROFILES, paper_campaign

    outcome = Outcome()
    rec = tracing.Recorder()
    tracing.install(rec)
    _warm_up()
    passes = PaperPasses(outcome)
    untraced_dir, traced_dir, feed_dir = (_pass_dir(i) for i in range(3))

    _prepare(untraced_dir)
    passes.run(untraced_dir, cold=True)
    summary = passes.last_campaign.summary
    campaign_overhead_ms = (summary.wall_seconds - summary.task_seconds) * 1e3

    _prepare(traced_dir)
    rec.enabled = True
    with rec.span("op", rid="cold-pass"):
        passes.run(traced_dir, cold=True)
    rec.enabled = False
    untraced_warm, traced_warm = [], []
    for i in range(TRACED_WARM):
        untraced_warm.append(passes.run(traced_dir, cold=False))
        rec.enabled = True
        with rec.span("op", rid=f"warm-pass-{i}"):
            traced_warm.append(passes.run(traced_dir, cold=False))
        rec.enabled = False

    _prepare(feed_dir)
    spec = paper_campaign(PROFILES["full"], None)
    os.chdir(feed_dir)
    try:
        for task in spec.tasks:
            fn = resolve_entry(task.entry)
            rec.enabled = True
            try:
                with rec.span("op", rid=task.label):
                    payload = fn(dict(task.params))
            finally:
                rec.enabled = False
            outcome.attempted += 1
            if task.label in EXPECTED_ROUTED and (
                (payload.get("steps"), payload.get("total_hops"))
                != EXPECTED_ROUTED[task.label]
            ):
                outcome.op_failed(f"in-process {task.label}: steps/hops differ "
                                  "from expected.json")
    finally:
        os.chdir(ROOT)

    ops, wall_ns, unattributed_ns = tracing.op_unattributed(rec.spans)
    outcome.metrics = tracing.layer_metrics(
        rec.spans, rec.counts, op_wall_ns=wall_ns, ops=ops,
        unattributed_ns=unattributed_ns,
        extras={
            "campaign.overhead_ms": campaign_overhead_ms,
            "trace.overhead_pct":
                (median(traced_warm) / median(untraced_warm) - 1) * 100,
        },
    )
    write_trace("paper-full", seed, tracing.to_json(rec.spans, rec.counts))
    return outcome
