#!/usr/bin/env python
"""Perf gate: does a change make perfbench's end-to-end metrics worse?

Usage (from a checkout where both commits exist)::

    python tools/perf_gate.py PARENT_REF CHANGE_REF

Both refs are checked out into temporary git worktrees.  For every
workload that ``BENCHMARK.json`` declares, ``perfbench/run.py`` runs in
:data:`PAIRS` parent/change pairs of :data:`SECONDS` seconds each, one
seed per pair, alternating which side runs first, so a host that speeds
up or slows down during the job biases neither side.  A metric of a
workload fails when, in most pairs, the change is worse than the parent
by more than :data:`K` times the interquartile range of the parent's
runs; which direction is worse is the metric's ``better`` in
``BENCHMARK.json``.  A change run that reports a wrong output fails the
gate as well.

A fixed bound cannot be the gate: on a shared host the same commit's
metrics drift about twofold over half an hour (perfbench/README.md),
while the spread of the parent's own interleaved runs moves with the
host.

Exit code 0 when nothing fails, 1 when something does, 2 when the gate
cannot run (a ref that does not resolve, a run that prints no result).
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
#: Parent/change pairs per workload.
PAIRS = 10
#: Length of every perfbench run, the same on both sides.
SECONDS = 10
#: A pair counts against the change when it is worse than the parent by
#: more than K interquartile ranges of the parent's runs.  For normally
#: distributed runs of an unchanged metric, K = 2 over 10 pairs flags it
#: with a probability of about 0.2 % (simulated), and flags a shift of
#: three standard deviations with one of about 70 %.
K = 2.0


class GateError(Exception):
    """The gate cannot reach a verdict."""


def load_spec(checkout: Path) -> tuple[list[str], dict[str, str]]:
    """Workload names and ``{metric: better}`` of the end-to-end metrics."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m["better"] for m in spec["end_to_end"]})


def run_perfbench(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced perfbench run: its result object (``correct``,
    ``failed``, ``metrics``), exit code 0 or 1."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise GateError(f"{checkout.name} {workload} seed {seed}: exit "
                        f"{proc.returncode}\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def worse_pairs(parent: list[float], change: list[float], better: str
                ) -> int:
    """Pairs in which the change is worse by more than K parent IQRs."""
    margin = K * iqr(parent)
    sign = 1 if better == "lower" else -1
    return sum(sign * (c - p) > margin for p, c in zip(parent, change))


def judge(runs: dict[str, list[dict]], metrics: dict[str, str]
          ) -> list[str]:
    """Failure lines for one workload's ``{"parent": [...], "change":
    [...]}`` results, one entry per pair in pair order."""
    failures = [
        f"change run {i + 1} reported a wrong output "
        f"({result['failed']} failed operations)"
        for i, result in enumerate(runs["change"]) if not result["correct"]
    ]
    for name, better in metrics.items():
        parent, change = ([r["metrics"][name]["value"] for r in runs[side]]
                          for side in ("parent", "change"))
        worse = worse_pairs(parent, change, better)
        print(f"  {name:16s} parent median {statistics.median(parent):10.4g}"
              f" IQR {iqr(parent):9.3g}   change median "
              f"{statistics.median(change):10.4g}   worse in {worse}/"
              f"{len(parent)} pairs")
        if 2 * worse > len(parent):
            failures.append(f"{name} ({better} is better) worse by more "
                            f"than {K:g} x IQR in {worse} of {len(parent)} "
                            "pairs")
    return failures


def _worktree(ref: str, path: Path) -> Path:
    subprocess.run(["git", "worktree", "add", "--detach", str(path), ref],
                   cwd=REPO, check=True, capture_output=True, text=True)
    return path


def gate(parent_ref: str, change_ref: str) -> int:
    workloads, metrics = load_spec(REPO)
    failed = False
    with tempfile.TemporaryDirectory(prefix="perf-gate-") as tmp:
        sides = {}
        try:
            for side, ref in (("parent", parent_ref), ("change", change_ref)):
                sides[side] = _worktree(ref, Path(tmp) / side)
            for workload in workloads:
                runs = {"parent": [], "change": []}
                for pair in range(PAIRS):
                    order = ("parent", "change") if pair % 2 == 0 else (
                        "change", "parent")
                    for side in order:
                        runs[side].append(
                            run_perfbench(sides[side], workload, pair + 1))
                print(f"{workload}:")
                for line in judge(runs, metrics):
                    print(f"  FAIL {line}")
                    failed = True
        finally:
            for path in sides.values():
                subprocess.run(["git", "worktree", "remove", "--force",
                                str(path)], cwd=REPO, capture_output=True)
    print("perf gate: " + ("FAILED" if failed else "ok"))
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/perf_gate.py PARENT_REF CHANGE_REF",
              file=sys.stderr)
        return 2
    try:
        return gate(*args)
    except (GateError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None) or ""
        print(f"error: {exc}\n{detail}".rstrip(), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
