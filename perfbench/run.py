"""The repository's benchmark: one command, every metric, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-full --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``paper-full``  the reproduction pipeline, cold store then warm store;
* ``route-warm``  closed-loop ``POST /v1/route`` replaying a primed warm set;
* ``route-cold``  closed-loop ``POST /v1/route``, every request a new plan.

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
is a separate run that wraps the program's layer functions and reports the
per-layer metrics instead.  The last line of standard output is the result
object; the run exits 1 when an output was wrong and 2 when the benchmark
could not run at all (no program in the checkout, a server that never came
up), printing no result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys


from common import ROOT, WORK, BenchError, fresh_dir, require_program

WORKLOADS = ("paper-full", "route-warm", "route-cold")


def _runner(workload: str, trace: bool):
    import paper_full
    import route

    return {
        ("paper-full", False): paper_full.run,
        ("paper-full", True): paper_full.run_traced,
        ("route-warm", False): route.run_warm,
        ("route-warm", True): route.run_warm_traced,
        ("route-cold", False): route.run_cold,
        ("route-cold", True): route.run_cold_traced,
    }[workload, trace]


def _declared(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        require_program()
        declared = _declared(bool(args.trace))
        fresh_dir(WORK)
        try:
            outcome = _runner(args.workload, bool(args.trace))(
                args.seed, args.seconds)
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if set(outcome.metrics) != set(declared):
        print("error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(outcome.metrics) ^ set(declared))}",
              file=sys.stderr)
        return 2
    for message in outcome.problems:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in declared.items()
        },
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
