"""Service-level load harness: warm vs cold vs coalesced serving latency.

Drives a *real* :class:`repro.service.ServiceRunner` — actual HTTP over
localhost, actual worker processes — with three loads through the
synchronous client:

* **cold** — distinct jobs (fresh seeds), every request pays validation +
  plan-key derivation + a worker-pool engine run;
* **warm** — the same jobs again, answered by the event loop from the
  plan-cache serving tier (no process hop);
* **coalesced** — N identical jobs fired concurrently from N threads;
  exactly one engine run happens (asserted against the service's
  ``computations`` counter), every other waiter piggybacks.

Client-observed latency per load is summarized as p50/p95/p99.  The
harness asserts zero failed requests, warm p50 < cold p50, and the
N-submits-one-run coalescing contract — the same gates CI's
``service-smoke`` job enforces on the small configuration.

Emits ``BENCH_service.json`` at the repo root.  Importable
(``import bench_service``) and runnable standalone::

    python benchmarks/bench_service.py                  # full load
    python benchmarks/bench_service.py --requests 8 --n 256   # CI smoke
"""

import json
import tempfile
import threading
import time
from pathlib import Path

SERVICE_ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_service.json"

#: Same seeding convention as the other benchmarks: deterministic jobs.
WORKLOAD_SEED = 99

#: Defaults: enough cold requests for stable percentiles, a routing job
#: heavy enough (~tens of ms) that warm-vs-cold separation is unambiguous.
DEFAULT_REQUESTS = 24
DEFAULT_N = 1024
DEFAULT_WAITERS = 6
COALESCE_N = 4096  # slower job so every waiter lands in the window


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of ``values`` (q in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(seconds) -> dict:
    return {
        "count": len(seconds),
        "p50_ms": round(percentile(seconds, 50) * 1e3, 3),
        "p95_ms": round(percentile(seconds, 95) * 1e3, 3),
        "p99_ms": round(percentile(seconds, 99) * 1e3, 3),
        "mean_ms": round(sum(seconds) / len(seconds) * 1e3, 3),
    }


def _job(n: int, seed: int) -> dict:
    return {
        "topology": "mesh2d",
        "n": n,
        "workload": "dense-permutation",
        "seed": seed,
    }


def run_service_benchmark(
    requests: int = DEFAULT_REQUESTS,
    n: int = DEFAULT_N,
    waiters: int = DEFAULT_WAITERS,
    coalesce_n: int = COALESCE_N,
    out_path: Path = SERVICE_ARTIFACT,
) -> dict:
    """Run the three loads against an in-process service; write the
    artifact and return it.  Raises ``AssertionError`` on any failed
    request, on warm p50 >= cold p50, or if coalescing costs more than
    one engine run."""
    from repro.service import ServiceRunner

    jobs = [_job(n, WORKLOAD_SEED + i) for i in range(requests)]

    with tempfile.TemporaryDirectory() as root:
        with ServiceRunner(plan_root=root, max_workers=2) as runner:
            client = runner.client()

            cold = [client.route(job) for job in jobs]
            warm = [client.route(job) for job in jobs]

            # Coalesced load: one barrier, N threads, one identical job.
            before = client.stats().body["service"]["computations"]
            barrier = threading.Barrier(waiters)
            responses = [None] * waiters
            shared = _job(coalesce_n, WORKLOAD_SEED - 1)

            def fire(i):
                barrier.wait()
                responses[i] = client.route(shared)

            threads = [
                threading.Thread(target=fire, args=(i,)) for i in range(waiters)
            ]
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            coalesce_wall = time.perf_counter() - t0
            computations = (
                client.stats().body["service"]["computations"] - before
            )
            stats_body = client.stats().body

    everything = cold + warm + list(responses)
    failures = [r for r in everything if r is None or not r.ok]
    assert not failures, f"{len(failures)} failed requests: {failures[:3]}"

    assert all(r.body["source"] == "cold" for r in cold)
    assert all(r.body["source"] == "warm" for r in warm)
    sources = sorted(r.body["source"] for r in responses)
    assert sources == ["coalesced"] * (waiters - 1) + ["cold"], sources
    assert computations == 1, (
        f"{waiters} identical submits cost {computations} engine runs"
    )
    assert len({r.body["digest"] for r in responses}) == 1

    loads = {
        "cold": summarize([r.elapsed for r in cold]),
        "warm": summarize([r.elapsed for r in warm]),
        "coalesced": summarize(
            [r.elapsed for r in responses if r.body["source"] == "coalesced"]
        ),
    }
    assert loads["warm"]["p50_ms"] < loads["cold"]["p50_ms"], (
        f"warm p50 {loads['warm']['p50_ms']}ms not below "
        f"cold p50 {loads['cold']['p50_ms']}ms"
    )

    artifact = {
        "benchmark": "bench_service.py::run_service_benchmark",
        "engine": "repro.service (asyncio HTTP over the plan-cache serving "
        "tier; kill-on-timeout worker pool for cold computations)",
        "baseline": "cold load (every request is a fresh engine run)",
        "job": {"topology": "mesh2d", "workload": "dense-permutation", "n": n},
        "coalesce_job_n": coalesce_n,
        "requests_per_load": requests,
        "loads": loads,
        "warm_speedup_p50": round(
            loads["cold"]["p50_ms"] / loads["warm"]["p50_ms"], 2
        ),
        "coalescing": {
            "waiters": waiters,
            "engine_runs": computations,
            "wall_seconds": round(coalesce_wall, 6),
        },
        "failures": 0,
        "service_counters": stats_body["service"],
        "pool_counters": stats_body["pool"],
        # Server-side latency per source, from the same /v1/stats call as
        # the counters, so each histogram's count matches its counter.
        "latency": stats_body["latency"],
    }
    out_path.write_text(json.dumps(artifact, indent=2) + "\n")
    return artifact


def test_perf_service():
    """Full-size run: regenerates BENCH_service.json and enforces the
    acceptance bars (zero failures; warm p50 < cold p50; N identical
    concurrent submits -> exactly 1 engine run)."""
    artifact = run_service_benchmark()

    from conftest import emit
    from repro.viz import format_table

    emit(
        "Service load: client-observed latency per serving path",
        format_table(
            ["load", "requests", "p50 ms", "p95 ms", "p99 ms", "mean ms"],
            [
                [
                    name,
                    row["count"],
                    f"{row['p50_ms']:.2f}",
                    f"{row['p95_ms']:.2f}",
                    f"{row['p99_ms']:.2f}",
                    f"{row['mean_ms']:.2f}",
                ]
                for name, row in artifact["loads"].items()
            ],
        ),
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="record BENCH_service.json (warm/cold/coalesced serving)"
    )
    parser.add_argument(
        "--requests", type=int, default=DEFAULT_REQUESTS,
        help="distinct jobs per load (cold and warm)",
    )
    parser.add_argument(
        "--n", type=int, default=DEFAULT_N,
        help="node count of the per-request routing job",
    )
    parser.add_argument(
        "--waiters", type=int, default=DEFAULT_WAITERS,
        help="concurrent identical submits in the coalesced load",
    )
    parser.add_argument(
        "--coalesce-n", type=int, default=COALESCE_N,
        help="node count of the shared coalesced job",
    )
    parser.add_argument("--output", type=Path, default=SERVICE_ARTIFACT)
    args = parser.parse_args(argv)

    artifact = run_service_benchmark(
        requests=args.requests,
        n=args.n,
        waiters=args.waiters,
        coalesce_n=args.coalesce_n,
        out_path=args.output,
    )
    print(f"wrote {args.output}")
    for name, row in artifact["loads"].items():
        print(
            f"  {name:10s} p50 {row['p50_ms']:8.2f} ms   "
            f"p95 {row['p95_ms']:8.2f} ms   p99 {row['p99_ms']:8.2f} ms"
        )
    print(
        f"  warm speedup (p50): {artifact['warm_speedup_p50']}x; "
        f"{artifact['coalescing']['waiters']} identical submits -> "
        f"{artifact['coalescing']['engine_runs']} engine run"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
