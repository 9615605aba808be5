"""Per-core routing-engine scaling — the BENCH_engine.json recorder.

Both engine cores (``indexed`` and ``numpy``) route identical fixed-seed
workloads on meshes, hypercubes and hypermeshes, timed against the frozen
seed loop in :mod:`repro.sim._reference`.  Every cell is timed
``REPEATS`` times, whatever its size; a row records the median, the
interquartile range and the sample count, and the artifact records the
host it ran on.  Each emitted row carries ``equivalent:
true`` only after the row's schedule and :class:`RoutingStats` have been
checked bit-identical to the seed loop *and* the row's
:class:`CachedPlan` payload — the exact JSON body a plan-cache blob
stores, insertion order included — matches the reference's byte for
byte.  That is the cross-backend cache guarantee, re-proven at benchmark
scale on every run that records the artifact.

The module is importable (``import bench_engine_backends``) and doubles
as a script::

    python benchmarks/bench_engine_backends.py --sizes 256 1024

It deliberately defines no ``test_`` functions:
``bench_library_perf.py::test_perf_engine_scaling`` is the pytest entry
point and delegates here, so the sweep runs once per session.
"""

import json
import math
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

#: Same seeding convention as bench_library_perf / repro.sim.task: each
#: size derives its workload generator from ``WORKLOAD_SEED + n`` so the
#: benchmark routes the exact packets the campaign sweep routes.
WORKLOAD_SEED = 99

ENGINE_ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_engine.json"
ENGINE_SIZES = (256, 1024, 4096, 16384)
#: Timed runs per cell and side, at every size.
REPEATS = 5

#: Acceptance bars, enforced whenever the sweep includes N = 4096: the
#: indexed rebuild keeps its >= 5x, the SoA numpy core must clear >= 10x
#: over the seed loop on at least one (topology, workload) cell.
SPEEDUP_FLOORS = {"indexed": 5.0, "numpy": 10.0}

from repro.bounds import certify
from repro.networks import Hypercube, Hypermesh2D, Mesh2D
from repro.routing import Permutation
from repro.sim._reference import reference_route_core
from repro.sim.backends import ENGINE_BACKENDS, resolve_backend
from repro.sim.plancache import CachedPlan
from repro.sim.routers import router_for


def _engine_topologies(n: int):
    side = math.isqrt(n)
    return (
        ("mesh2d", Mesh2D(side)),
        ("hypercube", Hypercube(n.bit_length() - 1)),
        ("hypermesh2d", Hypermesh2D(side)),
    )


def _engine_workloads(n: int, seed: int):
    """Fixed-seed workloads: a dense permutation (every PE sends) and a
    sparse h-relation (2*sqrt(N) packets — where the seed loop's O(N)
    per-step rescan is pure overhead)."""
    rng = np.random.default_rng(seed)
    perm = Permutation.random(n, rng)
    dense = (list(range(n)), perm.destinations.tolist())
    k = 2 * math.isqrt(n)
    sparse = (
        rng.integers(0, n, size=k).tolist(),
        rng.integers(0, n, size=k).tolist(),
    )
    return (("dense-permutation", dense), ("sparse-hrelation", sparse))


def _plan_blob(steps, stats) -> str:
    """The canonical JSON body a plan-cache blob would store for this
    run.  Comparing these strings across backends checks not just dict
    equality but the serialized insertion order — what actually lands on
    disk."""
    return json.dumps(
        CachedPlan.from_run(steps, stats).to_payload(), sort_keys=True
    )


def _spread(samples: list[float]) -> tuple[float, float]:
    """(median, interquartile range) of one cell's timings, in seconds."""
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return statistics.median(samples), q3 - q1


def _host() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run_engine_benchmark(
    sizes=ENGINE_SIZES,
    out_path: Path = ENGINE_ARTIFACT,
    backends=None,
    require_speedups: bool = True,
) -> dict:
    """Time every core against the seed loop and record the artifact.

    Each (size, topology, workload) cell routes the same packets through
    the seed reference and through every core ``REPEATS`` times,
    interleaved so clock-frequency drift during the sweep cannot bias
    one side of a pair.  Rows carry the median of each side's samples,
    its interquartile range and the sample count.  Equivalence (schedule,
    stats, and serialized plan payload) is asserted per row before the
    row is emitted.
    """
    backends = list(backends if backends is not None else ENGINE_BACKENDS)
    cores = {name: resolve_backend(name) for name in backends}
    rows = []
    for n in sizes:
        for topo_name, topo in _engine_topologies(n):
            router = router_for(topo)
            for workload, (srcs, dsts) in _engine_workloads(
                n, seed=WORKLOAD_SEED + n
            ):
                max_steps = 16 * (10 * topo.diameter + 10 * n)
                seed_samples = []
                samples = {name: [] for name in backends}
                outputs = {}
                for _ in range(REPEATS):
                    t0 = time.perf_counter()
                    ref_steps, ref_stats = reference_route_core(
                        topo, srcs, dsts, router, max_steps
                    )
                    seed_samples.append(time.perf_counter() - t0)
                    for name in backends:
                        t0 = time.perf_counter()
                        outputs[name] = cores[name](
                            topo, srcs, dsts, router, max_steps
                        )
                        samples[name].append(time.perf_counter() - t0)
                seed_s, seed_iqr = _spread(seed_samples)
                ref_blob = _plan_blob(ref_steps, ref_stats)
                # One certificate per cell: every backend reports the same
                # (bit-identical) step count, so certify the reference once
                # and stamp each row.  A BoundViolation here is a failed
                # benchmark run, never a recorded row.
                cert = certify(
                    topo,
                    list(zip(srcs, dsts)),
                    ref_stats.steps,
                    label=f"{topo_name}/{workload}/n={n}",
                )
                for name in backends:
                    steps, stats = outputs[name]
                    assert steps == ref_steps and stats == ref_stats, (
                        f"{name} diverged from seed loop on "
                        f"{topo_name} n={n} {workload}"
                    )
                    assert _plan_blob(steps, stats) == ref_blob, (
                        f"{name} plan payload differs on "
                        f"{topo_name} n={n} {workload}"
                    )
                    engine_s, engine_iqr = _spread(samples[name])
                    rows.append(
                        {
                            "topology": topo_name,
                            "n": n,
                            "workload": workload,
                            "backend": name,
                            "packets": len(srcs),
                            "steps": stats.steps,
                            "total_hops": stats.total_hops,
                            "samples": REPEATS,
                            "engine_seconds": round(engine_s, 6),
                            "engine_iqr_seconds": round(engine_iqr, 6),
                            "seed_engine_seconds": round(seed_s, 6),
                            "seed_engine_iqr_seconds": round(seed_iqr, 6),
                            "speedup": round(seed_s / engine_s, 2),
                            "equivalent": True,
                            "bound": cert.bound,
                            "bound_ratio": round(cert.ratio, 2)
                            if cert.ratio is not None else None,
                            "bound_kind": cert.binding,
                            "certified": True,
                        }
                    )

    artifact = {
        "benchmark": "bench_engine_backends.py::run_engine_benchmark",
        "engines": {
            name: f"repro.sim core {name!r}" for name in backends
        },
        "baseline": "repro.sim._reference.reference_route_core (seed loop)",
        "equivalence": (
            "per row: schedule, RoutingStats and serialized CachedPlan "
            "payload bit-identical to the seed loop (equivalent: true)"
        ),
        "timing": (
            f"per side and cell: median of {REPEATS} interleaved runs, "
            "with their interquartile range"
        ),
        "host": _host(),
        "sizes": list(sizes),
        "backends": backends,
        "rows": rows,
    }
    if 4096 in sizes:
        best = {}
        for name in backends:
            cell = max(
                (r for r in rows if r["n"] == 4096 and r["backend"] == name),
                key=lambda r: r["speedup"],
            )
            best[name] = {
                "topology": cell["topology"],
                "workload": cell["workload"],
                "speedup": cell["speedup"],
            }
        artifact["best_speedup_at_4096"] = best
        if require_speedups:
            for name, floor in SPEEDUP_FLOORS.items():
                if name in best:
                    assert best[name]["speedup"] >= floor, (
                        f"backend {name!r} below its {floor}x floor at "
                        f"N=4096: best {best[name]}"
                    )
    if out_path is not None:
        out_path.write_text(json.dumps(artifact, indent=2) + "\n")
    return artifact


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="record BENCH_engine.json across engine cores"
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=list(ENGINE_SIZES),
        help="node counts to sweep (square powers of two)",
    )
    parser.add_argument(
        "--backends",
        nargs="+",
        default=None,
        help="cores to time (default: both)",
    )
    parser.add_argument("--output", type=Path, default=ENGINE_ARTIFACT)
    parser.add_argument(
        "--no-floors",
        action="store_true",
        help="record timings without enforcing the 4096 speedup floors "
        "(smoke runs on loaded CI hosts)",
    )
    args = parser.parse_args(argv)

    artifact = run_engine_benchmark(
        sizes=tuple(args.sizes),
        out_path=args.output,
        backends=args.backends,
        require_speedups=not args.no_floors,
    )
    print(f"wrote {args.output} ({len(artifact['rows'])} rows)")
    for name, cell in artifact.get("best_speedup_at_4096", {}).items():
        print(
            f"  {name}: best {cell['speedup']}x at N=4096 "
            f"({cell['topology']}, {cell['workload']})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
