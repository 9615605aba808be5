"""Degraded-mode overhead: routing cost vs injected fault severity.

Sweeps the ``repro.faults`` fault grid over the engine — through **both
engine cores' degraded loops** — and records how the measured schedule
degrades as the machine does:

* **link-failure fractions** on the point-to-point topologies — steps and
  total hops vs the fraction of links sampled down (seeded, so every run
  fails the same links).  Cells whose sampled faults partition the demand
  set are recorded as ``unroutable`` rows, mapping the feasibility cliff;
* **degraded hypermesh nets** — serialized nets (one packet per step)
  against the fault-free one-partial-permutation baseline;
* **intermittent drops** — ``drop_prob`` with an unbounded retry budget:
  every packet still arrives, the retries are the overhead.

Every cell is routed under each backend with interleaved paired timing
(per repeat: indexed first, then each alternative — the same protocol as
``bench_engine_backends.py``), and each emitted row carries
``equivalent: true`` only after that backend's schedule (step dicts in
insertion order) and :class:`RoutingStats` were checked bit-identical to
the indexed degraded core, plus a ``speedup_vs_indexed`` column.  The
dedicated large-N cells (``SPEEDUP_SIZES``) are where the SoA core must
clear its ``SPEEDUP_FLOOR`` over the indexed degraded path.

Every faulted cell also re-checks the subsystem's contracts at benchmark
scale: routing the same faulted cell twice is bit-identical (determinism),
``delivered + dropped`` equals the packet count (conservation), per-cell
``total_hops`` never beats the fault-free baseline (path monotonicity —
*step* counts may legitimately beat it; see the Braess note in
docs/FAULTS.md), and a disabled model reproduces the baseline exactly.

Emits ``BENCH_faults.json`` at the repo root.  Importable
(``import bench_faults``) and runnable standalone::

    python benchmarks/bench_faults.py              # full sizes
    python benchmarks/bench_faults.py --sizes 64   # CI smoke
"""

import json
import math
import time
from pathlib import Path

#: Same seeding conventions as the other benchmarks: one workload seed for
#: the demands, one fault seed for the sampled link failures.
WORKLOAD_SEED = 99
FAULT_SEED = 99

from repro.bounds import certify
from repro.faults import FaultModel, UnroutableError
from repro.networks import Hypercube, Hypermesh2D, Mesh2D, Torus2D
from repro.sim import ENGINE_BACKENDS, route_demands

FAULTS_ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_faults.json"
FAULTS_SIZES = (64, 256)
LINK_FAIL_FRACTIONS = (0.0, 0.05, 0.1, 0.2)
DEGRADED_NET_COUNTS = (0, 1, 2)
DROP_PROBS = (0.0, 0.2, 0.4)

#: Dedicated large-N cells (mesh2d only — the severity grid stays small)
#: where the SoA degraded core must beat the indexed degraded path.
SPEEDUP_SIZES = (4096,)
SPEEDUP_FLOOR = 3.0
PAIRED_REPEATS = 3


def _point_to_point(n: int):
    side = math.isqrt(n)
    return (
        ("mesh2d", Mesh2D(side)),
        ("torus2d", Torus2D(side)),
        ("hypercube", Hypercube(n.bit_length() - 1)),
    )


def _reversal(n: int) -> list[tuple[int, int]]:
    return [(i, n - 1 - i) for i in range(n)]


def _timed_route(topology, demands, model, backend="indexed"):
    t0 = time.perf_counter()
    routed = route_demands(
        topology, demands,
        fault_model=model if model.enabled else None,
        backend=backend, cache=False,
    )
    return time.perf_counter() - t0, routed


def _comparable(routed):
    return [list(s.items()) for s in routed.steps], routed.stats


def _faulted_rows(
    topo_name, topology, n, axis, amount, model, baseline, backends,
    repeats=PAIRED_REPEATS,
):
    """One row per backend for this fault cell (or one unroutable row).

    Interleaved paired timing: every repeat routes the indexed reference
    first, then each alternative backend, so clock drift during the sweep
    cannot bias one side of a pair; per-backend seconds are the min over
    repeats.  Bit-identity to the indexed degraded core is asserted for
    every backend before its row is emitted with ``equivalent: true``.
    """
    demands = _reversal(n)
    try:
        _, routed = _timed_route(topology, demands, model)
    except UnroutableError as exc:
        # Every backend must refuse the partitioned cell identically.
        for backend in backends[1:]:
            try:
                _timed_route(topology, demands, model, backend)
            except UnroutableError as other:
                assert str(other) == str(exc), (
                    f"unroutable message differs under {backend}: "
                    f"{other} != {exc}"
                )
            else:  # pragma: no cover - contract violation
                raise AssertionError(
                    f"{backend} routed a cell the indexed core rejects"
                )
        return [{
            "topology": topo_name,
            "n": n,
            "axis": axis,
            "amount": amount,
            "unroutable": True,
            "error": str(exc),
        }]
    times = dict.fromkeys(backends, math.inf)
    outputs = {}
    for _ in range(repeats):
        for backend in backends:
            seconds, out = _timed_route(topology, demands, model, backend)
            times[backend] = min(times[backend], seconds)
            outputs[backend] = out
    # Determinism: the same faulted cell routes bit-identically twice
    # (the repeat loop above already re-routed the indexed reference).
    ref = _comparable(outputs["indexed"])
    assert _comparable(routed) == ref, (
        f"faulted routing not deterministic: {topo_name}/n={n}/{axis}={amount}"
    )
    stats = outputs["indexed"].stats
    # Conservation: every packet is accounted for, one way or the other.
    assert stats.delivered + stats.dropped == n, (
        f"conservation violated: {topo_name}/n={n}/{axis}={amount}"
    )
    # Path monotonicity: detours and retries never shorten total work.
    assert stats.total_hops >= baseline.stats.total_hops or stats.dropped, (
        f"faulted hops beat fault-free: {topo_name}/n={n}/{axis}={amount}"
    )
    # One certificate per cell (backends are bit-identical): the achieved
    # step count must clear the fault-aware, drop-discounted floor.  A
    # BoundViolation is a failed benchmark run, never a recorded row.
    cert = certify(
        topology,
        demands,
        stats.steps,
        fault_model=model if model.enabled else None,
        dropped=stats.dropped,
        label=f"{topo_name}/n={n}/{axis}={amount}",
    )
    rows = []
    for backend in backends:
        assert _comparable(outputs[backend]) == ref, (
            f"{backend} diverged from indexed degraded core: "
            f"{topo_name}/n={n}/{axis}={amount}"
        )
        rows.append({
            "topology": topo_name,
            "n": n,
            "axis": axis,
            "amount": amount,
            "backend": backend,
            "unroutable": False,
            "steps": stats.steps,
            "total_hops": stats.total_hops,
            "delivered": stats.delivered,
            "dropped": stats.dropped,
            "retried": stats.retried,
            "route_seconds": round(times[backend], 6),
            "speedup_vs_indexed": round(
                times["indexed"] / times[backend], 2
            ),
            "equivalent": True,
            "steps_vs_fault_free": round(
                stats.steps / baseline.stats.steps, 2
            ),
            "hops_vs_fault_free": round(
                stats.total_hops / baseline.stats.total_hops, 2
            ),
            "bound": cert.bound,
            "bound_ratio": round(cert.ratio, 2)
            if cert.ratio is not None else None,
            "bound_kind": cert.binding,
            "certified": True,
        })
    return rows


def run_faults_benchmark(
    sizes=FAULTS_SIZES,
    out_path: Path = FAULTS_ARTIFACT,
    speedup_sizes=SPEEDUP_SIZES,
    require_speedups: bool = True,
) -> dict:
    """Sweep the fault grid across degraded backends, assert the
    determinism/conservation/monotone/equivalence contracts on every row,
    write the artifact and return it."""
    # Indexed first: it is the reference side of every timing pair.
    backends = list(ENGINE_BACKENDS)
    rows = []
    for n in sizes:
        for topo_name, topology in _point_to_point(n):
            demands = _reversal(n)
            baseline = route_demands(topology, demands, cache=False)
            # The no-op contract, re-checked at benchmark scale.
            disabled = route_demands(
                topology, demands, fault_model=FaultModel(seed=FAULT_SEED),
                cache=False,
            )
            assert disabled.steps == baseline.steps
            assert disabled.stats == baseline.stats
            for fraction in LINK_FAIL_FRACTIONS:
                model = FaultModel(
                    seed=FAULT_SEED, link_fail_fraction=fraction
                )
                rows.extend(_faulted_rows(
                    topo_name, topology, n,
                    "link_fail_fraction", fraction, model, baseline, backends,
                ))
            for drop_prob in DROP_PROBS[1:]:
                model = FaultModel(seed=FAULT_SEED, drop_prob=drop_prob)
                rows.extend(_faulted_rows(
                    topo_name, topology, n,
                    "drop_prob", drop_prob, model, baseline, backends,
                ))

        side = math.isqrt(n)
        hm = Hypermesh2D(side)
        demands = _reversal(n)
        baseline = route_demands(hm, demands, cache=False)
        for count in DEGRADED_NET_COUNTS:
            model = FaultModel(
                seed=FAULT_SEED, degraded_nets=frozenset(range(count))
            )
            rows.extend(_faulted_rows(
                "hypermesh2d", hm, n,
                "degraded_nets", count, model, baseline, backends,
            ))

    # Large-N speedup cells: where the SoA degraded core must actually
    # pay for itself against the indexed degraded path.
    speedup_rows = []
    for n in speedup_sizes:
        topology = Mesh2D(math.isqrt(n))
        demands = _reversal(n)
        baseline = route_demands(topology, demands, cache=False)
        for axis, amount, model in (
            ("link_fail_fraction", 0.05,
             FaultModel(seed=FAULT_SEED, link_fail_fraction=0.05)),
            ("drop_prob", 0.2, FaultModel(seed=FAULT_SEED, drop_prob=0.2)),
        ):
            speedup_rows.extend(_faulted_rows(
                "mesh2d", topology, n, axis, amount, model, baseline,
                backends,
            ))
    rows.extend(speedup_rows)

    routable = [r for r in rows if not r["unroutable"]]
    assert all(r["equivalent"] for r in routable), (
        "an emitted routable row escaped the equivalence assertion"
    )
    artifact = {
        "benchmark": "bench_faults.py::run_faults_benchmark",
        "engine": "repro.faults (FaultModel + FaultAwareRouter) through "
        "route_demands",
        "baseline": "the same demands routed fault-free",
        "equivalence": "per row: schedule (step dicts in insertion order) "
        "and RoutingStats bit-identical to the indexed degraded core "
        "(equivalent: true); every faulted cell routed twice "
        "bit-identically; delivered + dropped == packets on every cell; "
        "disabled models reproduce the fault-free baseline exactly",
        "timing": "interleaved paired repeats (indexed first each repeat), "
        f"min over {PAIRED_REPEATS}; speedup_vs_indexed = indexed seconds "
        "/ backend seconds on the identical cell",
        "workload": "end-to-end reversal h-relation",
        "sizes": list(sizes),
        "speedup_sizes": list(speedup_sizes),
        "backends": backends,
        "rows": rows,
        "unroutable_cells": sum(r["unroutable"] for r in rows),
        "worst_steps_overhead": max(
            r["steps_vs_fault_free"] for r in routable
        ),
        "worst_hops_overhead": max(
            r["hops_vs_fault_free"] for r in routable
        ),
    }
    if speedup_sizes and "numpy" in backends:
        best = {}
        for backend in backends:
            cells = [
                r for r in speedup_rows
                if not r["unroutable"] and r["backend"] == backend
            ]
            if cells:
                top = max(cells, key=lambda r: r["speedup_vs_indexed"])
                best[backend] = {
                    "n": top["n"],
                    "axis": top["axis"],
                    "amount": top["amount"],
                    "speedup_vs_indexed": top["speedup_vs_indexed"],
                }
        artifact["best_degraded_speedup"] = best
        if require_speedups:
            got = best["numpy"]["speedup_vs_indexed"]
            assert got >= SPEEDUP_FLOOR, (
                f"numpy degraded core below its {SPEEDUP_FLOOR}x floor "
                f"over the indexed degraded path: best {got}x"
            )
    out_path.write_text(json.dumps(artifact, indent=2) + "\n")
    return artifact


def test_perf_faults():
    """Full-size run: regenerates BENCH_faults.json with the determinism,
    conservation, monotonicity and backend-equivalence contracts asserted
    on every row."""
    artifact = run_faults_benchmark()

    from conftest import emit
    from repro.viz import format_table

    emit(
        "Degraded-mode overhead: steps / hops vs injected fault severity",
        format_table(
            ["topology", "N", "axis", "amount", "backend", "steps",
             "dropped", "retried", "steps x", "hops x", "vs indexed"],
            [
                [
                    r["topology"],
                    r["n"],
                    r["axis"],
                    r["amount"],
                    r.get("backend", "-"),
                    "unroutable" if r["unroutable"] else r["steps"],
                    "-" if r["unroutable"] else r["dropped"],
                    "-" if r["unroutable"] else r["retried"],
                    "-" if r["unroutable"]
                    else f"{r['steps_vs_fault_free']:.2f}x",
                    "-" if r["unroutable"]
                    else f"{r['hops_vs_fault_free']:.2f}x",
                    "-" if r["unroutable"]
                    else f"{r['speedup_vs_indexed']:.2f}x",
                ]
                for r in artifact["rows"]
            ],
        ),
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="record BENCH_faults.json (degraded-mode overhead sweep)"
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=list(FAULTS_SIZES),
        help="node counts to sweep (use a single small N for CI smoke)",
    )
    parser.add_argument(
        "--speedup-sizes",
        type=int,
        nargs="*",
        default=list(SPEEDUP_SIZES),
        help="large node counts for the indexed-vs-numpy speedup cells "
        "(pass none to skip them)",
    )
    parser.add_argument(
        "--no-floors",
        action="store_true",
        help="record timings without enforcing the degraded speedup floor "
        "(smoke runs on loaded CI hosts)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=FAULTS_ARTIFACT,
        help="artifact path (default: repo-root BENCH_faults.json)",
    )
    args = parser.parse_args(argv)
    artifact = run_faults_benchmark(
        tuple(args.sizes), args.output,
        speedup_sizes=tuple(args.speedup_sizes),
        require_speedups=not args.no_floors,
    )
    routable = [r for r in artifact["rows"] if not r["unroutable"]]
    print(
        f"wrote {args.output}: {len(artifact['rows'])} rows "
        f"({artifact['unroutable_cells']} unroutable), worst overhead "
        f"{artifact['worst_steps_overhead']:.2f}x steps / "
        f"{artifact['worst_hops_overhead']:.2f}x hops over "
        f"{len(routable)} routable cells"
    )
    for name, cell in artifact.get("best_degraded_speedup", {}).items():
        print(
            f"  {name}: best {cell['speedup_vs_indexed']}x vs indexed at "
            f"N={cell['n']} ({cell['axis']}={cell['amount']})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
