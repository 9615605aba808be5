"""Command-line interface: regenerate every table and figure of the paper.

Usage (installed as ``repro``, or ``python -m repro``)::

    repro paper             # every paper artifact into results/paper/full/
    repro paper --check     # ... and diff tables against checked-in goldens
    repro tables            # Tables 1A, 1B, 2A, 2B at N=4096
    repro section4          # the 4K-PE worked comparison (eqs 2-4, IV-B)
    repro experiment E5     # one experiment's section, golden-checked
    repro fft --side 8      # run a verified parallel FFT on all networks
    repro sort --side 4     # run a verified parallel bitonic sort
    repro campaign run engine-sweep --workers 4   # parallel resumable sweep
    repro campaign status engine-sweep            # done / failed / pending
    repro campaign report engine-sweep            # BENCH-style JSON report
    repro trace all --n 64 --summary              # JSONL observability traces
    repro profile engine-hypermesh                # cProfile top-N as JSON

The paper verbs (``tables``, ``section4``, ``bisection``, ``sweep``,
``figures``, ``omega``, ``universality``, ``shapes``) and ``experiment``
are aliases of ``repro paper --sections ...`` at the full profile that
print what they regenerate instead of writing it (:data:`PAPER_VERBS`).

Subcommands return a nonzero exit code when what they ran failed (a
drifting golden cell, a campaign task that fails), so the CLI composes
with CI and shell scripts.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .viz.series import format_table

__all__ = ["main"]

#: Each paper verb is ``repro paper --sections <these>`` at the full
#: profile (whose sizes are the verbs' historical defaults), printing every
#: regenerated table and figure instead of writing them under
#: ``results/paper/full/``: (sections, help).
PAPER_VERBS: dict[str, tuple[tuple[str, ...], str]] = {
    "tables": (("table-1a", "table-1b", "table-2a", "table-2b"),
               "Tables 1A/1B/2A/2B"),
    "section4": (("section-4",), "the 4K-PE worked comparison"),
    "bisection": (("section-5",), "Section V bisection bandwidths"),
    "sweep": (("sweep",), "speedup vs machine size"),
    "figures": (("figures",), "ASCII Figs 1-3"),
    "omega": (("omega",), "Omega network vs hypermesh (Section I)"),
    "universality": (("universality",),
                     "simulation slowdowns (Section I; [15] vs [13])"),
    "shapes": (("shapes",), "compare the 8^4 / 16^3 / 64^2 hypermesh shapes"),
}


def _cmd_fft(args: argparse.Namespace) -> None:
    from .fft.parallel import parallel_fft
    from .networks import Hypercube, Hypermesh2D, Mesh2D
    from .networks.addressing import ilog2

    side = args.side
    n = side * side
    rng = np.random.default_rng(args.seed)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    expected = np.fft.fft(x)
    print(f"== {n}-point parallel FFT, one sample per PE ==")
    for topo in (Mesh2D(side), Hypercube(ilog2(n)), Hypermesh2D(side)):
        result = parallel_fft(topo, x, validate=True)
        ok = np.allclose(result.spectrum, expected)
        print(
            f"{type(topo).__name__:12s}: numpy-agreement={ok}  "
            f"transfer steps={result.data_transfer_steps}  "
            f"compute steps={result.computation_steps}"
        )


def _cmd_sort(args: argparse.Namespace) -> None:
    from .networks import Hypercube, Hypermesh2D, Mesh2D
    from .networks.addressing import ilog2
    from .sort.bitonic import parallel_bitonic_sort

    side = args.side
    n = side * side
    rng = np.random.default_rng(args.seed)
    keys = rng.normal(size=n)
    print(f"== {n}-key parallel bitonic sort, one key per PE ==")
    for topo in (Mesh2D(side), Hypercube(ilog2(n)), Hypermesh2D(side)):
        result = parallel_bitonic_sort(topo, keys, validate=True)
        ok = bool(np.all(np.diff(result.keys) >= 0))
        print(
            f"{type(topo).__name__:12s}: sorted={ok}  "
            f"transfer steps={result.data_transfer_steps}  "
            f"passes={result.computation_steps}"
        )


def _cmd_experiment(args: argparse.Namespace) -> int:
    """Regenerate and golden-check the section(s) of one EXPERIMENTS.md id."""
    from .paper.sections import PAPER_SECTIONS, SECTIONLESS_EXPERIMENTS

    eid = args.experiment_id.upper()
    if eid != "ALL":
        args.sections = [
            spec.section for spec in PAPER_SECTIONS.values()
            if eid in spec.experiments
        ]
        if not args.sections:
            if eid in SECTIONLESS_EXPERIMENTS:
                print(
                    f"error: {eid} has no paper section; its checks are "
                    "tier-1 tests, mapped in docs/REPRODUCING.md",
                    file=sys.stderr,
                )
            else:
                print(f"error: unknown experiment {args.experiment_id!r}",
                      file=sys.stderr)
            return 2
    return _cmd_paper(args)


def _load_campaign_spec(ref: str):
    """Resolve a campaign reference: a built-in name or a spec-JSON path."""
    from pathlib import Path

    from .campaign import CampaignSpec, builtin_campaign

    if ref.endswith(".json") or Path(ref).exists():
        return CampaignSpec.load(ref)
    return builtin_campaign(ref)


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from .campaign import ResultStore, format_status_table, run_campaign

    try:
        spec = _load_campaign_spec(args.spec)
    except (KeyError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    store = ResultStore.for_campaign(spec.name, args.store)

    def progress(record) -> None:
        source = "cache" if record.cache_hit else f"worker {record.worker_id}"
        print(f"  [{record.status:>6s}] {record.label}  ({source})")

    print(
        f"== campaign {spec.name}: {len(spec)} tasks, "
        f"{args.workers} worker(s), store {store.root} =="
    )
    result = run_campaign(
        spec,
        store,
        workers=args.workers,
        task_timeout=args.timeout,
        retries=args.retries,
        reuse=not args.force,
        progress=progress,
    )
    s = result.summary
    print(format_status_table(result.records))
    print(
        f"{s.ok}/{s.total} ok, {s.failed} failed, {s.cache_hits} cache hits, "
        f"{s.executed} executed in {s.wall_seconds:.2f}s "
        f"(task time {s.task_seconds:.2f}s)"
    )
    if not result.ok:
        for record in result.records:
            if not record.ok:
                print(f"-- {record.label} [{record.failure_kind}] --", file=sys.stderr)
                print(record.traceback, file=sys.stderr)
        return 1
    return 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from .campaign import ResultStore

    store = ResultStore.for_campaign(args.name, args.store)
    spec = store.read_spec()
    if spec is None:
        print(f"error: no campaign named {args.name!r} under {args.store}",
              file=sys.stderr)
        return 2
    records = {r.task_hash: r for r in store.records()}
    ok = sum(1 for r in records.values() if r.ok)
    failed = sum(1 for r in records.values() if not r.ok)
    pending = [t for t in spec.tasks if t.task_hash not in records or
               not records[t.task_hash].ok]
    print(f"campaign {spec.name}: {len(spec)} tasks")
    print(f"  ok: {ok}  failed: {failed}  "
          f"to run on resume: {len(pending)}")
    for task in pending:
        record = records.get(task.task_hash)
        why = f"failed ({record.failure_kind})" if record else "not started"
        print(f"  pending: {task.label}  [{why}]")
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    import json

    from .campaign import ResultStore, campaign_report, write_report

    store = ResultStore.for_campaign(args.name, args.store)
    spec = store.read_spec()
    if spec is None:
        print(f"error: no campaign named {args.name!r} under {args.store}",
              file=sys.stderr)
        return 2
    report = campaign_report(spec, store.records())
    if args.output:
        path = write_report(report, args.output)
        print(f"wrote {path}")
    else:
        print(json.dumps(report, indent=2, default=str))
    return 0


def _cmd_campaign_list(args: argparse.Namespace) -> int:
    from .campaign import list_builtin_campaigns

    for name, description in list_builtin_campaigns():
        print(f"{name:20s} {description}")
    return 0


_TRACE_TOPOLOGIES = ("mesh2d", "hypercube", "hypermesh2d")


def _cmd_trace(args: argparse.Namespace) -> int:
    """Route one seeded workload per topology and write a JSONL trace."""
    from pathlib import Path

    from .obs import JsonlTraceFile, LinkUtilizationProbe, Tracer
    from .sim.engine import route_demands
    from .sim.task import TOPOLOGY_BUILDERS, build_topology, build_workload
    from .viz.series import format_table

    if args.target == "all":
        targets = list(_TRACE_TOPOLOGIES)
    elif args.target in TOPOLOGY_BUILDERS:
        targets = [args.target]
    else:
        print(
            f"error: unknown trace target {args.target!r}; expected 'all' or "
            f"one of {sorted(TOPOLOGY_BUILDERS)}",
            file=sys.stderr,
        )
        return 2

    out = Path(args.out)
    for name in targets:
        path = (
            out
            if len(targets) == 1
            else out.with_name(f"{out.stem}-{name}{out.suffix or '.jsonl'}")
        )
        try:
            # Invalid arguments (a non-square n, an unknown workload or
            # arbitration policy) exit 2 with the message on stderr — the
            # documented CLI error convention — instead of escaping as
            # tracebacks.
            topology = build_topology(name, args.n)
            sources, dests = build_workload(args.workload, args.n, args.seed)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        tracer = Tracer(
            f"{name}/{args.workload}/n={args.n}/seed={args.seed}",
            JsonlTraceFile(path),
        )
        probe = LinkUtilizationProbe(topology, sources, dests=dests, tracer=tracer)
        try:
            routed = route_demands(
                topology,
                list(zip(sources, dests)),
                arbitration=args.arbitration,
                on_step=probe,
                timing=True,  # tracing opts into host timing explicitly
            )
        except ValueError as exc:
            tracer.close()
            print(f"error: {exc}", file=sys.stderr)
            return 2
        top = probe.finish()
        tracer.close()
        print(
            f"wrote {path}  ({name}, n={args.n}, {args.workload}: "
            f"{routed.stats.steps} steps, {routed.stats.total_hops} hops)"
        )
        if args.summary:
            rows = [
                [u.channel, u.packets, u.busy_steps, f"{u.utilization:.2f}"]
                for u in top[:5]
            ]
            print(format_table(["channel", "packets", "busy steps", "util"], rows))
    return 0


def _plans_root_error(root) -> str | None:
    """Reject a plan-cache ``--root`` that can never be a disk tier.

    A path that exists but is not a directory would otherwise surface as an
    OS-dependent traceback from the first directory operation; catch it
    here so every ``repro plans`` subcommand exits 2 with a clear message.
    """
    from pathlib import Path

    path = Path(root)
    if path.exists() and not path.is_dir():
        return f"plan-cache root {str(root)!r} exists but is not a directory"
    return None


def _cmd_plans_list(args: argparse.Namespace) -> int:
    """Tabulate the on-disk routing-plan tier, newest blob first."""
    import json

    from .sim.plancache import PlanCache

    if (why := _plans_root_error(args.root)) is not None:
        print(f"error: {why}", file=sys.stderr)
        return 2
    cache = PlanCache(args.root)
    blobs = cache.disk_blobs()
    if not blobs:
        print(f"no plans under {cache.root}")
        return 0
    rows = []
    for path in sorted(blobs, key=lambda p: p.stat().st_mtime, reverse=True):
        size = path.stat().st_size
        try:
            key = json.loads(path.read_text()).get("key", {})
            label = (
                f"{key.get('topology', '?')}  {key.get('router', '?')}/"
                f"{key.get('arbitration', '?')}"
            )
        except (json.JSONDecodeError, OSError, AttributeError):
            label = "(corrupt blob)"  # AttributeError: not a JSON object
        rows.append([path.stem[:16], f"{size}", label])
    print(format_table(["digest", "bytes", "key"], rows))
    print(f"{len(blobs)} plans, {cache.disk_bytes()} bytes under {cache.root}")
    return 0


def _cmd_plans_clear(args: argparse.Namespace) -> int:
    """Delete every recorded plan blob in the on-disk tier."""
    from .sim.plancache import PlanCache

    if (why := _plans_root_error(args.root)) is not None:
        print(f"error: {why}", file=sys.stderr)
        return 2
    cache = PlanCache(args.root)
    removed = cache.clear()
    print(f"removed {removed} plans from {cache.root}")
    return 0


def _cmd_plans_stats(args: argparse.Namespace) -> int:
    """Disk-tier inventory plus this process's cache-traffic counters.

    With ``--trace-out`` the counters are also exported as ``counter``
    events (``plancache.hits``, ``plancache.misses``, ...) in the
    docs/OBSERVABILITY.md JSONL format, so dashboards ingest hit rates the
    same way they ingest engine events.
    """
    from .sim.plancache import PlanCache

    if (why := _plans_root_error(args.root)) is not None:
        print(f"error: {why}", file=sys.stderr)
        return 2
    cache = PlanCache(args.root)
    # A fresh CLI process has routed nothing: its traffic counters read
    # zero, which is honest.
    counters = cache.counters()
    print(f"{'root:':16s}{cache.root}")
    print(f"{'plans:':16s}{len(cache.disk_blobs())}")
    print(f"{'bytes:':16s}{cache.disk_bytes()}")
    for name, value in counters.items():
        print(f"{name + ':':16s}{value}")
    lookups = counters["hits"] + counters["misses"]
    rate = counters["hits"] / lookups if lookups else 0.0
    print(f"{'hit-rate:':16s}{rate:.3f}")
    if args.trace_out:
        from .obs import JsonlTraceFile, Tracer

        with Tracer("plans-stats", JsonlTraceFile(args.trace_out)) as tracer:
            cache.emit_counters(tracer)
        print(f"wrote {args.trace_out}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    """Degraded-mode sweep: routing cost vs fraction of failed links.

    Routes one seeded workload through the chosen topology repeatedly,
    failing a growing fraction of its links (sampled deterministically from
    ``--fault-seed``), and tabulates steps / delivered / dropped / retried
    per fraction.  Hypermesh (hypergraph) machines have nets rather than
    links, so there the sweep degrades 0, 1, 2, ... nets to serialized
    sub-transfers instead.  Partitioned cells are reported as
    ``unroutable`` rows, not errors — the feasibility cliff is the result.
    """
    from .faults import FaultModel, UnroutableError
    from .networks.base import ChannelModel
    from .sim.engine import route_demands
    from .sim.task import TOPOLOGY_BUILDERS, build_topology, build_workload
    from .viz.series import format_table

    if args.topology not in TOPOLOGY_BUILDERS:
        print(
            f"error: unknown topology {args.topology!r}; known: "
            f"{sorted(TOPOLOGY_BUILDERS)}",
            file=sys.stderr,
        )
        return 2
    try:
        # Invalid arguments — a node count the topology family rejects, an
        # unknown workload, an out-of-range drop probability or negative
        # retry limit — exit 2 with the message on stderr, like the
        # unknown-topology branch above, rather than as tracebacks.
        topology = build_topology(args.topology, args.n)
        sources, dests = build_workload(args.workload, args.n, args.seed)
        demands = list(zip(sources, dests))
        hypergraph = topology.channel_model is ChannelModel.HYPERGRAPH_NET

        if hypergraph:
            fault_grid = [
                ("degraded-nets", k, FaultModel(
                    seed=args.fault_seed,
                    degraded_nets=frozenset(range(k)),
                    drop_prob=args.drop_prob,
                    retry_limit=args.retry_limit,
                ))
                for k in range(args.max_degraded_nets + 1)
            ]
            axis = "nets degraded"
        else:
            fault_grid = [
                ("link-fraction", frac, FaultModel(
                    seed=args.fault_seed,
                    link_fail_fraction=frac,
                    drop_prob=args.drop_prob,
                    retry_limit=args.retry_limit,
                ))
                for frac in args.fractions
            ]
            axis = "links failed"
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rows = []
    for _kind, amount, model in fault_grid:
        label = f"{amount:.2f}" if not hypergraph else str(amount)
        try:
            routed = route_demands(
                topology, demands,
                fault_model=model if model.enabled else None,
            )
        except UnroutableError as exc:
            rows.append([label, "unroutable", "-", "-", "-", str(exc)])
            continue
        except ValueError as exc:
            # A fault the machine cannot hold (more degraded nets than it
            # has) exits 2 with the message on stderr, like every other
            # invalid argument here.
            print(f"error: {exc}", file=sys.stderr)
            return 2
        s = routed.stats
        rows.append(
            [label, s.steps, s.delivered, s.dropped, s.retried, ""]
        )
    print(
        f"{args.topology} n={args.n} {args.workload} seed={args.seed} "
        f"fault-seed={args.fault_seed} drop-prob={args.drop_prob}"
    )
    print(format_table(
        [axis, "steps", "delivered", "dropped", "retried", "note"], rows
    ))
    return 0


#: Staged (SIMD machine) workloads ``repro certify`` can certify alongside
#: the routed workloads of :data:`repro.sim.task.WORKLOAD_BUILDERS`.
CERTIFY_STAGED_WORKLOADS = ("systolic", "hyper-systolic", "ape-fft")


def _certify_cell(topology_name: str, n: int, workload: str, seed: int) -> dict:
    """One certification cell: route/run the workload, certify its steps.

    Returns the certified payload (``steps``/``bound``/``bound_ratio``/
    ``bound_kind``); raises :class:`repro.bounds.BoundViolation` when the
    floor is undercut, and :class:`repro.fft.ape.SpectrumMismatch` when
    the APE FFT computes a wrong spectrum.
    """
    from .algos.hypersystolic import run_commavoiding_task
    from .bounds import certify_program
    from .fft.ape import build_ape_fft_program, check_spectrum, parallel_fft_ape
    from .sim.task import build_topology, run_routing_task

    if workload == "ape-fft":
        import numpy as np

        topology = build_topology(topology_name, n)
        rng = np.random.default_rng(seed + n)
        samples = rng.standard_normal(n)
        result = parallel_fft_ape(topology, samples)
        check_spectrum(result.spectrum, samples, f"{topology_name} n={n}")
        cert = certify_program(
            topology,
            build_ape_fft_program(topology),
            result.data_transfer_steps,
            label=f"ape-fft/{topology_name}/n={n}",
        )
        return {
            "steps": result.data_transfer_steps,
            "bound": cert.bound,
            "bound_ratio": cert.ratio,
            "bound_kind": cert.binding,
        }
    if workload in ("systolic", "hyper-systolic"):
        payload = run_commavoiding_task(
            {"topology": topology_name, "n": n, "method": workload, "seed": seed}
        )
        return {
            "steps": payload["steps"],
            "bound": payload["bound"],
            "bound_ratio": payload["bound_ratio"],
            "bound_kind": "superstep-sum",
        }
    payload = run_routing_task(
        {
            "topology": topology_name,
            "n": n,
            "workload": workload,
            "seed": seed,
            "certify": True,
        }
    )
    return {
        "steps": payload["steps"],
        "bound": payload["bound"],
        "bound_ratio": payload["bound_ratio"],
        "bound_kind": payload["bound_kind"],
    }


def _cmd_certify(args: argparse.Namespace) -> int:
    """Certified-bounds sweep: achieved steps vs their analytic floors.

    Every (topology, n, workload) cell is routed (or, for the staged
    workloads, executed on the SIMD machine) and its measured step count
    certified against the :mod:`repro.bounds` floor.  A cell that
    undercuts its floor prints a ``VIOLATION`` row, an APE FFT cell with a
    wrong spectrum prints a ``SpectrumMismatch`` row, and either makes the
    command exit 1 — this is CI's cert-gate.  Unknown names exit 2 with
    the message on stderr, like every other invalid argument.
    """
    from .bounds import BoundViolation
    from .fft.ape import SpectrumMismatch
    from .sim.task import TOPOLOGY_BUILDERS, WORKLOAD_BUILDERS
    from .viz.series import format_table

    known_workloads = sorted(WORKLOAD_BUILDERS) + list(CERTIFY_STAGED_WORKLOADS)
    for topology_name in args.topologies:
        if topology_name not in TOPOLOGY_BUILDERS:
            print(
                f"error: unknown topology {topology_name!r}; known: "
                f"{sorted(TOPOLOGY_BUILDERS)}",
                file=sys.stderr,
            )
            return 2
    for workload in args.workloads:
        if workload not in known_workloads:
            print(
                f"error: unknown workload {workload!r}; known: "
                f"{known_workloads}",
                file=sys.stderr,
            )
            return 2

    rows = []
    violations = 0
    mismatches = []
    for topology_name in args.topologies:
        for n in args.sizes:
            for workload in args.workloads:
                try:
                    cell = _certify_cell(topology_name, n, workload, args.seed)
                except ValueError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2
                except BoundViolation as exc:
                    violations += 1
                    cert = exc.certificate
                    rows.append(
                        [topology_name, n, workload, cert.achieved,
                         cert.bound, "-", "VIOLATION"]
                    )
                    continue
                except SpectrumMismatch as exc:
                    mismatches.append(str(exc))
                    rows.append(
                        [topology_name, n, workload, "-", "-", "-",
                         type(exc).__name__]
                    )
                    continue
                ratio = cell["bound_ratio"]
                rows.append(
                    [topology_name, n, workload, cell["steps"], cell["bound"],
                     "-" if ratio is None else f"{ratio:.2f}",
                     cell["bound_kind"]]
                )
    print(f"certified-bounds sweep  seed={args.seed}")
    print(format_table(
        ["topology", "n", "workload", "achieved", "bound", "ratio", "binding"],
        rows,
    ))
    for message in mismatches:
        print(f"error: SpectrumMismatch: {message}", file=sys.stderr)
    if violations:
        print(
            f"error: {violations} cell(s) undercut their analytic floor",
            file=sys.stderr,
        )
    if violations or mismatches:
        return 1
    print("every cell holds: achieved >= bound")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the routing service until SIGINT/SIGTERM, then drain and exit.

    The serving tier is the on-disk plan cache under ``--root``: cold jobs
    are planned in ``--workers`` kill-on-timeout worker processes and
    recorded there; identical and repeated jobs replay from it without
    touching the engine.  With ``--trace-out`` every request is logged as
    a ``service.request`` JSONL event and the final counters are appended
    as ``counter`` events on shutdown (docs/OBSERVABILITY.md format).
    """
    import asyncio
    import signal

    from .service import RoutingService

    if (why := _plans_root_error(args.root)) is not None:
        print(f"error: {why}", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.timeout <= 0:
        print("error: --timeout must be > 0 seconds", file=sys.stderr)
        return 2

    tracer = None
    if args.trace_out:
        from .obs import JsonlTraceFile, Tracer

        tracer = Tracer("repro-serve", JsonlTraceFile(args.trace_out))

    async def _main() -> int:
        service = RoutingService(
            args.root,
            max_workers=args.workers,
            capacity=args.capacity,
            default_timeout=args.timeout,
            tracer=tracer,
        )
        try:
            await service.start(args.host, args.port)
        except OSError as exc:
            print(f"error: cannot bind {args.host}:{args.port}: {exc}",
                  file=sys.stderr)
            return 2
        print(
            f"serving on http://{service.host}:{service.port}  "
            f"(plans {args.root}, {args.workers} worker(s), "
            f"{args.timeout:g}s budget)"
        )
        from .service import ENDPOINTS

        for method, path, _name, _desc in ENDPOINTS:
            print(f"  {method:5s}{path}")
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await stop.wait()
        print("draining in-flight requests ...")
        await service.shutdown()
        if tracer is not None:
            service.emit_counters(tracer)
        c = service.counters()
        print(
            f"served {c['requests']} requests: {c['warm']} warm, "
            f"{c['cold']} cold, {c['coalesced']} coalesced, "
            f"{c['timeouts']} timeouts"
        )
        return 0

    try:
        return asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler fallback
        return 0
    finally:
        if tracer is not None:
            tracer.close()
            print(f"wrote {args.trace_out}")


def _cmd_profile(args: argparse.Namespace) -> int:
    """Profile one registered benchmark; print top-N hot functions as JSON."""
    import json

    from .obs import list_profile_benchmarks, run_profile

    if args.benchmark == "list":
        for name, description in list_profile_benchmarks():
            print(f"{name:18s} {description}")
        return 0
    try:
        report = run_profile(args.benchmark, top=args.top)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    text = json.dumps(report, indent=2)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_paper(args: argparse.Namespace) -> int:
    """The one-command paper pipeline: regenerate, check, or list sections."""
    from .paper import (
        check_goldens,
        list_sections,
        run_paper,
        write_goldens,
    )
    from .paper.sections import PROFILES

    if args.list:
        rows = [
            [section, experiments or "-", title]
            for section, experiments, title in list_sections()
        ]
        print(format_table(["section", "experiments", "title"], rows))
        return 0

    try:
        result = run_paper(
            sections=args.sections,
            profile=args.profile,
            root=args.root,
            store_root=args.store,
            workers=args.workers,
            force=args.force,
            write=not args.print_artifacts,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for path in result.written:
        print(f"wrote {path}")
    if args.print_artifacts:
        for artifacts in result.artifacts.values():
            for table in artifacts.tables:
                print(table.to_markdown())
            for figure in artifacts.figures:
                print(figure.render())
    s = result.campaign.summary
    print(
        f"campaign {result.campaign.spec.name}: {s.executed} executed, "
        f"{s.cache_hits} cache hits, {s.failed} failed"
    )
    if not result.ok:
        for section, labels in result.failed_sections.items():
            print(
                f"section {section} failed: tasks {', '.join(labels)}",
                file=sys.stderr,
            )
        return 1

    if args.write_golden:
        paths = write_goldens(result.artifacts, args.root, args.profile,
                              golden_dir=args.golden_root)
        for path in paths:
            print(f"wrote golden {path}")
        return 0

    if args.check:
        report = check_goldens(result.artifacts, args.root, args.profile,
                               golden_dir=args.golden_root)
        print(report.format())
        if report.missing:
            # Distinct from drift: there is nothing to compare against.
            print(
                "error: missing goldens — run `repro paper --profile "
                f"{args.profile} --write-golden` to record them",
                file=sys.stderr,
            )
            return 2
        if not report.ok:
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for tests)."""
    from .sim.task import TOPOLOGY_BUILDERS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of Szymanski (ICPP 1992).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fft", help="run a verified parallel FFT")
    p.add_argument("--side", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fft)

    p = sub.add_parser("sort", help="run a verified parallel bitonic sort")
    p.add_argument("--side", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sort)

    p = sub.add_parser(
        "paper",
        help="regenerate every paper artifact into results/paper/<profile>/ "
        "(--check diffs tables against the goldens)",
        description=(
            "The one-command reproducible paper pipeline: expands the "
            "section registry (repro.paper.sections) into a resumable "
            "campaign, renders every table (markdown + JSON) and figure "
            "into results/paper/<profile>/<section>/, and with --check "
            "diffs each regenerated table cell-by-cell against the goldens "
            "under "
            "results/paper/golden/<profile>/.  See docs/REPRODUCING.md."
        ),
    )
    p.add_argument("--profile", choices=("full", "smoke"), default="full",
                   help="regeneration grid: paper-scale N or a CI-fast grid")
    p.add_argument("--sections", nargs="+", metavar="SECTION",
                   help="regenerate only these sections (see --list)")
    p.add_argument("--list", action="store_true",
                   help="list the registered sections and exit")
    p.add_argument("--check", action="store_true",
                   help="diff regenerated tables against the goldens; "
                   "exit 1 on drift, 2 on missing goldens")
    p.add_argument("--write-golden", action="store_true",
                   help="record the regenerated tables as the new goldens")
    p.add_argument("--root", default="results/paper",
                   help="paper results root: artifacts go to "
                   "<root>/<profile>/ (default: results/paper)")
    p.add_argument("--golden-root", default=None,
                   help="golden directory (default: <root>/golden/<profile>)")
    p.add_argument("--store", default="results/campaigns",
                   help="campaign result store root (resume/cache)")
    p.add_argument("--workers", type=int, default=1,
                   help="campaign worker processes")
    p.add_argument("--force", action="store_true",
                   help="ignore cached campaign results and re-execute")
    p.set_defaults(func=_cmd_paper, print_artifacts=False)
    # The aliases below are this command with some defaults changed: their
    # sections, and printing the artifacts instead of writing them.
    paper_defaults = vars(p.parse_args([]))

    for verb, (sections, help_) in PAPER_VERBS.items():
        p = sub.add_parser(
            verb, help=f"{help_} (= paper --sections {' '.join(sections)})"
        )
        p.set_defaults(**{**paper_defaults, "sections": list(sections),
                          "print_artifacts": True})

    p = sub.add_parser(
        "experiment",
        help="regenerate and golden-check one experiment's paper section(s)",
        description=(
            "Resolve an EXPERIMENTS.md id to the paper sections that claim "
            "it (SectionSpec.experiments), regenerate them at the full "
            "profile, print them, and golden-check them: exit 0 when every "
            "cell matches, 1 on drift or a failed task, 2 for an unknown id "
            "or an id with no section ('all' selects every section)."
        ),
    )
    p.add_argument("experiment_id", help="e.g. E5, or 'all'")
    p.set_defaults(**{**paper_defaults, "func": _cmd_experiment,
                      "check": True, "print_artifacts": True})

    p = sub.add_parser(
        "campaign",
        help="parallel, resumable, content-addressed experiment campaigns",
    )
    campaign_sub = p.add_subparsers(dest="campaign_command", required=True)

    pc = campaign_sub.add_parser(
        "run", help="run a built-in campaign or a spec-JSON file"
    )
    pc.add_argument("spec", help="built-in name (see 'campaign list') or path")
    pc.add_argument("--workers", type=int, default=1)
    pc.add_argument("--timeout", type=float, default=None,
                    help="per-task wall-clock budget in seconds")
    pc.add_argument("--retries", type=int, default=1,
                    help="extra attempts per failing task")
    pc.add_argument("--store", default="results/campaigns",
                    help="result-store root directory")
    pc.add_argument("--force", action="store_true",
                    help="re-execute tasks even when a stored success exists")
    pc.add_argument("--resume", action="store_true",
                    help="resume an interrupted run (the default; spelled "
                         "out for scripts that want to be explicit)")
    pc.set_defaults(func=_cmd_campaign_run)

    pc = campaign_sub.add_parser("status", help="completed / failed / pending")
    pc.add_argument("name")
    pc.add_argument("--store", default="results/campaigns")
    pc.set_defaults(func=_cmd_campaign_status)

    pc = campaign_sub.add_parser(
        "report", help="aggregate stored records into BENCH-style JSON"
    )
    pc.add_argument("name")
    pc.add_argument("--store", default="results/campaigns")
    pc.add_argument("--output", default=None, help="write JSON here")
    pc.set_defaults(func=_cmd_campaign_report)

    pc = campaign_sub.add_parser("list", help="list built-in campaigns")
    pc.set_defaults(func=_cmd_campaign_list)

    p = sub.add_parser(
        "trace",
        help="route a seeded workload and write a JSONL observability trace",
        description=(
            "Write the docs/OBSERVABILITY.md event stream for one routed "
            "workload.  TARGET is a topology (mesh2d, torus2d, hypercube, "
            "hypermesh2d) or 'all' for the paper's three networks; with "
            "'all', one trace file is written per topology."
        ),
    )
    p.add_argument("target", help="topology name, or 'all'")
    p.add_argument("--n", type=int, default=64, help="node count (default 64)")
    p.add_argument(
        "--workload",
        default="bit-reversal",
        help="bit-reversal | dense-permutation | sparse-hrelation",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--arbitration", default="overtaking",
                   help="engine arbitration policy (overtaking | fifo)")
    p.add_argument("--out", default="trace.jsonl",
                   help="trace path ('all' appends -<topology> to the stem)")
    p.add_argument("--summary", action="store_true",
                   help="also print the top-5 most-congested links/nets")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "plans",
        help="inspect the content-addressed routing-plan cache",
        description=(
            "Manage the on-disk tier of repro.sim.plancache "
            "(results/plans by default): recorded routing schedules keyed "
            "by topology, demands, router, arbitration, fault-model "
            "fingerprint, and engine schema."
        ),
    )
    plans_sub = p.add_subparsers(dest="plans_command", required=True)

    pp = plans_sub.add_parser("list", help="list recorded plan blobs")
    pp.add_argument("--root", default="results/plans",
                    help="disk-tier directory (default results/plans)")
    pp.set_defaults(func=_cmd_plans_list)

    pp = plans_sub.add_parser("clear", help="delete every recorded plan")
    pp.add_argument("--root", default="results/plans")
    pp.set_defaults(func=_cmd_plans_clear)

    pp = plans_sub.add_parser(
        "stats", help="inventory + hit/miss counters (optionally as events)"
    )
    pp.add_argument("--root", default="results/plans")
    pp.add_argument("--trace-out", default=None,
                    help="also export the counters as JSONL counter events")
    pp.set_defaults(func=_cmd_plans_stats)

    p = sub.add_parser(
        "faults",
        help="degraded-mode sweep: routing cost vs failed links/nets",
        description=(
            "Route one seeded workload through a topology with a growing "
            "seeded fraction of its links failed (degraded nets for the "
            "hypermesh) and tabulate steps, delivered, dropped, and "
            "retried per fraction.  See docs/FAULTS.md."
        ),
    )
    p.add_argument("--topology", default="mesh2d",
                   help="mesh2d / torus2d / hypercube / hypermesh2d")
    p.add_argument("--n", type=int, default=64, help="node count")
    p.add_argument("--workload", default="dense-permutation",
                   help="dense-permutation / bit-reversal / sparse-hrelation")
    p.add_argument("--seed", type=int, default=99, help="workload seed")
    p.add_argument("--fault-seed", type=int, default=99,
                   help="seed for the sampled link-failure sets")
    p.add_argument("--fractions", type=float, nargs="+",
                   default=[0.0, 0.05, 0.1, 0.2, 0.3],
                   help="link-failure fractions to sweep (point-to-point)")
    p.add_argument("--max-degraded-nets", type=int, default=3,
                   help="sweep 0..K degraded nets (hypermesh only)")
    p.add_argument("--drop-prob", type=float, default=0.0,
                   help="per-transmission intermittent drop probability")
    p.add_argument("--retry-limit", type=int, default=None,
                   help="failed transmissions before a packet is dropped")
    p.set_defaults(func=_cmd_faults)

    p = sub.add_parser(
        "certify",
        help="certified-bounds sweep: achieved steps vs analytic floors",
        description=(
            "Run every (topology, n, workload) cell and certify its "
            "measured step count against the repro.bounds analytic lower "
            "bound (bisection / distance / ports / work, and the "
            "superstep-sum for staged workloads).  Exits 1 on any "
            "achieved < bound cell.  See docs/BOUNDS.md."
        ),
    )
    p.add_argument("--topologies", nargs="+",
                   default=list(TOPOLOGY_BUILDERS),
                   help="topology grid (default: all four families)")
    p.add_argument("--sizes", type=int, nargs="+", default=[16, 64],
                   help="node counts (square powers of two fit every family)")
    p.add_argument("--workloads", nargs="+",
                   default=["dense-permutation", "bit-reversal",
                            "sparse-hrelation", "systolic", "hyper-systolic",
                            "ape-fft"],
                   help="routed workloads (repro.sim.task) and staged ones "
                        "(systolic / hyper-systolic / ape-fft)")
    p.add_argument("--seed", type=int, default=99, help="workload seed")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser(
        "serve",
        help="routing-as-a-service: async HTTP API over the plan cache",
        description=(
            "Run the repro.service HTTP server: POST /v1/route submits a "
            "routing job, GET /v1/plans/{digest} fetches a recorded plan, "
            "GET /v1/stats and /v1/healthz report counters and liveness.  "
            "The on-disk plan cache under --root is the serving tier; "
            "identical concurrent jobs are coalesced into one computation.  "
            "Stops gracefully (drains in-flight requests) on SIGINT/SIGTERM."
        ),
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642,
                   help="listen port (0 picks an ephemeral port)")
    p.add_argument("--root", default="results/plans",
                   help="plan-cache disk tier (default results/plans)")
    p.add_argument("--workers", type=int, default=2,
                   help="bounded worker processes for cold plan computations")
    p.add_argument("--capacity", type=int, default=256,
                   help="entries held by the in-process warm LRU tier")
    p.add_argument("--timeout", type=float, default=60.0,
                   help="default per-request budget in seconds (504 + worker "
                        "kill on expiry)")
    p.add_argument("--trace-out", default=None,
                   help="write service.request events + final counters as "
                        "JSONL here")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "profile",
        help="cProfile a registered benchmark, top-N hot functions as JSON",
    )
    p.add_argument("benchmark", help="benchmark name, or 'list'")
    p.add_argument("--top", type=int, default=15, help="functions to report")
    p.add_argument("--output", default=None, help="write the JSON here")
    p.set_defaults(func=_cmd_profile)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return int(args.func(args) or 0)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
