"""route-warm / route-cold: a closed loop of ``POST /v1/route``.

One client process holds one connection at a time and sends its next
request only when the previous one has been answered.  The server is
``repro serve --workers 1`` in its own process, started on an empty plan
root under the run's scratch directory, which is deleted afterwards.
Readiness is the port the server prints, so set-up is not quantized by a
readiness poll.

* route-warm cycles a fixed warm set (4 topologies x N in {1024, 4096} x
  {dense-permutation, sparse-hrelation, bit-reversal}) that set-up primes,
  so every timed request replays a plan from the in-memory LRU tier.
* route-cold cycles the same topologies and sizes (dense and sparse) plus
  N=1024 shapes with a seeded fault config, every request with a seed
  never sent before, so each one misses and runs in a forked worker.

Set-up is a server start, plus priming on route-warm; it is done several
times per run and its median reported.  route-warm runs in rounds, each
setting up a server that then serves its share of the timed loop.
route-cold sets up several servers in a row, closing each at once, and the
last one serves the whole timed loop.

A "pass" is one sweep over a cycle of jobs, reported as the sum over the
cycle's jobs of each job's median latency in the run.  The cold pass plans
every job of the cycle and the warm pass replays it: route-warm's cold pass
is the priming sweep of set-up and its warm pass a timed cycle; route-cold's
cold pass is a timed cycle and its warm pass the first replay of a timed
cycle, made right after the cycle, which the disk tier serves.
"""

from __future__ import annotations

import http.client
import json
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from itertools import product
from pathlib import Path

import spans as tracing
from common import (
    ROOT,
    WORK,
    BenchError,
    Outcome,
    compile_program,
    derive_seed,
    fresh_dir,
    median,
    peak_rss_mb,
    program_env,
    quantile,
    stop,
    typical_sweep,
    write_trace,
)

HERE = Path(__file__).resolve().parent

TOPOLOGIES = ("mesh2d", "torus2d", "hypercube", "hypermesh2d")
SIZES = (1024, 4096)
#: Rounds of a route-warm run.  Each round takes 1/WARM_ROUNDS of the
#: run's seconds: it sets up a server (start plus priming, ~3 s), which
#: then serves warm cycles until the round's time is up.  The set-up and
#: priming samples are thus spread over the run as the warm cycles are;
#: set-ups made in a row would leave the priming sweep (cold_pass_s) to
#: the host's speed in those few seconds alone.
WARM_ROUNDS = 5
#: Server starts of a route-cold run; the reported set-up time is their
#: median.
COLD_SETUPS = 9
#: The fixed-shape step and hop counts every run must reproduce.
EXPECTED = json.loads((HERE / "expected.json").read_text())
#: Fault intensities of the faulted route-cold shapes, taken from the
#: repository's own fault benchmarks: 0.05 is the smallest non-zero link
#: fraction of the chaos-sweep campaign (CHAOS_SWEEP_FRACTIONS) and of
#: benchmarks/bench_faults.py's N=4096 speed-up cells, 0.2 is the smallest
#: non-zero drop probability of bench_faults.py (DROP_PROBS), and 2 is the
#: largest degraded-net count of bench_faults.py (DEGRADED_NET_COUNTS) and
#: of the chaos sweep's hypermesh column.
LINK_FAIL_FRACTION = 0.05
DROP_PROB = 0.2
DEGRADED_NETS = 2
#: Cold cycles route-cold replays: every second timed cycle, right after
#: it, until this many are done.  Each replayed plan is lifted into the
#: server's memory tier (~40 MB a cycle), which every worker forked after
#: it inherits, so the count is fixed and the loop sends at least one cycle
#: after the last replay: the peak RSS is then independent of how many
#: cycles the host ran.  Spreading the replays over the loop keeps their
#: latencies from following the host's speed of a single second or two.
REPLAY_CYCLES = 6


# ------------------------------------------------------------------ jobs
def warm_set(seed: int) -> list[dict]:
    shapes = product(TOPOLOGIES, SIZES,
                     ("dense-permutation", "sparse-hrelation", "bit-reversal"))
    return [
        {"topology": t, "n": n, "workload": w,
         "seed": derive_seed(seed, "warm", i)}
        for i, (t, n, w) in enumerate(shapes)
    ]


#: (topology, n, workload, faulted) of one cold cycle, in send order.
COLD_SHAPES = tuple(
    [(t, n, w, False) for t, n, w in product(
        TOPOLOGIES, SIZES, ("dense-permutation", "sparse-hrelation"))]
    + [(t, 1024, w, True) for t, w in product(
        TOPOLOGIES, ("dense-permutation", "sparse-hrelation"))]
)


def _connected(job: dict) -> bool:
    """Does the job's fault config leave every node reachable?"""
    from repro.faults import FaultModel
    from repro.faults.model import resolve_faults
    from repro.networks.degraded import components_under, surviving_adjacency
    from repro.sim.task import build_topology

    topology = build_topology(job["topology"], job["n"])
    faults = resolve_faults(FaultModel.from_params(job["fault"]), topology)
    return len(components_under(surviving_adjacency(topology, faults))) == 1


def _fault_config(job: dict, seed: int) -> dict:
    """A seeded fault config for ``job``: degraded nets on the hypermesh,
    failed links plus transient drops elsewhere (redrawn until every node
    stays reachable, so no request is unroutable)."""
    import numpy as np

    if job["topology"] == "hypermesh2d":
        side = int(job["n"] ** 0.5)
        rng = np.random.default_rng(seed)
        nets = rng.choice(2 * side, size=DEGRADED_NETS, replace=False)
        return {"seed": seed, "degraded_nets": sorted(int(x) for x in nets)}
    attempt = 0
    while True:
        fault = {"seed": derive_seed(seed, attempt),
                 "link_fail_fraction": LINK_FAIL_FRACTION,
                 "drop_prob": DROP_PROB}
        if _connected({**job, "fault": fault}):
            return fault
        attempt += 1


def cold_cycle(seed: int, cycle: int) -> list[dict]:
    jobs = []
    for i, (t, n, w, faulted) in enumerate(COLD_SHAPES):
        job = {"topology": t, "n": n, "workload": w,
               "seed": derive_seed(seed, "cold", cycle, i)}
        if faulted:
            job["fault"] = _fault_config(
                job, derive_seed(seed, "fault", cycle, i))
        jobs.append(job)
    return jobs


# ---------------------------------------------------------------- server
class Server:
    """``repro serve`` in a child process on an empty plan root, ready once
    it prints its port.  Closing it stops the process and deletes the root.
    """

    def __init__(self, name: str, *, spans_path: Path | None = None):
        self.root = fresh_dir(WORK / name)
        serve = ["serve", "--host", "127.0.0.1", "--port", "0",
                 "--workers", "1", "--root", str(self.root)]
        if spans_path is None:
            cmd = [sys.executable, "-u", "-m", "repro", *serve]
        else:
            cmd = [sys.executable, "-u", str(HERE / "traced_serve.py"),
                   str(spans_path), *serve]
        self.log = self.root.with_suffix(".log")
        with self.log.open("w") as err:
            self.proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                env=program_env(), cwd=ROOT,
            )
        #: ``POST /v1/route`` requests sent to this server.
        self.routed = 0
        line = self.await_line("serving on http://")
        self.port = int(line.split()[2].rsplit(":", 1)[1])

    def await_line(self, prefix: str, timeout: float = 60.0) -> str:
        """Read server output until a line starts with ``prefix``."""
        timer = threading.Timer(timeout, self.proc.kill)
        timer.start()
        try:
            for line in self.proc.stdout:
                if line.startswith(prefix):
                    return line
        finally:
            timer.cancel()
        self.close()
        raise BenchError(
            f"server exited before printing {prefix!r}: "
            f"{self.log.read_text()[-800:]}"
        )

    def request(self, method: str, path: str, body: bytes | None = None):
        """One exchange: ``(status, decoded body, seconds)``."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            t0 = time.perf_counter()
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            raw = response.read()
            elapsed = time.perf_counter() - t0
        finally:
            conn.close()
        return response.status, json.loads(raw), elapsed

    def route(self, encoded: bytes):
        self.routed += 1
        return self.request("POST", "/v1/route", encoded)

    def stats(self) -> dict:
        return self.request("GET", "/v1/stats")[1]

    def check_counters(self, outcome: Outcome) -> dict:
        """``/v1/stats`` must account for exactly the requests sent, with
        one computation per cold response and nothing failed; returns the
        stats."""
        stats = self.stats()
        service = stats["service"]
        want = {"routes": self.routed,
                "warm": self.routed - service.get("cold", 0),
                "computations": service.get("cold", 0)}
        for name, value in want.items():
            if service.get(name) != value:
                outcome.problem(f"/v1/stats service.{name} = "
                                f"{service.get(name)}, expected {value}")
        for name in ("coalesced", "failed", "timeouts", "unroutable",
                     "rejected"):
            if service.get(name):
                outcome.problem(f"/v1/stats service.{name} = {service[name]}")
        return stats

    def close(self) -> None:
        stop(self.proc)
        self.proc.stdout.close()
        shutil.rmtree(self.root, ignore_errors=True)


def _warm_up() -> None:
    """One untimed launch: compile bytecode, start and stop a server."""
    compile_program()
    Server("plans-warm-up").close()


def _set_up(name: str, prepare=None) -> tuple[Server, float]:
    """One set-up: start a server on an empty plan root, then
    ``prepare(server)``.  Returns the server and the seconds it took."""
    t0 = time.perf_counter()
    server = Server(name)
    try:
        if prepare is not None:
            prepare(server)
    except BaseException:
        server.close()
        raise
    return server, time.perf_counter() - t0


def _encode(jobs: list[dict]) -> list[bytes]:
    return [json.dumps(job).encode() for job in jobs]


def _label(job: dict) -> str:
    fault = "/faulted" if job.get("fault") else ""
    return f"{job['topology']}/{job['n']}/{job['workload']}{fault}"


# ---------------------------------------------------------------- checks
def _check_cold(outcome: Outcome, job: dict, status: int, body: dict) -> bool:
    stats = body.get("stats", {})
    wrong = None
    if status != 200 or body.get("source") != "cold":
        wrong = f"status {status}, source {body.get('source')}: {body}"
    elif stats.get("delivered", 0) + stats.get("dropped", 0) != body["packets"]:
        wrong = f"delivered+dropped != packets: {stats}"
    elif not job.get("fault") and stats.get("dropped"):
        wrong = f"fault-free job dropped packets: {stats}"
    if wrong:
        outcome.op_failed(f"cold {_label(job)} seed {job['seed']}: {wrong}")
        return False
    return True


def _check_warm(outcome: Outcome, job: dict, status: int, body: dict,
                ref: dict) -> None:
    if (status != 200 or body.get("source") != "warm"
            or body.get("stats") != ref["stats"]
            or body.get("digest") != ref["digest"]):
        outcome.op_failed(
            f"warm {_label(job)}: status {status}, source "
            f"{body.get('source')}, stats {body.get('stats')} != primed "
            f"{ref['stats']}"
        )


def _check_expected(outcome: Outcome, job: dict, body: dict) -> None:
    """Bit-reversal is seed-free: its counts are pinned in expected.json."""
    if job["workload"] != "bit-reversal":
        return
    want = EXPECTED["bit-reversal"][f"{job['topology']}/{job['n']}"]
    got = {k: body["stats"][k] for k in want}
    if got != want:
        outcome.problem(f"{_label(job)}: counts {got} != expected {want}")


def _certify(outcome: Outcome, jobs: list[dict], bodies: list[dict]) -> None:
    """Certify one response per job shape against its analytic floor."""
    from repro.bounds import BoundViolation, certify
    from repro.faults import FaultModel
    from repro.sim.task import build_topology, build_workload

    for job, body in zip(jobs, bodies):
        topology = build_topology(job["topology"], job["n"])
        sources, dests = build_workload(job["workload"], job["n"], job["seed"])
        model = FaultModel.from_params(job["fault"]) if job.get("fault") else None
        stats = body["stats"]
        if body["packets"] != len(sources):
            outcome.problem(f"{_label(job)}: {body['packets']} packets, "
                            f"workload has {len(sources)}")
            continue
        try:
            certify(topology, list(zip(sources, dests)), stats["steps"],
                    fault_model=model,
                    dropped=stats["dropped"] if model is not None else 0,
                    label=_label(job))
        except BoundViolation as exc:
            outcome.problem(f"{_label(job)}: {exc}")


# ------------------------------------------------------------ route-warm
def _prime(outcome: Outcome, server: Server, jobs, encoded):
    """Plan every job, then replay it once: a worker records the plan on
    disk, and the first replay lifts it into the server's memory tier.

    Returns the cold responses, their latencies and their pool overheads.
    """
    bodies, latencies, pool_overheads = [], [], []
    for job, body_bytes in zip(jobs, encoded):
        status, body, elapsed = server.route(body_bytes)
        if not _check_cold(outcome, job, status, body):
            raise BenchError(f"priming {_label(job)} failed: {body}")
        _check_expected(outcome, job, body)
        bodies.append(body)
        latencies.append(elapsed)
        pool_overheads.append(elapsed - body["route_seconds"])
    for job, body_bytes, ref in zip(jobs, encoded, bodies):
        _check_warm(outcome, job, *server.route(body_bytes)[:2], ref)
    return bodies, latencies, pool_overheads


class Primer:
    """Set-up step of route-warm: primes a server's warm set and keeps
    what the priming returned, for the checks and the cold-pass metric.
    Every priming must return the stats of the first."""

    def __init__(self, outcome: Outcome, jobs: list[dict]):
        self.outcome, self.jobs, self.encoded = outcome, jobs, _encode(jobs)
        self.bodies: list[dict] = []
        self.sweeps: list[list[float]] = []
        self.pool_overheads: list[float] = []

    def __call__(self, server: Server) -> None:
        bodies, sweep, overheads = _prime(self.outcome, server, self.jobs,
                                          self.encoded)
        for job, first, body in zip(self.jobs, self.bodies, bodies):
            if body["stats"] != first["stats"]:
                self.outcome.problem(
                    f"priming {_label(job)} again gave {body['stats']}, "
                    f"first {first['stats']}")
        self.bodies = bodies
        self.sweeps.append(sweep)
        self.pool_overheads += overheads


def _warm_loop(outcome, servers, primer: Primer, seconds):
    """Whole warm cycles until ``seconds`` pass, alternating over
    ``servers`` when there are several.

    Returns each cycle's request latencies and each cycle's wall time.
    """
    sweeps, walls = [], []
    t_start = time.perf_counter()
    while not walls or time.perf_counter() - t_start < seconds:
        server = servers[len(walls) % len(servers)]
        sweep = []
        c0 = time.perf_counter()
        for job, body_bytes, ref in zip(primer.jobs, primer.encoded,
                                        primer.bodies):
            status, body, elapsed = server.route(body_bytes)
            sweep.append(elapsed)
            _check_warm(outcome, job, status, body, ref)
        walls.append(time.perf_counter() - c0)
        sweeps.append(sweep)
        outcome.attempted += len(sweep)
    return sweeps, walls


def _loop_metrics(sweeps, walls, cold_sweeps, warm_sweeps) -> dict:
    """The pass, latency and throughput metrics of a timed loop.

    Throughput is the requests of one cycle over the median cycle's wall
    time: the host's speed drifts within a run, and a median of many
    cycles follows that drift less than the overall mean rate does.
    """
    latencies = [x for sweep in sweeps for x in sweep]
    return {
        "cold_pass_s": typical_sweep(cold_sweeps),
        "warm_pass_ms": typical_sweep(warm_sweeps) * 1e3,
        "latency_p50_ms": quantile(latencies, 50) * 1e3,
        "latency_p90_ms": quantile(latencies, 90) * 1e3,
        "throughput_rps": len(sweeps[0]) / median(walls),
    }


def run_warm(seed: int, seconds: float) -> Outcome:
    outcome = Outcome()
    _warm_up()
    primer = Primer(outcome, warm_set(seed))
    setup_times, sweeps, walls = [], [], []
    t_start = time.perf_counter()
    for index in range(WARM_ROUNDS):
        server, setup_time = _set_up(f"plans-{index}", primer)
        setup_times.append(setup_time)
        round_end = t_start + (index + 1) * seconds / WARM_ROUNDS
        try:
            round_sweeps, round_walls = _warm_loop(
                outcome, [server], primer, round_end - time.perf_counter())
            server.check_counters(outcome)
        finally:
            server.close()
        sweeps += round_sweeps
        walls += round_walls
    _certify(outcome, primer.jobs, primer.bodies)
    outcome.metrics = {
        **_loop_metrics(sweeps, walls, primer.sweeps, sweeps),
        "setup_s": median(setup_times),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
    }
    return outcome


# ------------------------------------------------------------ route-cold
def _cold_loop(outcome, servers, seed, *, seconds=None, cycles=None,
               replays=0):
    """Whole cold cycles until ``seconds`` pass (or ``cycles`` are done).

    With several ``servers`` the cycles alternate over them, and each
    server is sent the same jobs in turn (each has its own plan root, so
    every one of them is cold).  Every second cycle, up to ``replays`` of
    them, is replayed once right after it was sent, and the loop goes on
    until one more cycle has been sent after those.  Returns what was sent (server, jobs, encoded
    jobs, responses) per cycle, each cycle's latencies and wall time, the
    pool overheads, and each replay's latencies.
    """
    sent, sweeps, walls, overheads, replayed = [], [], [], [], []
    t_start = time.perf_counter()
    while True:
        done = len(walls)
        if cycles is not None and done >= cycles:
            break
        if (seconds is not None and done >= max(1, 2 * replays)
                and time.perf_counter() - t_start >= seconds):
            break
        server = servers[done % len(servers)]
        jobs = cold_cycle(seed, done // len(servers))
        encoded = _encode(jobs)
        bodies, sweep = [], []
        c0 = time.perf_counter()
        for job, body_bytes in zip(jobs, encoded):
            status, body, elapsed = server.route(body_bytes)
            sweep.append(elapsed)
            if _check_cold(outcome, job, status, body):
                overheads.append(elapsed - body["route_seconds"])
            bodies.append(body)
        walls.append(time.perf_counter() - c0)
        sweeps.append(sweep)
        outcome.attempted += len(jobs)
        sent.append((server, jobs, encoded, bodies))
        if done % 2 == 0 and len(replayed) < replays:
            replayed.append(_replay(outcome, server, jobs, encoded, bodies))
    return sent, sweeps, walls, overheads, replayed


def _replay(outcome, server, jobs, encoded, bodies) -> list[float]:
    """First replay of a cold cycle (each plan comes from disk); returns
    the replay's latencies."""
    sweep = []
    for job, body_bytes, ref in zip(jobs, encoded, bodies):
        status, body, elapsed = server.route(body_bytes)
        sweep.append(elapsed)
        _check_warm(outcome, job, status, body, ref)
    outcome.attempted += len(jobs)
    return sweep


def run_cold(seed: int, seconds: float) -> Outcome:
    outcome = Outcome()
    _warm_up()
    setup_times = []
    for index in range(COLD_SETUPS):
        server, setup_time = _set_up(f"plans-{index}")
        setup_times.append(setup_time)
        if index < COLD_SETUPS - 1:
            server.close()
    try:
        sent, sweeps, walls, _, replays = _cold_loop(
            outcome, [server], seed, seconds=seconds, replays=REPLAY_CYCLES)
        server.check_counters(outcome)
    finally:
        server.close()
    _certify(outcome, sent[0][1], sent[0][3])
    outcome.metrics = {
        **_loop_metrics(sweeps, walls, sweeps, replays),
        "setup_s": median(setup_times),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
    }
    return outcome


# ---------------------------------------------------------------- traced
def _traced_server_spans(spans_path: Path, latencies):
    """A stopped traced server's spans and the unattributed time.

    The client's i-th timed request is the server's i-th connection after
    tracing started, so each request's unattributed time is its client
    latency minus the server's ``service.http`` span.
    """
    spans, counts = tracing.from_json(json.loads(spans_path.read_text()))
    roots = sorted((s for s in spans if s.name == "service.http"),
                   key=lambda s: s.start_ns)[:len(latencies)]
    unattributed = sum(
        max(0, int(lat * 1e9) - (r.end_ns - r.start_ns))
        for lat, r in zip(latencies, roots)
    )
    return spans, counts, unattributed


def _start_tracing(server: Server) -> None:
    server.proc.send_signal(signal.SIGUSR1)
    server.await_line("tracing on")


def _merge(first: list, second: list) -> list:
    """Concatenate two span lists recorded by different processes."""
    offset = max((s.id for s in first), default=0)
    return first + [
        tracing.Span(s.id + offset,
                     None if s.parent is None else s.parent + offset,
                     s.name, s.rid, s.start_ns, s.end_ns)
        for s in second
    ]


def _service_stats(stats: dict) -> dict:
    service = stats["service"]
    return {f"service.stats.{k}": service[k]
            for k in ("warm", "cold", "computations")}


def _flatten(sweeps) -> list[float]:
    return [x for sweep in sweeps for x in sweep]


def run_warm_traced(seed: int, seconds: float) -> Outcome:
    """Warm cycles alternating between an untraced and a traced server, so
    both see the same host and the overhead estimate is fair."""
    outcome = Outcome()
    _warm_up()
    primer = Primer(outcome, warm_set(seed))
    spans_path = WORK / "server-spans.json"
    servers = []
    try:
        for name, path in (("plans-base", None), ("plans-traced", spans_path)):
            servers.append(Server(name, spans_path=path))
            primer(servers[-1])
        _start_tracing(servers[1])
        sweeps, _ = _warm_loop(outcome, servers, primer, seconds)
        stats = servers[1].check_counters(outcome)
        servers[0].check_counters(outcome)
    finally:
        for server in servers:
            server.close()
    base, traced = _flatten(sweeps[0::2]), _flatten(sweeps[1::2])
    spans, counts, unattributed = _traced_server_spans(spans_path, traced)
    _certify(outcome, primer.jobs, primer.bodies)

    outcome.metrics = tracing.layer_metrics(
        spans, counts, op_wall_ns=int(sum(traced) * 1e9), ops=len(traced),
        unattributed_ns=unattributed,
        extras={
            "service.pool.overhead_ms": median(primer.pool_overheads) * 1e3,
            "trace.overhead_pct": (median(traced) / median(base) - 1) * 100,
            **_service_stats(stats),
        },
    )
    write_trace("route-warm", seed, tracing.to_json(spans, counts))
    return outcome


#: Cold cycles each server of the traced route-cold run gets: a fixed
#: count, so the engine's hop totals repeat exactly for a given seed.
TRACED_COLD_CYCLES = 4


def run_cold_traced(seed: int, seconds: float) -> Outcome:
    """The same cold cycles sent to an untraced and a traced server in
    turn, then the traced server's jobs through ``execute_route``
    in-process, which gives the worker-side layers whose spans the forked
    workers lose."""
    from repro.service.jobs import RouteRequest, execute_route

    outcome = Outcome()
    rec = tracing.Recorder()
    tracing.install(rec)
    _warm_up()
    spans_path = WORK / "server-spans.json"
    servers = []
    try:
        servers.append(Server("plans-base"))
        servers.append(Server("plans-traced", spans_path=spans_path))
        _start_tracing(servers[1])
        sent, sweeps, _, overheads, _ = _cold_loop(
            outcome, servers, seed, cycles=2 * TRACED_COLD_CYCLES)
        stats = servers[1].check_counters(outcome)
        servers[0].check_counters(outcome)
    finally:
        for server in servers:
            server.close()
    base, traced = _flatten(sweeps[0::2]), _flatten(sweeps[1::2])
    for (_, _, _, a), (_, _, _, b) in zip(sent[0::2], sent[1::2]):
        if [x["stats"] for x in a] != [x["stats"] for x in b]:
            outcome.problem("the same cold jobs gave different stats on the "
                            "untraced and the traced server")
    sent = sent[1::2]
    server_spans, counts, unattributed = _traced_server_spans(spans_path,
                                                              traced)

    feed_root = fresh_dir(WORK / "plans-in-process")
    try:
        for _, jobs, _, bodies in sent:
            for job, ref in zip(jobs, bodies):
                params = RouteRequest.from_body(job).to_params(str(feed_root))
                rec.enabled = True
                try:
                    with rec.span("op", rid=_label(job)):
                        result = execute_route(params)
                finally:
                    rec.enabled = False
                outcome.attempted += 1
                if result["stats"] != ref["stats"]:
                    outcome.op_failed(
                        f"in-process {_label(job)}: {result['stats']} != "
                        f"served {ref['stats']}")
    finally:
        shutil.rmtree(feed_root)
    _certify(outcome, sent[0][1], sent[0][3])

    feed_ops, feed_wall, feed_unattributed = tracing.op_unattributed(rec.spans)
    for name, value in rec.counts.items():
        counts[name] = counts.get(name, 0) + value
    spans = _merge(server_spans, rec.spans)
    outcome.metrics = tracing.layer_metrics(
        spans, counts,
        op_wall_ns=int(sum(traced) * 1e9) + feed_wall,
        ops=len(traced) + feed_ops,
        unattributed_ns=unattributed + feed_unattributed,
        extras={
            "service.pool.overhead_ms": median(overheads) * 1e3,
            "trace.overhead_pct": (sum(traced) / sum(base) - 1) * 100,
            **_service_stats(stats),
        },
    )
    write_trace("route-cold", seed, tracing.to_json(spans, counts))
    return outcome
