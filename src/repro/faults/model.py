"""The seeded, deterministic fault model.

A :class:`FaultModel` is *declarative*: it names what is broken (or how much
of the machine to break) without reference to a concrete topology.
:func:`resolve_faults` pins it to one topology instance, sampling the
``link_fail_fraction`` with a seeded NumPy generator and producing the exact
down sets plus the surviving adjacency the fault-aware router routes on.

Determinism is the load-bearing property.  Every stochastic choice is a
pure function of the model's ``seed``:

* the sampled failed-link set depends only on ``(seed, topology
  fingerprint)`` — the candidate links are enumerated in a canonical order
  before sampling;
* the intermittent per-transmission drop decision for packet ``pid`` at
  step ``step`` is a counter-based SplitMix64 hash of ``(seed, step, pid)``
  — **not** a stateful RNG, so it does not depend on arbitration order or
  on how many other packets were examined first.

That purity is what lets faulted runs participate in the routing plan
cache: the model's :meth:`FaultModel.fingerprint` is folded into the
:class:`~repro.sim.plancache.PlanKey`, and two runs with equal fingerprints
really do produce bit-identical schedules.
"""

from __future__ import annotations

import hashlib
import math
import weakref
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from ..networks.degraded import SurvivingGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..networks.base import Topology

__all__ = ["FaultModel", "ResolvedFaults", "UnroutableError", "resolve_faults"]

#: Name of the per-transmission drop draw, folded into
#: :meth:`FaultModel.fingerprint`: a different draw drops different moves,
#: so its plans must not share a key with this one's.
DROP_DRAW = "splitmix64"

_MASK64 = (1 << 64) - 1
#: SplitMix64's increment (the 64-bit golden ratio) and finalizer multipliers.
_GAMMA_INT = 0x9E3779B97F4A7C15
_MUL1_INT = 0xBF58476D1CE4E5B9
_MUL2_INT = 0x94D049BB133111EB
_GAMMA = np.uint64(_GAMMA_INT)
_MUL1 = np.uint64(_MUL1_INT)
_MUL2 = np.uint64(_MUL2_INT)


def _mix64(z: int) -> int:
    """One SplitMix64 output step on a 64-bit int: add the golden-ratio
    increment, then the xor-shift-multiply finalizer.

    The drop draw of packet ``p`` at step ``s`` under seed ``k`` is
    ``_mix64(_mix64(_mix64(k) ^ s) ^ p)`` (every operand masked to 64
    bits, so negative and oversized seeds are reduced mod 2**64): a
    counter-based hash, so no draw depends on another.
    """
    z = (z + _GAMMA_INT) & _MASK64
    z = ((z ^ (z >> 30)) * _MUL1_INT) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2_INT) & _MASK64
    return z ^ (z >> 31)


class UnroutableError(RuntimeError):
    """A packet's destination cannot be reached in the surviving network.

    Raised by the fault-aware router (and therefore by the engine entry
    points) when faults partition a packet's source from its destination,
    or when an endpoint is itself a failed node.  This is deliberately not
    a :class:`~repro.sim.schedule.ScheduleError`: the schedule is not
    malformed — the machine is broken.
    """


def _norm_link(link: Iterable[int]) -> tuple[int, int]:
    """Canonical undirected form ``(min, max)`` of a link spec."""
    u, v = link
    u, v = int(u), int(v)
    if u == v:
        raise ValueError(f"a link joins two distinct nodes, got ({u}, {v})")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class FaultModel:
    """Declarative, seeded description of what is broken in the machine.

    Attributes
    ----------
    seed:
        Master seed for every sampled or per-step stochastic decision.
    link_failures:
        Undirected links that are hard-down (both directions unusable).
        Stored normalized as ``(min, max)`` pairs.
    node_failures:
        Nodes that are dead: they originate nothing, receive nothing, and
        cannot be routed through.
    net_failures:
        Hypermesh net ids that are hard-down (no packet may traverse them).
    degraded_nets:
        Hypermesh net ids whose crossbar is degraded from one-step
        permutation capability to **serialized sub-transfers**: at most one
        packet crosses the net per step instead of a full partial
        permutation.
    link_fail_fraction:
        Additionally fail this fraction of the topology's links, sampled
        deterministically from ``seed`` at resolve time (point-to-point
        topologies only; ignored for hypergraph networks).
    drop_prob:
        Intermittent per-transmission failure probability: each granted
        move independently fails with this probability (decided by a
        SplitMix64 hash of ``(seed, step, packet)``), leaving the packet
        queued to retry.
    retry_limit:
        Failed transmissions a packet survives before it is permanently
        **dropped** (removed from the network and counted in
        ``RoutingStats.dropped``).  ``None`` means retry forever — the
        engine's ``max_steps`` bound is then the only timeout.
    """

    seed: int = 0
    link_failures: frozenset[tuple[int, int]] = frozenset()
    node_failures: frozenset[int] = frozenset()
    net_failures: frozenset[int] = frozenset()
    degraded_nets: frozenset[int] = frozenset()
    link_fail_fraction: float = 0.0
    drop_prob: float = 0.0
    retry_limit: int | None = None
    _drop_key: int = field(init=False, repr=False, compare=False, default=0)
    _drop_threshold: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "link_failures",
            frozenset(_norm_link(l) for l in self.link_failures),
        )
        object.__setattr__(
            self, "node_failures", frozenset(int(n) for n in self.node_failures)
        )
        object.__setattr__(
            self, "net_failures", frozenset(int(n) for n in self.net_failures)
        )
        object.__setattr__(
            self, "degraded_nets", frozenset(int(n) for n in self.degraded_nets)
        )
        if not 0.0 <= float(self.link_fail_fraction) <= 1.0:
            raise ValueError(
                f"link_fail_fraction must be in [0, 1], got "
                f"{self.link_fail_fraction}"
            )
        if not 0.0 <= float(self.drop_prob) <= 1.0:
            raise ValueError(
                f"drop_prob must be in [0, 1], got {self.drop_prob}"
            )
        if self.retry_limit is not None and int(self.retry_limit) < 0:
            raise ValueError(
                f"retry_limit must be >= 0 or None, got {self.retry_limit}"
            )
        object.__setattr__(self, "_drop_key", _mix64(int(self.seed) & _MASK64))
        # A move transmits iff its 64-bit draw is >= ceil(p * 2**64), so the
        # integer comparison the scalar and batch draws share is the exact
        # ``draw / 2**64 >= p`` (p * 2**64 is exact in binary floating point).
        object.__setattr__(
            self, "_drop_threshold", math.ceil(float(self.drop_prob) * 2**64)
        )

    # ------------------------------------------------------------- identity
    @property
    def enabled(self) -> bool:
        """Whether any fault is actually configured.

        A disabled model attached to the engine is contractually a no-op:
        the engine takes its fault-free fast path and the output is
        bit-identical to running with no model at all.
        """
        return bool(
            self.link_failures
            or self.node_failures
            or self.net_failures
            or self.degraded_nets
            or self.link_fail_fraction > 0.0
            or self.drop_prob > 0.0
        )

    def fingerprint(self) -> str:
        """Stable content identity, folded into the routing plan-cache key.

        Disabled models fingerprint as ``"none"`` — the same key component
        as passing no model — because they are contractually no-ops.
        Everything an enabled model can change about the engine's output is
        covered, so equal fingerprints imply bit-identical faulted runs.
        """
        if not self.enabled:
            return "none"
        h = hashlib.sha256()
        h.update(f"draw={DROP_DRAW}".encode())
        h.update(f"seed={self.seed}".encode())
        h.update(
            ("links=" + ",".join(f"{u}-{v}" for u, v in sorted(self.link_failures))).encode()
        )
        h.update(("nodes=" + ",".join(map(str, sorted(self.node_failures)))).encode())
        h.update(("nets=" + ",".join(map(str, sorted(self.net_failures)))).encode())
        h.update(("degraded=" + ",".join(map(str, sorted(self.degraded_nets)))).encode())
        h.update(f"frac={float(self.link_fail_fraction)!r}".encode())
        h.update(f"drop={float(self.drop_prob)!r}".encode())
        h.update(f"retry={self.retry_limit}".encode())
        return "sha256:" + h.hexdigest()[:32]

    # ------------------------------------------------- per-step stochastics
    def transmit_ok(self, step: int, packet: int) -> bool:
        """Whether packet ``packet``'s granted move at ``step`` transmits.

        Deterministic Bernoulli(1 - drop_prob) draw keyed by ``(seed, step,
        packet)`` (see :func:`_mix64`): independent of arbitration order,
        queue contents, and every other packet's fate, so replays and
        differential runs agree.
        """
        if self.drop_prob <= 0.0:
            return True
        if self.drop_prob >= 1.0:
            return False
        step_key = _mix64(self._drop_key ^ (int(step) & _MASK64))
        return _mix64(step_key ^ (int(packet) & _MASK64)) >= self._drop_threshold

    def transmit_ok_batch(self, step: int, packets) -> np.ndarray:
        """Vector :meth:`transmit_ok`: one bool per packet, same draws.

        The per-step key is the scalar method's Python int; the per-packet
        half of the hash runs in ``uint64`` NumPy, whose wrapping multiply
        is the scalar method's ``& (2**64 - 1)``.  A pure per-packet
        function, so batching cannot reorder or change the draws — which is
        what lets the structure-of-arrays core settle a whole step's
        granted transmissions in one call while staying bit-identical to
        the indexed core's per-move draws.  The degenerate probabilities
        (0 and 1) short-circuit to one array fill.
        """
        packets = np.asarray(packets, dtype=np.int64)
        m = packets.shape[0]
        if self.drop_prob <= 0.0:
            return np.ones(m, dtype=bool)
        if self.drop_prob >= 1.0:
            return np.zeros(m, dtype=bool)
        step_key = _mix64(self._drop_key ^ (int(step) & _MASK64))
        z = packets.astype(np.uint64) ^ np.uint64(step_key)
        z += _GAMMA
        z ^= z >> np.uint64(30)
        z *= _MUL1
        z ^= z >> np.uint64(27)
        z *= _MUL2
        z ^= z >> np.uint64(31)
        return z >= np.uint64(self._drop_threshold)

    # ------------------------------------------------------- (de)serializing
    def to_params(self) -> dict:
        """Flat JSON-serializable form (campaign task params, CLI echo)."""
        out: dict = {"seed": int(self.seed)}
        if self.link_failures:
            out["link_failures"] = sorted([u, v] for u, v in self.link_failures)
        if self.node_failures:
            out["node_failures"] = sorted(self.node_failures)
        if self.net_failures:
            out["net_failures"] = sorted(self.net_failures)
        if self.degraded_nets:
            out["degraded_nets"] = sorted(self.degraded_nets)
        if self.link_fail_fraction:
            out["link_fail_fraction"] = float(self.link_fail_fraction)
        if self.drop_prob:
            out["drop_prob"] = float(self.drop_prob)
        if self.retry_limit is not None:
            out["retry_limit"] = int(self.retry_limit)
        return out

    @classmethod
    def from_params(cls, params: Mapping) -> "FaultModel":
        """Inverse of :meth:`to_params` (unknown keys are an error)."""
        known = {
            "seed", "link_failures", "node_failures", "net_failures",
            "degraded_nets", "link_fail_fraction", "drop_prob", "retry_limit",
        }
        unknown = set(params) - known
        if unknown:
            raise ValueError(
                f"unknown fault params {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(
            seed=int(params.get("seed", 0)),
            link_failures=frozenset(
                _norm_link(l) for l in params.get("link_failures", ())
            ),
            node_failures=frozenset(params.get("node_failures", ())),
            net_failures=frozenset(params.get("net_failures", ())),
            degraded_nets=frozenset(params.get("degraded_nets", ())),
            link_fail_fraction=float(params.get("link_fail_fraction", 0.0)),
            drop_prob=float(params.get("drop_prob", 0.0)),
            retry_limit=params.get("retry_limit"),
        )

    def with_(self, **changes) -> "FaultModel":
        """A copy with the given fields replaced (sweep convenience)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class ResolvedFaults:
    """A :class:`FaultModel` pinned to one concrete topology.

    The resolve step samples ``link_fail_fraction``, validates every
    explicit fault against the topology, and precomputes the down sets the
    router and engine consult.  ``down_links`` holds *undirected*
    normalized pairs; both directions of a down link are unusable.
    """

    model: FaultModel
    down_links: frozenset[tuple[int, int]]
    down_nodes: frozenset[int]
    down_nets: frozenset[int]
    degraded_nets: frozenset[int]
    #: Per-topology :class:`~repro.networks.degraded.SurvivingGraph` cache,
    #: keyed by ``id(topology)`` with a weakref guard against id reuse.
    #: Excluded from equality/repr; reset on pickling (weakrefs don't
    #: serialize, and the structures rebuild deterministically).
    _cache: dict = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_cache"] = {}
        return state

    def surviving_graph(self, topology: "Topology") -> "SurvivingGraph":
        """The cached surviving-network structure for ``topology``.

        Adjacency, its CSR image, and every BFS distance table built so
        far are shared by all routers constructed against this resolved
        fault set — repeated ``route_demands`` calls with one fault config
        stop rebuilding them per call.  The cache key is the topology
        instance (weakref-checked), so one resolved set never serves a
        different machine's structure.
        """
        entry = self._cache.get(id(topology))
        if entry is not None and entry[0]() is topology:
            return entry[1]
        graph = SurvivingGraph(topology, self)
        self._cache[id(topology)] = (weakref.ref(topology), graph)
        return graph

    @property
    def structural(self) -> bool:
        """Whether any link/node/net is actually removed or degraded
        (as opposed to only intermittent transmission drops)."""
        return bool(
            self.down_links or self.down_nodes or self.down_nets
            or self.degraded_nets
        )

    def link_down(self, u: int, v: int) -> bool:
        """Whether the (undirected) link ``u — v`` is down."""
        return ((u, v) if u < v else (v, u)) in self.down_links

    def node_down(self, node: int) -> bool:
        return node in self.down_nodes

    def net_down(self, net: int) -> bool:
        return net in self.down_nets

    def net_degraded(self, net: int) -> bool:
        return net in self.degraded_nets

    def summary(self) -> dict:
        """Flat counts for logging / the ``fault.config`` obs event."""
        return {
            "links_down": len(self.down_links),
            "nodes_down": len(self.down_nodes),
            "nets_down": len(self.down_nets),
            "nets_degraded": len(self.degraded_nets),
            "drop_prob": float(self.model.drop_prob),
        }


#: Memo for :func:`resolve_faults`, keyed by ``(id(topology), model)`` with
#: a weakref guard: entries die with their topology (the callback evicts),
#: and an id reused by a new topology misses the ``is`` check and
#: re-resolves.  Resolution is deterministic, so equal keys really do mean
#: an identical result — the memo exists so repeated routing calls against
#: one fault config share one :class:`ResolvedFaults` (and therefore one
#: cached surviving graph) instead of resampling and rebuilding per call.
_RESOLVE_MEMO: dict = {}


def resolve_faults(model: FaultModel, topology: "Topology") -> ResolvedFaults:
    """Pin ``model`` to ``topology``: validate, sample, and build down sets.

    Raises ``ValueError`` when an explicit fault names a node, link, or net
    the topology does not have — a misconfigured fault plan should fail
    loudly, not silently injure a different machine.

    Memoized per ``(model, topology)`` pair: the same model resolved
    against the same topology instance returns the *same*
    :class:`ResolvedFaults` object, which is what lets its surviving-graph
    cache pay off across routing calls.
    """
    key = (id(topology), model)
    hit = _RESOLVE_MEMO.get(key)
    if hit is not None and hit[0]() is topology:
        return hit[1]
    resolved = _resolve_faults(model, topology)
    try:
        ref = weakref.ref(topology, lambda _, k=key: _RESOLVE_MEMO.pop(k, None))
    except TypeError:  # pragma: no cover - non-weakrefable topology
        return resolved
    _RESOLVE_MEMO[key] = (ref, resolved)
    return resolved


def _resolve_faults(model: FaultModel, topology: "Topology") -> ResolvedFaults:
    from ..networks.base import ChannelModel, HypergraphTopology

    n = topology.num_nodes
    for node in model.node_failures:
        if not 0 <= node < n:
            raise ValueError(f"fault names node {node} outside [0, {n})")

    hypergraph = topology.channel_model is ChannelModel.HYPERGRAPH_NET
    if (model.net_failures or model.degraded_nets) and not hypergraph:
        raise ValueError(
            f"net faults need a hypergraph topology, got "
            f"{type(topology).__name__}"
        )
    down_nets = frozenset(model.net_failures)
    degraded = frozenset(model.degraded_nets)
    if hypergraph:
        assert isinstance(topology, HypergraphTopology)
        num_nets = topology.num_nets()
        for net in sorted(down_nets | degraded):
            if not 0 <= net < num_nets:
                raise ValueError(
                    f"fault names net {net} outside [0, {num_nets})"
                )
        overlap = down_nets & degraded
        if overlap:
            raise ValueError(
                f"nets {sorted(overlap)} are both down and degraded; "
                f"pick one fault per net"
            )

    down_links = set(model.link_failures)
    if down_links or model.link_fail_fraction > 0.0:
        if hypergraph:
            if down_links:
                raise ValueError(
                    "hypergraph networks have nets, not links; use "
                    "net_failures / degraded_nets"
                )
        else:
            all_links = topology.link_array()
            if down_links:
                codes = all_links[:, 0] * n + all_links[:, 1]
                for u, v in sorted(down_links):
                    code = u * n + v
                    at = int(np.searchsorted(codes, code)) if (
                        0 <= u and v < n) else len(codes)
                    if at == len(codes) or codes[at] != code:
                        raise ValueError(
                            f"fault names link {(u, v)} the topology does "
                            f"not have"
                        )
            if model.link_fail_fraction > 0.0:
                k = int(model.link_fail_fraction * len(all_links))
                if k:
                    rng = np.random.default_rng(model.seed)
                    picks = rng.choice(len(all_links), size=k, replace=False)
                    down_links.update(map(tuple, all_links[picks].tolist()))

    return ResolvedFaults(
        model=model,
        down_links=frozenset(down_links),
        down_nodes=frozenset(model.node_failures),
        down_nets=down_nets,
        degraded_nets=degraded,
    )
