"""Fault injection and degraded-mode routing.

The paper assumes a fault-free machine: every mesh link, hypercube channel,
and hypermesh net is always up, so its complexity claims say nothing about
what a real build does when a crossbar pin dies.  Wafer-scale FFT engines
ship with faulty cores routed around, and degraded-mode communication is
where a reproduction earns production credibility — this package makes the
word-level simulator answer those questions deterministically:

* :class:`FaultModel` — a seeded, declarative description of what is broken:
  links down, nodes down, hypermesh nets down or *degraded* (serialized to
  one packet per step), a sampled fraction of failed links, and an
  intermittent per-transmission drop probability with a retry budget.
  Everything is a pure function of the model's seed, so two runs with the
  same model and demands are bit-identical.
* :func:`resolve_faults` / :class:`ResolvedFaults` — the model pinned to one
  concrete topology: exact down-link/net sets (including the sampled
  fraction) plus the surviving adjacency.
* :class:`FaultAwareRouter` — wraps any deterministic router; routes on the
  surviving graph with minimal detours (BFS next-hop tables per
  destination) and raises :class:`UnroutableError` when a destination is
  partitioned away.
* The engine entry points (:func:`repro.sim.route_permutation` /
  :func:`repro.sim.route_demands`) accept ``fault_model=`` and gain
  retry/timeout/drop semantics with explicit ``delivered`` / ``dropped`` /
  ``retried`` accounting on :class:`repro.sim.RoutingStats`, surfaced as
  ``fault.*`` events through :mod:`repro.obs`.

A fault model that is attached but has nothing enabled is contractually a
**no-op**: the engine takes its fault-free fast path and produces
bit-identical schedules (the differential fuzz suite enforces this).
Active fault configurations participate in the routing plan-cache key, so
a faulted run can never replay a fault-free plan or vice versa.

Semantics, rerouting rules and the accounting contract are documented in
``docs/FAULTS.md``.
"""

from .model import (
    FaultModel,
    FaultSpecError,
    ResolvedFaults,
    UnroutableError,
    resolve_faults,
)
from .routing import FaultAwareRouter, fault_aware_router

__all__ = [
    "FaultModel",
    "FaultSpecError",
    "ResolvedFaults",
    "UnroutableError",
    "resolve_faults",
    "FaultAwareRouter",
    "fault_aware_router",
]
