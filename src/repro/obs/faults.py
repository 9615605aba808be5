"""Fault observability: adapt the engine's ``on_fault`` hook onto traces.

:class:`FaultEventProbe` turns the engine's raw callback (a
:data:`~repro.sim.engine.FaultCallback`, fired by its one core on faulted
runs) — ``(kind, step, packet, node, attempts)`` — into the documented
``fault.retry`` / ``fault.drop`` events on a :class:`~repro.obs.Tracer`,
optionally preceded by one ``fault.config`` event describing the resolved
fault set.  Attaching a probe forces the run live (a cached replay fires
no fault callbacks), which the plan cache accounts for in its
``fault_bypassed`` counter.

Usage::

    from repro.obs import FaultEventProbe, Tracer, RingBuffer

    ring = RingBuffer()
    tracer = Tracer("chaos", ring)
    probe = FaultEventProbe(tracer)
    probe.emit_config(resolve_faults(model, topology))
    route_permutation(topo, perm, fault_model=model, on_fault=probe)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .events import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.model import ResolvedFaults

__all__ = ["FaultEventProbe"]


class FaultEventProbe:
    """Callable ``on_fault`` hook that emits ``fault.*`` trace events.

    Pass the instance itself as the engine's ``on_fault`` argument; it
    also keeps running ``retries`` / ``drops`` totals so callers that only
    want counts can skip a collector entirely.
    """

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self.retries = 0
        self.drops = 0

    def emit_config(self, faults: "ResolvedFaults") -> None:
        """Emit one ``fault.config`` event for the resolved fault set."""
        self._tracer.emit("fault.config", **faults.summary())

    def __call__(
        self, kind: str, step: int, packet: int, node: int, attempts: int
    ) -> None:
        if kind == "retry":
            self.retries += 1
            self._tracer.emit(
                "fault.retry", step=step, packet=packet, node=node
            )
        elif kind == "drop":
            self.drops += 1
            self._tracer.emit(
                "fault.drop",
                step=step,
                packet=packet,
                node=node,
                attempts=attempts,
            )
        else:  # pragma: no cover - the engine only emits these two kinds
            raise ValueError(f"unknown fault event kind {kind!r}")
