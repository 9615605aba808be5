"""Word-level synchronous network simulator: schedules, routers, adaptive
routing engine, and the SIMD compute/communicate machine."""

from .engine import (
    ARBITRATION_POLICIES,
    FaultCallback,
    RoutedDemands,
    RoutedPermutation,
    route_demands,
    route_permutation,
)
from .machine import Compute, Exchange, Permute, ProgramOp, RunResult, SimdMachine
from .plancache import (
    MoveLog,
    PlanCache,
    PlanKey,
    disk_cache,
    memory_cache,
    plan_key,
)
from .routers import (
    HypercubeEcubeRouter,
    HypermeshDigitRouter,
    MeshDimensionOrderRouter,
    Router,
    TabulatedRouter,
    TorusDimensionOrderRouter,
    route_path,
    router_for,
)
from .task import build_topology, build_workload, run_routing_task
from .tracing import EngineStepProbe, StepRecord, StepTracer, render_step_profile
from .schedule import CommSchedule, ScheduleError, schedule_from_phases
from .stats import RoutingStats
from .analysis import (
    TrafficSummary,
    bisection_crossings,
    channel_utilization,
    traffic_summary,
)
from .deflection import DeflectionResult, route_deflection
from .valiant import TwoPhaseRoute, route_two_phase

__all__ = [
    "CommSchedule",
    "ScheduleError",
    "schedule_from_phases",
    "RoutingStats",
    "Router",
    "MeshDimensionOrderRouter",
    "TorusDimensionOrderRouter",
    "HypercubeEcubeRouter",
    "HypermeshDigitRouter",
    "TabulatedRouter",
    "route_path",
    "router_for",
    "ARBITRATION_POLICIES",
    "StepTracer",
    "StepRecord",
    "EngineStepProbe",
    "render_step_profile",
    "route_permutation",
    "RoutedPermutation",
    "route_demands",
    "RoutedDemands",
    "FaultCallback",
    "MoveLog",
    "PlanCache",
    "PlanKey",
    "plan_key",
    "memory_cache",
    "disk_cache",
    "SimdMachine",
    "Exchange",
    "Compute",
    "Permute",
    "ProgramOp",
    "RunResult",
    "TwoPhaseRoute",
    "route_two_phase",
    "DeflectionResult",
    "route_deflection",
    "run_routing_task",
    "build_topology",
    "build_workload",
    "TrafficSummary",
    "bisection_crossings",
    "channel_utilization",
    "traffic_summary",
]
