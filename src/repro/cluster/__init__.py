"""Cluster serving layer: multi-replica fleets with routing + autoscaling.

Composes the single-engine machinery (engine, scheduler, metrics) into a
fleet simulation: N replicas behind a pluggable router, optionally grown
and shrunk by a queue-depth autoscaler.  See :mod:`repro.cluster.fleet`
for the event-loop semantics.
"""

from repro.cluster.autoscaler import Autoscaler, AutoscalerConfig, ScaleEvent
from repro.cluster.fleet import FleetReport, FleetSimulator
from repro.cluster.replica import Replica
from repro.cluster.router import (
    AffinityRouter,
    LeastLoadedRouter,
    PowerOfTwoRouter,
    PrefixAffinityRouter,
    RoundRobinRouter,
    Router,
    make_router,
)

__all__ = [
    "AffinityRouter",
    "Autoscaler",
    "AutoscalerConfig",
    "FleetReport",
    "FleetSimulator",
    "LeastLoadedRouter",
    "PowerOfTwoRouter",
    "PrefixAffinityRouter",
    "Replica",
    "RoundRobinRouter",
    "Router",
    "ScaleEvent",
    "make_router",
]
