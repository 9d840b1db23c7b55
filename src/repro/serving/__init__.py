"""Serving-system simulator substrate: requests, engine, KV cache, metrics."""

from repro.serving.clock import ArrivalStream, SimClock
from repro.serving.engine import PhaseTimes, SimulatedEngine
from repro.serving.kv_cache import KVCacheManager, KVStats, OutOfKVCache
from repro.serving.metrics import (
    CategoryMetrics,
    RunMetrics,
    aggregate_metrics,
    violation_reduction,
)
from repro.serving.request import Request, RequestState
from repro.serving.scheduler_base import Scheduler
from repro.serving.server import ServingSimulator, SimulationReport

__all__ = [
    "ArrivalStream",
    "CategoryMetrics",
    "KVCacheManager",
    "KVStats",
    "OutOfKVCache",
    "PhaseTimes",
    "Request",
    "RequestState",
    "RunMetrics",
    "Scheduler",
    "ServingSimulator",
    "SimClock",
    "SimulatedEngine",
    "SimulationReport",
    "aggregate_metrics",
    "violation_reduction",
]
