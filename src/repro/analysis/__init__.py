"""Experiment harness, declarative specs, parallel runner, result cache."""

from repro.analysis.cache import SCHEMA_VERSION, CacheStats, ResultCache, config_key
from repro.analysis.harness import (
    MODEL_SETUPS,
    Setup,
    build_setup,
    make_scheduler,
    run_once,
)
from repro.analysis.report import (
    SeriesPoint,
    best_baseline,
    format_table,
    improvement_summary,
    point_from_metrics,
    series_table,
)
from repro.analysis.runner import (
    SweepResult,
    SweepRunner,
    derive_seed,
    execute_point,
)
from repro.analysis.spec import (
    ClusterSpec,
    ExperimentSpec,
    GridAxis,
    SystemSpec,
    WorkloadSpec,
    apply_axis,
    expand_grid,
    parse_grid_axis,
)

__all__ = [
    "MODEL_SETUPS",
    "SCHEMA_VERSION",
    "CacheStats",
    "ClusterSpec",
    "ExperimentSpec",
    "GridAxis",
    "ResultCache",
    "Setup",
    "SeriesPoint",
    "SweepResult",
    "SweepRunner",
    "SystemSpec",
    "WorkloadSpec",
    "apply_axis",
    "best_baseline",
    "build_setup",
    "config_key",
    "derive_seed",
    "execute_point",
    "expand_grid",
    "format_table",
    "improvement_summary",
    "make_scheduler",
    "parse_grid_axis",
    "point_from_metrics",
    "run_once",
    "series_table",
]
