"""Result export: JSON serialization of runs and sweeps.

Benchmarks print tables for humans; this module serializes the same data
for plotting scripts and regression tracking.  Everything is plain-stdlib
(json) so exports work in the offline environment.
"""

from __future__ import annotations

import json
import math
from typing import Iterable

from repro import __version__
from repro.analysis.cache import ResultCache
from repro.analysis.report import SeriesPoint
from repro.serving.metrics import CategoryMetrics, RunMetrics
from repro.serving.server import SimulationReport

#: Version stamped into exported report/point files.  Pinned separately
#: from the result cache's ``SCHEMA_VERSION``: cache schema 5 only added
#: the optional config-side chaos section and feature-gated report keys,
#: leaving chaos-free exports byte-identical to v4 — and golden report
#: digests (tests/test_golden_equivalence.py) hash this payload.
REPORT_SCHEMA_VERSION = 4


def _nan_to_null(value: float | None) -> float | None:
    """Undefined statistics as JSON null, never a bare ``NaN`` token.

    Current metrics use ``None`` for undefined category stats; NaN is
    still mapped for externally supplied historical records.  Python's
    ``json`` would emit a bare ``NaN`` token — invalid strict JSON and
    unreadable by non-Python consumers.
    """
    return None if value is None or math.isnan(value) else value


def metrics_to_dict(metrics: RunMetrics) -> dict:
    """Flatten run metrics (with per-category sub-dicts)."""
    return {
        "num_requests": metrics.num_requests,
        "num_finished": metrics.num_finished,
        "num_attained": metrics.num_attained,
        "attainment": metrics.attainment,
        "violation_rate": metrics.violation_rate,
        "goodput": metrics.goodput,
        "throughput": metrics.throughput,
        "total_tokens": metrics.total_tokens,
        "attained_tokens": metrics.attained_tokens,
        "span_s": metrics.span_s,
        "mean_accepted_per_verify": metrics.mean_accepted_per_verify,
        "mean_ttft_s": (
            None if metrics.mean_ttft_s is None else _nan_to_null(metrics.mean_ttft_s)
        ),
        "prefix_hit_requests": metrics.prefix_hit_requests,
        "prefix_hit_rate": metrics.prefix_hit_rate,
        "prefill_tokens_saved": metrics.prefill_tokens_saved,
        # Chaos disruption counters ride along only when a fault actually
        # disrupted something, keeping chaos-free payloads byte-identical
        # to their pre-chaos form (golden digests hash this dict).
        **(
            {
                "requests_disrupted": metrics.requests_disrupted,
                "requests_lost": metrics.requests_lost,
            }
            if metrics.requests_disrupted
            else {}
        ),
        "per_category": {
            name: {
                "num_requests": cm.num_requests,
                "num_attained": cm.num_attained,
                "attainment": cm.attainment,
                "mean_tpot_s": _nan_to_null(cm.mean_tpot_s),
                "p50_tpot_s": _nan_to_null(cm.p50_tpot_s),
                "p99_tpot_s": _nan_to_null(cm.p99_tpot_s),
                "mean_ttft_s": _nan_to_null(cm.mean_ttft_s),
                "p50_ttft_s": _nan_to_null(cm.p50_ttft_s),
                "p99_ttft_s": _nan_to_null(cm.p99_ttft_s),
            }
            for name, cm in metrics.per_category.items()
        },
    }


def metrics_from_dict(d: dict) -> RunMetrics:
    """Inverse of :func:`metrics_to_dict` (derived fields recomputed)."""
    per_category = {}
    for name, cd in d.get("per_category", {}).items():
        num_attained = cd.get("num_attained")
        if num_attained is None:  # pre-num_attained records
            num_attained = round(cd["attainment"] * cd["num_requests"])
        per_category[name] = CategoryMetrics(
            name=name,
            num_requests=cd["num_requests"],
            num_attained=num_attained,
            mean_tpot_s=cd["mean_tpot_s"],
            p99_tpot_s=cd["p99_tpot_s"],
            mean_ttft_s=cd.get("mean_ttft_s"),
            p99_ttft_s=cd.get("p99_ttft_s"),
            p50_tpot_s=cd.get("p50_tpot_s"),
            p50_ttft_s=cd.get("p50_ttft_s"),
        )
    return RunMetrics(
        num_requests=d["num_requests"],
        num_finished=d["num_finished"],
        num_attained=d["num_attained"],
        total_tokens=d["total_tokens"],
        attained_tokens=d["attained_tokens"],
        span_s=d["span_s"],
        mean_accepted_per_verify=d["mean_accepted_per_verify"],
        per_category=per_category,
        mean_ttft_s=d.get("mean_ttft_s"),
        prefix_hit_requests=d.get("prefix_hit_requests", 0),
        prefill_tokens_saved=d.get("prefill_tokens_saved", 0),
        requests_disrupted=d.get("requests_disrupted", 0),
        requests_lost=d.get("requests_lost", 0),
    )


def report_to_dict(report: SimulationReport) -> dict:
    """Serialize a simulation report (without per-request detail).

    The ``chaos`` incident report is emitted only when present, so
    chaos-free payloads (and their golden digests) are unchanged.
    """
    d = {
        "scheduler": report.scheduler_name,
        "sim_time_s": report.sim_time_s,
        "iterations": report.iterations,
        "phase_breakdown": dict(report.phase_breakdown),
        "metrics": metrics_to_dict(report.metrics),
    }
    if report.chaos is not None:
        d["chaos"] = report.chaos
    return d


def report_from_dict(d: dict) -> SimulationReport:
    """Inverse of :func:`report_to_dict`.

    Per-request detail is not serialized, so the reconstructed report has
    an empty ``requests`` list; every aggregate (metrics, phase breakdown,
    iteration counts) round-trips exactly.  Undefined category statistics
    (a category with no finished requests) round-trip as ``None`` via
    JSON null, so ``==`` holds between a report and its round-trip.
    """
    return SimulationReport(
        scheduler_name=d["scheduler"],
        metrics=metrics_from_dict(d["metrics"]),
        sim_time_s=d["sim_time_s"],
        iterations=d["iterations"],
        phase_breakdown=dict(d["phase_breakdown"]),
        requests=[],
        chaos=d.get("chaos"),
    )


def _provenance() -> dict:
    """Self-description embedded in every ``--out`` export.

    Stored results identify the record layout (``schema_version``) and
    the package that produced them (``repro_version``), so files on disk
    remain interpretable after the simulator moves on.
    """
    return {"schema_version": REPORT_SCHEMA_VERSION, "repro_version": __version__}


def report_to_json(report: SimulationReport, indent: int = 2) -> str:
    """Strict JSON text of a simulation report (no NaN/Infinity tokens).

    The payload is the :func:`report_to_dict` record plus the export
    provenance keys; :func:`report_from_dict` ignores the extras, so the
    text round-trips.
    """
    payload = {**_provenance(), **report_to_dict(report)}
    return json.dumps(payload, indent=indent, sort_keys=True, allow_nan=False)


def points_to_json(points: Iterable[SeriesPoint], indent: int = 2) -> str:
    """JSON text of sweep points (self-describing envelope)."""
    payload = {
        **_provenance(),
        "points": [
            {
                "x": p.x,
                "system": p.system,
                "attainment": p.attainment,
                "goodput": p.goodput,
                "violation_rate": p.violation_rate,
                "mean_accepted": p.mean_accepted,
            }
            for p in sorted(points, key=lambda p: (p.x, p.system))
        ],
    }
    return json.dumps(payload, indent=indent, allow_nan=False)


def point_from_record(record: dict) -> SeriesPoint:
    """One figure cell read straight from a cache record.

    ``record`` is the envelope stored by :class:`ResultCache` (``config``
    + ``report``); the x-coordinate is the configured RPS.  Nested
    (schema >= 3) configs carry the rate in their workload section; flat
    pre-v3 shapes are still read for externally supplied records.
    """
    config = record["config"]
    if "workload" in config:
        config = config["workload"]
    report = record["report"]
    m = report["metrics"]
    return SeriesPoint(
        x=config["rps"],
        system=report["scheduler"],
        attainment=m["attainment"],
        goodput=m["goodput"],
        violation_rate=m["violation_rate"],
        mean_accepted=m["mean_accepted_per_verify"],
    )


def points_from_cache(cache: ResultCache, configs: Iterable) -> list[SeriesPoint]:
    """Series for a config grid, read directly from cache records.

    Raises ``KeyError`` on the first config without a cached result (run
    the grid through ``repro.analysis.runner`` first).
    """
    points = []
    for config in configs:
        record = cache.get(config)
        if record is None:
            raise KeyError(f"no cached result for config {cache.key_for(config)}")
        points.append(point_from_record(record))
    return points
