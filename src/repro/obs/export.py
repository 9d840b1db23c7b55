"""Trace and time-series exporters.

Three output formats, all deterministic for a fixed-seed run (stable
event order, ``sort_keys`` JSON, no wall-clock or environment input):

- :func:`perfetto_json` — Chrome/Perfetto ``trace_event`` JSON.  Each
  replica is one process track (``pid`` = replica index) whose lanes
  (``tid``) are request ids: prefill/decode phases render as complete
  spans (``ph: "X"``), lifecycle points as instant events (``ph: "i"``),
  gauge samples as counter tracks (``ph: "C"``), and chaos incident
  windows as spans on a dedicated ``fleet`` track.  Load the file at
  ``https://ui.perfetto.dev`` or ``chrome://tracing``.
- :func:`series_to_json` — strict-JSON gauge time-series (plus optional
  per-replica iteration logs) under the same self-describing envelope
  conventions as :mod:`repro.analysis.export` (``schema_version`` +
  ``repro_version``, ``sort_keys``, ``allow_nan=False``).
- :func:`format_slowest_table` — plain/markdown top-N slowest-requests
  table for terminals and CI job summaries.
"""

from __future__ import annotations

import json
import math

from repro import __version__
from repro.analysis.report import format_table
from repro.obs.sampler import GaugeSampler, REPLICA_FIELDS
from repro.obs.trace import FLEET_TRACK, TraceCollector

#: Layout version of the obs export payloads (Perfetto ``otherData`` and
#: the time-series envelope).  Independent of the report schema in
#: :mod:`repro.analysis.export`: traces are diagnostics, not results.
TRACE_SCHEMA_VERSION = 1

#: Synthetic Perfetto process id for fleet-scoped tracks (chaos incident
#: windows, control-plane markers, fleet gauge counters).  Large so it
#: sorts after every real replica index.
FLEET_PID = 10_000


def _us(seconds: float) -> float:
    """Seconds -> trace_event microseconds (stable float rounding)."""
    return round(seconds * 1e6, 3)


def perfetto_trace(
    collector: TraceCollector,
    sampler: GaugeSampler | None = None,
    chaos: dict | None = None,
) -> dict:
    """Chrome ``trace_event`` payload (JSON-object format) for one run."""
    events: list[dict] = []
    replicas = {e.replica for e in collector.events if e.replica != FLEET_TRACK}
    if sampler is not None:
        for sample in sampler.samples:
            replicas.update(row[0] for row in sample.replicas)
    for idx in sorted(replicas):
        events.append(
            {
                "ph": "M",
                "pid": idx,
                "tid": 0,
                "name": "process_name",
                "args": {"name": f"replica {idx}"},
            }
        )
        events.append(
            {
                "ph": "M",
                "pid": idx,
                "tid": 0,
                "name": "process_sort_index",
                "args": {"sort_index": idx},
            }
        )
    events.append(
        {
            "ph": "M",
            "pid": FLEET_PID,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "fleet"},
        }
    )
    events.append(
        {
            "ph": "M",
            "pid": FLEET_PID,
            "tid": 0,
            "name": "process_sort_index",
            "args": {"sort_index": FLEET_PID},
        }
    )

    # Lifecycle events.  ``sorted`` is stable, so same-time events keep
    # their (deterministic) emission order.
    for e in sorted(collector.events, key=lambda ev: ev.t):
        pid = FLEET_PID if e.replica == FLEET_TRACK else e.replica
        record: dict = {
            "pid": pid,
            "tid": e.rid if e.rid is not None else 0,
            "name": e.kind,
            "cat": "request" if e.rid is not None else "fleet",
            "ts": _us(e.t),
        }
        args: dict = {}
        if e.rid is not None:
            args["rid"] = e.rid
        if e.data:
            args.update(e.data)
        if args:
            record["args"] = args
        if e.dur is not None:
            record["ph"] = "X"
            record["dur"] = _us(e.dur)
        else:
            record["ph"] = "i"
            record["s"] = "t" if e.rid is not None else "p"
        events.append(record)

    # Gauge counters: one queue + one KV track per replica, fleet counts
    # on the fleet track.
    if sampler is not None:
        for sample in sampler.samples:
            ts = _us(sample.t)
            for row in sample.replicas:
                idx, _state, waiting, running, kv_used, _kv_total, prefix = row
                events.append(
                    {
                        "ph": "C",
                        "pid": idx,
                        "tid": 0,
                        "name": "queue",
                        "ts": ts,
                        "args": {"running": running, "waiting": waiting},
                    }
                )
                events.append(
                    {
                        "ph": "C",
                        "pid": idx,
                        "tid": 0,
                        "name": "kv_blocks",
                        "ts": ts,
                        "args": {"prefix": prefix, "used": kv_used},
                    }
                )
            live, warming, draining, failed, _total = sample.fleet
            events.append(
                {
                    "ph": "C",
                    "pid": FLEET_PID,
                    "tid": 0,
                    "name": "replicas",
                    "ts": ts,
                    "args": {
                        "draining": draining,
                        "failed": failed,
                        "live": live,
                        "warming": warming,
                    },
                }
            )

    # Chaos incident windows as spans on the fleet track.
    if chaos:
        for start, end in chaos.get("incident_windows", []):
            events.append(
                {
                    "ph": "X",
                    "pid": FLEET_PID,
                    "tid": 0,
                    "cat": "incident",
                    "name": "incident",
                    "ts": _us(start),
                    "dur": _us(end - start),
                }
            )

    return {
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": f"repro {__version__}",
            "trace_schema": TRACE_SCHEMA_VERSION,
        },
        "traceEvents": events,
    }


def perfetto_json(
    collector: TraceCollector,
    sampler: GaugeSampler | None = None,
    chaos: dict | None = None,
    indent: int | None = None,
) -> str:
    """Strict-JSON text of :func:`perfetto_trace` (byte-deterministic)."""
    return json.dumps(
        perfetto_trace(collector, sampler, chaos),
        indent=indent,
        sort_keys=True,
        allow_nan=False,
    )


# ----------------------------------------------------------------------
# Gauge time-series export
# ----------------------------------------------------------------------
def series_to_dict(observer) -> dict:
    """Self-describing time-series payload for one observed run."""
    payload: dict = {
        "schema_version": TRACE_SCHEMA_VERSION,
        "repro_version": __version__,
    }
    sampler = observer.sampler
    if sampler is not None:
        payload["sample_period_s"] = sampler.period_s
        payload["requested_period_s"] = sampler.requested_period_s
        payload["samples"] = [
            {
                "t": sample.t,
                "fleet": {
                    "live": sample.fleet[0],
                    "warming": sample.fleet[1],
                    "draining": sample.fleet[2],
                    "failed": sample.fleet[3],
                    "total": sample.fleet[4],
                },
                "replicas": [
                    dict(zip(REPLICA_FIELDS, row)) for row in sample.replicas
                ],
            }
            for sample in sampler.samples
        ]
    if observer.iteration_logs is not None:
        payload["iteration_logs"] = {
            str(index): [
                {
                    "time_s": rec.time_s,
                    "kind": rec.kind,
                    "batch_size": rec.batch_size,
                    "latency_s": rec.latency_s,
                    "tokens_committed": rec.tokens_committed,
                    "tokens_accepted": rec.tokens_accepted,
                    "depth": rec.depth,
                    "width": rec.width,
                    "budget_used": rec.budget_used,
                }
                for rec in log.records
            ]
            for index, log in sorted(observer.iteration_logs.items())
        }
    return payload


def series_to_json(observer, indent: int = 2) -> str:
    """Strict-JSON text of :func:`series_to_dict`."""
    return json.dumps(
        series_to_dict(observer), indent=indent, sort_keys=True, allow_nan=False
    )


# ----------------------------------------------------------------------
# Top-N slowest requests
# ----------------------------------------------------------------------
def slowest_requests(requests, n: int = 10) -> list:
    """The ``n`` slowest requests by end-to-end latency.

    Unfinished requests (lost horizons, mid-incident casualties) are the
    slowest of all and rank first, ordered by arrival; finished requests
    follow by descending ``finish - arrival``.  Ties break on rid.
    """

    def key(req):
        if req.is_finished:
            return (0, -(req.finish_time - req.arrival_time), req.rid)
        return (1, req.arrival_time, req.rid)

    ranked = sorted(requests, key=key, reverse=False)
    unfinished = [r for r in ranked if not r.is_finished]
    finished = [r for r in ranked if r.is_finished]
    return (unfinished + finished)[:n]


def _fmt(value: float, digits: int = 3) -> str:
    if value is None or math.isinf(value) or math.isnan(value):
        return "-"
    return f"{value:.{digits}f}"


def format_slowest_table(
    requests,
    n: int = 10,
    markdown: bool = False,
    attributions: dict | None = None,
) -> str:
    """Plain/markdown table of the top-N slowest requests.

    ``attributions`` optionally maps rid -> dominant latency component
    (see :func:`repro.obs.attrib.decompose`); when given, an
    "attribution" column says where each slow request's time went.
    """
    header = (
        "rid",
        "category",
        "status",
        "arrival_s",
        "ttft_s",
        "tpot_ms",
        "e2e_s",
        "tokens",
        "preempt",
        "failover",
    )
    if attributions is not None:
        header += ("attribution",)
    rows = []
    for req in slowest_requests(requests, n):
        e2e = req.finish_time - req.arrival_time if req.is_finished else None
        tpot = req.avg_tpot
        row = (
            str(req.rid),
            req.category,
            "finished" if req.is_finished else "unfinished",
            _fmt(req.arrival_time),
            _fmt(req.ttft),
            _fmt(None if math.isinf(tpot) else tpot * 1e3, 1),
            _fmt(e2e),
            str(req.n_generated),
            str(req.preempt_count),
            str(req.failover_count),
        )
        if attributions is not None:
            row += (attributions.get(req.rid, "-"),)
        rows.append(row)
    if not rows:
        return "(no requests)"
    return format_table(header, rows, markdown)
