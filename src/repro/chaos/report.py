"""Incident accounting: fault timeline, recovery milestones, SLO impact.

The fleet keeps a :class:`ChaosLog` while a fault schedule is active and
:func:`build_chaos_report` condenses it — together with the run's final
request states — into a plain-dict incident report that is strict-JSON
safe (no NaN, ``None`` for "not applicable") and rides the normal report
export/cache round-trip.  :func:`format_incident_table` renders the same
dict for ``repro run``.

Glossary (also in the README):

- **recovery time**: per crash, from the crash instant until the last
  request evacuated from the dead replica finishes; ``None`` while any
  evacuated request is still unfinished at end of run.
- **requests disrupted**: requests evacuated from a crashed replica at
  least once (``failover_count > 0``).
- **requests lost**: disrupted requests still unfinished at end of run.
- **incident-window attainment**: SLO attainment restricted to requests
  that *arrived* inside a [crash, recovered] window (merged when crashes
  overlap), i.e. service quality while the fleet was degraded.
"""

from __future__ import annotations

from typing import Iterable

from repro._rng import fold_sum
from repro.serving.request import Request


class ChaosLog:
    """Append-only timeline of fault events as the fleet applies them."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def note(self, time_s: float, kind: str, **detail: object) -> None:
        record: dict = {"time_s": time_s, "kind": kind}
        record.update(detail)
        self.records.append(record)


def _merge_windows(windows: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of possibly-overlapping [start, end] intervals."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def build_chaos_report(
    log: ChaosLog,
    requests: Iterable[Request],
    sim_time_s: float,
) -> dict:
    """Condense the fault log plus final request states into one dict."""
    reqs = list(requests)
    by_rid = {r.rid: r for r in reqs}

    events: list[dict] = []
    crashes: list[dict] = []
    num_stragglers = 0
    for rec in log.records:
        event = {k: v for k, v in rec.items() if k != "requeued"}
        if rec["kind"] == "crash":
            rids = list(rec.get("requeued", ()))
            event["requeued"] = len(rids)
            finishes: list[float] = []
            lost = 0
            for rid in rids:
                req = by_rid.get(rid)
                if req is not None and req.is_finished and req.finish_time is not None:
                    finishes.append(req.finish_time)
                else:
                    lost += 1
            if lost == 0:
                recovered_at = max(finishes) if finishes else rec["time_s"]
                recovery = recovered_at - rec["time_s"]
            else:
                recovered_at = None
                recovery = None
            crashes.append(
                {
                    "time_s": rec["time_s"],
                    "replica": rec.get("replica"),
                    "restart_at_s": rec.get("restart_at_s"),
                    "requeued": len(rids),
                    "requests_lost": lost,
                    "recovered_at_s": recovered_at,
                    "recovery_time_s": recovery,
                }
            )
        elif rec["kind"] == "straggler":
            num_stragglers += 1
        events.append(event)

    requests_disrupted = sum(1 for r in reqs if r.failover_count > 0)
    requests_lost = sum(1 for r in reqs if r.failover_count > 0 and not r.is_finished)

    windows = _merge_windows(
        [
            (c["time_s"], c["recovered_at_s"] if c["recovered_at_s"] is not None else sim_time_s)
            for c in crashes
        ]
    )
    incident = None
    if windows:
        in_window = [
            r
            for r in reqs
            if any(start <= r.arrival_time <= end for start, end in windows)
        ]
        attained = sum(1 for r in in_window if r.is_finished and r.attained)
        incident = {
            "num_requests": len(in_window),
            "num_attained": attained,
            "attainment": attained / len(in_window) if in_window else None,
        }

    recoveries = [c["recovery_time_s"] for c in crashes if c["recovery_time_s"] is not None]
    return {
        "events": events,
        "crashes": crashes,
        "num_crashes": len(crashes),
        "num_stragglers": num_stragglers,
        "requests_disrupted": requests_disrupted,
        "requests_lost": requests_lost,
        "incident_windows": [[start, end] for start, end in windows],
        "incident": incident,
        "mean_recovery_time_s": (fold_sum(recoveries) / len(recoveries)) if recoveries else None,
    }


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_incident_table(chaos: dict) -> str:
    """Render an incident report: the event table, then summary lines."""
    # Imported here: the analysis package imports the fleet, which imports this module.
    from repro.analysis.report import format_table

    rows = []
    for event in chaos["events"]:
        detail_keys = [
            k for k in sorted(event) if k not in ("time_s", "kind", "replica")
        ]
        detail = ", ".join(f"{k}={_fmt(event[k])}" for k in detail_keys)
        rows.append(
            (_fmt(event["time_s"]), str(event["kind"]), _fmt(event.get("replica")), detail)
        )

    lines = [
        format_table(("t (s)", "event", "replica", "detail"), rows),
        "",
        f"crashes: {chaos['num_crashes']}  stragglers: {chaos['num_stragglers']}",
        f"requests disrupted: {chaos['requests_disrupted']}"
        f"  lost: {chaos['requests_lost']}",
        f"mean recovery time: {_fmt(chaos['mean_recovery_time_s'])} s",
    ]
    incident = chaos.get("incident")
    if incident is not None:
        lines.append(
            f"incident-window attainment: {_fmt(incident['attainment'])}"
            f" ({incident['num_attained']}/{incident['num_requests']} requests)"
        )
    return "\n".join(lines)
