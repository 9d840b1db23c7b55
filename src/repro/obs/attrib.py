"""Exact per-request latency attribution from lifecycle traces.

Answers *why* a request was slow — the question the paper's SLO
attainment numbers pose but raw traces only let you eyeball in Perfetto.
:func:`decompose` partitions every request's end-to-end latency into
named components that **sum to the end-to-end latency by construction**
(the interval ``[arrival, end]`` is tiled by disjoint segments, then two
relabeling carve-outs move time between buckets without changing the
total), so the exactness property holds to float tolerance on every
scenario, chaos included:

================== ====================================================
component          meaning
================== ====================================================
queue_wait         waiting for admission / prefill budget, no fault or
                   preemption to blame (includes gaps between prefill
                   chunks while the request held no decode slot)
prefill_compute    first-pass prompt processing (engine prefill spans)
decode_compute     decode phase: prefill complete through last token
preempt_stall      everything a KV-pressure preemption cost: the stall
                   until re-admission plus the re-prefill redo compute
straggler_inflation the slowdown share ``(1 - 1/slow)`` of compute that
                   overlapped a straggler window on its replica
failover_redo      everything a replica crash cost the request: the
                   re-routing stall plus the re-prefill redo compute
prefix_miss_penalty the share of first-pass prefill a session request
                   re-computed because its prefix-cache lookup missed
================== ====================================================

The walk is a small state machine over the request's trace events in
stable time order: wait segments are labeled by the latest *reset
marker* (``preempt`` / ``failover``) seen, prefill spans are compute
(redo compute inherits the marker's bucket), and a prefill span whose
``prefilled`` payload reaches the prompt length flips the request into
the decode state.  Replica-local clocks can run slightly ahead of a
fleet-level marker (a crash lands between heap events), so segment
starts are clamped to the walk cursor — the tiling, and therefore the
exactness property, survives cross-replica clock skew.

Straggler windows are reconstructed per replica from
``straggler``/``straggler-end`` markers (a ``crash`` closes the window
early — the replacement engine is healthy; an open window closes at run
end).  The carve-out is overlap-based: a deterministic approximation of
the engine's per-iteration slowdown that never exceeds the segment it
relabels.  The prefix-miss penalty is counterfactual: for a session
request whose batch-entry lookup missed, the share of that pass's
prefill compute covering the previous turn's prompt+answer (the tokens
a hit would have skipped) is relabeled — sessionless and turn-0
requests are ineligible, so the component is zero when prefix caching
is off.

Everything downstream — per-category/per-replica aggregation tables,
the SLO-violation root-cause classifier, fleet-efficiency diagnostics,
and the strict-JSON export ``repro explain --baseline`` diffs — is a
pure function of the trace, so two same-seed runs export byte-identical
attributions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro import __version__
from repro._rng import fold_sum
from repro.analysis.report import format_table
from repro.obs.trace import TraceCollector
from repro.serving.metrics import _percentile_sorted

#: Attribution components, in canonical order.  The order is also the
#: classifier's tie-break: when two components account for exactly the
#: same time, the earlier one is reported as dominant.
COMPONENTS = (
    "queue_wait",
    "prefill_compute",
    "decode_compute",
    "preempt_stall",
    "straggler_inflation",
    "failover_redo",
    "prefix_miss_penalty",
)

#: Layout version of the attribution export payload.
ATTRIB_SCHEMA_VERSION = 1

#: Components sum to end-to-end latency within this tolerance (the
#: construction is exact; the tolerance absorbs float summation error).
SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class RequestAttribution:
    """One request's latency decomposition."""

    rid: int
    category: str
    #: Replica that served the request's last compute (enqueue replica
    #: when it never computed; -1 when it never reached a replica).
    replica: int
    finished: bool
    #: SLO violated (unfinished requests count as violations, matching
    #: :class:`~repro.serving.metrics.RunMetrics`).
    violated: bool
    arrival_s: float
    #: End-to-end latency: ``finish - arrival`` for finished requests,
    #: ``run end - arrival`` for unfinished ones.
    e2e_s: float
    #: ``COMPONENTS``-keyed seconds; values sum to ``e2e_s``.
    components: dict
    #: The component accounting for the most time (ties break toward the
    #: earlier entry in ``COMPONENTS``).
    dominant: str


def _straggler_windows(collector: TraceCollector, sim_end: float) -> dict:
    """Per-replica ``[(start, end, slow), ...]`` degradation windows.

    A new ``straggler`` on an already-degraded replica replaces the slow
    factor (the fleet overwrites ``engine.slow_factor``), closing the
    previous window; ``crash`` closes one early because the replacement
    engine comes back healthy; anything still open closes at ``sim_end``.
    """
    windows: dict[int, list[tuple[float, float, float]]] = {}
    open_at: dict[int, tuple[float, float]] = {}  # replica -> (start, slow)

    def close(replica: int, end: float) -> None:
        started = open_at.pop(replica, None)
        if started is not None:
            start, slow = started
            if end > start:
                windows.setdefault(replica, []).append((start, end, slow))

    for e in collector.events:
        if e.kind == "straggler":
            close(e.replica, e.t)
            open_at[e.replica] = (e.t, e.data["slow"])
        elif e.kind in ("straggler-end", "crash"):
            close(e.replica, e.t)
    for replica in sorted(open_at):
        close(replica, sim_end)
    return windows


def _overlap(start: float, end: float, windows) -> float:
    """Length of ``[start, end]`` covered by straggler windows, weighted
    by each window's inflation share ``(1 - 1/slow)``."""
    carved = 0.0
    for ws, we, slow in windows:
        ov = min(end, we) - max(start, ws)
        if ov > 0:
            carved += ov * (1.0 - 1.0 / slow)
    return carved


def _decompose_one(
    req,
    events,
    sim_end: float,
    windows: dict,
    prev_turn,
) -> RequestAttribution:
    """State-machine walk of one request's events (see module docstring)."""
    comps = dict.fromkeys(COMPONENTS, 0.0)
    # Compute segments for the relabeling carve-outs:
    # (start, end, component, replica, pass_id, is_prefill).
    segments: list[tuple[float, float, str, int, int, bool]] = []
    # Passes whose batch-entry prefix lookup missed (pass 0 = before any
    # reset marker; each preempt/failover starts a new pass).
    miss_passes: set[int] = set()

    arrival = req.arrival_time
    finished = req.is_finished
    end = req.finish_time if finished else sim_end
    cur = arrival
    decoding = False
    redo: str | None = None  # None | "preempt" | "failover"
    replica = -1
    pass_id = 0

    def wait_bucket() -> str:
        if redo == "preempt":
            return "preempt_stall"
        if redo == "failover":
            return "failover_redo"
        return "queue_wait"

    ordered = sorted(events, key=lambda e: e.t)  # stable: emission order on ties
    if not finished and ordered:
        # Replica-local clocks may overrun the fleet horizon slightly;
        # extend the interval so the tiling (and the exactness property)
        # covers every event.
        last = max(e.t + (e.dur or 0.0) for e in ordered)
        end = max(end, last)
    e2e = end - arrival

    for e in ordered:
        kind = e.kind
        if kind == "prefill":
            seg_start = max(cur, e.t)
            seg_end = max(cur, e.t + e.dur)
            if seg_start > cur:
                bucket = "decode_compute" if decoding else wait_bucket()
                comps[bucket] += seg_start - cur
                if decoding:
                    segments.append((cur, seg_start, bucket, replica, pass_id, False))
            if seg_end > seg_start:
                bucket = "prefill_compute" if redo is None else wait_bucket()
                comps[bucket] += seg_end - seg_start
                segments.append((seg_start, seg_end, bucket, e.replica, pass_id, True))
            cur = seg_end
            replica = e.replica
            if e.data["prefilled"] == req.prompt_len:
                decoding = True
                redo = None
        elif kind in ("preempt", "failover"):
            t = max(cur, e.t)
            bucket = "decode_compute" if decoding else wait_bucket()
            if t > cur:
                comps[bucket] += t - cur
                if decoding:
                    segments.append((cur, t, bucket, replica, pass_id, False))
            cur = t
            decoding = False
            redo = "preempt" if kind == "preempt" else "failover"
            pass_id += 1
        elif kind == "prefix-miss":
            miss_passes.add(pass_id)
        elif kind == "finish":
            t = max(cur, e.t)
            bucket = "decode_compute" if decoding else wait_bucket()
            if t > cur:
                comps[bucket] += t - cur
                if decoding:
                    segments.append((cur, t, bucket, replica, pass_id, False))
            cur = t
        elif kind == "enqueue" and replica == -1:
            replica = e.replica
        # decode spans are coalesced duplicates of the walk's decode
        # state; prefix-hit/rollback change no component.

    if end > cur:
        bucket = "decode_compute" if decoding else wait_bucket()
        comps[bucket] += end - cur
        if decoding:
            segments.append((cur, end, bucket, replica, pass_id, False))

    # Carve 1: straggler inflation.  Relabel the slowdown share of every
    # compute segment overlapping a degradation window on its replica.
    remaining: list[float] = []
    for start, seg_end, bucket, seg_replica, _pid, _pre in segments:
        seg_windows = windows.get(seg_replica)
        carved = _overlap(start, seg_end, seg_windows) if seg_windows else 0.0
        if carved > 0.0:
            comps[bucket] -= carved
            comps["straggler_inflation"] += carved
        remaining.append(seg_end - start - carved)

    # Carve 2: prefix-miss penalty.  For each missed pass of an eligible
    # session request, relabel the share of the pass's (post-straggler)
    # prefill compute that a cache hit would have skipped.
    if miss_passes and prev_turn is not None and req.prompt_len > 1:
        cacheable = min(
            prev_turn.prompt_len + prev_turn.n_generated, req.prompt_len - 1
        )
        fraction = cacheable / req.prompt_len
        if fraction > 0.0:
            for i, (_s, _e, bucket, _r, pid, is_prefill) in enumerate(segments):
                if is_prefill and pid in miss_passes:
                    carved = remaining[i] * fraction
                    comps[bucket] -= carved
                    comps["prefix_miss_penalty"] += carved

    dominant = max(COMPONENTS, key=lambda c: comps[c])  # ties: earliest wins
    return RequestAttribution(
        rid=req.rid,
        category=req.category,
        replica=replica,
        finished=finished,
        violated=not req.attained,
        arrival_s=arrival,
        e2e_s=e2e,
        components=comps,
        dominant=dominant,
    )


def decompose(
    collector: TraceCollector, requests, sim_end: float
) -> list[RequestAttribution]:
    """Per-request latency decomposition for one traced run.

    ``requests`` are the run's final :class:`~repro.serving.request.
    Request` objects; ``sim_end`` bounds unfinished requests (use the
    report's ``sim_time_s``).  Results are ordered by rid.
    """
    windows = _straggler_windows(collector, sim_end)
    by_turn = {}
    for req in requests:
        if req.session_id is not None:
            by_turn[(req.session_id, req.turn_index)] = req
    out = []
    for req in sorted(requests, key=lambda r: r.rid):
        prev_turn = (
            by_turn.get((req.session_id, req.turn_index - 1))
            if req.session_id is not None and req.turn_index > 0
            else None
        )
        out.append(
            _decompose_one(
                req, collector.for_request(req.rid), sim_end, windows, prev_turn
            )
        )
    return out


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _group_stats(group: list[RequestAttribution]) -> dict:
    """Component totals + p50/p99 breakdowns for one non-empty group."""
    stats: dict = {}
    n = len(group)
    for comp in COMPONENTS:
        values = sorted(a.components[comp] for a in group)
        total = fold_sum(values)
        stats[comp] = {
            "total_s": total,
            "mean_s": total / n,
            "p50_s": _percentile_sorted(values, 50.0),
            "p99_s": _percentile_sorted(values, 99.0),
        }
    e2e = sorted(a.e2e_s for a in group)
    return {
        "num_requests": n,
        "num_violated": sum(1 for a in group if a.violated),
        "components": stats,
        "e2e": {
            "total_s": fold_sum(e2e),
            "mean_s": fold_sum(e2e) / n,
            "p50_s": _percentile_sorted(e2e, 50.0),
            "p99_s": _percentile_sorted(e2e, 99.0),
        },
    }


def root_causes(attribs: list[RequestAttribution]) -> dict:
    """Violated-request count per dominant component (the classifier).

    Every SLO-violated request is labeled with its dominant latency
    component; components with zero violations are included so payload
    shapes stay stable across runs.
    """
    counts = dict.fromkeys(COMPONENTS, 0)
    for a in attribs:
        if a.violated:
            counts[a.dominant] += 1
    return counts


def fleet_efficiency(sampler) -> dict | None:
    """Fleet-efficiency diagnostics over one run's gauge series.

    Per replica: busy fraction (share of live samples with a non-empty
    running batch), a batch-size histogram over live samples, and
    *bubble* detection — samples where the replica sat live and
    completely idle (nothing running, nothing waiting) while another
    replica had a backlog, i.e. work existed that routing/draining left
    stranded.  ``None`` without a sampler or samples.
    """
    if sampler is None or not sampler.samples:
        return None
    per_replica: dict[int, dict] = {}
    bubble_windows: list[list[float]] = []
    open_bubble: float | None = None
    for sample in sampler.samples:
        backlog = sum(row[2] for row in sample.replicas)
        any_bubble = False
        for row in sample.replicas:
            idx, state, waiting, running = row[0], row[1], row[2], row[3]
            rec = per_replica.setdefault(
                idx,
                {"live_samples": 0, "busy_samples": 0, "bubble_samples": 0, "hist": {}},
            )
            if state != "live":
                continue
            rec["live_samples"] += 1
            hist = rec["hist"]
            hist[running] = hist.get(running, 0) + 1
            if running > 0:
                rec["busy_samples"] += 1
            elif waiting == 0 and backlog > 0:
                rec["bubble_samples"] += 1
                any_bubble = True
        if any_bubble:
            if open_bubble is None:
                open_bubble = sample.t
        elif open_bubble is not None:
            bubble_windows.append([open_bubble, sample.t])
            open_bubble = None
    if open_bubble is not None:
        bubble_windows.append([open_bubble, sampler.samples[-1].t])

    replicas = {}
    for idx in sorted(per_replica):
        rec = per_replica[idx]
        live = rec["live_samples"]
        replicas[str(idx)] = {
            "live_samples": live,
            "busy_fraction": rec["busy_samples"] / live if live else 0.0,
            "bubble_samples": rec["bubble_samples"],
            "bubble_fraction": rec["bubble_samples"] / live if live else 0.0,
            "batch_size_hist": {
                str(size): count for size, count in sorted(rec["hist"].items())
            },
        }
    return {
        "num_samples": len(sampler.samples),
        "sample_period_s": sampler.period_s,
        "replicas": replicas,
        "bubble_windows": bubble_windows,
    }


def attribution_to_dict(
    attribs: list[RequestAttribution],
    sim_time_s: float,
    sampler=None,
    chaos: dict | None = None,
) -> dict:
    """Self-describing attribution payload for one traced run.

    Everything ``repro explain`` prints or diffs lives here: fleet-wide
    component totals, per-category and per-replica tables with p50/p99
    breakdowns, the violation root-cause counts, one record per violated
    request, fleet-efficiency diagnostics (when a sampler ran), and —
    for chaos runs — the same attribution restricted to requests that
    arrived inside an incident window.
    """
    totals = {
        comp: fold_sum(a.components[comp] for a in attribs) for comp in COMPONENTS
    }
    by_category: dict[str, list[RequestAttribution]] = {}
    by_replica: dict[int, list[RequestAttribution]] = {}
    for a in attribs:
        by_category.setdefault(a.category, []).append(a)
        by_replica.setdefault(a.replica, []).append(a)

    payload: dict = {
        "schema_version": ATTRIB_SCHEMA_VERSION,
        "repro_version": __version__,
        "components": list(COMPONENTS),
        "sim_time_s": sim_time_s,
        "num_requests": len(attribs),
        "num_violated": sum(1 for a in attribs if a.violated),
        "e2e_total_s": fold_sum(a.e2e_s for a in attribs),
        "totals": totals,
        "per_category": {
            cat: _group_stats(by_category[cat]) for cat in sorted(by_category)
        },
        "per_replica": {
            str(idx): _group_stats(by_replica[idx]) for idx in sorted(by_replica)
        },
        "root_causes": root_causes(attribs),
        "violations": [
            {
                "rid": a.rid,
                "category": a.category,
                "replica": a.replica,
                "finished": a.finished,
                "dominant": a.dominant,
                "e2e_s": a.e2e_s,
                "components": {c: a.components[c] for c in COMPONENTS},
            }
            for a in attribs
            if a.violated
        ],
    }
    efficiency = fleet_efficiency(sampler)
    if efficiency is not None:
        payload["fleet"] = efficiency
    windows = (chaos or {}).get("incident_windows") or []
    if windows:
        incident = [
            a
            for a in attribs
            if any(start <= a.arrival_s <= end for start, end in windows)
        ]
        payload["incident"] = {
            "num_requests": len(incident),
            "num_violated": sum(1 for a in incident if a.violated),
            "totals": {
                comp: fold_sum(a.components[comp] for a in incident)
                for comp in COMPONENTS
            },
            "root_causes": root_causes(incident),
        }
    return payload


def attribution_to_json(payload: dict, indent: int = 2) -> str:
    """Strict-JSON text of an attribution payload (byte-deterministic)."""
    return json.dumps(payload, indent=indent, sort_keys=True, allow_nan=False)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
_SHORT = {
    "queue_wait": "queue",
    "prefill_compute": "prefill",
    "decode_compute": "decode",
    "preempt_stall": "preempt",
    "straggler_inflation": "straggler",
    "failover_redo": "failover",
    "prefix_miss_penalty": "prefix-miss",
}


def format_attribution(payload: dict, markdown: bool = False) -> str:
    """Human-readable attribution report (plain or GitHub markdown).

    Three sections: the per-category component table (seconds, with p99
    end-to-end latency), the violation root-cause table, and — when the
    payload carries fleet diagnostics — per-replica efficiency lines.
    """
    parts: list[str] = []

    header = (
        ("category", "n", "violated")
        + tuple(_SHORT[c] for c in COMPONENTS)
        + ("e2e p50", "e2e p99")
    )
    rows = [
        (cat, str(stats["num_requests"]), str(stats["num_violated"]))
        + tuple(f"{stats['components'][c]['total_s']:.3f}" for c in COMPONENTS)
        + (f"{stats['e2e']['p50_s']:.3f}", f"{stats['e2e']['p99_s']:.3f}")
        for cat, stats in payload["per_category"].items()
    ]
    parts.append(format_table(header, rows, markdown))

    causes = payload["root_causes"]
    violated = payload["num_violated"]
    rows = [
        (comp, str(causes[comp]), f"{causes[comp] / violated * 100:.1f}%" if violated else "-")
        for comp in COMPONENTS
        if causes[comp]
    ]
    if rows:
        parts.append(format_table(("root cause", "violations", "share"), rows, markdown))
    else:
        parts.append("no SLO violations")

    fleet = payload.get("fleet")
    if fleet is not None:
        lines = []
        for idx, rec in fleet["replicas"].items():
            hist = ", ".join(
                f"{size}x{count}" for size, count in rec["batch_size_hist"].items()
            )
            lines.append(
                f"- replica {idx}: busy {rec['busy_fraction'] * 100:.0f}% "
                f"of {rec['live_samples']} live samples, "
                f"{rec['bubble_samples']} bubble(s); batch sizes {hist or '-'}"
            )
        bubbles = fleet["bubble_windows"]
        if bubbles:
            spans = ", ".join(f"[{s:.1f}, {e:.1f}]" for s, e in bubbles)
            lines.append(f"- idle-while-backlogged windows: {spans}")
        parts.append("\n".join(lines))

    incident = payload.get("incident")
    if incident is not None:
        causes = incident["root_causes"]
        top = ", ".join(
            f"{comp}={causes[comp]}" for comp in COMPONENTS if causes[comp]
        )
        parts.append(
            f"incident windows: {incident['num_requests']} request(s), "
            f"{incident['num_violated']} violated"
            + (f" ({top})" if top else "")
        )

    return "\n\n".join(parts)
