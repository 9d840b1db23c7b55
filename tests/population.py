"""Population-scale workload-generation benchmark.

This harness measures the **workload substrate** at a million-user
population-scale operating point: a session
trace sized so that >100k conversations are simultaneously open inside
the generation window.  At that scale the per-``Request``-object path
is memory-bound long before it is compute-bound, so the benchmark pins
the three properties the columnar substrate
(:mod:`repro.workloads.batcharrivals`) exists to provide:

- **throughput** — building the column store must beat the scalar
  oracle (``tests/conftest.py::reference_sessions``, which builds one
  ``Request`` object at a time) by at least :data:`MIN_SPEEDUP`;
- **memory** — tracemalloc peak during the columnar build must stay
  under the committed :data:`PEAK_MEMORY_CEILING_MB` (the resident
  column store itself is 64 B/request);
- **identity** — materializing the column store in slices must reproduce
  the oracle's requests byte-for-byte (one SHA-256 over every
  schedulable field of every request, in trace order).

Each property is a hard **gate**: :func:`gate_failures` turns any
violation into an error line, and the tier-1 test
``tests/test_perfbench.py`` asserts that there are none.  The same test
pins the row's ``digest`` to its committed value, so a fixed-seed change
to workload generation fails it even when the columnar build and the
oracle still agree with each other.

The speedup gate compares the oracle's end-to-end generation against the
*columnar build*, because the column store is the population-scale
generation substrate: a consumer keeps the columns and materializes the
row slices it needs (``materialize(lo, hi)``) instead of holding the
full object list.  The sliced materialization rate is reported
alongside as context, not gated.

:func:`gate_failures` reports a missing or skipped row as a failure: a
gate that was not run enforces nothing.
"""

from __future__ import annotations

import hashlib
import time
import tracemalloc

import numpy as np

from repro.workloads import batcharrivals

from tests.conftest import reference_sessions

#: The committed operating point.  seed=3 at 1400 req/s over a 10-minute
#: window with 6-turn conversations and 3-minute think times yields
#: ~363k requests across ~140k sessions, ~132k of them simultaneously
#: open at the peak — comfortably past the 100k-session floor.
POPULATION_CONFIG: dict = {
    "model_deployment": "llama70b-4xa100",
    "seed": 3,
    "duration_s": 600.0,
    "rps": 1400.0,
    "turns": 6,
    "think_time_s": 180.0,
    "system_prompt": 256,
}

#: Gate: sessions simultaneously open at the busiest instant.
MIN_CONCURRENT_SESSIONS = 100_000

#: Gate: scalar-generation wall over columnar-build wall.
MIN_SPEEDUP = 5.0

#: Gate: tracemalloc peak (MB) while building the column store.  The
#: store itself is 64 B/request (~23 MB here); the ceiling covers the
#: transient session-grid intermediates (~117 MB measured) with margin
#: while still catching any O(n)-object regression, which would blow
#: past it immediately (~363k Request objects are several hundred MB).
PEAK_MEMORY_CEILING_MB = 192.0


def _session_generator():
    """A fresh generator pair for the committed operating point."""
    from repro.hardware.roofline import RooflineModel
    from repro.hardware.spec import DEPLOYMENT_PRESETS
    from repro.workloads.generator import WorkloadGenerator
    from repro.workloads.sessions import SessionGenerator

    cfg = POPULATION_CONFIG
    roofline = RooflineModel(DEPLOYMENT_PRESETS[cfg["model_deployment"]])
    base = WorkloadGenerator(roofline, seed=cfg["seed"])
    return SessionGenerator(
        base,
        turns=cfg["turns"],
        think_time_s=cfg["think_time_s"],
        system_prompt=cfg["system_prompt"],
    )


def peak_concurrent_sessions(
    work: "batcharrivals.ColumnarWorkload", duration_s: float, turns: int
) -> int:
    """Most sessions simultaneously open anywhere in the window.

    A session opens at its first kept arrival.  It closes at its last
    kept arrival — unless the window cut it (fewer than ``turns`` turns
    kept), in which case the conversation is still open at window end
    and counts as occupying the population until ``duration_s``.
    """
    sid = np.asarray(work.session_id)
    arrival = np.asarray(work.arrival)
    turn_index = np.asarray(work.turn_index)
    _, inv = np.unique(sid, return_inverse=True)
    n_sessions = int(inv.max()) + 1 if inv.size else 0
    if n_sessions == 0:
        return 0
    first = np.full(n_sessions, np.inf)
    last = np.full(n_sessions, -np.inf)
    np.minimum.at(first, inv, arrival)
    np.maximum.at(last, inv, arrival)
    max_turn = np.full(n_sessions, -1, dtype=np.int64)
    np.maximum.at(max_turn, inv, turn_index)
    window_cut = max_turn < turns - 1
    end = np.where(window_cut, duration_s, last)
    events = np.concatenate([first, end])
    deltas = np.concatenate(
        [np.ones(n_sessions, np.int64), -np.ones(n_sessions, np.int64)]
    )
    # Opens before closes at equal timestamps: a session ending exactly
    # when another begins still overlaps it for an instant.
    order = np.lexsort((-deltas, events))
    return int(np.max(np.cumsum(deltas[order])))


def request_digest(requests) -> str:
    """SHA-256 over every schedulable field of every request, in order.

    Covers everything the simulator reads from a freshly generated
    request — identity, timing, lengths, SLO, session linkage, and
    prefix segments — with floats in hex so the digest is exact.
    Accepts any iterable, so the columnar side can stream slices
    without ever holding the full object list.
    """
    digest = hashlib.sha256()
    for r in requests:
        digest.update(
            (
                f"{r.rid},{r.category},{r.arrival_time.hex()},"
                f"{r.prompt_len},{r.max_new_tokens},{r.tpot_slo.hex()},"
                f"{r.predictability.hex()},{r.priority},"
                f"{r.session_id},{r.turn_index},{r.prompt_segments}\n"
            ).encode("utf-8")
        )
    return f"sha256:{digest.hexdigest()}"


def run_population() -> dict:
    """Execute the population benchmark; returns its result row.

    Wall clocks and the tracemalloc peak come from separate builds so
    the instrumentation never pollutes the timing.  The scalar
    reference is the conftest oracle on a fresh generator.
    """
    cfg = POPULATION_CONFIG
    row: dict = {"name": "population-100k", "config": dict(cfg)}
    duration_s, rps = cfg["duration_s"], cfg["rps"]

    # Timed columnar build (the substrate population-scale consumers use).
    start = time.perf_counter()
    work = _session_generator().columnar(duration_s, rps)
    columnar_wall = time.perf_counter() - start
    n = len(work)

    # Memory peak, untimed: a second build under tracemalloc.
    tracemalloc.start()
    probe = _session_generator().columnar(duration_s, rps)
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del probe

    peak_sessions = peak_concurrent_sessions(work, duration_s, cfg["turns"])
    sessions = int(np.unique(np.asarray(work.session_id)).size)

    # Sliced materialization + digest (streaming; never the full list).
    start = time.perf_counter()
    digest = request_digest(
        r for lo in range(0, n, 8192) for r in work.materialize(lo, lo + 8192)
    )
    materialize_wall = time.perf_counter() - start

    # Scalar reference: the oracle's object-materializing generation.
    start = time.perf_counter()
    scalar_requests = reference_sessions(_session_generator(), duration_s, rps)
    scalar_wall = time.perf_counter() - start
    scalar_digest = request_digest(scalar_requests)
    del scalar_requests

    speedup = scalar_wall / columnar_wall if columnar_wall > 0 else 0.0
    peak_mb = peak_bytes / 1e6
    row.update(
        {
            "requests": n,
            "sessions": sessions,
            "peak_concurrent_sessions": peak_sessions,
            "columnar_wall_s": columnar_wall,
            "columnar_req_per_s": n / columnar_wall if columnar_wall > 0 else 0.0,
            "materialize_wall_s": materialize_wall,
            "materialize_req_per_s": (
                n / materialize_wall if materialize_wall > 0 else 0.0
            ),
            "scalar_wall_s": scalar_wall,
            "scalar_req_per_s": n / scalar_wall if scalar_wall > 0 else 0.0,
            "speedup": speedup,
            "column_store_bytes": work.nbytes,
            "bytes_per_request": work.nbytes / n if n else 0.0,
            "tracemalloc_peak_mb": peak_mb,
            "digest": digest,
            "scalar_digest": scalar_digest,
            "gates": {
                "concurrent_sessions": {
                    "min": MIN_CONCURRENT_SESSIONS,
                    "value": peak_sessions,
                    "ok": peak_sessions >= MIN_CONCURRENT_SESSIONS,
                },
                "peak_memory_mb": {
                    "max": PEAK_MEMORY_CEILING_MB,
                    "value": peak_mb,
                    "ok": peak_mb <= PEAK_MEMORY_CEILING_MB,
                },
                "speedup": {
                    "min": MIN_SPEEDUP,
                    "value": speedup,
                    "ok": speedup >= MIN_SPEEDUP,
                },
                "byte_identity": {
                    "value": digest == scalar_digest,
                    "ok": digest == scalar_digest,
                },
            },
        }
    )
    return row


def gate_failures(row: dict | None) -> list[str]:
    """Error lines for every failed population gate (empty when clean).

    A missing or skipped row is itself a failure: its gates were never
    measured.  A present row with any ``ok: false`` gate is a hard
    failure too.
    """
    if not row:
        return ["error: population row missing; its gates were not run"]
    if "skipped" in row or "gates" not in row:
        reason = row.get("skipped", "no gates recorded")
        return [f"error: population row skipped ({reason}); its gates were not run"]
    failures = []
    for name, gate in row["gates"].items():
        if gate["ok"]:
            continue
        bound = (
            f">= {gate['min']}" if "min" in gate
            else f"<= {gate['max']}" if "max" in gate
            else "== scalar"
        )
        failures.append(
            f"error: population gate {name!r} failed: "
            f"value {gate['value']} not {bound}"
        )
    return failures
