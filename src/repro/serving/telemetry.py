"""Per-iteration telemetry.

Production serving systems expose per-iteration counters (batch size,
speculation shape, tokens proposed/accepted, latency) for dashboards and
autoscaling.  ``IterationLog`` is the simulator's equivalent: the engine
appends one record per priced pass (prefill, decode, mixed or
speculative), whatever the scheduler, so a log has one record per
iteration; analysis code (the ``adaptive_speculation`` example,
ablations) reads time series from it without monkey-patching scheduler
internals.

Recording is opt-in (``engine.telemetry = IterationLog()``): the hot loop
pays nothing when disabled.  The observability layer wires this up for
you: a :class:`~repro.obs.observer.RunObserver` with ``iteration_log``
set attaches one log per replica (crash-replacement engines append to
their predecessor's log), and ``repro explain --iteration-log`` exports
the records under ``--series-out``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._rng import fold_sum


@dataclass(frozen=True)
class IterationRecord:
    """One engine pass's observables."""

    time_s: float
    kind: str  # "prefill" | "decode" | "speculative" | "mixed"
    batch_size: int  # decoding requests; a prefill pass's prompts
    latency_s: float
    tokens_committed: int = 0
    depth: int = 0
    width: int = 0
    budget_used: int = 0
    tokens_accepted: int = 0


@dataclass
class IterationLog:
    """Append-only log of iteration records with simple query helpers."""

    records: list[IterationRecord] = field(default_factory=list)

    def record(self, rec: IterationRecord) -> None:
        """Append one iteration."""
        self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

    def of_kind(self, kind: str) -> list[IterationRecord]:
        """All records of one iteration kind."""
        return [r for r in self.records if r.kind == kind]

    def bucketed_mean(self, attr: str, bucket_s: float) -> list[tuple[float, float]]:
        """Mean of an attribute per time bucket (for load/shape plots)."""
        if bucket_s <= 0:
            raise ValueError("bucket_s must be positive")
        if not self.records:
            return []
        out: list[tuple[float, float]] = []
        horizon = max(r.time_s for r in self.records)
        t = 0.0
        while t <= horizon:
            window = [r for r in self.records if t <= r.time_s < t + bucket_s]
            if window:
                vals = [float(getattr(r, attr)) for r in window]
                out.append((t, fold_sum(vals) / len(vals)))
            t += bucket_s
        return out

