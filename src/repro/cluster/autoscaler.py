"""Queue-depth-driven fleet autoscaling with warm-up delay.

The autoscaler watches queue depth per replica at fleet event boundaries
(throttled to a check interval) and issues one scaling decision at a
time:

- **up** when the fleet-wide mean *backlog* (waiting requests, i.e. work
  the engines have not started — running batch occupancy is healthy
  utilization, not a scaling signal) per replica exceeds
  ``scale_up_queue`` — the new replica only becomes routable after
  ``warmup_s`` of simulated time, modeling instance boot + weight load,
  so scale-up never instantly absorbs a burst;
- **down** when the mean *outstanding* work (waiting + running) drops
  below ``scale_down_queue`` — i.e. the fleet is nearly idle, not merely
  backlog-free — and the fleet is above ``min_replicas``; the victim
  drains (keeps its owned work, receives nothing new) and is retired
  once empty.

Replicas still warming up count toward capacity when deciding to scale
up, so one sustained burst adds replicas at the check cadence rather
than all at once.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro.cluster.replica import Replica
from repro.registry import SpecError, UnknownParamError, integer_field, real_field


@dataclass(frozen=True)
class AutoscalerConfig:
    """Scaling thresholds and timing knobs."""

    min_replicas: int = 1
    max_replicas: int = 8
    #: Seconds between scaling evaluations.
    check_interval_s: float = 2.0
    #: Mean waiting (backlogged) requests per replica that triggers scale-up.
    scale_up_queue: float = 8.0
    #: Mean outstanding requests (waiting + running) per replica below
    #: which the fleet scales down.
    scale_down_queue: float = 1.0
    #: Delay before a new replica becomes routable.
    warmup_s: float = 5.0

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise SpecError("min_replicas must be >= 1")
        if self.max_replicas < self.min_replicas:
            raise SpecError("max_replicas must be >= min_replicas")
        # A NaN warm-up would leave a scaled-up replica never routable.
        for name in ("check_interval_s", "scale_up_queue", "scale_down_queue", "warmup_s"):
            if not math.isfinite(getattr(self, name)):
                raise SpecError(f"autoscaler {name} must be finite, got {getattr(self, name)!r}")
        if self.check_interval_s <= 0 or self.warmup_s < 0:
            raise SpecError("check_interval_s must be > 0 and warmup_s >= 0")
        if self.scale_down_queue >= self.scale_up_queue:
            raise SpecError("scale_down_queue must be < scale_up_queue")

    @classmethod
    def resolve(cls, knobs, initial_replicas: int) -> "AutoscalerConfig":
        """Knobs plus fleet-aware defaults, validated against the fleet.

        The single place where knobs are checked (an unknown or
        non-numeric one is a ``SpecError``; counts become ints), where
        ``max_replicas`` defaults (to twice the initial fleet) and where a
        ceiling below the initial fleet is rejected — both the
        experiment-config cache key and the harness resolve through here,
        so they can never disagree.
        """
        fields = set(cls.__dataclass_fields__)
        unknown = set(knobs) - fields
        if unknown:
            raise UnknownParamError(
                f"unknown autoscale knobs {sorted(unknown)}; available: {sorted(fields)}"
            )
        values = dict(knobs)
        for name, value in values.items():
            if name.endswith("_replicas"):
                # Counts may arrive as integral floats (e.g. from JSON round-trips).
                values[name] = integer_field(f"autoscale.{name}", value)
            else:
                # Checked, not converted: the spelling stays in the cache key.
                real_field(f"autoscale.{name}", value)
        values.setdefault("max_replicas", max(2 * initial_replicas, values.get("min_replicas", 1)))
        config = cls(**values)
        if config.max_replicas < initial_replicas:
            raise SpecError(
                f"autoscale max_replicas ({config.max_replicas}) is below "
                f"the initial fleet size ({initial_replicas})"
            )
        return config


@dataclass(frozen=True)
class ScaleEvent:
    """One scaling action, recorded for fleet reports."""

    time_s: float
    action: str  # "up" | "down"
    replica_index: int


class Autoscaler:
    """Stateful decision loop over an :class:`AutoscalerConfig`."""

    def __init__(self, config: AutoscalerConfig) -> None:
        self.config = config
        self._next_check = 0.0

    def decide(self, now: float, replicas: Sequence[Replica]) -> int:
        """Scaling decision at ``now``: +1 (up), -1 (down), or 0.

        ``replicas`` is the full fleet; warming and draining states are
        read off each replica.  At most one decision per check interval.
        """
        if now < self._next_check:
            return 0
        self._next_check = now + self.config.check_interval_s

        # Failed replicas (chaos crashes) are excluded from serving
        # capacity: their evacuated requests land as backlog on the
        # survivors, so a crash reads as scale-up pressure — but they
        # still occupy hardware, so the live ceiling below counts them.
        active = [r for r in replicas if not r.retired and not r.draining and not r.failed]
        if not active:
            return 0
        warm = [r for r in active if r.available_at <= now]
        if not warm:
            return 0
        # Scale-up keys on backlog (requests the engines have not even
        # started): a full running batch is healthy utilization, not a
        # reason to grow.  Warming replicas hold no load yet but count as
        # capacity already on the way (the denominator), damping repeated
        # scale-ups from one sustained burst.
        mean_backlog = sum(r.waiting_requests for r in warm) / len(active)

        # The ceiling bounds *live* replicas (draining ones still occupy
        # hardware until they retire), so concurrent fleet size can never
        # exceed max_replicas.
        live = sum(1 for r in replicas if not r.retired)
        if mean_backlog > self.config.scale_up_queue and live < self.config.max_replicas:
            return 1

        # Scale-down keys on total outstanding work: shrink only when the
        # fleet is nearly idle, not merely backlog-free.
        mean_outstanding = sum(r.queued_requests for r in warm) / len(warm)
        if (
            mean_outstanding < self.config.scale_down_queue
            and len(warm) > self.config.min_replicas
        ):
            return -1
        return 0

    # ------------------------------------------------------------------

    def pick_drain_victim(self, replicas: Sequence[Replica]) -> Replica | None:
        """Least-loaded warm replica, by (queued tokens, highest index).

        Highest index breaks ties so autoscaled additions retire before
        the original fleet.
        """
        candidates = [
            r for r in replicas if not r.retired and not r.draining and not r.failed
        ]
        if len(candidates) <= self.config.min_replicas:
            return None
        return min(candidates, key=lambda r: (r.queued_tokens, -r.index))
