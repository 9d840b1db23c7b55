"""VTC baseline: fair serving via virtual token counters.

VTC (Virtual Token Counter) provides service-level fairness: each service
(here, each request category) accrues a counter of weighted tokens served,
and the scheduler always dispatches work for the service with the lowest
counter.  This equalizes service *across categories* — which, as Figure 1
shows, is orthogonal to meeting heterogeneous SLOs: the fair share it
hands a summarization service is indistinguishable from what it hands a
latency-critical copilot.
"""

from __future__ import annotations

from collections import defaultdict

from repro.registry import SYSTEMS
from repro.serving.request import Request
from repro.serving.scheduler_base import Scheduler

#: Weight of a prompt token relative to an output token in the counter
#: (VTC counts input tokens at a reduced weight).
INPUT_TOKEN_WEIGHT = 0.5


@SYSTEMS.register(
    "vtc",
    summary="fair-share decode via per-category virtual token counters",
)
class VTCScheduler(Scheduler):
    """Fair-share decode ordered by per-category virtual token counters."""

    name = "VTC"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.counters: dict[str, float] = defaultdict(float)

    def step(self, now: float) -> float:
        self._retire_finished()

        if self.waiting:
            latency = self._prefill_iteration(now)
            if latency is not None:
                return latency

        if not self.running:
            return self._prefill_or_stuck(now, "no progress possible")

        # Fill the decode batch in ascending counter order; requests from
        # the least-served category go first.
        order = sorted(
            self.running, key=lambda r: (self.counters[r.category], r.arrival_time)
        )
        batch = self._admit_plain_decode(order[: self.max_batch_size])
        if not batch:
            return self._prefill_or_stuck(now, "KV exhausted")
        latency = self.engine.decode(batch, now, self._cohort)
        for req in batch:
            self.counters[req.category] += 1.0
        return latency

    def _take_prefill_batch(self) -> list[tuple[Request, int]]:
        """FCFS prefill batch, charging its prompt tokens to category counters."""
        batch = super()._take_prefill_batch()
        for req, tokens in batch:
            self.counters[req.category] += INPUT_TOKEN_WEIGHT * tokens
        return batch
