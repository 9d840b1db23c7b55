"""vLLM + Priority baseline: urgent requests preempt during decode.

The Figure 1 "vLLM + Priority" configuration: requests carry a priority
(category-1/urgent = 0, others = 1) and urgent requests preempt
non-urgent ones at decode time.  To actually meet tight SLOs the system
must keep urgent decode batches *small* (batch latency grows with size),
which is the behaviour the paper critiques: urgent categories do well,
but constrained batches collapse overall throughput and congest the
relaxed categories.
"""

from __future__ import annotations

from repro.registry import SYSTEMS, Param
from repro.serving.scheduler_base import Scheduler

#: Cap on the urgent-only decode batch (small to keep latency low).
DEFAULT_URGENT_BATCH_CAP = 8


@SYSTEMS.register(
    "priority",
    params=[
        Param(
            "cap", "int", default=DEFAULT_URGENT_BATCH_CAP, dest="urgent_batch_cap", minimum=1,
            help="cap on the urgent-only decode batch",
        ),
    ],
    summary="strict-priority decode with constrained urgent batches",
)
class PriorityScheduler(Scheduler):
    """Strict-priority decode with constrained urgent batches."""

    name = "vLLM+Priority"

    def __init__(self, *args, urgent_batch_cap: int = DEFAULT_URGENT_BATCH_CAP, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if urgent_batch_cap < 1:
            raise ValueError("urgent_batch_cap must be >= 1")
        self.urgent_batch_cap = urgent_batch_cap

    def step(self, now: float) -> float:
        self._retire_finished()

        urgent = [r for r in self.running if r.priority == 0]

        # Urgent decodes preempt everything, including prefill, and run in
        # small batches ordered by SLO debt.
        if urgent:
            # ``requirement`` reads n_generated: write the lazy counts.
            self._cohort.materialize(urgent)
            urgent.sort(key=lambda r: r.requirement(now, 0.0), reverse=True)
            batch = self._admit_plain_decode(urgent[: self.urgent_batch_cap])
            if batch:
                return self.engine.decode(batch, now, self._cohort)

        # No urgent work: behave like vLLM (prefill priority, then decode).
        if self.waiting:
            latency = self._prefill_iteration(now)
            if latency is not None:
                return latency

        batch = self._admit_plain_decode(self.running[: self.max_batch_size])
        if batch:
            return self.engine.decode(batch, now, self._cohort)

        return self._prefill_or_stuck(now, "no progress possible")
