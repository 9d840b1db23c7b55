"""FastServe baseline: preemptive MLFQ (skip-join multi-level feedback queue).

FastServe attacks head-of-line blocking from long generations with
token-granular preemption: requests start in a high-priority queue and
are demoted as they consume their per-level quantum of output tokens, so
short outputs finish fast while long ones yield.  Our reproduction keeps
the queue structure and demotion rule; KV is retained across (logical)
preemptions, as FastServe keeps state in its proactive memory manager.
"""

from __future__ import annotations

from repro.registry import SYSTEMS
from repro.serving.request import Request
from repro.serving.scheduler_base import Scheduler

#: Output-token quanta per MLFQ level; the last level is unbounded.
DEFAULT_QUANTA = (16, 32, 64, 128)


@SYSTEMS.register(
    "fastserve",
    summary="preemptive skip-join MLFQ over output tokens (FastServe)",
)
class FastServeScheduler(Scheduler):
    """Skip-join MLFQ over output tokens with preemptive decode batches."""

    name = "FastServe"

    def __init__(self, *args, quanta: tuple[int, ...] = DEFAULT_QUANTA, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not quanta or any(q < 1 for q in quanta):
            raise ValueError("quanta must be positive")
        self.quanta = quanta
        #: Cumulative demotion thresholds: a request with n generated
        #: tokens sits at the first level whose threshold exceeds n.
        self._thresholds: list[int] = []
        acc = 0
        for q in quanta:
            acc += q
            self._thresholds.append(acc)

    def _level(self, req: Request) -> int:
        """MLFQ level of a request (0 = highest priority).

        Reads the lazy decode count, so ranking the pool each step
        materializes nothing.
        """
        generated = self._cohort.generated(req)
        for lvl, threshold in enumerate(self._thresholds):
            if generated < threshold:
                return lvl
        return len(self._thresholds)

    def step(self, now: float) -> float:
        self._retire_finished()

        # Prefill priority (new arrivals enter the top queue quickly).
        if self.waiting:
            latency = self._prefill_iteration(now)
            if latency is not None:
                return latency

        if not self.running:
            return self._prefill_or_stuck(now, "no progress possible")

        # Decode only the highest non-empty level: lower levels are
        # (logically) preempted this iteration.
        top = min(self._level(r) for r in self.running)
        batch = [r for r in self.running if self._level(r) == top]
        batch.sort(key=lambda r: r.arrival_time)
        batch = self._admit_plain_decode(batch[: self.max_batch_size])
        if not batch:
            return self._prefill_or_stuck(now, "KV exhausted")
        return self.engine.decode(batch, now, self._cohort)
