"""Sarathi-Serve baseline: chunked prefill co-batched with decode.

Sarathi-Serve observes that prefill is compute-bound while decode
under-utilizes compute, and builds every iteration as a fixed token budget
filled first with decode tokens (one per running request) and topped up
with a *chunk* of the head-of-queue prompt.  Long prompts therefore never
monopolize an iteration — the stalls that continuous batching imposes on
decoding requests shrink to one chunk's worth — at the cost of slightly
slower prefill completion.
"""

from __future__ import annotations

from repro.registry import SYSTEMS, Param
from repro.serving.kv_cache import OutOfKVCache
from repro.serving.request import RequestState
from repro.serving.scheduler_base import Scheduler

#: Sarathi's per-iteration token budget (decode tokens + prefill chunk).
DEFAULT_CHUNK_BUDGET = 256


@SYSTEMS.register(
    "sarathi",
    params=[
        Param(
            "chunk", "int", default=DEFAULT_CHUNK_BUDGET, dest="chunk_budget", minimum=1,
            help="per-iteration token budget (decode tokens + prefill chunk)",
        ),
    ],
    summary="chunked prefill co-batched with decode (Sarathi-Serve)",
)
class SarathiScheduler(Scheduler):
    """Chunked-prefill co-batching (vLLM + chunked prefill in Figure 1)."""

    name = "Sarathi-Serve"

    def __init__(self, *args, chunk_budget: int = DEFAULT_CHUNK_BUDGET, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if chunk_budget < 1:
            raise ValueError("chunk_budget must be >= 1")
        self.chunk_budget = chunk_budget

    def step(self, now: float) -> float:
        self._retire_finished()

        decode_batch = self._admit_plain_decode(self.running[: self.max_batch_size])

        # Top up the remaining token budget with a prompt chunk.
        budget_left = max(0, self.chunk_budget - len(decode_batch))
        prefill_chunks: list[tuple] = []
        if self.waiting and budget_left > 0:
            head = self.waiting[0]
            if self._allocate_head_prefix(head, budget_left):
                chunk = min(budget_left, head.remaining_prompt)
                prefill_chunks.append((head, chunk))

        if not decode_batch and not prefill_chunks:
            # KV exhausted with nothing running: recover via base prefill
            # (which preempts/queues as needed).
            latency = self._prefill_iteration(now)
            if latency is not None:
                return latency
            raise RuntimeError("Sarathi scheduler stuck: no progress possible")

        latency = self.engine.mixed_step(decode_batch, prefill_chunks, now, self._cohort)
        for req, _ in prefill_chunks:
            # Always the head of the queue; popleft avoids deque.remove's
            # full-field dataclass comparisons.
            if self.waiting and self.waiting[0] is req:
                self.waiting.popleft()
            else:  # pragma: no cover - defensive
                self.waiting.remove(req)
            if req.state == RequestState.RUNNING:
                self.running.append(req)
            else:
                self.waiting.appendleft(req)  # more chunks to go
        return latency

    def _allocate_head_prefix(self, req, chunk: int) -> bool:
        """Reserve KV for the next chunk of the head-of-queue prompt."""
        fresh_hit = self._lock_prefix(req)
        try:
            self.engine.kv.ensure(
                req.rid, req.prefilled + min(chunk, req.remaining_prompt) + self.engine.kv.block_size
            )
        except OutOfKVCache:
            self._unlock_prefix(req, fresh_hit)
            return False
        return True
