"""Sarathi-Serve baseline: chunked prefill co-batched with decode.

Sarathi-Serve observes that prefill is compute-bound while decode
under-utilizes compute, and builds every iteration as a fixed token budget
filled first with decode tokens (one per running request) and topped up
with a *chunk* of the head-of-queue prompt.  Long prompts therefore never
monopolize an iteration — the stalls that continuous batching imposes on
decoding requests shrink to one chunk's worth — at the cost of slightly
slower prefill completion.
The chunk is the scheduler base's head-of-queue take, the same one
AdaServe folds into its verification pass.
"""

from __future__ import annotations

from repro.registry import SYSTEMS, Param
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

        # Top up the remaining token budget with a prompt chunk.  No
        # decode-slot check: the chunk may finish past the batch cap.
        prefill_chunks = self._take_head_chunk(self.chunk_budget - len(decode_batch))

        if not decode_batch and not prefill_chunks:
            # KV exhausted with nothing running: recover via base prefill
            # (which preempts/queues as needed).
            return self._prefill_or_stuck(now, "no progress possible")

        latency = self.engine.mixed_step(decode_batch, prefill_chunks, now, self._cohort)
        self._place_prefilled(prefill_chunks)
        return latency
