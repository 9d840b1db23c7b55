"""vLLM-style continuous batching baseline.

The reference uniform-serving policy (§2): iteration-granularity
continuous batching where every running request decodes one token per
iteration, so all batched requests experience the same per-token latency.
Prefill takes priority — newly arrived prompts are processed in dedicated
FCFS prefill iterations before decoding resumes (vLLM's default
scheduling), which is precisely the behaviour whose SLO-blindness the
paper's Figure 1 demonstrates.
"""

from __future__ import annotations

from repro.registry import SYSTEMS
from repro.serving.scheduler_base import Scheduler


@SYSTEMS.register(
    "vllm",
    summary="continuous batching with prefill priority, uniform decode",
)
class VLLMScheduler(Scheduler):
    """Continuous batching with prefill priority and uniform decode."""

    name = "vLLM"

    def step(self, now: float) -> float:
        self._retire_finished()

        # Prefill-priority: drain the waiting queue first.
        if self.waiting:
            latency = self._prefill_iteration(now)
            if latency is not None:
                return latency
            # KV exhausted: fall through to decode, which frees blocks as
            # requests finish.

        batch = self._admit_plain_decode(self.running[: self.max_batch_size])
        if not batch:
            # Nothing decodable; force forward progress by preempting the
            # newest running request to make room (degenerate KV pressure).
            return self._prefill_or_stuck(now, "no prefill and no decode possible")
        return self.engine.decode(batch, now, self._cohort)
