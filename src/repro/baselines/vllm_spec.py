"""vLLM-Spec baseline: continuous batching + static sequence speculation.

The strongest baseline in the paper's evaluation: vLLM with speculative
decoding at a *fixed* speculation length n (vLLM-Spec(4/6/8)).  Every
decode iteration drafts an n-token chain per running request (greedy draft
decoding, n sequential draft steps over the batch) and verifies all chains
in one target pass.

The static strategy is exactly what the paper critiques (§6.2): at low
load it under-speculates and leaves the hardware idle; at high load it
floods verification with n tokens per request regardless of the budget,
inflating iteration latency for everyone.
"""

from __future__ import annotations

from repro.core.speculation import Chain, commit_chain, draft_chains
from repro.model.acceptance import verify_sequence
from repro.registry import SYSTEMS, Param
from repro.serving.request import Request
from repro.serving.scheduler_base import Scheduler


@SYSTEMS.register(
    "vllm-spec",
    params=[
        Param(
            "k", "int", default=4, dest="spec_len", minimum=1,
            help="static speculation length (tokens drafted per request per iteration)",
        ),
    ],
    aliases={
        "vllm-spec-4": {"k": 4},
        "vllm-spec-6": {"k": 6},
        "vllm-spec-8": {"k": 8},
    },
    summary="vLLM + fixed-length sequence speculative decoding",
)
class VLLMSpecScheduler(Scheduler):
    """Static-length sequence speculative decoding on continuous batching.

    Parameters
    ----------
    spec_len:
        Number of tokens drafted per request per iteration (the paper's
        vLLM-Spec(n)).
    """

    def __init__(self, *args, spec_len: int = 4, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if spec_len < 1:
            raise ValueError("spec_len must be >= 1")
        self.spec_len = spec_len
        self.name = f"vLLM-Spec({spec_len})"

    def _draft_chains(self, batch: list[Request]) -> list[Chain]:
        """Greedy ``spec_len``-token chains for the whole batch (lockstep)."""
        return draft_chains(
            self.engine.pair,
            [(r.ctx, r.predictability) for r in batch],
            self.spec_len,
        )

    def step(self, now: float) -> float:
        self._retire_finished()

        if self.waiting:
            latency = self._prefill_iteration(now)
            if latency is not None:
                return latency

        batch = self.running[: self.max_batch_size]
        # Reserve room for accepted tokens + correction.
        batch = self._ensure_kv_for_decode(batch, extra_tokens=self.spec_len + 1)
        if not batch:
            latency = self._prefill_iteration(now)
            if latency is not None:
                return latency
            raise RuntimeError("vLLM-Spec scheduler stuck: no progress possible")

        # Draft phase: spec_len sequential steps over the whole batch.
        context = self._last_decode_context
        chains = self._draft_chains(batch)
        draft_latency = self.engine.sequence_draft_cost(self.spec_len, len(batch), context)

        # Verify phase: all chains in one target pass.
        verify_tokens = self.spec_len * len(batch)
        verify_latency = self.engine.verify_cost(verify_tokens, context)

        latency = draft_latency + verify_latency + self.engine.step_overhead_s
        end = now + latency
        for req, chain in zip(batch, chains):
            accepted, _correction, new_ctx = verify_sequence(
                self.engine.pair, req.ctx, chain, req.predictability, chain.emitted
            )
            commit_chain(self.engine.pair, req, chain, accepted, new_ctx, end)
        self.engine.iterations += 1
        return latency
