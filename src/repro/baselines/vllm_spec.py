"""vLLM-Spec baseline: continuous batching + static sequence speculation.

The strongest baseline in the paper's evaluation: vLLM with speculative
decoding at a *fixed* speculation length n (vLLM-Spec(4/6/8)).  Every
decode iteration drafts an n-token chain per running request (greedy draft
decoding, n sequential draft steps over the batch) and verifies all chains
in one target pass: :class:`ChainSpecScheduler`'s step with ``k = n``.

The static strategy is exactly what the paper critiques (§6.2): at low
load it under-speculates and leaves the hardware idle; at high load it
floods verification with n tokens per request regardless of the budget,
inflating iteration latency for everyone.
"""

from __future__ import annotations

from repro.baselines.smartspec import ChainSpecScheduler
# draft_chains and verify_sequence are unused here; they stay module
# globals because simbench/tracer.py and simbench/child.py wrap them.
from repro.core.speculation import draft_chains  # noqa: F401
from repro.model.acceptance import verify_sequence  # noqa: F401
from repro.registry import SYSTEMS, Param


@SYSTEMS.register(
    "vllm-spec",
    params=[
        Param(
            "k", "int", default=4, dest="spec_len", minimum=1,
            help="static speculation length (tokens drafted per request per iteration)",
        ),
    ],
    summary="vLLM + fixed-length sequence speculative decoding",
)
class VLLMSpecScheduler(ChainSpecScheduler):
    """Static-length sequence speculation: every iteration drafts ``spec_len`` tokens."""

    def __init__(self, *args, spec_len: int = 4, **kwargs) -> None:
        super().__init__(*args, k_max=spec_len, **kwargs)
        if spec_len < 1:
            raise ValueError("spec_len must be >= 1")
        self.spec_len = spec_len
        self.name = f"vLLM-Spec({spec_len})"
