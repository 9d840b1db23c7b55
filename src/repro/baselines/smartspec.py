"""SmartSpec-style baseline: adaptive *chain* speculation (related work).

SmartSpec (Liu et al., referenced in §7) tunes the draft chain length per
iteration from the observed acceptance rate and system load, optimizing
goodput — but it is SLO-blind and chain-based (no trees, no per-request
customization).  It sits between vLLM-Spec(n) and AdaServe in the design
space, which makes it the right instrument for attributing AdaServe's
gains: adaptivity alone (this scheduler) vs. adaptivity + SLO-customized
tree allocation (AdaServe).

Policy reproduced here:

- Track an exponential moving average of the per-token acceptance rate.
- Each iteration, pick the chain length k in [1, k_max] maximizing the
  predicted *goodput rate*: expected tokens generated per second,

      rate(k) = n * (E[accepted | k, p] + 1) / iteration_latency(k)

  where E[accepted | k, p] = p(1-p^k)/(1-p) is the geometric acceptance
  sum and iteration_latency(k) prices k draft steps plus verification of
  n*k tokens with the roofline.

The chain step itself is :class:`ChainSpecScheduler`, shared with
vLLM-Spec(n), whose policy is a fixed ``k``.
"""

from __future__ import annotations

from repro.core.speculation import draft_chains
from repro.model.acceptance import verify_sequence
from repro.registry import SYSTEMS, Param
from repro.serving.scheduler_base import Scheduler

#: Bounds on the adaptive chain length.
DEFAULT_K_MAX = 8

#: EMA smoothing for the observed acceptance rate.
_EMA_ALPHA = 0.15


class ChainSpecScheduler(Scheduler):
    """Chain speculation on continuous batching with one batch-wide ``k``.

    Each decode iteration drafts a ``k``-token chain per running request
    (``k`` sequential draft steps over the batch) and verifies every
    chain in one target pass.  Subclasses choose ``k`` (:meth:`choose_k`)
    and may learn from each iteration's acceptance (:meth:`_observe`).
    Lives here, not in ``vllm_spec``: systems register in import order, and ``smartspec`` comes first.
    """

    def __init__(self, *args, k_max: int, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.k_max = k_max

    def choose_k(self, n: int, context: int) -> int:
        """Chain length for an iteration over ``n`` requests (fixed: ``k_max``)."""
        return self.k_max

    def _observe(self, accepted: int, proposed: int) -> None:
        """Acceptance feedback after an iteration (a fixed policy ignores it)."""

    def step(self, now: float) -> float:
        self._retire_finished()

        if self.waiting:
            latency = self._prefill_iteration(now)
            if latency is not None:
                return latency

        batch = self.running[: self.max_batch_size]
        # Reserve room for the longest accepted chain + correction.
        batch = self._ensure_kv_for_decode(batch, extra_tokens=self.k_max + 1)
        if not batch:
            return self._prefill_or_stuck(now, "no progress possible")

        n = len(batch)
        context = self._last_decode_context
        k = self.choose_k(n, context)
        chains = draft_chains(self.engine.pair, [(r.ctx, r.predictability) for r in batch], k)
        verdicts = []
        total_accepted = 0
        for req, chain in zip(batch, chains):
            accepted, _correction, new_ctx = verify_sequence(
                self.engine.pair, req.ctx, chain, req.predictability, chain.emitted
            )
            verdicts.append((req, accepted, chain.ctxs, new_ctx))
            total_accepted += accepted
        latency = self.engine.speculative_step((n,) * k, k * n, context, now, verdicts, (k, 1, k * n))
        self._observe(total_accepted, k * n)
        return latency


@SYSTEMS.register(
    "smartspec",
    params=[
        Param(
            "k_max", "int", default=DEFAULT_K_MAX, minimum=1,
            help="upper bound on the adaptive draft chain length",
        ),
    ],
    summary="goodput-adaptive chain speculation (SmartSpec-style)",
)
class SmartSpecScheduler(ChainSpecScheduler):
    """Goodput-adaptive chain speculation on continuous batching."""

    name = "SmartSpec"

    def __init__(self, *args, k_max: int = DEFAULT_K_MAX, **kwargs) -> None:
        super().__init__(*args, k_max=k_max, **kwargs)
        if k_max < 1:
            raise ValueError("k_max must be >= 1")
        #: EMA of the per-position acceptance probability.
        self.acceptance_ema = 0.7

    # ------------------------------------------------------------------
    def _expected_accepted(self, k: int, p: float) -> float:
        """Geometric acceptance sum for a depth-k chain."""
        if p >= 1.0:
            return float(k)
        return p * (1.0 - p**k) / (1.0 - p)

    def _iteration_latency(self, k: int, n: int, context: int, draft_pass: float) -> float:
        """Predicted latency of a k-chain iteration over n requests, given
        the latency of one draft pass over them."""
        verify = self.engine.target_roofline.forward_latency(n * k, context)
        return draft_pass * k + verify + self.engine.step_overhead_s

    def choose_k(self, n: int, context: int) -> int:
        """Chain length maximizing predicted tokens/second."""
        p = self.acceptance_ema
        best_k, best_rate = 1, 0.0
        draft_pass = self.engine.draft_roofline.forward_latency(n, context)  # same for every k
        for k in range(1, self.k_max + 1):
            rate = n * (self._expected_accepted(k, p) + 1.0) / self._iteration_latency(
                k, n, context, draft_pass
            )
            if rate > best_rate:
                best_k, best_rate = k, rate
        return best_k

    def _observe(self, accepted: int, proposed: int) -> None:
        """Fold an iteration's acceptance into the EMA."""
        if proposed <= 0:
            return
        rate = accepted / proposed
        self.acceptance_ema = (
            (1 - _EMA_ALPHA) * self.acceptance_ema + _EMA_ALPHA * rate
        )
        # Keep the estimate in a sane band (rate can hit 0/1 on tiny batches).
        self.acceptance_ema = min(0.95, max(0.05, self.acceptance_ema))
