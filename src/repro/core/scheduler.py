"""AdaServe's SLO-customized scheduler (Figure 6's request manager).

Each decoding iteration:

1. retire finished requests; with nothing decoding, run a dedicated
   FCFS prefill pass, else take the head-of-queue prompt's next chunk
   (Sarathi's take) to co-batch into this iteration's verification;
2. read the active request count n and ask the adaptive controller for
   the beam shape (d, w) (Equations 8-9);
3. predict the iteration latency t_spec from the rooflines (draft beam at
   the chosen shape + verification at the full budget) and compute each
   request's requirement A(r);
4. run the speculate - select - verify pipeline (Algorithm 2);
5. run the iteration through the engine's one speculative pass
   (:meth:`~repro.serving.engine.SimulatedEngine.speculative_step`):
   measured draft-step shapes through the CUDA-graph model, the actual
   verified token count and the chunk through the target roofline, plus
   selection's scheduling time from a deterministic cost model over the
   candidates it scanned (the Figure 15 breakdown);
6. hand that pass each request's verdict: at the iteration's end time
   the engine completes the chunk as every prompt pass does and commits
   the accepted tokens + correction, as it does for the chain baselines.
"""

from __future__ import annotations

import math

from repro._rng import fold_sum
from repro.core.adaptive import AdaptiveConfig, AdaptiveController
from repro.core.pipeline import BatchItem, run_iteration
from repro.core.selection import DEFAULT_N_MAX
from repro.hardware.profiler import HardwareProfiler
from repro.registry import SYSTEMS, Param
from repro.serving.engine import SimulatedEngine
from repro.serving.scheduler_base import Scheduler

#: Prompt tokens co-batched into each verification pass (chunked prefill).
DEFAULT_PREFILL_CHUNK = 256


@SYSTEMS.register(
    "adaserve",
    params=[
        Param(
            "n_max", "int", default=DEFAULT_N_MAX, minimum=1,
            help="per-request token cap during SLO-customized selection",
        ),
        Param(
            "slack", "float", default=1.5, dest="budget_slack",
            minimum=1.0,
            help="latency slack used when profiling the verification budget",
        ),
        Param(
            "margin", "float", default=0.9, dest="slo_margin",
            minimum=0.0, maximum=1.0, exclusive_min=True,
            help="fraction of each SLO the requirement computation targets",
        ),
        Param(
            "chunk", "int", default=DEFAULT_PREFILL_CHUNK, dest="prefill_chunk", minimum=1,
            help="prompt tokens co-batched into each verification pass",
        ),
    ],
    summary="SLO-customized speculative decoding (the paper's system)",
)
class AdaServeScheduler(Scheduler):
    """SLO-customized speculative decoding over the serving substrate.

    Parameters
    ----------
    engine:
        The simulated engine (models + rooflines + KV).
    verify_budget:
        Token budget B for verification; ``None`` profiles the hardware
        (§3 footnote 1).
    draft_budget:
        Speculator per-step budget B2; ``None`` profiles the draft model.
    adaptive:
        Bounds/constants for the (d, w) controller.
    n_max:
        Per-request cap during SLO-customized selection.
    """

    name = "AdaServe"

    def __init__(
        self,
        engine: SimulatedEngine,
        verify_budget: int | None = None,
        draft_budget: int | None = None,
        adaptive: AdaptiveConfig | None = None,
        n_max: int = DEFAULT_N_MAX,
        budget_slack: float = 1.5,
        slo_margin: float = 0.9,
        prefill_chunk: int = DEFAULT_PREFILL_CHUNK,
        **kwargs,
    ) -> None:
        super().__init__(engine, **kwargs)
        if verify_budget is None:
            verify_budget = HardwareProfiler(
                engine.target_roofline, slack=budget_slack
            ).token_budget()
        if draft_budget is None:
            draft_budget = HardwareProfiler(
                engine.draft_roofline, slack=budget_slack
            ).token_budget()
        self.verify_budget = verify_budget
        self.draft_budget = draft_budget
        self.controller = AdaptiveController(verify_budget, draft_budget, adaptive)
        self.n_max = n_max
        if not 0.0 < slo_margin <= 1.0:
            raise ValueError("slo_margin must be in (0, 1]")
        #: Headroom factor on the TPOT target: planning against a slightly
        #: tighter SLO absorbs future prefill stalls the per-iteration
        #: requirement A(r) cannot anticipate.
        self.slo_margin = slo_margin
        if prefill_chunk < 1:
            raise ValueError("prefill_chunk must be >= 1")
        #: Prompt tokens folded into each verification pass.  The paper's
        #: implementation adapts FlashInfer's batched-prefill kernel "for
        #: both speculation steps and LLM verification" (SS6.1), i.e.
        #: prompts are processed alongside decode-phase work rather than
        #: in dedicated stall-inducing iterations.
        self.prefill_chunk = prefill_chunk

    # ------------------------------------------------------------------
    def _estimate_iteration_latency(
        self, n: int, d: int, w: int, context: int, chunk_tokens: int = 0
    ) -> float:
        """Predicted t_spec for the A(r) computation (no side effects)."""
        draft = self.engine.draft_roofline
        t = 0.0
        if d > 0:
            t += draft.forward_latency(n, context)
        if d > 1:
            # Levels 2..d replay one graph shape: price it once.
            replay = draft.forward_latency(
                n * w, context, launch_overhead=self.engine.draft_graphs.replay_cost_s
            )
            for _ in range(d - 1):
                t += replay
        target = self.engine.target_roofline
        t += target.forward_latency(self.verify_budget, context)
        return t + self.engine.step_overhead_s + chunk_tokens * target.compute_seconds_per_token

    # ------------------------------------------------------------------
    def step(self, now: float) -> float:
        self._retire_finished()

        # With nothing decoding, run dedicated prefill at full speed.
        if self.waiting and not self.running:
            latency = self._prefill_iteration(now)
            if latency is not None:
                return latency

        batch = self.running[: self.max_batch_size]
        n = len(batch)
        if n == 0:
            return self._prefill_or_stuck(now, "no progress possible")

        d, w = self.controller.params(n)
        # KV must hold the deepest possible acceptance (+correction).
        batch = self._ensure_kv_for_decode(batch, extra_tokens=d + 2)
        n = len(batch)
        if n == 0:
            return self._prefill_or_stuck(now, "KV exhausted")

        # Chunked prefill co-batched into this iteration's verification,
        # only while a decode slot is free for the prompt it completes.
        chunks = self._take_head_chunk(self.prefill_chunk) if self._admit_capacity() > 0 else []
        chunk_tokens = sum(t for _, t in chunks)

        context = self._last_decode_context
        t_spec = self._estimate_iteration_latency(n, d, w, context, chunk_tokens)

        # SLO-pressure adaptation.  A_cap(r) = min(A(r), d+1) means a
        # request needing more than d+1 tokens cannot attain its SLO at
        # this depth *by construction* (§4.3 step 2), and a budget of
        # B/n tokens per request bounds the expected acceptance the
        # selection can buy.  When the batch's typical requirement exceeds
        # what the load-driven (d, B) can deliver, deepen the beam and
        # widen the verification budget: verification latency grows
        # sub-linearly past the roofline knee, so trading it for accepted
        # tokens lowers per-token latency exactly when SLOs are tight.
        # The *forward-looking* per-iteration demand t_spec / t_TPOT is
        # what the SLO structurally requires regardless of accumulated
        # debt (debt-inflated A(r) would also trigger on hopeless
        # queue-lag, where extra speculation is wasted).
        d_max = self.controller.config.d_max
        demands = [
            min(t_spec / (r.tpot_slo * self.slo_margin), d_max + 1.0) for r in batch
        ]
        typical = fold_sum(demands) / n
        max_demand = max(demands)
        budget = self.verify_budget
        if max_demand > 1.0:
            # Minimal depth whose greedy chain can *expect* to deliver the
            # demand: with per-step acceptance p, a depth-d chain expects
            # p(1-p^d)/(1-p) accepted draft tokens (+1 correction), so the
            # required d solves that geometric sum >= demand - 1.
            p = 0.75  # typical top-1 acceptance of the draft's best chain
            deficit = (max_demand - 1.0) * (1 - p) / p
            if deficit >= 1.0:
                d_floor = d_max  # demand beyond any finite chain
            else:
                d_floor = math.ceil(math.log(1.0 - deficit) / math.log(p))
            if d_floor > d:
                d = min(d_max, d_floor)
                t_spec = self._estimate_iteration_latency(n, d, w, context, chunk_tokens)
        if typical > 1.0:
            # Budget pressure: ~2x the structural demand per request
            # (same reasoning), bounded at 3x the profiled budget.
            needed = int(n * 2.0 * typical)
            budget = max(budget, min(3 * self.verify_budget, needed))

        items = [
            BatchItem(
                root_token=0,
                root_ctx=req.ctx,
                requirement=req.requirement(now, t_spec, self.slo_margin),
                center=req.predictability,
            )
            for req in batch
        ]
        result = run_iteration(
            self.engine.pair,
            items,
            depth=d,
            width=w,
            budget=budget,
            n_max=self.n_max,
        )

        # Price the iteration from what actually ran.  Scheduling (the
        # CPU-side selection) uses a deterministic cost model calibrated
        # against timings of ``select_tokens`` (see
        # benchmarks/test_fig15_breakdown.py), so simulated time is
        # reproducible run-to-run.
        latency = self.engine.speculative_step(
            result.speculation.step_tokens,
            result.verify_tokens,
            context,
            now,
            [
                (req, len(o.accepted_tokens), o.path_ctx, o.new_ctx)
                for req, o in zip(batch, result.outcomes)
            ],
            (d, w, result.selection.budget_used),
            chunks,
            scheduling_s=20e-6 + 0.2e-6 * result.selection.candidates_scanned,
        )
        self._place_prefilled(chunks)
        return latency
