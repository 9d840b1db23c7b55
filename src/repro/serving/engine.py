"""Simulated execution engine.

Plays the role of the paper's execution engine (Figure 6): it owns the
model pair, the target/draft roofline models, the draft-side CUDA-graph
state and the KV-cache manager, and it prices + executes the primitive
GPU operations every scheduler is composed of:

- ``prefill(chunks, now)``: process prompt chunks (possibly batched with
  nothing else — co-batching is priced via ``verify_cost`` extras);
- ``decode(requests, now)`` / ``mixed_step``: one autoregressive token
  per request, advancing timing and token counts only — no plain-decode
  scheduler reads token identity, so none is sampled;
- ``draft_cost(step_tokens)``: price a batched draft beam (CUDA-graph
  replays for shape-stable steps 2..d);
- ``verify_cost(tokens, context)``: price target verification of a batch
  of speculated tokens;
- ``commit token`` side effects live on :class:`Request`.

The engine never decides *what* to run — that is scheduler policy.  It
accumulates per-phase busy time for the Figure 15 breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro._rng import hash_seed
from repro.hardware.cuda_graph import CudaGraphModel
from repro.prefixcache.tokens import request_block_keys
from repro.hardware.roofline import RooflineModel
from repro.model.pair import ModelPair
from repro.serving.kv_cache import KVCacheManager
from repro.serving.request import Request, RequestState

#: Fixed CPU-side overhead per engine step (batch formation, tensor
#: bookkeeping) added to every iteration, seconds.
DEFAULT_STEP_OVERHEAD_S = 100e-6


@dataclass
class PhaseTimes:
    """Cumulative busy time per phase (Figure 15)."""

    prefill_s: float = 0.0
    decode_s: float = 0.0
    speculation_s: float = 0.0
    verification_s: float = 0.0
    scheduling_s: float = 0.0

    @property
    def total(self) -> float:
        """Total accounted busy time."""
        return (
            self.prefill_s
            + self.decode_s
            + self.speculation_s
            + self.verification_s
            + self.scheduling_s
        )

    def add(self, other: "PhaseTimes") -> None:
        """Accumulate another instance's busy time (fleet aggregation).

        Iterates the dataclass fields so a future phase cannot be
        silently dropped from merged breakdowns.
        """
        for phase_field in fields(self):
            setattr(
                self,
                phase_field.name,
                getattr(self, phase_field.name) + getattr(other, phase_field.name),
            )

    def breakdown(self) -> dict[str, float]:
        """Fractions per phase (empty if nothing ran)."""
        total = self.total
        if total == 0:
            return {}
        return {
            "prefill": self.prefill_s / total,
            "decode": self.decode_s / total,
            "speculation": self.speculation_s / total,
            "verification": self.verification_s / total,
            "scheduling": self.scheduling_s / total,
        }


class SimulatedEngine:
    """Executes engine primitives against the cost model and model pair.

    Parameters
    ----------
    pair:
        Draft/target model pair.
    target_roofline, draft_roofline:
        Cost models for the two networks.
    kv:
        KV-cache manager (target model's cache).
    step_overhead_s:
        Constant CPU overhead added to every iteration.
    seed:
        Seed for synthesizing request root contexts.
    """

    def __init__(
        self,
        pair: ModelPair,
        target_roofline: RooflineModel,
        draft_roofline: RooflineModel,
        kv: KVCacheManager,
        step_overhead_s: float = DEFAULT_STEP_OVERHEAD_S,
        seed: int = 0,
    ) -> None:
        self.pair = pair
        self.target_roofline = target_roofline
        self.draft_roofline = draft_roofline
        self.kv = kv
        self.step_overhead_s = step_overhead_s
        self.seed = seed
        self.draft_graphs = CudaGraphModel(
            eager_launch_s=draft_roofline.forward_cost(1).launch_time
        )
        self.phase_times = PhaseTimes()
        self.iterations = 0
        #: Optional per-iteration log (see repro.serving.telemetry).
        self.telemetry = None
        #: Optional lifecycle tracer (a repro.obs ReplicaTracer).  Every
        #: emission site is guarded by ``is not None``, so disabled runs
        #: pay one attribute check and tracing never mutates state.
        self.obs = None
        #: Latency multiplier for every executed step (> 1 models a
        #: degraded "straggler" replica; see repro.chaos).  Guarded at
        #: each use so the healthy value of 1.0 performs zero extra
        #: float operations and stays bit-identical to pre-chaos runs.
        self.slow_factor = 1.0
        #: Optional runtime invariant sanitizer (a repro.check bound
        #: checker; see ``--check-invariants``).  Same gating contract
        #: as ``obs``: None by default, every hook guarded, checks are
        #: read-only — a checked run is byte-identical to an unchecked
        #: one.
        self.inv = None

    # ------------------------------------------------------------------
    # Context synthesis
    # ------------------------------------------------------------------
    def root_ctx(self, req: Request) -> int:
        """Model context hash of a request's full prompt."""
        return hash_seed(self.seed, req.rid, req.prompt_len)

    def _commit_prefix(self, req: Request, tokens: int) -> None:
        """Publish the request's first ``tokens`` as shared prefix blocks.

        No-op unless the KV manager shares prefixes *and* the request
        rides shareable token streams (segmentless requests own a
        private stream nothing can ever match — caching their blocks
        would only grow the table and churn eviction).  Called when
        prefill completes (prompt blocks become reusable as soon as they
        are computed) and again at finish (the generated answer extends
        the cached conversation for a session's next turn).
        """
        if self.kv.prefix_caching and req.prompt_segments:
            self.kv.commit_keys(
                req.rid, request_block_keys(req, tokens, self.kv.block_size)
            )

    # ------------------------------------------------------------------
    # Prefill
    # ------------------------------------------------------------------
    def prefill(self, chunks: list[tuple[Request, int]], now: float) -> float:
        """Process prompt chunks for one iteration; returns latency.

        Each ``(request, tokens)`` advances that request's prefill.  A
        request whose prompt completes transitions to RUNNING with its
        context installed (``begin_decode`` stamped at iteration end).
        """
        if not chunks:
            raise ValueError("empty prefill batch")
        total_tokens = 0
        total_context = 0
        for req, tokens in chunks:
            total_tokens += tokens
            total_context += req.prefilled + tokens // 2
        latency = self.target_roofline.forward_latency(total_tokens, total_context)
        latency += self.step_overhead_s
        if self.slow_factor != 1.0:
            latency *= self.slow_factor
        end = now + latency
        for req, tokens in chunks:
            req.advance_prefill(tokens)
            if req.remaining_prompt == 0:
                req.begin_decode(self.root_ctx(req), end)
                self._commit_prefix(req, req.prompt_len)
        obs = self.obs
        if obs is not None:
            for req, tokens in chunks:
                obs.prefill(now, latency, req, tokens)
        self.phase_times.prefill_s += latency
        self.iterations += 1
        return latency

    def prefill_chunk_cost(self, tokens: int, context_tokens: int = 0) -> float:
        """Marginal compute seconds of co-batching a prefill chunk."""
        return tokens * self.target_roofline.compute_seconds_per_token

    # ------------------------------------------------------------------
    # Plain autoregressive decode
    # ------------------------------------------------------------------
    def decode(
        self, requests: list[Request], now: float, context_tokens: int | None = None
    ) -> float:
        """One autoregressive decoding iteration; returns latency.

        Advances timing and token counts only: each request commits one
        token with its context unchanged (see ``Request.ctx``).
        ``context_tokens`` (the batch's summed KV residency) may be
        passed by schedulers that already walked the batch this
        iteration — e.g. during KV admission — so the engine does not
        re-sum it; ``None`` computes it here.
        """
        if not requests:
            raise ValueError("empty decode batch")
        context = (
            sum(r.kv_tokens for r in requests)
            if context_tokens is None
            else context_tokens
        )
        latency = self.target_roofline.forward_latency(len(requests), context)
        latency += self.step_overhead_s
        if self.slow_factor != 1.0:
            latency *= self.slow_factor
        end = now + latency
        for req in requests:
            req.commit_tokens(1, req.ctx, end)
        self.phase_times.decode_s += latency
        self.iterations += 1
        return latency

    def mixed_step(
        self,
        decode_requests: list[Request],
        prefill_chunks: list[tuple[Request, int]],
        now: float,
        decode_context_tokens: int | None = None,
    ) -> float:
        """One co-batched iteration: decode tokens + prefill chunks.

        This is Sarathi-Serve's chunked-prefill step: decodes piggyback on
        prompt-chunk compute.  Latency is a single forward pass over all
        batched tokens; busy time is split between the prefill and decode
        phases in proportion to their token counts.  Like :meth:`decode`,
        it advances timing and token counts only.
        ``decode_context_tokens`` works as in :meth:`decode`.
        """
        if not decode_requests and not prefill_chunks:
            raise ValueError("empty mixed step")
        decode_tokens = len(decode_requests)
        chunk_tokens = sum(t for _, t in prefill_chunks)
        context = (
            sum(r.kv_tokens for r in decode_requests)
            if decode_context_tokens is None
            else decode_context_tokens
        )
        context += sum(req.prefilled + t // 2 for req, t in prefill_chunks)
        latency = self.target_roofline.forward_latency(
            decode_tokens + chunk_tokens, context
        )
        latency += self.step_overhead_s
        if self.slow_factor != 1.0:
            latency *= self.slow_factor
        end = now + latency
        for req in decode_requests:
            req.commit_tokens(1, req.ctx, end)
        for req, tokens in prefill_chunks:
            req.advance_prefill(tokens)
            if req.remaining_prompt == 0:
                req.begin_decode(self.root_ctx(req), end)
                self._commit_prefix(req, req.prompt_len)
        obs = self.obs
        if obs is not None:
            for req, tokens in prefill_chunks:
                obs.prefill(now, latency, req, tokens)
        total = decode_tokens + chunk_tokens
        self.phase_times.decode_s += latency * (decode_tokens / total)
        self.phase_times.prefill_s += latency * (chunk_tokens / total)
        self.iterations += 1
        return latency

    # ------------------------------------------------------------------
    # Speculative decoding cost primitives
    # ------------------------------------------------------------------
    def draft_cost(self, step_tokens: tuple[int, ...], context_tokens: int = 0) -> float:
        """Latency of a batched draft beam (speculation phase).

        Step 1 launches eagerly (its shape includes fresh contexts); steps
        2..d replay CUDA graphs when their shapes are warm (§5.2).
        """
        total = 0.0
        for i, tokens in enumerate(step_tokens):
            if tokens <= 0:
                continue
            if i == 0:
                overhead = None  # eager launch
            else:
                overhead = self.draft_graphs.launch_overhead(tokens)
            total += self.draft_roofline.forward_latency(
                tokens, context_tokens, launch_overhead=overhead
            )
        if self.slow_factor != 1.0:
            total *= self.slow_factor
        self.phase_times.speculation_s += total
        return total

    def sequence_draft_cost(self, steps: int, batch: int, context_tokens: int = 0) -> float:
        """Latency of ``steps`` sequential draft decodes over ``batch`` requests.

        Used by vLLM-Spec-style baselines (chain speculation).
        """
        return self.draft_cost((batch,) * steps, context_tokens)

    def verify_cost(
        self,
        speculated_tokens: int,
        context_tokens: int = 0,
        extra_prefill_tokens: int = 0,
    ) -> float:
        """Latency of target verification over a batch of token trees.

        ``extra_prefill_tokens`` prices co-batched prompt chunks (AdaServe
        folds prefill work into verification iterations).
        """
        total = speculated_tokens + extra_prefill_tokens
        latency = self.target_roofline.forward_latency(total, context_tokens)
        if self.slow_factor != 1.0:
            latency *= self.slow_factor
        if total > 0:
            self.phase_times.verification_s += latency * (speculated_tokens / total)
            self.phase_times.prefill_s += latency * (extra_prefill_tokens / total)
        else:
            self.phase_times.verification_s += latency
        return latency

    def account_scheduling(self, seconds: float) -> None:
        """Accumulate CPU-side scheduling time (Figure 15)."""
        self.phase_times.scheduling_s += seconds

    # ------------------------------------------------------------------
    # Lifecycle helpers
    # ------------------------------------------------------------------
    def finish(self, req: Request) -> None:
        """Release a finished request's KV.

        Under prefix caching, the full context (prompt + generated
        answer) is committed to the shared table first, so a session's
        next turn can match everything this turn computed.
        """
        if req.state != RequestState.FINISHED:
            raise ValueError(f"request {req.rid} not finished")
        if self.obs is not None:
            self.obs.finish(req)
        self._commit_prefix(req, req.prompt_len + req.n_generated)
        self.kv.free(req.rid)
        inv = self.inv
        if inv is not None:
            inv.kv(self.kv, "finish", req.rid)

    def preempt(self, req: Request, drop_kv: bool) -> None:
        """Preempt a request, optionally evicting its KV."""
        if self.obs is not None:
            self.obs.preempt(req, drop_kv)
        req.preempt(drop_kv)
        if drop_kv:
            self.kv.free(req.rid)
        inv = self.inv
        if inv is not None:
            inv.kv(self.kv, "preempt", req.rid)
