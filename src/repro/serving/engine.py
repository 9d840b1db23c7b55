"""Simulated execution engine.

Plays the role of the paper's execution engine (Figure 6): it owns the
model pair, the target/draft roofline models, the draft-side CUDA-graph
state and the KV-cache manager, and it prices + executes the primitive
GPU operations every scheduler is composed of:

- ``prefill(chunks, now)``, ``decode(requests, now, cohort)`` and
  ``mixed_step(requests, chunks, now, cohort)``: one target forward pass
  over decode tokens, prompt chunks or both, each a thin entry into the
  same priced body.  Decode advances timing and token counts only — no
  plain-decode scheduler reads token identity, so none is sampled.  The
  counts advance lazily through the scheduler's
  :class:`~repro.serving.cohort.DecodeCohort`: only requests that join
  the batch or finish on this step have their ``Request`` counters
  written here.  The scheduler materializes the rest when a request is
  preempted, leaves the batch or is evacuated by a crash, when a policy
  reads ``n_generated`` through a ``Request`` method, and before the
  pool is reported (see :mod:`repro.serving.scheduler_base`);
- ``speculative_step(draft_steps, verify_tokens, context, now, verdicts,
  shape, chunks, scheduling_s)``: one speculate - select - verify
  iteration, priced as its draft levels, one verification pass
  (co-batched prompt chunks included), the step overhead and the
  CPU-side selection; the scheduler hands in the target's verdicts;
- ``draft_cost(step_tokens)``: the healthy latency of a batched draft
  beam (CUDA-graph replays for shape-stable steps 2..d).

Every pass ends in one place (``_end_pass``): it books the phases, applies
the straggler rule, and at the pass's end time advances the decode cohort
and the prompt chunks, commits the speculative verdicts
(:meth:`Request.commit_verified`) and appends one iteration record when
``telemetry`` is set.  The straggler rule: ``slow_factor`` scales every GPU
pass (draft levels, target pass) and the step overhead, not the CPU-side
selection time (``scheduling_s``).

The engine never decides *what* to run — that is scheduler policy.  It
accumulates per-phase busy time for the Figure 15 breakdown.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from repro._rng import hash_seed
from repro.hardware.cuda_graph import CudaGraphModel
from repro.prefixcache.tokens import request_block_keys
from repro.hardware.roofline import RooflineModel
from repro.model.pair import ModelPair
from repro.serving.kv_cache import KVCacheManager
from repro.serving.request import Request, RequestState

if TYPE_CHECKING:
    from repro.serving.cohort import DecodeCohort

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
        #: Optional per-iteration log (see repro.serving.telemetry): one
        #: record per priced pass, whatever the scheduler.
        self.telemetry = None
        #: Optional lifecycle tracer (a repro.obs ReplicaTracer).  Every
        #: emission site is guarded by ``is not None``, so disabled runs
        #: pay one attribute check and tracing never mutates state.
        self.obs = None
        #: Straggler latency multiplier (> 1 models a degraded replica;
        #: see repro.chaos).  It scales every GPU pass and the step
        #: overhead, but not the CPU-side selection time
        #: (``scheduling_s``).  Read only by ``_end_pass``, which skips
        #: the multiply at the healthy 1.0, so healthy runs stay
        #: bit-identical to pre-chaos ones.
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
        kv = self.kv
        if kv.prefix_caching and req.prompt_segments:
            kv.commit_keys(req.rid, request_block_keys(req, tokens, kv.block_size))

    # ------------------------------------------------------------------
    # Target forward passes: prefill, decode and co-batched steps
    # ------------------------------------------------------------------
    def prefill(self, chunks: list[tuple[Request, int]], now: float) -> float:
        """A dedicated prompt pass over ``(request, tokens)`` chunks; returns latency.

        Each chunk advances that request's prefill at the pass's end; the
        pass's busy time is all prefill.
        """
        if not chunks:
            raise ValueError("empty prefill batch")
        return self._forward(0, chunks, now, None)

    def decode(self, requests: list[Request], now: float, cohort: DecodeCohort) -> float:
        """One autoregressive decoding iteration; returns latency.

        ``requests`` is ``cohort.batch`` as the scheduler admitted it
        (:meth:`Scheduler._admit_plain_decode`).  The step is priced from
        the cohort's summed KV residency, then :meth:`DecodeCohort.advance`
        gives every request its token: joiners and finishers commit now,
        the rest are implied by the cohort's step count.  Contexts are
        left unchanged (see ``Request.ctx``).
        """
        if not requests:
            raise ValueError("empty decode batch")
        return self._forward(len(requests), (), now, cohort)

    def mixed_step(
        self,
        decode_requests: list[Request],
        prefill_chunks: list[tuple[Request, int]],
        now: float,
        cohort: DecodeCohort,
    ) -> float:
        """One co-batched iteration: decode tokens + prefill chunks.

        This is Sarathi-Serve's chunked-prefill step: decodes piggyback on
        prompt-chunk compute in one forward pass.  The decode half runs as
        in :meth:`decode` (``cohort.batch`` is ``decode_requests``), the
        chunks as in :meth:`prefill`, and busy time is split between the
        two phases in proportion to their token counts.
        """
        if not decode_requests and not prefill_chunks:
            raise ValueError("empty mixed step")
        return self._forward(len(decode_requests), prefill_chunks, now, cohort)

    def _forward(
        self, decode_tokens: int, chunks: Sequence, now: float, cohort: DecodeCohort | None
    ) -> float:
        """The one target pass behind :meth:`prefill`, :meth:`decode` and :meth:`mixed_step`.

        Calls none of them, so a tracer wrapping them counts each pass once.
        """
        context = 0 if cohort is None else cohort.context
        chunk_tokens = 0
        for req, tokens in chunks:
            chunk_tokens += tokens
            context += req.prefilled + tokens // 2
        busy = self.target_roofline.forward_latency(decode_tokens + chunk_tokens, context)
        busy += self.step_overhead_s
        return self._end_pass(now, busy, decode_tokens, chunks, chunk_tokens, cohort)

    def _end_pass(
        self,
        now: float,
        busy: float,
        tokens: int,
        chunks: Sequence[tuple[Request, int]],
        chunk_tokens: int,
        cohort: DecodeCohort | None = None,
        spec: tuple | None = None,
    ) -> float:
        """Book, slow and complete a pass starting at ``now``; returns its latency.

        ``busy`` is the healthy target pass over ``tokens`` decode (or
        verified) and ``chunk_tokens`` prompt tokens, booked to the two
        phases by token count; a plain pass's ``busy`` includes the step
        overhead.  A speculative pass adds ``spec = (draft_s, scheduling_s,
        verdicts, shape)``.  The one reader of ``slow_factor``.  At the end
        time the ``cohort``, the chunks and the verdicts advance, and one
        record is logged when ``telemetry`` is set.
        """
        slow = self.slow_factor
        if slow != 1.0:
            busy *= slow
        phases = self.phase_times
        share = busy
        if chunk_tokens:
            total = tokens + chunk_tokens
            share = busy * (tokens / total)
            phases.prefill_s += busy * (chunk_tokens / total)
        if spec is None:
            phases.decode_s += share
            latency = busy
            committed = tokens
        else:
            draft, scheduling_s, verdicts, shape = spec
            overhead = self.step_overhead_s
            if slow != 1.0:
                draft *= slow
                overhead *= slow
            phases.speculation_s += draft
            phases.verification_s += share
            phases.scheduling_s += scheduling_s
            latency = draft + busy + overhead + scheduling_s
        end = now + latency
        if cohort is not None:
            cohort.advance(end)
        if chunks:
            for req, size in chunks:
                req.advance_prefill(size)
                if req.remaining_prompt == 0:
                    req.begin_decode(self.root_ctx(req), end)
                    self._commit_prefix(req, req.prompt_len)
            obs = self.obs
            if obs is not None:
                for req, size in chunks:
                    obs.prefill(now, latency, req, size)
        if spec is not None:
            committed = 0
            for req, accepted, path_ctx, new_ctx in verdicts:
                committed += req.commit_verified(accepted, path_ctx, new_ctx, end)
        if self.telemetry is not None:
            from repro.serving.telemetry import IterationRecord

            if spec is None:
                kind = "mixed" if tokens and chunks else "decode" if tokens else "prefill"
                record = IterationRecord(now, kind, tokens or len(chunks), latency, committed)
            else:
                n = len(verdicts)
                record = IterationRecord(now, "speculative", n, latency, committed, *shape, committed - n)
            self.telemetry.record(record)
        return latency

    # ------------------------------------------------------------------
    # Speculative decoding
    # ------------------------------------------------------------------
    def draft_cost(self, step_tokens: tuple[int, ...], context_tokens: int = 0) -> float:
        """Healthy latency of a batched draft beam (speculation phase).

        Step 1 launches eagerly (its shape includes fresh contexts); steps
        2..d replay CUDA graphs when their shapes are warm (§5.2).  A level
        shaped like the one before reuses its latency; the graph model
        still sees every level, as it counts captures and replays.
        """
        total = 0.0
        shape = latency = None
        for i, tokens in enumerate(step_tokens):
            if tokens <= 0:
                continue
            overhead = None if i == 0 else self.draft_graphs.launch_overhead(tokens)
            if (tokens, overhead) != shape:
                shape = (tokens, overhead)
                latency = self.draft_roofline.forward_latency(
                    tokens, context_tokens, launch_overhead=overhead
                )
            total += latency
        return total

    def speculative_step(
        self,
        draft_steps: Sequence[int],
        verify_tokens: int,
        context: int,
        now: float,
        verdicts: Sequence[tuple[Request, int, Sequence[int], int]],
        shape: tuple[int, int, int],
        chunks: Sequence[tuple[Request, int]] = (),
        scheduling_s: float = 0.0,
    ) -> float:
        """One speculative iteration starting at ``now``; returns its latency.

        Prices the draft levels (:meth:`draft_cost`), one target pass over
        the ``verify_tokens`` speculated tokens plus the co-batched prompt
        ``chunks`` at decode ``context``, the step overhead and the
        CPU-side ``scheduling_s`` (token selection), in that order.  The
        target pass's busy time is split between verification and prefill
        by token count.  At the iteration's end the chunks advance and each
        ``(request, accepted, path_ctx, new_ctx)`` verdict commits
        (:meth:`Request.commit_verified`); ``shape`` is the
        ``(depth, width, budget_used)`` the iteration log records.
        """
        chunk_tokens = sum(tokens for _, tokens in chunks)
        busy = self.target_roofline.forward_latency(verify_tokens + chunk_tokens, context)
        spec = (self.draft_cost(draft_steps, context), scheduling_s, verdicts, shape)
        return self._end_pass(now, busy, verify_tokens, chunks, chunk_tokens, None, spec)

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
