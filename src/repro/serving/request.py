"""Request lifecycle and per-request accounting.

A request arrives with a prompt, an output-length target and a TPOT SLO
(Table 2 category).  It moves through:

    QUEUED -> PREFILLING -> RUNNING -> FINISHED
                  ^             |
                  +- PREEMPTED <+      (preemptive baselines / KV pressure)

Timing follows the paper's accounting: ``decode_start`` is stamped when
the request's first decoding iteration begins (prefill complete); the SLO
is attained iff the *average* per-token latency
``(last_token_time - decode_start) / n_generated`` is within the TPOT
threshold.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable


class RequestState(enum.Enum):
    """Lifecycle states."""

    QUEUED = "queued"
    PREFILLING = "prefilling"
    RUNNING = "running"
    PREEMPTED = "preempted"
    FINISHED = "finished"


@dataclass
class Request:
    """One inference request and its runtime accounting.

    Static fields describe the workload item; mutable fields are advanced
    by schedulers through the helper methods (not directly).
    """

    rid: int
    category: str
    arrival_time: float
    prompt_len: int
    max_new_tokens: int
    tpot_slo: float
    predictability: float | None = None
    priority: int = 0  # lower value = more urgent (used by priority baselines)
    # -- prefix identity (see repro.prefixcache) --
    #: Conversation this request belongs to (None for one-shot requests).
    session_id: int | None = None
    #: Zero-based turn number within the session.
    turn_index: int = 0
    #: Token-stream composition of the prompt as (namespace, length)
    #: segments; generated tokens extend the final segment.  ``None``
    #: means the whole prompt is one stream private to this request.
    prompt_segments: tuple[tuple[int, int], ...] | None = None

    # -- runtime state (managed via helpers) --
    state: RequestState = RequestState.QUEUED
    prefilled: int = 0
    #: Model context hash after the committed tokens, valid once prefill
    #: completes.  Kept current only by schedulers that read token
    #: identity (speculative ones); plain-decode schedulers leave it at
    #: the root (prompt) context.
    ctx: int = 0
    n_generated: int = 0
    decode_start: float | None = None
    first_token_time: float | None = None
    last_token_time: float | None = None
    finish_time: float | None = None
    preempt_count: int = 0
    #: Times this request was evacuated from a crashed replica and
    #: re-routed (chaos runs only; see repro.chaos).
    failover_count: int = 0
    #: Prompt tokens served from a shared prefix cache instead of being
    #: prefilled (cumulative over admissions; see repro.prefixcache).
    cached_prompt_tokens: int = 0
    # Speculation accounting (for Figure 12).
    verify_steps: int = 0
    accepted_draft_tokens: int = 0
    token_times: list[float] = field(default_factory=list)
    record_token_times: bool = False
    #: Called (with the request) the instant generation completes.  Set
    #: by the owning scheduler so finished-request bookkeeping stays
    #: incremental (no per-iteration pool rescans); excluded from
    #: equality so instrumented and plain requests compare identically.
    on_finish: "Callable[[Request], None] | None" = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.prompt_len < 1:
            raise ValueError(f"request {self.rid}: prompt_len must be >= 1")
        if self.max_new_tokens < 1:
            raise ValueError(f"request {self.rid}: max_new_tokens must be >= 1")
        if self.tpot_slo <= 0:
            raise ValueError(f"request {self.rid}: tpot_slo must be positive")

    # ------------------------------------------------------------------
    # Prefill
    # ------------------------------------------------------------------
    @property
    def remaining_prompt(self) -> int:
        """Prompt tokens not yet prefilled."""
        return self.prompt_len - self.prefilled

    def advance_prefill(self, tokens: int) -> None:
        """Account ``tokens`` of prompt processed (chunked prefill)."""
        if tokens < 1:
            raise ValueError("prefill chunk must be >= 1 token")
        if tokens > self.remaining_prompt:
            raise ValueError(
                f"request {self.rid}: chunk {tokens} exceeds remaining prompt {self.remaining_prompt}"
            )
        self.prefilled += tokens
        self.state = (
            RequestState.PREFILLING if self.prefilled < self.prompt_len else self.state
        )

    def note_prefix_hit(self, tokens: int) -> None:
        """Account ``tokens`` of prompt served from cached prefix KV.

        The cached region counts as already prefilled — the engine never
        recomputes it — so TTFT and prefill batch budgets shrink by
        exactly the hit length.  ``cached_prompt_tokens`` accumulates
        across prefill passes: a request preempted with its KV dropped
        re-matches on re-admission, and each pass's hit is prefill
        compute that genuinely never ran.
        """
        if self.prefilled != 0:
            raise ValueError(f"request {self.rid}: prefix hit after prefill started")
        if not 0 < tokens < self.prompt_len:
            raise ValueError(
                f"request {self.rid}: prefix hit {tokens} outside (0, {self.prompt_len})"
            )
        self.cached_prompt_tokens += tokens
        self.advance_prefill(tokens)

    def rollback_prefix_hit(self, tokens: int) -> None:
        """Undo :meth:`note_prefix_hit` for a hit that went unused.

        Only valid while the hit is the request's sole prefill progress
        (it was never scheduled onto the engine); the request returns to
        the plain queued state and may re-match later.
        """
        if self.prefilled != tokens or self.state not in (
            RequestState.QUEUED,
            RequestState.PREFILLING,
        ):
            raise ValueError(
                f"request {self.rid}: cannot roll back prefix hit of {tokens} "
                f"(prefilled={self.prefilled}, state={self.state.value})"
            )
        self.cached_prompt_tokens -= tokens
        self.prefilled = 0
        self.state = RequestState.QUEUED

    def begin_decode(self, ctx: int, now: float) -> None:
        """Mark prefill complete and start the decode phase."""
        if self.prefilled != self.prompt_len:
            raise ValueError(f"request {self.rid}: prefill incomplete")
        self.ctx = ctx
        self.state = RequestState.RUNNING
        if self.decode_start is None:
            self.decode_start = now

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------
    @property
    def remaining_tokens(self) -> int:
        """Output tokens still to generate."""
        return self.max_new_tokens - self.n_generated

    @property
    def is_finished(self) -> bool:
        """Whether generation completed."""
        return self.state == RequestState.FINISHED

    def commit_tokens(self, count: int, new_ctx: int, now: float) -> None:
        """Commit ``count`` generated tokens at time ``now``."""
        if self.state != RequestState.RUNNING:
            raise ValueError(f"request {self.rid}: commit while {self.state}")
        if count < 1:
            raise ValueError("must commit at least one token")
        if count > self.remaining_tokens:
            raise ValueError(
                f"request {self.rid}: commit {count} exceeds remaining {self.remaining_tokens}"
            )
        self.ctx = new_ctx
        self.n_generated += count
        if self.first_token_time is None:
            self.first_token_time = now
        self.last_token_time = now
        if self.record_token_times:
            self.token_times.extend([now] * count)
        if self.n_generated >= self.max_new_tokens:
            self.state = RequestState.FINISHED
            self.finish_time = now
            if self.on_finish is not None:
                self.on_finish(self)

    def preempt(self, drop_kv: bool) -> None:
        """Pause the request; optionally drop its KV (forces re-prefill)."""
        if self.state not in (RequestState.RUNNING, RequestState.PREFILLING):
            raise ValueError(f"request {self.rid}: preempt while {self.state}")
        self.state = RequestState.PREEMPTED
        self.preempt_count += 1
        if drop_kv:
            self.prefilled = 0

    def fail_over(self) -> None:
        """Reset runtime state after the owning replica crashed.

        The replica's KV — shared prefix blocks included — is gone, so
        the request re-enters the queue as if it had never been
        scheduled: prefill progress and context are dropped while
        generation counts persist (those tokens were already delivered),
        mirroring preempt-with-drop semantics.  Valid from any
        unfinished state, including mid-prefill.
        """
        if self.state == RequestState.FINISHED:
            raise ValueError(f"request {self.rid}: fail_over after finish")
        self.state = RequestState.QUEUED
        self.prefilled = 0
        self.ctx = 0
        self.failover_count += 1

    def resume(self) -> None:
        """Return a preempted request to the running state (KV retained)."""
        if self.state != RequestState.PREEMPTED:
            raise ValueError(f"request {self.rid}: resume while {self.state}")
        if self.prefilled < self.prompt_len:
            self.state = RequestState.QUEUED
        else:
            self.state = RequestState.RUNNING

    # ------------------------------------------------------------------
    # SLO accounting
    # ------------------------------------------------------------------
    @property
    def kv_tokens(self) -> int:
        """Tokens resident in the KV cache for this request."""
        return self.prefilled + self.n_generated

    @property
    def elapsed_decode(self) -> float | None:
        """Decode-phase duration so far (None before decode starts)."""
        if self.decode_start is None or self.last_token_time is None:
            return None
        return self.last_token_time - self.decode_start

    @property
    def ttft(self) -> float:
        """Time to first token (arrival to first committed token).

        Not part of the paper's SLOs (which are TPOT-only) but reported
        alongside them, as real deployments track both.
        """
        if self.first_token_time is None:
            return float("inf")
        return self.first_token_time - self.arrival_time

    @property
    def avg_tpot(self) -> float:
        """Average per-token latency over the decode phase."""
        if self.n_generated == 0 or self.decode_start is None or self.last_token_time is None:
            return float("inf")
        return (self.last_token_time - self.decode_start) / self.n_generated

    @property
    def attained(self) -> bool:
        """Whether the request met its TPOT SLO (finished requests only)."""
        return self.is_finished and self.avg_tpot <= self.tpot_slo

    def requirement(self, now: float, iteration_latency: float) -> float:
        """A(r): accepted tokens needed this iteration (Equation 2 rewrite)."""
        start = self.decode_start if self.decode_start is not None else now
        elapsed = max(0.0, now - start)
        return (elapsed + iteration_latency) / self.tpot_slo - self.n_generated

    # ------------------------------------------------------------------
    # Cloning
    # ------------------------------------------------------------------
    def fresh_copy(self) -> "Request":
        """A pristine copy of this request for a new run.

        Copies the static workload fields and resets every runtime field
        to its construction default.  Bypasses ``__init__`` (the fields
        were validated when this request was built), so harness sweeps —
        which clone every request once per run — pay one attribute sweep
        instead of dataclass construction + re-validation.
        """
        clone = object.__new__(Request)
        clone.rid = self.rid
        clone.category = self.category
        clone.arrival_time = self.arrival_time
        clone.prompt_len = self.prompt_len
        clone.max_new_tokens = self.max_new_tokens
        clone.tpot_slo = self.tpot_slo
        clone.predictability = self.predictability
        clone.priority = self.priority
        clone.session_id = self.session_id
        clone.turn_index = self.turn_index
        clone.prompt_segments = self.prompt_segments
        clone.state = RequestState.QUEUED
        clone.prefilled = 0
        clone.ctx = 0
        clone.n_generated = 0
        clone.decode_start = None
        clone.first_token_time = None
        clone.last_token_time = None
        clone.finish_time = None
        clone.preempt_count = 0
        clone.failover_count = 0
        clone.cached_prompt_tokens = 0
        clone.verify_steps = 0
        clone.accepted_draft_tokens = 0
        clone.token_times = []
        clone.record_token_times = False
        clone.on_finish = None
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Request(rid={self.rid}, cat={self.category}, state={self.state.value}, "
            f"gen={self.n_generated}/{self.max_new_tokens})"
        )
