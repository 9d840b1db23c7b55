"""Scheduler interface and shared policy machinery.

A scheduler owns the request pool and decides, iteration by iteration,
what the engine executes.  The simulator drives it through two calls:
``admit`` (a request arrived) and ``step`` (run one iteration, return its
latency).  Everything else — batching, prefill policy, preemption,
speculation — is the policy under evaluation.

The base class provides the machinery every policy shares:

- pool bookkeeping (waiting / running / finished);
- one prompt path: FCFS whole prompts under a token budget, or one
  head-of-queue chunk, admitted by one KV reservation and returned to
  the pool by one placement rule after the engine's pass;
- retirement of finished requests (KV release);
- KV-pressure preemption (evict the newest-arrival victim, drop its KV,
  re-queue for recomputation — vLLM's recompute-on-preempt strategy);
- lazy plain-decode counters.

Plain-decode policies (vllm, sarathi, priority, fastserve, vtc) pick a
batch and hand it to :meth:`Scheduler._admit_plain_decode`, then to the
engine with the scheduler's :class:`~repro.serving.cohort.DecodeCohort`.
While a request stays in that batch, its ``n_generated`` (and so its
KV residency) is implied by the cohort's step count rather than written
each step, and KV growth is checked only for requests the cohort
predicts cross a block boundary.  A request's counters are written
(*materialized*, one ``commit_tokens`` call) when:

- it finishes (at the end of its last step, so its times are exact);
- it is preempted for KV (before :meth:`SimulatedEngine.preempt`);
- it leaves the batch: the ``max_batch_size`` cut, FastServe's level
  change, Priority's urgent subset, VTC's counter order;
- the scheduler is evacuated after a crash (:meth:`Scheduler.evacuate`);
- a policy reads the count: Priority's ``Request.requirement`` sort
  materializes the urgent requests first, and FastServe's ``_level``
  reads the lazy count through :meth:`DecodeCohort.generated`;
- the pool is reported: :meth:`Scheduler.all_requests` and
  :meth:`Scheduler.finalize` (which covers requests left unfinished at
  the horizon).

Routers read the pool's outstanding work through
:meth:`Scheduler.outstanding`, which subtracts the cohort's pending total
instead of materializing.  Speculative policies commit a variable number
of tokens per step and keep eager commits with
:meth:`Scheduler._ensure_kv_for_decode`.
"""

from __future__ import annotations

import abc
from collections import deque

from repro.prefixcache.tokens import request_block_keys
from repro.serving.cohort import DecodeCohort
from repro.serving.engine import SimulatedEngine
from repro.serving.kv_cache import OutOfKVCache
from repro.serving.request import Request, RequestState

#: Max sequences decoded per iteration (vLLM's ``max_num_seqs`` analog).
DEFAULT_MAX_BATCH = 64

#: Max prompt tokens processed per prefill iteration
#: (vLLM's ``max_num_batched_tokens`` analog).
DEFAULT_PREFILL_BUDGET = 2048


class Scheduler(abc.ABC):
    """Base class for serving policies."""

    #: Display name used in result tables.
    name: str = "base"

    def __init__(
        self,
        engine: SimulatedEngine,
        max_batch_size: int = DEFAULT_MAX_BATCH,
        prefill_token_budget: int = DEFAULT_PREFILL_BUDGET,
    ) -> None:
        if max_batch_size < 1 or prefill_token_budget < 1:
            raise ValueError("batch size and prefill budget must be >= 1")
        self.engine = engine
        self.max_batch_size = max_batch_size
        self.prefill_token_budget = prefill_token_budget
        self.waiting: deque[Request] = deque()
        self.running: list[Request] = []
        self.finished: list[Request] = []
        #: Requests in ``running`` that completed generation but have not
        #: been retired yet (maintained via ``Request.on_finish``, so
        #: ``has_work`` never rescans the pool).
        self._finished_in_running = 0
        #: Summed KV residency of the batch returned by the last
        #: :meth:`_ensure_kv_for_decode` call — the decode context the
        #: engine would otherwise re-sum.
        self._last_decode_context = 0
        #: Lazy counters of the plain-decode batch (see module docstring).
        self._cohort = DecodeCohort()
        #: Optional runtime invariant sanitizer (see repro.check and
        #: ``--check-invariants``); same None-by-default guarded-hook
        #: contract as ``engine.obs``.
        self.inv = None

    # ------------------------------------------------------------------
    # Simulator-facing interface
    # ------------------------------------------------------------------
    def admit(self, req: Request) -> None:
        """A request arrived; queue it."""
        req.on_finish = self._note_finished
        self.waiting.append(req)
        inv = self.inv
        if inv is not None:
            inv.kv(self.engine.kv, "admit", req.rid)

    def _note_finished(self, req: Request) -> None:
        """Finish hook: every commit site runs while the request is in
        ``running``, so counting here keeps ``has_work`` O(1)."""
        self._finished_in_running += 1

    def _lock_prefix(self, req: Request) -> int:
        """Match the request's prompt against cached prefix blocks.

        With a prefix-sharing KV manager, the hit region is referenced
        (pinned against eviction) and counts as already prefilled, so
        only the uncached suffix is ever charged to prefill iterations.
        At least one prompt token always remains to prefill — the
        iteration that installs the request's context.

        Called at prefill-batch entry, never at admission: references
        pin blocks against eviction, and pinning chains for a whole
        waiting queue could make allocations fail that would succeed
        without the cache.  A request that then fails to enter the batch
        is rolled back via :meth:`_unlock_prefix`; one preempted with
        its KV dropped (references released, ``prefilled`` reset)
        re-matches here before recomputing — possibly against the very
        blocks it committed earlier.  Requests without prompt segments
        own a private token stream nothing can match; they skip the
        cache entirely.

        Returns the freshly hit token count (0 when nothing matched or
        the request was not eligible).
        """
        kv = self.engine.kv
        if not kv.prefix_caching or not req.prompt_segments or req.prefilled != 0:
            return 0
        chain = request_block_keys(req, req.prompt_len, kv.block_size)
        cached = min(kv.lock_keys(req.rid, chain), req.prompt_len - 1)
        if cached > 0:
            req.note_prefix_hit(cached)
        obs = self.engine.obs
        if obs is not None:
            obs.prefix_lookup(req, cached)
        return cached

    def _unlock_prefix(self, req: Request, tokens: int) -> None:
        """Roll back a fresh :meth:`_lock_prefix` hit that went unused.

        Releases the request's shared references and reverts its
        prefilled/saved accounting, so a request left waiting (batch
        full, KV exhausted) pins nothing while it queues.  It simply
        re-matches on its next batch-entry attempt.
        """
        if tokens <= 0:
            return
        self.engine.kv.release_prefix(req.rid)
        req.rollback_prefix_hit(tokens)
        obs = self.engine.obs
        if obs is not None:
            obs.prefix_rollback(req, tokens)

    def has_work(self) -> bool:
        """Whether an iteration can make progress.

        Finished requests may linger in ``running`` until the next step's
        retirement pass; they do not constitute work.  O(1): the lingering
        count is maintained by the finish hook instead of rescanned.
        """
        return bool(self.waiting) or len(self.running) > self._finished_in_running

    @abc.abstractmethod
    def step(self, now: float) -> float:
        """Run one iteration starting at ``now``; return its latency."""

    def finalize(self) -> None:
        """Retire any requests that finished in the last iteration.

        Called by the simulator after the pool drains or at the horizon;
        without it, KV blocks of requests completing in the final step
        would linger.  Also materializes the lazy decode counters of
        requests still running.
        """
        self._retire_finished()
        self._cohort.materialize_all()

    def evacuate(self) -> list[Request]:
        """Surrender every unfinished request (replica-crash support).

        Retires finished requests first (their prefix commits and KV
        frees run normally), then removes and returns the rest — waiting
        queue in FCFS order, then the running batch in batch order —
        releasing each one's KV and shared prefix references on the way
        out.  Request-side hit accounting is untouched: as with
        preempt-with-drop, cached tokens a past pass genuinely served
        stay counted, and any *unconsumed* hit was already rolled back
        at batch entry (see :meth:`_unlock_prefix`), so there is nothing
        left to revert.  The caller owns resetting request state
        (:meth:`Request.fail_over`) and re-routing.
        """
        self._retire_finished()
        self._cohort.materialize_all()
        victims = list(self.waiting) + list(self.running)
        for req in victims:
            self.engine.kv.free(req.rid)
        self.waiting.clear()
        self.running = []
        self._finished_in_running = 0
        self._last_decode_context = 0
        self._cohort = DecodeCohort()
        inv = self.inv
        if inv is not None:
            inv.kv(self.engine.kv, "evacuate")
        return victims

    # ------------------------------------------------------------------
    # Shared machinery
    # ------------------------------------------------------------------
    def all_requests(self) -> list[Request]:
        """Every request the scheduler has seen (for metrics), materialized."""
        self._cohort.materialize_all()
        return list(self.finished) + list(self.running) + list(self.waiting)

    def outstanding(self) -> tuple[int, int]:
        """(unfinished requests, outstanding tokens) the scheduler owns.

        Outstanding tokens are prompt left to prefill plus output left to
        generate.  The scan reads the written counters and subtracts the
        cohort's pending total, so it never materializes.  A finished
        request has prefilled its prompt and generated every token, so it
        adds nothing.
        """
        count = len(self.waiting) + len(self.running) - self._finished_in_running
        tokens = -self._cohort.pending_tokens()
        for pool in (self.waiting, self.running):
            for req in pool:
                tokens += (
                    req.prompt_len - req.prefilled + req.max_new_tokens - req.n_generated
                )
        return count, tokens

    def _retire_finished(self) -> None:
        """Move finished requests out of the running set, freeing KV."""
        if self._finished_in_running == 0:
            return
        still_running: list[Request] = []
        finished = RequestState.FINISHED
        for req in self.running:
            if req.state is finished:
                self.engine.finish(req)
                self.finished.append(req)
            else:
                still_running.append(req)
        self.running = still_running
        self._finished_in_running = 0
        inv = self.inv
        if inv is not None:
            inv.kv(self.engine.kv, "retire")

    def _admit_capacity(self) -> int:
        """Decode slots available for newly prefilled requests."""
        return self.max_batch_size - len(self.running)

    def _take_prefill_batch(self) -> list[tuple[Request, int]]:
        """FCFS full-prompt prefill batch under the token budget.

        Takes whole prompts only, popped from the waiting queue.  Always
        takes at least one request if any fits KV, so long prompts are not
        starved by the token budget.
        """
        batch: list[tuple[Request, int]] = []
        budget = self.prefill_token_budget
        slots = self._admit_capacity()
        while self.waiting and slots > 0:
            req = self.waiting[0]
            fresh_hit = self._lock_prefix(req)
            if batch and req.remaining_prompt > budget:
                self._unlock_prefix(req, fresh_hit)
                break
            if not self._reserve_prefill(req, req.remaining_prompt):
                self._unlock_prefix(req, fresh_hit)
                break
            self.waiting.popleft()
            batch.append((req, req.remaining_prompt))
            budget -= req.remaining_prompt
            slots -= 1
            if budget <= 0:
                break
        return batch

    def _take_head_chunk(self, limit: int) -> list[tuple[Request, int]]:
        """Pop the next chunk (at most ``limit`` tokens) of the head-of-queue prompt.

        ``[]`` when nothing waits or KV cannot hold the chunk (the head then
        stays queued, pinning nothing).
        """
        if not self.waiting or limit <= 0:
            return []
        head = self.waiting[0]
        fresh_hit = self._lock_prefix(head)
        chunk = min(limit, head.remaining_prompt)
        if not self._reserve_prefill(head, chunk):
            self._unlock_prefix(head, fresh_hit)
            return []
        self.waiting.popleft()
        return [(head, chunk)]

    def _reserve_prefill(self, req: Request, tokens: int) -> bool:
        """Reserve KV for ``tokens`` more prompt tokens + one block of generation."""
        try:
            self.engine.kv.ensure(req.rid, req.prefilled + tokens + self.engine.kv.block_size)
        except OutOfKVCache:
            return False
        return True

    def _place_prefilled(self, chunks: list[tuple[Request, int]]) -> None:
        """Completed prompts join ``running``; partial ones return to the head of ``waiting``."""
        for req, _ in chunks:
            if req.state is RequestState.RUNNING:
                self.running.append(req)
            else:
                self.waiting.appendleft(req)

    def _prefill_iteration(self, now: float) -> float | None:
        """Run one dedicated prefill iteration if any prompt is admissible.

        Returns the iteration latency, or ``None`` when nothing could be
        prefilled (empty queue or KV exhausted).
        """
        batch = self._take_prefill_batch()
        if not batch:
            return None
        latency = self.engine.prefill(batch, now)
        self._place_prefilled(batch)
        return latency

    def _prefill_or_stuck(self, now: float, reason: str) -> float:
        """The last resort of a step with no decode batch: prefill, else fail."""
        latency = self._prefill_iteration(now)
        if latency is None:
            raise RuntimeError(f"{self.name} scheduler stuck: {reason}")
        return latency

    def _admit_plain_decode(self, batch: list[Request]) -> list[Request]:
        """KV admission of a plain-decode batch over the lazy cohort.

        Makes ``batch`` the cohort (regrouping only if it changed) and
        grows KV for the requests that need it this step — joiners and
        members whose next token crosses their covered tokens — in batch
        order, preempting on pressure as :meth:`_grow_kv` does.  Returns
        the surviving batch, which the caller passes to the engine with
        ``self._cohort``.
        """
        cohort = self._cohort
        needy = cohort.admit(batch)
        if needy:
            batch, evicted_tokens = self._grow_kv(batch, needy)
            cohort.context -= evicted_tokens
            cohort.rearm(needy, self.engine.kv.covered)
        cohort.batch = batch
        inv = self.inv
        if inv is not None:
            inv.kv(self.engine.kv, "decode-admission")
            inv.decode(self)
        return batch

    def _ensure_kv_for_decode(self, batch: list[Request], extra_tokens: int = 1) -> list[Request]:
        """Grow KV for a speculative decode batch, preempting on pressure.

        Speculative policies commit a variable number of tokens per step,
        so every request is checked every step: ``kv.ensure`` is called
        only when its need (``kv_tokens + extra_tokens``) exceeds the
        tokens its allocation is known to cover (``kv.covered``).  The
        batch's summed KV residency is left in ``_last_decode_context``
        so callers can hand it to the engine instead of re-summing.
        """
        covered = self.engine.kv.covered
        context_tokens = 0
        needy: list[tuple[Request, int]] = []
        for req in batch:
            tokens = req.kv_tokens
            context_tokens += tokens
            if tokens + extra_tokens > covered.get(req.rid, 0):
                needy.append((req, tokens + extra_tokens))
        survivors, evicted_tokens = self._grow_kv(batch, needy)
        self._last_decode_context = context_tokens - evicted_tokens
        inv = self.inv
        if inv is not None:
            inv.kv(self.engine.kv, "decode-admission")
        return survivors

    def _grow_kv(
        self, batch: list[Request], needy: list[tuple[Request, int]]
    ) -> tuple[list[Request], int]:
        """Raise each ``(request, need)`` allocation, in batch order.

        On pressure, victims (newest arrivals first, the needy request
        only as a last resort) are materialized, evicted with KV dropped
        and re-queued for recomputation.  Returns the surviving batch
        (``batch`` itself when nobody was evicted) and the KV tokens the
        evicted batch members held.  Bookkeeping is identity-based (rids
        are unique within a run), with no quadratic membership scans.
        """
        kv = self.engine.kv
        covered = kv.covered
        survivors = batch
        evicted: set[int] = set()
        evicted_tokens = 0
        # Victims are the newest arrivals among current survivors; the
        # descending-arrival index is built lazily on first KV pressure
        # (stable sort ⇒ ties resolve to batch order, exactly as the old
        # linear max() scan did) and consumed front to back.
        victim_order: list[Request] | None = None
        for req, need in needy:
            rid = req.rid
            if rid in evicted:
                continue  # already evicted as somebody's victim
            while need > covered.get(rid, 0):
                try:
                    kv.ensure(rid, need)
                    break
                except OutOfKVCache:
                    if victim_order is None:
                        survivors = list(batch)
                        victim_order = sorted(
                            survivors, key=lambda r: r.arrival_time, reverse=True
                        )
                    while victim_order and victim_order[0].rid in evicted:
                        victim_order.pop(0)
                    victim = victim_order[0] if victim_order else None
                    if victim is req:
                        # ``req`` is only its own victim of last resort:
                        # prefer the newest *other* survivor, as the old
                        # max() over candidates-excluding-needy did.
                        victim = next(
                            (r for r in victim_order[1:] if r.rid not in evicted),
                            req,
                        )
                    if victim is None:  # pragma: no cover - defensive
                        self._cohort.leave(req)
                        evicted_tokens += req.kv_tokens
                        evicted.add(rid)
                        self._remove_by_identity(survivors, req)
                        break
                    self._cohort.leave(victim)
                    evicted_tokens += victim.kv_tokens
                    self.engine.preempt(victim, drop_kv=True)
                    evicted.add(victim.rid)
                    self._remove_by_identity(survivors, victim)
                    self._remove_by_identity(self.running, victim)
                    self.waiting.appendleft(victim)
                    if victim is req:
                        break
        return survivors, evicted_tokens

    @staticmethod
    def _remove_by_identity(pool: list[Request], req: Request) -> bool:
        """Drop ``req`` (the exact object) from ``pool`` if present.

        ``list.remove`` would compare every dataclass field per element;
        identity is what membership means here and is ~free.
        """
        for i, candidate in enumerate(pool):
            if candidate is req:
                del pool[i]
                return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(waiting={len(self.waiting)}, "
            f"running={len(self.running)}, finished={len(self.finished)})"
        )
