"""Lazy token counters for a plain-decode batch.

A plain-decode step (vllm, sarathi, priority, fastserve, vtc) gives every
request in its batch exactly one token.  While a request stays in the
batch from one step to the next, its count is therefore implied:
``n_generated`` at the last commit plus the steps decoded since.  A
:class:`DecodeCohort` keeps that implied count instead of writing it.  A
step then does Python work only for the requests that join, leave,
finish or need a new KV block; spotting that the batch is unchanged is
one C-level list comparison.

Each member records ``mark``, the cohort step at which its ``Request``
counters were last written.  Its ``pending`` tokens are ``step - mark``,
all produced by consecutive steps, the newest at ``end``.
*Materializing* a member is one ``Request.commit_tokens(pending, ctx,
end)`` call, so ``commit_tokens`` stays the only writer of the counters
and keeps all of its checks.  The batch's summed KV residency
(``context``) grows by the batch size each step.

Two step-indexed buckets replace the per-request scans:

- ``_finish_at[s]``: members whose last token is produced by step ``s``.
  That step materializes them at its own end, so ``finish_time`` and
  ``last_token_time`` are exact;
- ``_cross_at[s]``: members whose next token needs KV beyond the tokens
  their allocation covers (``KVCacheManager.covered``) at the admission
  before step ``s``.  Only the scheduler's own ``ensure`` raises a
  member's coverage, and a member whose KV is freed leaves the cohort
  first, so the prediction stays valid until the member is examined.

A request joins on its first step in the batch; that step commits it
eagerly, so ``first_token_time`` is exact.  Entries of members that left
stay in the buckets and are skipped when their step comes (a member is
live iff ``_members[rid]`` is that member object).  Where the scheduler
materializes is listed in :mod:`repro.serving.scheduler_base`.
"""

from __future__ import annotations

from operator import attrgetter

from repro.serving.request import Request


_POS = attrgetter("pos")


class _Member:
    """One request of the cohort: its last commit step and batch position."""

    __slots__ = ("req", "mark", "pos")

    def __init__(self, req: Request, mark: int, pos: int) -> None:
        self.req = req
        self.mark = mark
        self.pos = pos


class DecodeCohort:
    """Lazy ``n_generated`` counters of the requests in a decode batch."""

    def __init__(self) -> None:
        #: Decode steps advanced so far.
        self.step = 0
        #: End time of the last step: the time of every pending token's
        #: newest commit.
        self.end = 0.0
        #: The batch the next step decodes, in batch order.
        self.batch: list[Request] = []
        #: Summed KV residency of ``batch`` (pending tokens included).
        self.context = 0
        self._members: dict[int, _Member] = {}
        self._joining: list[_Member] = []
        self._finish_at: dict[int, list[_Member]] = {}
        self._cross_at: dict[int, list[_Member]] = {}
        #: Sum of every member's ``mark``, so pending tokens total in O(1).
        self._mark_sum = 0
        #: Set when a member finished: ``batch`` no longer matches the
        #: members, and the next admission must regroup.
        self._stale = False

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def pending(self, req: Request) -> int:
        """Tokens ``req`` decoded that its counters do not show yet."""
        m = self._members.get(req.rid)
        return 0 if m is None else self.step - m.mark

    def generated(self, req: Request) -> int:
        """``req.n_generated`` with pending tokens included."""
        return req.n_generated + self.pending(req)

    def pending_tokens(self) -> int:
        """Pending tokens summed over every member."""
        return len(self._members) * self.step - self._mark_sum

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def _commit(self, m: _Member) -> None:
        pending = self.step - m.mark
        if pending:
            m.mark = self.step
            self._mark_sum += pending
            m.req.commit_tokens(pending, m.req.ctx, self.end)

    def materialize(self, reqs) -> None:
        """Write the pending tokens of every member among ``reqs``.

        Never finishes a request: a member's finishing step materializes
        it itself.
        """
        members = self._members
        for req in reqs:
            m = members.get(req.rid)
            if m is not None:
                self._commit(m)

    def materialize_all(self) -> None:
        """Write every member's pending tokens."""
        for m in self._members.values():
            self._commit(m)

    def leave(self, req: Request) -> None:
        """Materialize ``req`` and drop it from the cohort (no-op if absent)."""
        m = self._members.pop(req.rid, None)
        if m is not None:
            self._commit(m)
            self._mark_sum -= m.mark

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _regroup(self, batch: list[Request]) -> list[_Member]:
        """Make ``batch`` the cohort; return the members that joined.

        Requests that left are materialized; every member's batch
        position and the summed context are recomputed.  O(batch), paid
        only on steps whose batch changed.
        """
        old = self._members
        members: dict[int, _Member] = {}
        joiners: list[_Member] = []
        step = self.step
        context = 0
        for pos, req in enumerate(batch):
            m = old.pop(req.rid, None)
            if m is None:
                m = _Member(req, step, pos)
                joiners.append(m)
                self._mark_sum += step
            else:
                m.pos = pos
                context += step - m.mark
            members[req.rid] = m
            context += req.prefilled + req.n_generated  # kv_tokens
        for m in old.values():
            self._commit(m)
            self._mark_sum -= m.mark
        self._members = members
        self._joining.extend(joiners)
        self.batch = batch
        self.context = context
        self._stale = False
        return joiners

    def admit(self, batch: list[Request]) -> list[tuple[Request, int]]:
        """Make ``batch`` the cohort; return who needs KV checked this step.

        Regroups only if the batch changed.  The result lists joiners and
        members whose next token exceeds the coverage recorded by
        :meth:`rearm`, as ``(request, KV tokens needed)`` in batch order.
        """
        # List equality runs in C and short-circuits on identity; two
        # distinct requests never compare equal (rids are unique), so
        # equal lists hold the same requests in the same order.
        if not self._stale and batch == self.batch:
            due = self._cross_at.pop(self.step, None)
            if not due:
                return []
            joiners = []
        else:
            joiners = self._regroup(batch)
            due = self._cross_at.pop(self.step, ())
        members = self._members
        examine = [m for m in due if members.get(m.req.rid) is m]
        examine += joiners
        if len(examine) > 1:
            examine.sort(key=_POS)
        step = self.step
        return [(m.req, m.req.kv_tokens + step - m.mark + 1) for m in examine]

    def rearm(self, needy: list[tuple[Request, int]], covered: dict[int, int]) -> None:
        """Schedule the next KV check of the members :meth:`admit` returned.

        A member is checked again at the admission whose need first
        exceeds ``covered`` (its allocation after this step's growth);
        one whose coverage is not recorded, at the next admission.
        Members evicted meanwhile have left and are skipped.
        """
        members = self._members
        step = self.step
        for req, need in needy:
            m = members.get(req.rid)
            if m is not None:
                spare = covered.get(req.rid, 0) - need
                at = step + 1 + (spare if spare > 0 else 0)
                self._cross_at.setdefault(at, []).append(m)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def advance(self, end: float) -> None:
        """One decode step over ``batch``, ending at ``end``.

        Joiners commit their token now; everyone else's is implied.
        Members whose last token this step produces are materialized at
        ``end`` (which finishes them) and leave.
        """
        step = self.step = self.step + 1
        self.end = end
        members = self._members
        finish_at = self._finish_at
        if self._joining:
            for m in self._joining:
                req = m.req
                if members.get(req.rid) is not m:
                    continue
                m.mark = step
                self._mark_sum += 1
                req.commit_tokens(1, req.ctx, end)
                left = req.max_new_tokens - req.n_generated
                if left:
                    finish_at.setdefault(step + left, []).append(m)
                else:
                    del members[req.rid]
                    self._mark_sum -= step
                    self._stale = True
            self._joining = []
        due = finish_at.pop(step, None)
        if due:
            for m in due:
                if members.get(m.req.rid) is m:
                    self._commit(m)
                    del members[m.req.rid]
                    self._mark_sum -= step
            self._stale = True
        self.context += len(self.batch)
