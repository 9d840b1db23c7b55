"""Runtime invariant sanitizer (``--check-invariants``).

Deep structural checks the simulator cannot afford on every run: KV and
prefix-block refcount conservation, plus the coverage bound decode
admission trusts, after every admit/finish/preempt/crash, the lazy
plain-decode counters against a recount after every decode admission,
per-replica and global event-time monotonicity, gauge-sampler catch-up
bounds, and request conservation at merge points.  Violations raise
:class:`InvariantViolation` immediately, carrying structured
context (invariant name, replica, request, block, sim time) so a report
names exactly what broke and where.

Gating follows the observability pattern (``engine.obs``): engines and
schedulers carry an ``inv`` attribute that is ``None`` by default, and
every hook site is ``inv = self.inv; if inv is not None: ...`` — the
sanitizer-off hot path pays one attribute load per lifecycle event and
nothing else.  The checks themselves are read-only over simulator state,
so a checked run's report is byte-identical to an unchecked one's.
"""

from __future__ import annotations

import math
from collections import Counter

#: Time-comparison slack, matching SimClock.advance_to and
#: GaugeSampler.catch_up (floating-point event times).
_EPS = 1e-12


class InvariantViolation(AssertionError):
    """A runtime invariant failed; carries structured context.

    Subclasses ``AssertionError`` because these are assertions — a
    violation is a simulator bug (or deliberately corrupted state in a
    test), never a user-input error.
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        *,
        replica: int | None = None,
        rid: int | None = None,
        block: int | None = None,
        time: float | None = None,
    ) -> None:
        self.invariant = invariant
        self.message = message
        self.replica = replica
        self.rid = rid
        self.block = block
        self.time = time
        super().__init__(self.format())

    def to_dict(self) -> dict:
        """Structured violation report (stable key set)."""
        return {
            "invariant": self.invariant,
            "message": self.message,
            "replica": self.replica,
            "rid": self.rid,
            "block": self.block,
            "time": self.time,
        }

    def format(self) -> str:
        where = [
            f"{name}={value}"
            for name, value in (
                ("replica", self.replica),
                ("rid", self.rid),
                ("block", self.block),
                ("t", self.time),
            )
            if value is not None
        ]
        suffix = f" [{' '.join(where)}]" if where else ""
        return f"invariant {self.invariant} violated: {self.message}{suffix}"


class _BoundInvariants:
    """Per-replica facade installed as ``engine.inv`` / ``scheduler.inv``.

    Binds the replica index once at attach time so lifecycle hooks do not
    thread it through every call.
    """

    __slots__ = ("checker", "replica")

    def __init__(self, checker: "InvariantChecker", replica: int) -> None:
        self.checker = checker
        self.replica = replica

    def kv(self, kv, event: str, rid: int | None = None) -> None:
        self.checker.check_kv(kv, event, replica=self.replica, rid=rid)

    def decode(self, scheduler) -> None:
        self.checker.check_decode(scheduler, replica=self.replica)


class InvariantChecker:
    """One sanitizer instance per run; shared across a fleet's replicas."""

    def __init__(self) -> None:
        #: Individual invariant evaluations performed (reported by the CLI).
        self.checks = 0
        self._replica_clock: dict[int, float] = {}
        self._event_clock = -math.inf

    # ------------------------------------------------------------------
    def attach(self, engine, scheduler, replica: int = 0) -> None:
        """Install lifecycle hooks on an engine + scheduler pair."""
        bound = _BoundInvariants(self, replica)
        engine.inv = bound
        scheduler.inv = bound

    # ------------------------------------------------------------------
    # KV / prefix-block conservation
    # ------------------------------------------------------------------
    def check_kv(
        self, kv, event: str, replica: int | None = None, rid: int | None = None
    ) -> None:
        """Full accounting audit of a KV manager after a lifecycle event."""
        self.checks += 1

        def fail(invariant: str, message: str, block: int | None = None) -> None:
            raise InvariantViolation(
                invariant,
                f"after {event}: {message}",
                replica=replica,
                rid=rid,
                block=block,
            )

        for owner, blocks in kv._allocated.items():
            if blocks < 0:
                fail("kv-allocation", f"request {owner} holds {blocks} blocks")
        total_private = sum(kv._allocated.values())
        if kv._used != total_private:
            fail(
                "kv-conservation",
                f"_used={kv._used} but allocations sum to {total_private}",
            )
        if kv.used_blocks > kv.total_blocks:
            fail(
                "kv-capacity",
                f"used_blocks={kv.used_blocks} exceeds total_blocks={kv.total_blocks}",
            )

        # The decode-admission skip trusts ``covered`` as a lower bound:
        # every entry is a live request holding at least that many tokens.
        refs = kv._refs if kv.prefix_caching else {}
        for owner, tokens in kv.covered.items():
            shared = refs.get(owner, (None, 0))[1]
            held = (kv._allocated.get(owner, 0) + shared) * kv.block_size
            if not kv.holds(owner) or tokens > held:
                fail(
                    "kv-covered",
                    f"request {owner} records {tokens} covered tokens but holds {held}",
                )

        if not kv.prefix_caching:
            return
        streams = kv._streams  # stream key -> its runs, by depth
        runs = [run for stream_runs in streams.values() for run in stream_runs]
        resident = {id(run) for run in runs}

        # Each request holds the run path from its tail up to the root;
        # every run on it must still be in the table.
        paths = {}
        for owner, (tail, depth) in refs.items():
            path = []
            run = tail
            while run is not None:
                if id(run) not in resident:
                    fail(
                        "prefix-refcount",
                        f"request {owner} references a run missing from the shared table",
                        block=run.end - 1,
                    )
                path.append(run)
                run = run.parent
            paths[owner] = path

        # Each stream's runs tile one depth range, each hanging from the
        # one before it; the first hangs from a resident run's tail (or
        # is a root at depth 0).  A held depth ends on its tail run.
        for stream, stream_runs in streams.items():
            if not stream_runs:
                fail("prefix-chain", f"stream {stream:#x} is in the table with no runs")
            previous = None
            for run in stream_runs:
                if run.stream != stream or run.start >= run.end:
                    fail(
                        "prefix-chain",
                        f"run of stream {run.stream:#x} spans depths {run.start}..{run.end - 1} "
                        f"in stream {stream:#x}'s list",
                        block=run.start,
                    )
                parent = run.parent
                if previous is not None and parent is not previous:
                    fail(
                        "prefix-chain",
                        f"run starts at depth {run.start} but does not hang from the "
                        f"stream's previous run, which ends at {previous.end - 1}",
                        block=run.start,
                    )
                if parent is not None and id(parent) not in resident:
                    fail("prefix-chain", "run hangs from an evicted parent", block=run.start)
                depth = 0 if parent is None else parent.end
                if run.start != depth:
                    fail(
                        "prefix-chain",
                        f"run starts at depth {run.start} but its parent's tail ends at {depth - 1}",
                        block=run.start,
                    )
                previous = run
        for owner, (tail, depth) in refs.items():
            end = 0 if tail is None else tail.end
            if depth != end:
                fail(
                    "prefix-chain",
                    f"request {owner} records {depth} shared blocks but its tail run ends at {end}",
                )

        # A run's refcount must equal the number of live paths through it
        # — recomputed from scratch, not trusted.
        expected = Counter(id(run) for path in paths.values() for run in path)
        for run in runs:
            if run.refcount != expected[id(run)]:
                fail(
                    "prefix-refcount",
                    f"run refcount={run.refcount} but "
                    f"{expected[id(run)]} live chain(s) reference it",
                    block=run.end - 1,
                )
        unreferenced = sum(run.end - run.start for run in runs if run.refcount == 0)
        if kv._unreferenced != unreferenced:
            fail(
                "prefix-unreferenced",
                f"_unreferenced={kv._unreferenced} but {unreferenced} shared "
                "block(s) have refcount 0",
            )
        children = Counter(id(run.parent) for run in runs if run.parent is not None)
        for run in runs:
            if run.children != children[id(run)]:
                fail(
                    "prefix-children",
                    f"run children={run.children} but {children[id(run)]} "
                    "resident run(s) name it as parent",
                    block=run.end - 1,
                )
        cached = sum(run.end - run.start for run in runs)
        if kv._cached != cached:
            fail("kv-conservation", f"_cached={kv._cached} but the runs hold {cached} blocks")

    # ------------------------------------------------------------------
    # Lazy plain-decode counters
    # ------------------------------------------------------------------
    def check_decode(self, scheduler, replica: int | None = None) -> None:
        """The lazy decode counters equal a from-scratch recount.

        Run after each plain-decode admission.  Every cohort member must
        be a running request of this scheduler's batch whose pending
        tokens leave at least one to generate; the batch's summed KV
        residency, the pending total and the scheduler's outstanding
        load must match a recount over true (written + pending) counts;
        and every member must sit in exactly the finish and block-crossing
        buckets its counts and KV coverage imply.
        """
        self.checks += 1
        cohort = scheduler._cohort
        step = cohort.step

        def fail(message: str, rid: int | None = None) -> None:
            raise InvariantViolation(
                "lazy-decode", f"after decode-admission: {message}", replica=replica, rid=rid
            )

        members = cohort._members
        batch_rids = [req.rid for req in cohort.batch]
        if sorted(batch_rids) != sorted(members):
            fail(f"cohort members {sorted(members)} != batch {sorted(batch_rids)}")
        running = {id(req) for req in scheduler.running}
        joining = {id(m) for m in cohort._joining}

        def live_entries(buckets) -> dict[int, list[int]]:
            """rid -> steps of the live member's entries in ``buckets``."""
            found: dict[int, list[int]] = {}
            for at, due in sorted(buckets.items()):
                for m in due:
                    if members.get(m.req.rid) is m:
                        found.setdefault(m.req.rid, []).append(at)
            return found

        finish = live_entries(cohort._finish_at)
        cross = live_entries(cohort._cross_at)
        covered = scheduler.engine.kv.covered
        context = 0
        pending_total = 0
        for req in cohort.batch:
            m = members[req.rid]
            pending = step - m.mark
            if m.req is not req or id(req) not in running:
                fail("a batch request is not a running cohort member", req.rid)
            if req.state.value != "running" or not 0 <= pending < req.remaining_tokens:
                fail(
                    f"{pending} pending token(s) with {req.remaining_tokens} left "
                    f"in state {req.state.value}",
                    req.rid,
                )
            context += req.kv_tokens + pending
            pending_total += pending
            left = req.remaining_tokens - pending
            want = [] if id(m) in joining else [step + left]
            if finish.get(req.rid, []) != want:
                fail(f"finish bucket disagrees with {left} token(s) left", req.rid)
            spare = covered.get(req.rid, 0) - (req.kv_tokens + pending + 1)
            if spare < 0 or cross.get(req.rid) != [step + spare + 1]:
                fail(f"block-crossing bucket disagrees with {spare} spare KV token(s)", req.rid)
        if context != cohort.context:
            fail(f"context={cohort.context} but the batch holds {context} KV tokens")
        if pending_total != cohort.pending_tokens():
            fail(f"pending total={cohort.pending_tokens()} but members hold {pending_total}")
        count = 0
        tokens = 0
        for req in list(scheduler.waiting) + list(scheduler.running):
            if req.state.value != "finished":
                count += 1
                tokens += req.remaining_prompt + req.remaining_tokens - cohort.pending(req)
        if scheduler.outstanding() != (count, tokens):
            fail(f"outstanding={scheduler.outstanding()} but a recount gives {(count, tokens)}")

    # ------------------------------------------------------------------
    # Event-time monotonicity
    # ------------------------------------------------------------------
    def check_event_time(self, t: float) -> None:
        """Global event order: processed event times never decrease."""
        self.checks += 1
        if t < self._event_clock - _EPS:
            raise InvariantViolation(
                "event-monotonicity",
                f"event at t={t} processed after t={self._event_clock}",
                time=t,
            )
        self._event_clock = max(self._event_clock, t)

    def check_replica_step(self, replica: int, local_now: float) -> None:
        """Per-replica iteration boundaries never move backwards."""
        self.checks += 1
        last = self._replica_clock.get(replica, -math.inf)
        if local_now < last - _EPS:
            raise InvariantViolation(
                "replica-monotonicity",
                f"iteration boundary moved backwards: {last} -> {local_now}",
                replica=replica,
                time=local_now,
            )
        self._replica_clock[replica] = max(last, local_now)

    def check_sampler(self, sampler, t: float) -> None:
        """Gauge catch-up never samples beyond the driving event time."""
        self.checks += 1
        if sampler.samples and sampler.samples[-1].t > t + _EPS:
            raise InvariantViolation(
                "sampler-bound",
                f"gauge sample at t={sampler.samples[-1].t} exceeds "
                f"event time t={t}",
                time=t,
            )

    # ------------------------------------------------------------------
    # Request conservation at merge points
    # ------------------------------------------------------------------
    def check_conservation(
        self, generated, reported, where: str, replica: int | None = None
    ) -> None:
        """Every generated request is accounted for exactly once.

        ``generated = finished + lost + in-flight + evacuated`` collapses
        to: the merged report holds each generated rid exactly once (the
        simulator never drops work — evacuations re-route, crashes
        re-queue) and invents none.
        """
        self.checks += 1
        want = Counter(req.rid for req in generated)
        got = Counter(req.rid for req in reported)
        if want == got:
            return
        missing = sorted((want - got).elements())
        extra = sorted((got - want).elements())
        parts = []
        if missing:
            parts.append(f"missing rids {missing[:10]}")
        if extra:
            parts.append(f"duplicated/unknown rids {extra[:10]}")
        first = (missing or extra or [None])[0]
        raise InvariantViolation(
            "request-conservation",
            f"at {where}: generated {sum(want.values())} request(s), "
            f"report accounts for {sum(got.values())} ({'; '.join(parts)})",
            replica=replica,
            rid=first,
        )
