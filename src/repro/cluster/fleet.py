"""The simulation loop: replicas, one clock, one router.

:class:`FleetSimulator` is the only simulation loop; a solo point
(:func:`~repro.analysis.harness.run_once` with one replica, or
:class:`~repro.serving.server.ServingSimulator`) is a one-replica fleet.
Each replica keeps its own iteration timeline (``local_now``); the fleet
processes events in global time order over a shared
:class:`~repro.serving.clock.SimClock`:

- the next event is either the earliest arrival or the earliest iteration
  boundary among replicas that have work;
- arrivals are admitted through the router at their arrival instant —
  a busy target queues them for its next boundary, an idle target's
  timeline is pulled forward and it steps immediately;
- at each event the autoscaler (if configured) may add a warming replica
  or start draining one.

Because ties are broken by replica index and every random draw is seeded,
a fleet run is a pure function of (replica factory, workload, router,
autoscaler config) — two runs with the same inputs are byte-identical.

:meth:`FleetSimulator.run` returns the run's one
:class:`~repro.serving.server.SimulationReport`: metrics are aggregated
once over every request served, so cluster and solo numbers are directly
comparable.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Callable

from repro.chaos.faults import FaultEvent, FaultSchedule
from repro.chaos.report import ChaosLog, build_chaos_report
from repro.cluster.autoscaler import Autoscaler, AutoscalerConfig, ScaleEvent
from repro.cluster.replica import Replica
from repro.cluster.router import Router
from repro.serving.clock import ArrivalStream, SimClock
from repro.serving.engine import PhaseTimes, SimulatedEngine
from repro.serving.metrics import DEFAULT_METRICS_MODE, aggregate_metrics
from repro.serving.request import Request
from repro.serving.scheduler_base import Scheduler
from repro.serving.server import SimulationReport

#: Builds a fresh engine + scheduler pair for replica ``index``.
ReplicaFactory = Callable[[int], tuple[SimulatedEngine, Scheduler]]


class FleetSimulator:
    """Simulate a router-fronted fleet of replicas over one trace.

    Parameters
    ----------
    replica_factory:
        Called with a replica index to build a fresh engine + scheduler
        pair (initial fleet and autoscaled additions alike).
    requests:
        The cluster-level workload; arrival times are absolute seconds.
        The run owns these requests and advances them in place; one that
        has already run (see :attr:`Request.has_run`) is refused with a
        ``ValueError``.
    router:
        Routing policy consulted once per arrival.
    num_replicas:
        Initial fleet size.
    autoscaler_config:
        Enables autoscaling when given (see :mod:`repro.cluster.autoscaler`).
    fault_schedule:
        Deterministic fault injections (see :mod:`repro.chaos`); events
        ride the fleet event heap as first-class entries.  ``None`` or an
        empty schedule leaves the run bit-identical to a chaos-free one.
    max_sim_time_s / max_iterations:
        Safety cutoffs: no replica starts an iteration after the horizon;
        iterations are counted fleet-wide.
    observer:
        Optional :class:`~repro.obs.observer.RunObserver`; enables
        lifecycle tracing, fleet-event markers, and periodic gauge
        sampling.  Observation is passive — an observed run's report is
        byte-identical to an unobserved one's.
    invariants:
        Optional :class:`~repro.check.invariants.InvariantChecker`
        (``--check-invariants``); validates heap-event monotonicity,
        per-replica iteration-boundary monotonicity, sampler bounds,
        and request conservation at the fleet merge.  Checks are
        read-only, so a checked run's report is byte-identical too.
    """

    def __init__(
        self,
        replica_factory: ReplicaFactory,
        requests: list[Request],
        router: Router,
        num_replicas: int,
        autoscaler_config: AutoscalerConfig | None = None,
        fault_schedule: FaultSchedule | None = None,
        max_sim_time_s: float = 7200.0,
        max_iterations: int = 2_000_000,
        observer=None,
        invariants=None,
        metrics_mode: str = DEFAULT_METRICS_MODE,
    ) -> None:
        if num_replicas < 1:
            raise ValueError(f"num_replicas must be >= 1, got {num_replicas}")
        self.requests = list(requests)
        for request in self.requests:
            if request.has_run:
                raise ValueError(
                    f"request {request.rid} has already run; pass fresh copies "
                    "([r.fresh_copy() for r in requests]) to run a workload again"
                )
        self.replica_factory = replica_factory
        self.metrics_mode = metrics_mode
        self.router = router
        # Observability (repro.obs): fleet-level markers go straight to
        # the collector; gauge ticks fire lazily from the event loop.
        self._obs = observer.collector if observer is not None else None
        self._sampler = observer.sampler if observer is not None else None
        self._inv = invariants
        self.autoscaler = (
            Autoscaler(autoscaler_config) if autoscaler_config is not None else None
        )
        self.max_sim_time_s = max_sim_time_s
        self.max_iterations = max_iterations
        self.replicas: list[Replica] = [
            self._spawn(i, available_at=0.0) for i in range(num_replicas)
        ]
        self.scale_events: list[ScaleEvent] = []
        self.peak_live = num_replicas  # most live replicas at once (<= max_replicas)
        # Incremental fleet state (replaces per-event full rescans):
        # - the event heap holds (time, kind, index) entries: kind 0 is
        #   a fault event (index into _chaos_events — never stale), kind
        #   1 a replica believed busy keyed on its local_now; replica
        #   entries go stale when it steps or drains and are dropped
        #   lazily at the top.  Faults sort before replica steps at
        #   equal times; replica-replica ordering is unchanged;
        # - the routable pool is maintained in index order (warm-ups are
        #   promoted lazily, drains removed eagerly), so routing an
        #   arrival no longer rebuilds the pool from scratch;
        # - live/draining counters keep autoscale/retire checks O(1).
        self._event_heap: list[tuple[float, int, int]] = []
        self._pool: list[Replica] = list(self.replicas)
        self._warming: deque[Replica] = deque()
        self._live = num_replicas
        self._num_draining = 0
        # Chaos state: declared fault events (appended to at runtime by
        # crash→restart and bounded-straggler→end follow-ups, in
        # processing order — deterministic), the incident log, and the
        # scale-delay penalty currently in force.
        self._chaos_events: list[FaultEvent] = (
            list(fault_schedule.events) if fault_schedule is not None else []
        )
        self._chaos_log: ChaosLog | None = ChaosLog() if self._chaos_events else None
        self._scaleup_extra = 0.0
        for i, event in enumerate(self._chaos_events):
            heapq.heappush(self._event_heap, (event.at_s, 0, i))
        if observer is not None:
            observer.bind_fleet(self)

    # ------------------------------------------------------------------
    def _spawn(self, index: int, available_at: float) -> Replica:
        engine, scheduler = self.replica_factory(index)
        return Replica(index, engine, scheduler, available_at=available_at)

    def _routable(self, now: float) -> list[Replica]:
        # Promote finished warm-ups (spawn order, so nondecreasing
        # available_at keeps the pool in index order; draining/retired
        # replicas are filtered at promotion time).
        warming = self._warming
        pool = self._pool
        while warming and warming[0].available_at <= now:
            replica = warming.popleft()
            if not replica.draining and not replica.retired:
                pool.append(replica)
        if pool:
            return pool
        # Degenerate fallbacks (no warm, non-draining replica): prefer
        # replicas still warming up — they will serve the queue once
        # available — so a drain decision is not fed new work; only a
        # fleet of nothing but drainers (or crashed replicas) routes to
        # them (never drop a request — a failed target queues the work
        # until its restart).
        still_warming = [
            r for r in self.replicas if not r.retired and not r.draining and not r.failed
        ]
        if still_warming:
            return still_warming
        return [r for r in self.replicas if not r.retired]

    def _dispatch(self, req: Request, now: float) -> None:
        """Route ``req`` and admit it, waking its target if it was idle."""
        target = self.router.route(req, self._routable(now))
        was_busy = target.has_work()
        target.admit(req, now)
        if not was_busy and not target.failed:
            heapq.heappush(self._event_heap, (target.local_now, 1, target.index))

    def _autoscale(self, now: float) -> None:
        if self.autoscaler is None:
            return
        decision = self.autoscaler.decide(now, self.replicas)
        if decision > 0:
            index = len(self.replicas)
            # A scale-delay fault (repro.chaos) slows the control plane:
            # every later scale-up pays extra warmup.
            warmup = self.autoscaler.config.warmup_s + self._scaleup_extra
            replica = self._spawn(index, available_at=now + warmup)
            self.replicas.append(replica)
            self._warming.append(replica)
            self.scale_events.append(ScaleEvent(now, "up", index))
            if self._obs is not None:
                self._obs.event(
                    now, "scale-up", replica=index, data={"warmup_s": warmup}
                )
            self._live += 1
            self.peak_live = max(self.peak_live, self._live)
        elif decision < 0:
            victim = self.autoscaler.pick_drain_victim(self.replicas)
            if victim is not None:
                self._drain(victim)
                self.scale_events.append(ScaleEvent(now, "down", victim.index))
                if self._obs is not None:
                    self._obs.event(now, "scale-down", replica=victim.index)

    def _drain(self, victim: Replica) -> None:
        """Flag a replica as draining and pull it from the routable pool."""
        victim.draining = True
        self._num_draining += 1
        self._remove_from_pool(victim)

    def _retire_drained(self) -> None:
        if self._num_draining == 0:
            return
        for replica in self.replicas:
            if replica.draining and not replica.retired and not replica.has_work():
                replica.finalize()
                replica.retired = True
                self._live -= 1
                self._num_draining -= 1

    # ------------------------------------------------------------------
    # Fault injection (see repro.chaos)
    # ------------------------------------------------------------------
    def _push_fault(self, event: FaultEvent) -> None:
        """Append a runtime follow-up fault and schedule it on the heap."""
        self._chaos_events.append(event)
        heapq.heappush(self._event_heap, (event.at_s, 0, len(self._chaos_events) - 1))

    def _remove_from_pool(self, replica: Replica) -> None:
        for i, candidate in enumerate(self._pool):
            if candidate is replica:
                del self._pool[i]
                return

    def _fault_target(self, event: FaultEvent, now: float, kind: str) -> Replica | None:
        """Resolve a fault's victim, skipping (and logging) invalid targets."""
        log = self._chaos_log
        assert log is not None
        if event.replica is None or not 0 <= event.replica < len(self.replicas):
            log.note(now, f"{kind}-skipped", replica=event.replica, reason="no such replica")
            return None
        replica = self.replicas[event.replica]
        if replica.retired or replica.failed:
            log.note(
                now,
                f"{kind}-skipped",
                replica=replica.index,
                reason="retired" if replica.retired else "already down",
            )
            return None
        return replica

    def _note_fault(self, now: float, kind: str, replica: int | None = None, **detail) -> None:
        """Log a fault and, when traced, mark it with the same fields.

        A fleet-scoped fault (``replica`` None) has no ``replica`` key in
        the log and sits on the trace's fleet track.
        """
        where = {} if replica is None else {"replica": replica}
        self._chaos_log.note(now, kind, **where, **detail)
        if self._obs is not None:
            self._obs.event(now, kind, **where, data=detail or None)

    def _apply_fault(self, event: FaultEvent, now: float) -> None:
        kind = event.kind
        if kind == "crash":
            self._apply_crash(event, now)
        elif kind == "restart":
            self._apply_restart(event, now)
        elif kind == "straggler":
            replica = self._fault_target(event, now, kind)
            if replica is None:
                return
            replica.engine.slow_factor = event.slow
            self._note_fault(
                now, kind, replica.index, slow=event.slow, duration_s=event.duration_s
            )
            if event.duration_s is not None:
                self._push_fault(
                    FaultEvent(
                        at_s=now + event.duration_s,
                        kind="straggler-end",
                        replica=replica.index,
                        slow=event.slow,
                    )
                )
        elif kind == "straggler-end":
            replica = self.replicas[event.replica]
            # A crash mid-straggler swapped in a fresh (healthy) engine;
            # only clear an engine still degraded by *this* fault.
            if not replica.retired and replica.engine.slow_factor == event.slow:
                replica.engine.slow_factor = 1.0
                self._note_fault(now, kind, replica.index)
        elif kind == "scale-delay":
            self._scaleup_extra = event.extra_s
            self._note_fault(now, kind, extra_s=event.extra_s)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown fault kind {kind!r}")

    def _apply_crash(self, event: FaultEvent, now: float) -> None:
        """Kill a replica: evacuate, invalidate, re-route, schedule restart."""
        log = self._chaos_log
        assert log is not None
        replica = self._fault_target(event, now, "crash")
        if replica is None:
            return
        was_draining = replica.draining
        self._remove_from_pool(replica)
        if replica in self._warming:
            self._warming.remove(replica)
        engine, scheduler = self.replica_factory(replica.index)
        victims = replica.crash(engine, scheduler)
        # Sessions homed here lost their prefix KV; sticky routers must
        # re-home them (the PR 4 affinity state is rolled back).
        self.router.forget_replica(replica.index)
        if was_draining:
            # The autoscaler already wanted this replica gone; the crash
            # finishes the job immediately (no restart — its work simply
            # re-routes below).
            replica.draining = False
            replica.retired = True
            self._live -= 1
            self._num_draining -= 1
            restart_at = None
        else:
            replica.failed = True
            restart_at = now + event.restart_s
            replica.available_at = restart_at
            replica.local_now = restart_at
            self._push_fault(
                FaultEvent(at_s=restart_at, kind="restart", replica=replica.index)
            )
        obs = self._obs
        if obs is not None:
            obs.event(
                now,
                "crash",
                replica=replica.index,
                data={"restart_at_s": restart_at, "evacuated": len(victims)},
            )
        requeued = []
        for req in victims:
            req.fail_over()
            self._dispatch(req, now)
            requeued.append(req.rid)
            if obs is not None:
                obs.event(now, "failover", replica=replica.index, rid=req.rid)
        log.note(
            now,
            "crash",
            replica=replica.index,
            restart_at_s=restart_at,
            was_draining=was_draining,
            requeued=requeued,
        )

    def _apply_restart(self, event: FaultEvent, now: float) -> None:
        """Bring a crashed replica back, cold, at its restart instant."""
        replica = self.replicas[event.replica]
        if replica.retired or not replica.failed:
            return
        replica.failed = False
        # Re-enter the routable pool at its index-sorted position.
        pool = self._pool
        pos = len(pool)
        for i, candidate in enumerate(pool):
            if candidate.index > replica.index:
                pos = i
                break
        pool.insert(pos, replica)
        # Requests degenerately routed here while it was down (no other
        # live replica) have been queuing; start serving them now.
        if replica.has_work():
            heapq.heappush(self._event_heap, (replica.local_now, 1, replica.index))
        self._note_fault(now, "restart", replica.index)

    # ------------------------------------------------------------------
    def run(self) -> SimulationReport:
        """Execute the fleet simulation to completion (or safety cutoff).

        The loop is event-driven over an explicit heap: replicas with
        work sit in ``_event_heap`` keyed on ``(local_now, 1, index)``.
        Entries are pushed on the idle→busy transition (an arrival routed
        to an idle replica) and after each step that leaves work behind;
        entries invalidated by draining are dropped lazily at the heap
        top.  Fault events (``(at_s, 0, event_index)``; see
        :mod:`repro.chaos`) share the heap, sorting ahead of replica steps
        at equal times.  Each pass picks the next event (the heap top, or
        the next arrival, which wins ties), then runs one prelude (the
        clock, gauge catch-up and the invariant checks) before handling
        it: a fault, one replica step, or the arrivals due at that time.

        Returns the run's one report.  A plain fleet (one replica, no
        autoscaler, no faults) keeps its scheduler's order and label; any
        other reports the rid-sorted union as ``"<name> x<peak> [<router>]"``.
        """
        clock = SimClock()
        arrivals = ArrivalStream(self.requests)
        iterations = 0
        horizon = self.max_sim_time_s
        heap = self._event_heap
        replicas = self.replicas
        # Gauge sampling is lazy catch-up (repro.obs.sampler): pending
        # ticks <= the chosen event time fire just before the event is
        # processed, observing the state held since the previous one —
        # no heap entries of its own, so the loop's event order, drain
        # condition, and autoscale cadence are untouched.
        sampler = self._sampler
        inv = self._inv
        # Conservation is checked against what was actually routed: a
        # horizon abort legitimately leaves unreleased arrivals behind.
        admitted = [] if inv is not None else None

        while True:
            # Drop stale replica entries (replica stepped, drained, or
            # retired since its entry was pushed).  Fault entries (kind
            # 0) are never stale — they are processed exactly once.
            while heap:
                t, kind, i = heap[0]
                if kind == 0:
                    break
                replica = replicas[i]
                if replica.local_now == t and not replica.retired and replica.has_work():
                    break
                heapq.heappop(heap)
            next_arrival = arrivals.next_arrival
            if not heap and next_arrival is None:
                break  # drained

            # Safety horizon, per replica: a replica stops stepping once
            # an iteration finishes beyond the horizon (its leftover
            # requests count as violations).
            # The run continues while any working replica is below the
            # horizon, or an idle sub-horizon replica could still serve a
            # pending sub-horizon arrival — only then is nothing left.
            step_candidate = fault_index = None
            if heap:
                t, kind, i = heap[0]
                event_time = t
                if t <= horizon:
                    if kind == 0:
                        fault_index = i
                    else:
                        step_candidate = replicas[i]
                elif kind == 0:
                    # A fault beyond the horizon can never fire; discard
                    # it so the drain check above can terminate the loop.
                    heapq.heappop(heap)
                    continue
                else:
                    idle_capacity = any(
                        not r.retired
                        and not r.has_work()
                        and r.local_now <= horizon
                        for r in replicas
                    )
                    if (
                        next_arrival is None
                        or next_arrival > horizon
                        or not idle_capacity
                    ):
                        break

            # The next event: the heap's fault or replica step, unless a
            # pending arrival comes first (arrivals win ties).
            if (fault_index is None and step_candidate is None) or (
                next_arrival is not None and next_arrival <= event_time
            ):
                fault_index = step_candidate = None
                event_time = next_arrival
            else:
                heapq.heappop(heap)
            now = clock.advance_to(event_time)
            if sampler is not None:
                sampler.catch_up(event_time)
            if inv is not None:
                inv.check_event_time(event_time)
                if sampler is not None:
                    inv.check_sampler(sampler, event_time)

            if fault_index is not None:
                self._apply_fault(self._chaos_events[fault_index], now)
            elif step_candidate is not None:
                step_candidate.step()
                if inv is not None:
                    inv.check_replica_step(
                        step_candidate.index, step_candidate.local_now
                    )
                iterations += 1
                if iterations > self.max_iterations:
                    raise RuntimeError(
                        f"fleet exceeded {self.max_iterations} iterations"
                    )
                if step_candidate.has_work():
                    heapq.heappush(
                        heap, (step_candidate.local_now, 1, step_candidate.index)
                    )
            else:
                for req in arrivals.release_until(now):
                    self._dispatch(req, now)
                    if admitted is not None:
                        admitted.append(req)

            self._autoscale(now)
            self._retire_drained()

        for replica in self.replicas:
            replica.finalize()

        # The loop advances the shared clock to each iteration's *start*
        # boundary; the run actually ends when the last-stepped replica's
        # final iteration completes.
        end_time = max(
            (r.local_now for r in self.replicas if r.iterations > 0),
            default=clock.now,
        )
        sim_time_s = max(clock.now, end_time)
        if sampler is not None:
            # Cover the drain tail up to the run's true end time.
            sampler.catch_up(sim_time_s)

        name = self.replicas[0].scheduler.name
        if len(self.replicas) == 1 and self.autoscaler is None and self._chaos_log is None:
            requests = self.replicas[0].requests()
        else:
            requests = sorted(
                (req for replica in self.replicas for req in replica.requests()),
                key=lambda r: r.rid,
            )
            name = f"{name} x{self.peak_live} [{self.router.name}]"
        for req in requests:
            req.on_finish = None  # still set on requests left unfinished
        if inv is not None:
            if sampler is not None:
                inv.check_sampler(sampler, sim_time_s)
            inv.check_conservation(admitted, requests, "fleet merge")
        chaos = (
            build_chaos_report(self._chaos_log, requests, sim_time_s)
            if self._chaos_log is not None
            else None
        )
        return SimulationReport(
            scheduler_name=name,
            metrics=aggregate_metrics(requests, self.metrics_mode),
            sim_time_s=sim_time_s,
            iterations=iterations,
            phase_breakdown=self._merged_phase_breakdown(),
            requests=requests,
            chaos=chaos,
        )

    # ------------------------------------------------------------------
    def _merged_phase_breakdown(self) -> dict[str, float]:
        """Fleet-wide phase fractions: per-phase busy time summed first."""
        merged = PhaseTimes()
        for replica in self.replicas:
            merged.add(replica.accumulated_phase_times())
        return merged.breakdown()
