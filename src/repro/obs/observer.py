"""Run-scoped observability bundle.

:class:`RunObserver` owns everything one observed run collects — the
trace collector, the gauge sampler, and per-replica iteration logs — and
knows how to attach them to the simulation topology:

- :meth:`attach_engine` is called from the harness's replica factory for
  every engine built (initial fleet, autoscaled additions, and
  crash-replacement engines alike), installing a per-replica
  :class:`~repro.obs.trace.ReplicaTracer` as ``engine.obs`` and, when
  requested, an :class:`~repro.serving.telemetry.IterationLog` as
  ``engine.telemetry``.  Iteration logs are keyed by replica index so a
  crash-replacement engine appends to the same log its predecessor used;
- :meth:`bind_fleet` installs the sampler's state-capture callback for
  the simulation loop (a solo run is a one-replica fleet).

Attachment is the only side effect; collection itself never touches
simulation state, so observed runs stay byte-identical to unobserved
ones.
"""

from __future__ import annotations

from repro.obs.sampler import GaugeSampler, Sample
from repro.obs.spec import ObsSpec
from repro.obs.trace import TraceCollector
from repro.serving.telemetry import IterationLog


def _prefix_blocks(kv) -> int:
    """Shared prefix blocks currently cached (0 without prefix caching)."""
    return kv.prefix_stats().cached_blocks if kv.prefix_caching else 0


class RunObserver:
    """Collector + sampler + iteration logs for one observed run."""

    def __init__(
        self,
        trace: bool = True,
        sample_every_s: float = 0.5,
        iteration_log: bool = False,
        sample_capacity: int = 4096,
    ) -> None:
        self.collector: TraceCollector | None = TraceCollector() if trace else None
        self.sampler: GaugeSampler | None = (
            GaugeSampler(sample_every_s, sample_capacity) if trace else None
        )
        self.iteration_logs: dict[int, IterationLog] | None = (
            {} if iteration_log else None
        )

    @classmethod
    def from_spec(cls, spec: ObsSpec) -> "RunObserver":
        """Observer matching an :class:`~repro.obs.spec.ObsSpec` section."""
        return cls(
            trace=spec.trace,
            sample_every_s=spec.sample_every_s,
            iteration_log=spec.iteration_log,
        )

    # ------------------------------------------------------------------
    # Topology attachment
    # ------------------------------------------------------------------
    def attach_engine(self, engine, replica: int) -> None:
        """Instrument one freshly built engine for replica ``replica``."""
        if self.collector is not None:
            engine.obs = self.collector.tracer(replica)
        if self.iteration_logs is not None:
            engine.telemetry = self.iteration_logs.setdefault(replica, IterationLog())

    def bind_fleet(self, fleet) -> None:
        """Sampler capture for the simulation loop (live replica list)."""
        if self.sampler is None:
            return

        def capture(t: float) -> Sample:
            rows = []
            live = warming = draining = failed = 0
            for r in fleet.replicas:
                if r.retired:
                    state = "retired"
                elif r.failed:
                    state = "failed"
                    failed += 1
                elif r.draining:
                    state = "draining"
                    draining += 1
                elif r.available_at > t:
                    state = "warming"
                    warming += 1
                else:
                    state = "live"
                    live += 1
                kv = r.engine.kv
                rows.append(
                    (
                        r.index,
                        state,
                        len(r.scheduler.waiting),
                        len(r.scheduler.running),
                        kv.used_blocks,
                        kv.total_blocks,
                        _prefix_blocks(kv),
                    )
                )
            return Sample(
                t, (live, warming, draining, failed, len(fleet.replicas)), tuple(rows)
            )

        self.sampler.bind(capture)
