"""Observability section of an experiment spec.

:class:`ObsSpec` configures *how a run is watched*, never *what it
computes*: collection is strictly passive (see :mod:`repro.obs.trace`),
so two runs of the same spec with different observability settings
produce byte-identical simulation results.  For that reason the section
is deliberately **excluded from the canonical spec payload and cache
key** (:meth:`~repro.analysis.spec.ExperimentSpec.to_dict` never emits
it): an observability knob can never fork the result cache, and every
pre-existing cache key and golden digest is untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.registry import SpecError

#: ``repro explain --baseline`` defaults: a component regresses only past
#: BOTH thresholds (see :mod:`repro.obs.diff`).
DEFAULT_REL_THRESHOLD = 0.05
DEFAULT_ABS_THRESHOLD_S = 0.05


@dataclass(frozen=True)
class ObsSpec:
    """How one run is observed (trace + periodic gauges + iteration log)."""

    #: Collect lifecycle trace events and periodic gauge samples.
    trace: bool = False
    #: Gauge sampling period in seconds (see :mod:`repro.obs.sampler`).
    sample_every_s: float = 0.5
    #: Attach a per-replica :class:`~repro.serving.telemetry.IterationLog`.
    iteration_log: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "trace", bool(self.trace))
        object.__setattr__(self, "sample_every_s", float(self.sample_every_s))
        object.__setattr__(self, "iteration_log", bool(self.iteration_log))
        if not math.isfinite(self.sample_every_s) or self.sample_every_s <= 0:
            raise SpecError(
                f"sample_every_s must be a positive finite number, "
                f"got {self.sample_every_s!r}"
            )
