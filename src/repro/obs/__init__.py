"""Observability: request lifecycle traces, fleet gauges, exporters.

The subsystem is strictly passive and opt-in: nothing here mutates
simulation state, every emission site in the serving core is guarded by
an ``if obs is not None`` check (one attribute test when disabled), and
the :class:`~repro.obs.spec.ObsSpec` section never enters a spec's cache
key — so obs-free runs keep byte-identical golden digests and cache
keys, and observed runs produce byte-identical *results* to unobserved
ones (only the trace is extra).

Entry points:

- ``repro explain`` CLI: exact per-request latency attribution, SLO
  root-cause tables, fleet-efficiency diagnostics, the slowest-requests
  table, ``--baseline`` diffing of two attribution exports
  (:mod:`repro.obs.attrib`, :mod:`repro.obs.diff`), and the Perfetto and
  time-series exports (``--trace-out``, ``--series-out``);
- :func:`repro.analysis.runner.run_traced`: the same as a library call,
  returning ``(report, RunObserver)``.
"""

from repro.obs.attrib import (
    ATTRIB_SCHEMA_VERSION,
    COMPONENTS,
    RequestAttribution,
    attribution_to_dict,
    attribution_to_json,
    decompose,
    fleet_efficiency,
    format_attribution,
    root_causes,
)
from repro.obs.diff import (
    DEFAULT_ABS_THRESHOLD_S,
    DEFAULT_REL_THRESHOLD,
    diff_attributions,
    format_diff_table,
)
from repro.obs.export import (
    TRACE_SCHEMA_VERSION,
    format_slowest_table,
    perfetto_json,
    perfetto_trace,
    series_to_dict,
    series_to_json,
    slowest_requests,
)
from repro.obs.observer import RunObserver
from repro.obs.sampler import FLEET_FIELDS, REPLICA_FIELDS, GaugeSampler, Sample
from repro.obs.spec import ObsSpec
from repro.obs.trace import FLEET_TRACK, ReplicaTracer, TraceCollector, TraceEvent

__all__ = [
    "ATTRIB_SCHEMA_VERSION",
    "COMPONENTS",
    "DEFAULT_ABS_THRESHOLD_S",
    "DEFAULT_REL_THRESHOLD",
    "FLEET_FIELDS",
    "FLEET_TRACK",
    "GaugeSampler",
    "ObsSpec",
    "REPLICA_FIELDS",
    "ReplicaTracer",
    "RequestAttribution",
    "RunObserver",
    "Sample",
    "TRACE_SCHEMA_VERSION",
    "TraceCollector",
    "TraceEvent",
    "attribution_to_dict",
    "attribution_to_json",
    "decompose",
    "diff_attributions",
    "fleet_efficiency",
    "format_attribution",
    "format_diff_table",
    "format_slowest_table",
    "perfetto_json",
    "perfetto_trace",
    "root_causes",
    "series_to_dict",
    "series_to_json",
    "slowest_requests",
]
