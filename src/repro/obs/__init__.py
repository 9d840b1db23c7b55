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
