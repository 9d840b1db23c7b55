"""Deterministic chaos engineering for the fleet simulator.

Faults are first-class, seeded experiment inputs rather than ad-hoc test
hooks: a :class:`~repro.chaos.faults.FaultSchedule` is materialized from
``--faults`` spec strings (see the FAULTS registry in
:mod:`repro.chaos.faults`) plus a seed derived from the run seed, and its events ride the fleet event heap
in :mod:`repro.cluster.fleet` exactly like iteration boundaries and
arrivals.  A fixed-seed chaos run is therefore byte-identical across
repeats, and an *empty* schedule leaves every existing run untouched to
the bit.

The incident side lives in :mod:`repro.chaos.report`: each run with an
active schedule attaches a strict-JSON-safe incident report (fault
timeline, per-crash recovery milestones, requests disrupted/lost, SLO
attainment inside incident windows) to the fleet's one
:class:`~repro.serving.server.SimulationReport`.
"""
