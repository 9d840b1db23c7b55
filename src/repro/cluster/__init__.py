"""Cluster serving layer: multi-replica fleets with routing + autoscaling.

Composes the single-engine machinery (engine, scheduler, metrics) into a
fleet simulation: N replicas behind a pluggable router, optionally grown
and shrunk by a queue-depth autoscaler.  See :mod:`repro.cluster.fleet`
for the event-loop semantics.
"""
