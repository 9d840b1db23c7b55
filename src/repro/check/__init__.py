"""Correctness tooling: determinism linter + runtime invariant sanitizer.

Two halves of one contract (see README "Correctness tooling"):

- :mod:`repro.check.linter` statically enforces the source conventions
  the determinism guarantees rest on (rules RPD001-RPD006, registry in
  :mod:`repro.check.rules`) — run via ``repro check lint``;
- :mod:`repro.check.invariants` validates deep structural invariants
  (refcount conservation, event monotonicity, request conservation) at
  runtime under ``--check-invariants``, off by default and free when off.
"""
