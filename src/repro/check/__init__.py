"""Correctness tooling: determinism linter + runtime invariant sanitizer.

Two halves of one contract (see README "Correctness tooling"):

- :mod:`repro.check.linter` statically enforces the source conventions
  the determinism guarantees rest on (rules RPD001-RPD006, registry in
  :mod:`repro.check.rules`) — run via ``repro check lint``;
- :mod:`repro.check.invariants` validates deep structural invariants
  (refcount conservation, event monotonicity, request conservation) at
  runtime under ``--check-invariants``, off by default and free when off.
"""

from __future__ import annotations

from repro.check.invariants import InvariantChecker, InvariantViolation
from repro.check.linter import Finding, LintResult, Suppression, lint_file, lint_paths
from repro.check.report import CHECK_SCHEMA_VERSION, format_result, result_to_json
from repro.check.rules import CHECKS, RULES

__all__ = [
    "CHECKS",
    "CHECK_SCHEMA_VERSION",
    "Finding",
    "InvariantChecker",
    "InvariantViolation",
    "LintResult",
    "RULES",
    "Suppression",
    "format_result",
    "lint_file",
    "lint_paths",
    "result_to_json",
]
