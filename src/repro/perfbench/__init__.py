"""Measurements of the simulator's own substrate.

The rest of the repository measures the *simulated systems* (attainment,
goodput); this package holds the population-scale workload-generation
benchmark (:mod:`repro.perfbench.population`), whose gates and digest
are asserted by the tier-1 tests.  Simulator throughput is measured by
the paired reference benchmark in ``simbench/``; fixed-seed simulation
output is pinned by ``tests/test_golden_equivalence.py``.
"""

from repro.perfbench.population import (
    MIN_CONCURRENT_SESSIONS,
    MIN_SPEEDUP,
    PEAK_MEMORY_CEILING_MB,
    POPULATION_CONFIG,
    gate_failures,
    run_population,
)

__all__ = [
    "MIN_CONCURRENT_SESSIONS",
    "MIN_SPEEDUP",
    "PEAK_MEMORY_CEILING_MB",
    "POPULATION_CONFIG",
    "gate_failures",
    "run_population",
]
