"""Figure 15: latency breakdown of SLO-customized speculative decoding.

Measures the share of serving time spent in scheduling (CPU-side token
selection), speculation (draft model) and verification (target model).
Paper result: scheduling is 0.31-0.41% of serving time — negligible.

Two measurements are reported:

- the *simulated* phase breakdown of a full serving run (scheduling priced
  by the deterministic cost model the scheduler uses);
- the *measured* wall-clock of the pure-CPU selection implementation per
  iteration, which calibrates that cost model.
"""

from __future__ import annotations

import gc
import time

from benchmarks.common import SEED, run_system
from repro.core.pipeline import BatchItem, run_iteration
from repro.analysis.report import format_table


def _serving_breakdown():
    report = run_system("llama70b", "adaserve", 3.8)
    return report.phase_breakdown


def test_fig15_breakdown(benchmark):
    breakdown = benchmark.pedantic(_serving_breakdown, rounds=1, iterations=1)

    print("\n=== Figure 15: latency breakdown (llama70b, RPS 3.8) ===")
    rows = [[phase, f"{share * 100:.2f}%"] for phase, share in sorted(breakdown.items())]
    print(format_table(["phase", "share"], rows))

    gpu_decode_phases = (
        breakdown.get("speculation", 0)
        + breakdown.get("verification", 0)
        + breakdown.get("prefill", 0)
    )
    sched = breakdown.get("scheduling", 0)
    # The paper's headline: scheduling overhead is < 1% of serving time.
    assert sched < 0.01
    assert gpu_decode_phases > 0.9


def test_fig15_selection_cpu_measured(pair_fixture=None):
    """Measured CPU time of Algorithm 2's selection phases per iteration."""
    from repro.model.pair import ModelPair

    pair = ModelPair.from_preset("llama70b-1b", seed=SEED)
    items = [
        BatchItem(root_token=0, root_ctx=pair.context_of([i, 3]), requirement=1.5)
        for i in range(32)
    ]
    # Warm the model caches so we time selection, not distribution draws.
    run_iteration(pair, items, depth=4, width=4, budget=120)
    # Time with the collector off, as timeit does: a collection landing in
    # the loop walks the whole test session's heap, which is not selection cost.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        n = 20
        cpu = 0.0
        for _ in range(n):
            result = run_iteration(pair, items, depth=4, width=4, budget=120)
            cpu += result.selection_cpu_s
        wall = time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()
    per_iter_cpu = cpu / n
    print(f"\nmeasured selection CPU: {per_iter_cpu * 1e6:.0f} us/iteration "
          f"(batch 32, budget 120); pipeline wall {wall / n * 1e3:.1f} ms/iter")
    # The deterministic cost model (20us + 0.2us/candidate, <=120
    # candidates -> <=44us) must be the same order of magnitude.
    assert per_iter_cpu < 1e-3
