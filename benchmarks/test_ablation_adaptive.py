"""Ablation: adaptive (d, w) control (Equations 8-9) vs. fixed beams.

Runs AdaServe on a bursty workload with the adaptive controller against
variants pinned to fixed (d, w).  Expectation: small fixed beams give up
speedup at low load, large fixed beams waste speculation at high load;
the adaptive policy is at least competitive with the best fixed setting
without knowing the load in advance.
"""

from __future__ import annotations

from benchmarks.common import SEED, setup_for
from repro.analysis.harness import run_once
from repro.analysis.report import format_table
from repro.core.adaptive import AdaptiveConfig
from repro.workloads.generator import WorkloadGenerator

_RPS = 5.0
_DURATION_S = 40.0


def _fixed(d: int, w: int) -> AdaptiveConfig:
    return AdaptiveConfig(d_min=d, d_max=d, w_max=w, c1=0.0, c2=w)


def _run_variants():
    setup = setup_for("llama70b")
    gen = WorkloadGenerator(setup.target_roofline, seed=SEED)
    requests = gen.bursty(_DURATION_S, _RPS)
    # Every variant replays the same trace, so each run gets fresh copies.
    out = {}
    out["adaptive"] = run_once(setup, "adaserve", [r.fresh_copy() for r in requests])
    for d, w in ((1, 1), (2, 2), (6, 4), (8, 4)):
        out[f"fixed d={d} w={w}"] = run_once(
            setup, "adaserve", [r.fresh_copy() for r in requests], adaptive=_fixed(d, w)
        )
    return out


def test_ablation_adaptive_control(benchmark):
    results = benchmark.pedantic(_run_variants, rounds=1, iterations=1)

    print("\n=== Ablation: adaptive vs fixed speculation parameters ===")
    rows = [
        [
            name,
            f"{r.metrics.attainment * 100:.1f}%",
            f"{r.metrics.goodput:.0f}",
            f"{r.metrics.mean_accepted_per_verify:.2f}",
        ]
        for name, r in results.items()
    ]
    print(format_table(["variant", "attainment", "goodput", "mean accepted"], rows))

    adaptive = results["adaptive"].metrics
    best_fixed = max(
        (r.metrics for n, r in results.items() if n != "adaptive"),
        key=lambda m: m.attainment,
    )
    # Adaptive is competitive with the best fixed beam chosen in hindsight.
    assert adaptive.attainment >= best_fixed.attainment - 0.05
    # And clearly better than the worst fixed beam.
    worst_fixed = min(
        (r.metrics for n, r in results.items() if n != "adaptive"),
        key=lambda m: m.attainment,
    )
    assert adaptive.attainment > worst_fixed.attainment
