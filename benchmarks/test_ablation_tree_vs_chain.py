"""Ablation: attributing AdaServe's gains (trees + SLO-customization vs
pure adaptivity vs static speculation).

Three points in the design space on the same high-pressure workload:

- vLLM-Spec(6): static chains (no adaptivity, no SLO-awareness);
- SmartSpec: adaptive chain lengths optimizing goodput (adaptivity only);
- AdaServe: adaptive *trees* with per-request SLO-customized selection.

Paper positioning (§7): SmartSpec "adaptively tunes draft sequence
lengths" but "neither supports tree-based decoding nor accounts for
heterogeneous request demands"; AdaServe's gains should therefore persist
over SmartSpec, especially on the strict category.
"""

from __future__ import annotations

from benchmarks.common import run_grid, standard_config
from repro.analysis.report import format_table

_RPS = 4.6
_SYSTEMS = ("vllm-spec:k=6", "smartspec", "adaserve")


def _run_all():
    configs = [standard_config("llama70b", system, _RPS) for system in _SYSTEMS]
    return {r.report.scheduler_name: r.report for r in run_grid(configs)}


def test_ablation_tree_vs_chain(benchmark):
    results = benchmark.pedantic(_run_all, rounds=1, iterations=1)

    print("\n=== Ablation: static chains vs adaptive chains vs SLO-customized trees ===")
    rows = []
    for name, report in results.items():
        m = report.metrics
        rows.append(
            [
                name,
                f"{m.attainment * 100:.1f}%",
                f"{m.goodput:.0f}",
                f"{m.per_category['coding'].attainment * 100:.0f}%",
                f"{m.mean_accepted_per_verify:.2f}",
            ]
        )
    print(
        format_table(
            ["system", "attainment", "goodput", "coding attain", "acc/verify"], rows
        )
    )

    ada = results["AdaServe"].metrics
    smart = results["SmartSpec"].metrics
    static = results["vLLM-Spec(6)"].metrics

    # SLO-customized trees beat adaptivity-only on the strict category.
    assert (
        ada.per_category["coding"].attainment
        >= smart.per_category["coding"].attainment - 0.02
    )
    # And overall attainment follows the design-space ordering.
    assert ada.attainment >= max(smart.attainment, static.attainment) - 0.02
