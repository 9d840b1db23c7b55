"""Figure 10: SLO attainment and goodput vs. urgent-request proportion.

RPS fixed at 4.0; the share of category-1 (urgent coding) requests sweeps
over {30, 50, 70, 90}%, remainder split between chatbot and summarization.

Paper shape: continuous-batching systems (vLLM, Sarathi) degrade as
urgency grows; SD-based systems hold steady or *improve* (fewer
summarization requests means less long-prompt prefill interference);
AdaServe stays on top throughout, with up to 4.3x fewer violations and
up to 64% more goodput than the best baseline.
"""

from __future__ import annotations

import pytest

from benchmarks.common import E2E_SYSTEMS, adaserve_dominates, run_grid, standard_config
from repro.analysis.report import point_from_metrics, series_table
from repro.workloads.categories import urgent_mix

_FRACTIONS = (0.3, 0.5, 0.7, 0.9)
_RPS = 4.0
_MODELS = ("llama70b", "qwen32b")


def _sweep(model: str):
    grid = [(frac, system) for frac in _FRACTIONS for system in E2E_SYSTEMS]
    results = run_grid(
        [standard_config(model, system, _RPS, mix=urgent_mix(frac)) for frac, system in grid]
    )
    return [
        point_from_metrics(frac * 100, r.report.scheduler_name, r.report.metrics)
        for (frac, _), r in zip(grid, results)
    ]


@pytest.mark.parametrize("model", _MODELS)
def test_fig10_urgent_fraction(benchmark, model):
    points = benchmark.pedantic(_sweep, args=(model,), rounds=1, iterations=1)

    print(f"\n=== Figure 10 ({model}): SLO attainment vs urgent % ===")
    print(series_table(points, value="attainment", x_label="urgent%"))
    print(f"\n=== Figure 10 ({model}): goodput vs urgent % ===")
    print(series_table(points, value="goodput", x_label="urgent%"))

    checks = adaserve_dominates(points, "attainment", tolerance=0.03)
    for c in checks:
        print(c)
    assert all(c.passed for c in checks)

    def series(system, metric):
        return [
            getattr(next(p for p in points if p.x == f * 100 and p.system == system), metric)
            for f in _FRACTIONS
        ]

    # Continuous batching degrades as urgency grows.
    vllm = series("vLLM", "attainment")
    assert vllm[-1] <= vllm[0] + 0.05
    # AdaServe stays high and stable across the sweep.
    ada = series("AdaServe", "attainment")
    assert min(ada) > 0.75
    assert max(ada) - min(ada) < 0.25
