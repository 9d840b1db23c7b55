"""Figure 11: SLO attainment and goodput vs. SLO scale.

RPS fixed at 4.0, urgent share 60%; the urgent category's TPOT SLO is
scaled by {1.6, 1.4, 1.2, 1.0, 0.8, 0.6} x the baseline-relative default.

Paper shape: everyone degrades as SLOs tighten; continuous-batching
systems collapse below scale 1.0 (a uniform decode iteration simply takes
longer than the SLO allows), SD systems keep functioning below 1.0, and
AdaServe holds the best attainment/goodput everywhere — up to 4.61x fewer
violations and 1.38x goodput vs the best baseline.
"""

from __future__ import annotations

import pytest

from benchmarks.common import E2E_SYSTEMS, adaserve_dominates, run_grid, standard_config
from repro.analysis.report import point_from_metrics, series_table
from repro.workloads.categories import urgent_mix

_SCALES = (1.6, 1.4, 1.2, 1.0, 0.8, 0.6)
_RPS = 4.0
_MIX = urgent_mix(0.6)
_MODELS = ("llama70b", "qwen32b")


def _sweep(model: str):
    grid = [(scale, system) for scale in _SCALES for system in E2E_SYSTEMS]
    results = run_grid(
        [standard_config(model, system, _RPS, mix=_MIX, slo_scale=scale) for scale, system in grid]
    )
    return [
        point_from_metrics(scale, r.report.scheduler_name, r.report.metrics)
        for (scale, _), r in zip(grid, results)
    ]


@pytest.mark.parametrize("model", _MODELS)
def test_fig11_slo_scale(benchmark, model):
    points = benchmark.pedantic(_sweep, args=(model,), rounds=1, iterations=1)

    print(f"\n=== Figure 11 ({model}): SLO attainment vs SLO scale ===")
    print(series_table(points, value="attainment", x_label="scale"))
    print(f"\n=== Figure 11 ({model}): goodput vs SLO scale ===")
    print(series_table(points, value="goodput", x_label="scale"))

    # Tolerance is wider at the extreme end of the sweep: at scale 0.6
    # every system is far past its operating point and the static
    # deep-speculation baselines can edge ahead by a few points.
    checks = adaserve_dominates(points, "attainment", tolerance=0.08)
    for c in checks:
        print(c)
    assert all(c.passed for c in checks)

    def series(system):
        return [
            next(p for p in points if p.x == s and p.system == system).attainment
            for s in _SCALES
        ]

    # Tighter SLOs hurt everyone (loose monotonicity over the sweep ends).
    ada = series("AdaServe")
    assert ada[0] >= ada[-1]
    # Continuous batching collapses below scale 1.0 (strict iterations are
    # simply unattainable at uniform per-token latency).
    vllm = series("vLLM")
    assert vllm[-1] < 0.45
    # AdaServe sustains sub-1.0 scales far better than vLLM.
    assert ada[-1] > vllm[-1] + 0.2
