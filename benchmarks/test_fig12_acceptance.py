"""Figure 12: mean accepted tokens per request per verification vs RPS.

Paper shape: AdaServe's acceptance is high at low RPS (aggressive beams)
and decays as load shrinks the per-request budget; vLLM-Spec(n)'s static
strategy holds a flat acceptance regardless of load (and wastes compute
for it at high RPS — visible in Figures 8/9 rather than here).
"""

from __future__ import annotations

import pytest

from benchmarks.common import RPS_SWEEP, rps_sweep
from repro.analysis.report import series_table

_SYSTEMS = ("adaserve", "vllm-spec:k=4", "vllm-spec:k=6", "vllm-spec:k=8")


@pytest.mark.parametrize("model", sorted(RPS_SWEEP))
def test_fig12_mean_accepted(benchmark, model):
    all_points = benchmark.pedantic(rps_sweep, args=(model,), rounds=1, iterations=1)
    points = [
        p
        for p in all_points
        if p.system in ("AdaServe", "vLLM-Spec(4)", "vLLM-Spec(6)", "vLLM-Spec(8)")
    ]

    print(f"\n=== Figure 12 ({model}): mean accepted tokens/request/verify ===")
    print(series_table(points, value="mean_accepted", x_label="RPS"))

    xs = sorted({p.x for p in points})
    ada = [next(p.mean_accepted for p in points if p.x == x and p.system == "AdaServe") for x in xs]
    # AdaServe: decaying acceptance (low RPS speculates aggressively).
    assert ada[0] > ada[-1]
    # vLLM-Spec: roughly flat (static strategy), and ordered by spec len.
    for name in ("vLLM-Spec(4)", "vLLM-Spec(6)", "vLLM-Spec(8)"):
        series = [
            next(p.mean_accepted for p in points if p.x == x and p.system == name)
            for x in xs
        ]
        spread = max(series) - min(series)
        assert spread < 0.8, f"{name} acceptance should be ~flat, got spread {spread:.2f}"
    s4 = next(p.mean_accepted for p in points if p.x == xs[0] and p.system == "vLLM-Spec(4)")
    s8 = next(p.mean_accepted for p in points if p.x == xs[0] and p.system == "vLLM-Spec(8)")
    assert s8 >= s4  # longer chains accept at least as many
