"""Figure 1: existing systems cannot serve multi-SLO workloads.

Two request categories (strict SLO1, relaxed SLO2) on five existing
systems.  Paper shape: every system except vLLM+Priority gives both
categories the *same* per-token latency, violating the strict SLO;
vLLM+Priority meets SLO1 but congests category 2 badly.
"""

from __future__ import annotations

from benchmarks.common import run_grid, setup_for, standard_config
from repro.analysis.report import format_table

_SYSTEMS = ("vllm", "sarathi", "priority", "fastserve", "vtc")
_MIX = {"coding": 0.5, "chatbot": 0.5}  # cat1 = strict, cat2 = relaxed
_RPS = 3.6


def _run_all():
    configs = [
        standard_config("llama70b", system, _RPS, mix=_MIX, trace="steady") for system in _SYSTEMS
    ]
    return {r.report.scheduler_name: r.report for r in run_grid(configs)}


def test_fig1_per_token_latency(benchmark):
    results = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    setup = setup_for("llama70b")
    slo1 = 1.2 * setup.target_roofline.baseline_decode_latency
    slo2 = 0.050

    print("\n=== Figure 1: per-token latency and violation rate by category ===")
    print(f"SLO1 (coding) = {slo1 * 1e3:.1f} ms, SLO2 (chatbot) = {slo2 * 1e3:.1f} ms")
    rows = []
    for name, report in results.items():
        cats = report.metrics.per_category
        rows.append(
            [
                name,
                f"{cats['coding'].mean_tpot_s * 1e3:.1f}",
                f"{(1 - cats['coding'].attainment) * 100:.0f}%",
                f"{cats['chatbot'].mean_tpot_s * 1e3:.1f}",
                f"{(1 - cats['chatbot'].attainment) * 100:.0f}%",
            ]
        )
    print(
        format_table(
            ["system", "cat1 ms/tok", "cat1 viol", "cat2 ms/tok", "cat2 viol"], rows
        )
    )

    # Uniform-batching systems give both categories ~equal latency.
    for name in ("vLLM", "VTC"):
        cats = results[name].metrics.per_category
        ratio = cats["coding"].mean_tpot_s / cats["chatbot"].mean_tpot_s
        assert 0.6 < ratio < 1.7, f"{name} should serve categories uniformly"

    # They violate the strict SLO much more than the relaxed one.
    vllm_cats = results["vLLM"].metrics.per_category
    assert vllm_cats["coding"].attainment < 0.7
    assert vllm_cats["chatbot"].attainment > vllm_cats["coding"].attainment

    # Priority nails the strict category but hurts the relaxed one.
    prio = results["vLLM+Priority"].metrics.per_category
    assert prio["coding"].attainment > vllm_cats["coding"].attainment
    assert prio["chatbot"].mean_tpot_s > vllm_cats["chatbot"].mean_tpot_s
