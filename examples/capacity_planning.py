"""Capacity planning with the hardware substrate.

Uses the roofline model and the profiling-based budget selection to answer
deployment questions without running a full simulation:

1. What baseline decode latency / verification budget does each
   (model, GPU, TP) placement give?  (Table 1's derived quantities.)
2. What TPOT SLOs are attainable at a given speculative acceptance rate?
3. How does the verification budget's latency slack trade off against
   iteration latency?

Run:  python examples/capacity_planning.py
"""

from __future__ import annotations

from repro.hardware.profiler import HardwareProfiler
from repro.hardware.roofline import RooflineModel
from repro.hardware.spec import DEPLOYMENT_PRESETS, GPU_PRESETS, MODEL_PRESETS, DeploymentSpec


def placement_table() -> None:
    print("=" * 72)
    print("Placements: baseline latency, saturation point, budget, KV capacity")
    print("=" * 72)
    print(f"{'deployment':22s} {'base ms':>8s} {'sat tok':>8s} {'B(1.5x)':>8s} {'KV tokens':>10s}")
    for name, dep in DEPLOYMENT_PRESETS.items():
        rl = RooflineModel(dep)
        budget = HardwareProfiler(rl, slack=1.5).token_budget()
        print(
            f"{name:22s} {rl.baseline_decode_latency * 1e3:8.2f} "
            f"{rl.saturation_tokens():8d} {budget:8d} {dep.kv_capacity_tokens:10d}"
        )


def slo_feasibility() -> None:
    print("\n" + "=" * 72)
    print("SLO feasibility: tokens/iteration needed vs. speculation acceptance")
    print("=" * 72)
    rl = RooflineModel(DEPLOYMENT_PRESETS["llama70b-4xa100"])
    draft = RooflineModel(DEPLOYMENT_PRESETS["llama1b-1xa100"])
    budget = HardwareProfiler(rl, slack=1.5).token_budget()
    # Typical AdaServe iteration: 3 draft steps + one verification pass.
    iteration = 3 * draft.baseline_decode_latency + rl.forward_latency(budget, 20_000)
    print(f"estimated speculative iteration latency: {iteration * 1e3:.1f} ms")
    for slo_ms in (20, 30, 40, 50, 100, 150):
        needed = iteration / (slo_ms * 1e-3)
        verdict = (
            "plain decoding suffices"
            if needed <= 1.0
            else f"needs >= {needed:.1f} tokens/iteration from speculation"
        )
        print(f"  TPOT SLO {slo_ms:4d} ms: {verdict}")


def budget_tradeoff() -> None:
    print("\n" + "=" * 72)
    print("Verification budget vs. latency (the knee the profiler picks)")
    print("=" * 72)
    rl = RooflineModel(DEPLOYMENT_PRESETS["llama70b-4xa100"])
    floor = rl.baseline_decode_latency
    print(f"{'slack':>6s} {'budget B':>9s} {'latency ms':>11s} {'x floor':>8s}")
    for slack in (1.1, 1.25, 1.5, 2.0, 3.0):
        prof = HardwareProfiler(rl, slack=slack).profile()
        print(
            f"{slack:6.2f} {prof.token_budget:9d} "
            f"{prof.budget_latency_s * 1e3:11.2f} {prof.budget_latency_s / floor:8.2f}"
        )


def cross_hardware() -> None:
    print("\n" + "=" * 72)
    print("Sensitivity: the same 8B model across GPU generations")
    print("=" * 72)
    model = MODEL_PRESETS["llama-3.1-8b"]
    for gpu_name in ("a100-80g", "h100-80g"):
        dep = DeploymentSpec(model, GPU_PRESETS[gpu_name], tensor_parallel=1)
        rl = RooflineModel(dep)
        budget = HardwareProfiler(rl, slack=1.5).token_budget()
        print(
            f"  {gpu_name:10s} baseline {rl.baseline_decode_latency * 1e3:6.2f} ms, "
            f"budget {budget:4d} tokens"
        )


if __name__ == "__main__":
    placement_table()
    slo_feasibility()
    budget_tradeoff()
    cross_hardware()
