"""Quickstart: one SLO-customized speculative decoding iteration, then a
small end-to-end serving comparison through the declarative API.

Part 2 shows the recommended library entry point: build an
:class:`~repro.analysis.ExperimentSpec` (systems are registry spec
strings — ``vllm``, ``vllm-spec:k=8``, ... — see ``repro list systems``)
and execute it with :class:`~repro.analysis.SweepRunner`, which caches
results on disk so re-running this script performs zero simulations.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.analysis import ExperimentSpec, ResultCache, SweepRunner
from repro.core.pipeline import BatchItem, run_iteration
from repro.model.pair import ModelPair


def single_iteration_demo() -> None:
    """Walk one speculate -> select -> verify iteration by hand."""
    print("=" * 70)
    print("Part 1: one SLO-customized speculative decoding iteration")
    print("=" * 70)

    pair = ModelPair.build(vocab_size=32_000, seed=0, alignment=0.9, predictability=0.75)

    # Two requests sharing one batch: one far behind its SLO (needs ~2.4
    # accepted tokens this iteration), one comfortably ahead.
    items = [
        BatchItem(root_token=0, root_ctx=pair.context_of([11, 12, 13]), requirement=2.4),
        BatchItem(root_token=0, root_ctx=pair.context_of([21, 22, 23]), requirement=0.2),
    ]
    result = run_iteration(pair, items, depth=4, width=3, budget=16)

    for i, (item, sel, out) in enumerate(
        zip(items, result.selection.selections, result.outcomes)
    ):
        print(f"\nrequest {i}: A(r) = {item.requirement}")
        print(f"  candidate tree: {sel.tree.size - 1} speculated tokens (beam d=4, w=3)")
        print(
            f"  selected {sel.num_selected} tokens "
            f"({sel.slo_tokens} for the SLO, {sel.throughput_tokens} for throughput), "
            f"E[accepted] ~= {sel.expected_accepted:.2f}"
        )
        print(
            f"  verification accepted {len(out.accepted_tokens)} draft tokens "
            f"+ 1 correction -> {out.tokens_generated} tokens generated"
        )
    print(f"\nbatch: {result.verify_tokens} tokens verified in one target pass, "
          f"selection scanned {result.selection.candidates_scanned} candidates")


def serving_demo() -> None:
    """Serve a small multi-SLO workload with AdaServe vs vLLM."""
    print("\n" + "=" * 70)
    print("Part 2: serving a multi-SLO workload (Llama-70B on 4xA100, simulated)")
    print("=" * 70)

    specs = [
        ExperimentSpec.create(
            model="llama70b", system=system, rps=3.8, duration_s=30.0, seed=7
        )
        for system in ("vllm", "adaserve")
    ]
    print("\nworkload: bursty arrivals at ~3.8 req/s for 30 s "
          "(coding copilot / chatbot / summarization)")

    runner = SweepRunner(cache=ResultCache(), jobs=1)
    for result in runner.run(specs):
        m = result.report.metrics
        source = "cached" if result.from_cache else "simulated"
        print(f"\n{result.report.scheduler_name} ({source}):")
        print(f"  SLO attainment: {m.attainment * 100:.1f}%   goodput: {m.goodput:.0f} tok/s")
        for cat, cm in m.per_category.items():
            print(
                f"    {cat:14s} attainment {cm.attainment * 100:5.1f}%  "
                f"mean TPOT {cm.mean_tpot_s * 1e3:5.1f} ms"
            )
    print(f"\n{runner.stats_line()}")


if __name__ == "__main__":
    single_iteration_demo()
    serving_demo()
