"""Multi-SLO serving scenario: the paper's headline comparison in miniature.

Serves a peak-load mix (60% coding copilot with a strict 1.2x-baseline
TPOT SLO, 20% chatbot at 50 ms, 20% summarization at 150 ms) over a bursty
arrival trace, on every system the paper evaluates, and prints the
attainment/goodput table plus per-category breakdowns.

Systems are registry spec strings (``repro list systems``): the two
speculative baselines are the *same* component at different speculation
lengths (``vllm-spec:k=6`` / ``vllm-spec:k=8``), not separately named
systems.  All points execute through the cached sweep runner, so a
second invocation performs zero simulations.

Run:  python examples/multi_slo_serving.py [rps]
"""

from __future__ import annotations

import sys

from repro.analysis import ExperimentSpec, ResultCache, SweepRunner, build_setup
from repro.analysis.report import format_table
from repro.serving.metrics import violation_reduction
from repro.workloads.generator import WorkloadGenerator

SYSTEMS = (
    "adaserve",
    "vllm-spec:k=6",
    "vllm-spec:k=8",
    "sarathi",
    "vllm",
    "vtc",
    "fastserve",
)
SEED = 3
DURATION_S = 45.0


def main(rps: float = 4.2) -> None:
    setup = build_setup("llama70b", seed=SEED)
    gen = WorkloadGenerator(setup.target_roofline, seed=SEED)
    requests = gen.bursty(duration_s=DURATION_S, rps=rps)
    slos = sorted({(r.category, r.tpot_slo) for r in requests})
    print(f"workload: {len(requests)} requests at ~{rps} req/s")
    for cat, slo in slos:
        print(f"  {cat:14s} TPOT SLO {slo * 1e3:6.1f} ms")

    specs = [
        ExperimentSpec.create(
            model="llama70b",
            system=system,
            rps=rps,
            duration_s=DURATION_S,
            seed=SEED,
            max_sim_time_s=900.0,
        )
        for system in SYSTEMS
    ]
    runner = SweepRunner(cache=ResultCache(), jobs=1)

    def progress(result) -> None:
        source = "cached" if result.from_cache else "simulated"
        print(f"  done: {result.report.scheduler_name} ({source})", file=sys.stderr)

    reports = {
        spec.system.name: result.report
        for spec, result in zip(specs, runner.run(specs, on_result=progress))
    }

    rows = []
    for report in sorted(reports.values(), key=lambda r: -r.metrics.attainment):
        m = report.metrics
        per_cat = "  ".join(
            f"{cat[:4]}:{cm.attainment * 100:3.0f}%" for cat, cm in m.per_category.items()
        )
        rows.append(
            [
                report.scheduler_name,
                f"{m.attainment * 100:5.1f}%",
                f"{m.goodput:6.0f}",
                f"{m.mean_accepted_per_verify:.2f}",
                per_cat,
            ]
        )
    print()
    print(
        format_table(
            ["system", "attain", "goodput", "acc/verify", "per-category attainment"],
            rows,
        )
    )

    ada = reports["adaserve"].metrics
    best_name, best = max(
        ((name, r.metrics) for name, r in reports.items() if name != "adaserve"),
        key=lambda kv: kv[1].attainment,
    )
    print(
        f"\nAdaServe vs best baseline ({best_name}): "
        f"{violation_reduction(best, ada):.2f}x fewer violations, "
        f"{ada.goodput / best.goodput if best.goodput else float('inf'):.2f}x goodput"
    )
    print(runner.stats_line())


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 4.2)
