"""Ablation: the per-request token cap n_max in SLO-customized selection.

§4.3 step 2: without a cap, a request far behind its SLO can drain the
budget on low-probability nodes (diminishing returns), starving the rest
of the batch.  Sweeps n_max and reports attainment/goodput; also checks
the micro-level mechanism directly on one selection round.
"""

from __future__ import annotations

from benchmarks.common import SEED, run_grid, standard_config
from repro.analysis.report import format_table
from repro.core.selection import select_tokens
from repro.core.speculation import speculate_batch
from repro.model.pair import ModelPair

_RPS = 4.2
_DURATION_S = 40.0
_N_MAX_SWEEP = (2, 4, 8, 16, 64)


def _run_sweep():
    configs = [
        standard_config("llama70b", f"adaserve:n_max={n_max}", _RPS, duration_s=_DURATION_S)
        for n_max in _N_MAX_SWEEP
    ]
    return {n_max: r.report for n_max, r in zip(_N_MAX_SWEEP, run_grid(configs))}


def test_ablation_nmax_sweep(benchmark):
    results = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)

    print("\n=== Ablation: n_max (SLO-phase per-request cap) ===")
    rows = [
        [str(n), f"{r.metrics.attainment * 100:.1f}%", f"{r.metrics.goodput:.0f}"]
        for n, r in results.items()
    ]
    print(format_table(["n_max", "attainment", "goodput"], rows))

    # Extremely small caps hurt (SLO phase cannot secure urgent requests);
    # moderate caps should be no worse than an effectively uncapped one.
    moderate = max(results[n].metrics.attainment for n in (4, 8, 16))
    assert moderate >= results[64].metrics.attainment - 0.03
    assert moderate >= results[2].metrics.attainment - 0.02


def test_nmax_prevents_budget_monopoly():
    # Micro check: one hopeless low-predictability request + several
    # normal ones.  Without a cap the hopeless request eats the budget.
    pair = ModelPair.build(vocab_size=5000, seed=SEED, alignment=0.9)
    roots = [(0, pair.context_of([i, 9])) for i in range(5)]
    centers = [0.1, 0.8, 0.8, 0.8, 0.8]
    requirements = [6.0, 1.2, 1.2, 1.2, 1.2]  # request 0 is hopeless
    budget = 5 + 12

    trees_uncapped = speculate_batch(pair, roots, 5, 4, centers=centers).trees
    uncapped = select_tokens(trees_uncapped, requirements, budget=budget, n_max=1000)
    trees_capped = speculate_batch(pair, roots, 5, 4, centers=centers).trees
    capped = select_tokens(trees_capped, requirements, budget=budget, n_max=4)

    hog_uncapped = uncapped.selections[0].slo_tokens
    hog_capped = capped.selections[0].slo_tokens
    print(f"\nhopeless request SLO tokens: uncapped={hog_uncapped}, capped={hog_capped}")
    assert hog_capped <= 4 < hog_uncapped
    # The cap redistributes budget: others' expected acceptance improves.
    others_capped = sum(s.expected_accepted for s in capped.selections[1:])
    others_uncapped = sum(s.expected_accepted for s in uncapped.selections[1:])
    assert others_capped >= others_uncapped
