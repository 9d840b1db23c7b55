"""Ablation: context-aware trees (AdaServe/Eagle-2 style) vs static
topologies (Sequoia style).

§7: "Sequoia adjusts tree size based on hardware specifications and
applies dynamic programming to determine a global tree structure. In
contrast, Eagle-2 constructs the tree based on input context."  AdaServe's
candidate trees are context-aware.  This bench measures, at equal node
budgets, the expected and realized accepted tokens of

- the optimal *static* topology (rank-profiled DP), and
- the *context-aware* beam + greedy selection used by AdaServe.

Expected: context-aware wins or ties at every budget — it exploits
per-context probability spreads the static shape cannot see.
"""

from __future__ import annotations

from benchmarks.common import SEED
from repro.analysis.report import format_table
from repro.core.selection import select_tokens
from repro.core.speculation import speculate_batch
from repro.core.static_tree import (
    estimate_rank_probs,
    instantiate_topology,
    optimal_static_topology,
)
from repro.model.acceptance import verify_tree
from repro.model.pair import ModelPair

_BUDGETS = (2, 4, 8, 16)
_N_CONTEXTS = 250


def _compare():
    pair = ModelPair.build(vocab_size=8000, seed=SEED, alignment=0.9, predictability=0.72)
    profile_ctxs = [pair.context_of([i, 1]) for i in range(100)]
    rank_probs = estimate_rank_probs(pair, profile_ctxs, 4)

    rows = []
    for budget in _BUDGETS:
        topo, _dp_value = optimal_static_topology(rank_probs, budget)
        static_total = 0
        aware_total = 0
        for i in range(_N_CONTEXTS):
            ctx = pair.context_of([i, 7, i])
            # Static: stamp the precomputed topology.
            static_tree = instantiate_topology(pair, 0, ctx, topo)
            accepted, _, _ = verify_tree(pair, static_tree)
            static_total += len(accepted)
            # Context-aware: beam candidates + greedy selection to the
            # same node budget.
            cand = speculate_batch(pair, [(0, ctx)], depth=max(2, budget), width=4).trees[0]
            select_tokens([cand], [0.0], budget=1 + budget)
            accepted, _, _ = verify_tree(pair, cand, mask=cand.selected)
            aware_total += len(accepted)
        rows.append(
            (budget, static_total / _N_CONTEXTS, aware_total / _N_CONTEXTS)
        )
    return rank_probs, rows


def test_ablation_static_vs_context_trees(benchmark):
    rank_probs, rows = benchmark.pedantic(_compare, rounds=1, iterations=1)

    print("\n=== Ablation: static (Sequoia-style) vs context-aware trees ===")
    print(f"profiled rank acceptance: {[round(q, 3) for q in rank_probs]}")
    print(
        format_table(
            ["node budget", "static accepted/verify", "context-aware accepted/verify"],
            [[str(b), f"{s:.2f}", f"{a:.2f}"] for b, s, a in rows],
        )
    )

    for budget, static_acc, aware_acc in rows:
        assert aware_acc >= static_acc - 0.05, f"budget {budget}"
    # Both improve with budget.
    static_series = [s for _, s, _ in rows]
    aware_series = [a for _, _, a in rows]
    assert static_series == sorted(static_series)
    assert aware_series == sorted(aware_series)
