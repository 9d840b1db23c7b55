"""Ablation: SLO-phase processing order (descending A(r) vs arrival order).

Algorithm 2 line 9 sorts requests by descending requirement so that, when
the budget cannot satisfy everyone, the furthest-behind requests are
secured first.  This bench builds a budget crunch where the far-behind
requests arrived *last*: FIFO spends the budget on barely-behind requests
at the head of the queue, while the paper's ordering secures the requests
with the largest SLO debt.
"""

from __future__ import annotations

import heapq
import itertools

from benchmarks.common import SEED
from repro.analysis.report import format_table
from repro.core.selection import select_tokens
from repro.core.speculation import speculate_batch
from repro.model.pair import ModelPair

_N = 12
_DEPTH, _WIDTH = 4, 3
_N_MAX = 6
_BUDGET = _N + 12
#: First half barely behind (arrived first), second half far behind.
_REQUIREMENTS = [1.1] * 6 + [2.2] * 6
_BEHIND_THRESHOLD = 2.0


def _slo_phase_in_order(trees, requirements, order, budget, depth, n_max):
    """Run just the SLO phase visiting requests in the given order."""
    counter = itertools.count()
    for t in trees:
        t.clear_selection()
    remaining = budget - len(trees)
    satisfied = [False] * len(trees)
    for i in order:
        tree, req = trees[i], requirements[i]
        cap = min(req, float(depth + 1))
        acc = 1.0
        path_prob = tree.path_prob
        heap = [(-path_prob[c], next(counter), c) for c in tree.children(0)]
        heapq.heapify(heap)
        taken = 0
        while acc < cap and heap and remaining > 0 and taken < n_max:
            _, _, node = heapq.heappop(heap)
            tree.selected[node] = True
            acc += path_prob[node]
            for c in tree.children(node):
                heapq.heappush(heap, (-path_prob[c], next(counter), c))
            remaining -= 1
            taken += 1
        satisfied[i] = acc >= cap
    return satisfied


def _compare():
    pair = ModelPair.build(vocab_size=5000, seed=SEED, alignment=0.95, predictability=0.7)
    roots = [(0, pair.context_of([i, 2])) for i in range(_N)]

    def behind_satisfied(satisfied):
        return sum(
            1
            for i, ok in enumerate(satisfied)
            if ok and _REQUIREMENTS[i] > _BEHIND_THRESHOLD
        )

    trees = speculate_batch(pair, roots, _DEPTH, _WIDTH).trees
    paper_order = sorted(range(_N), key=lambda i: _REQUIREMENTS[i], reverse=True)
    paper = _slo_phase_in_order(trees, _REQUIREMENTS, paper_order, _BUDGET, _DEPTH, _N_MAX)

    trees2 = speculate_batch(pair, roots, _DEPTH, _WIDTH).trees
    fifo = _slo_phase_in_order(trees2, _REQUIREMENTS, list(range(_N)), _BUDGET, _DEPTH, _N_MAX)

    # Cross-check the real implementation agrees with the paper ordering.
    trees3 = speculate_batch(pair, roots, _DEPTH, _WIDTH).trees
    real = select_tokens(trees3, _REQUIREMENTS, budget=_BUDGET, n_max=_N_MAX, depth=_DEPTH)
    real_behind = sum(
        1
        for s in real.selections
        if s.requirement > _BEHIND_THRESHOLD and s.slo_satisfied
    )

    return {
        "paper_total": sum(paper),
        "paper_behind": behind_satisfied(paper),
        "fifo_total": sum(fifo),
        "fifo_behind": behind_satisfied(fifo),
        "real_behind": real_behind,
    }


def test_ablation_slo_order(benchmark):
    r = benchmark.pedantic(_compare, rounds=1, iterations=1)

    print("\n=== Ablation: SLO-phase ordering under budget crunch ===")
    print(
        format_table(
            ["ordering", "satisfied (all)", "satisfied (far-behind)"],
            [
                ["descending A(r) (paper)", f"{r['paper_total']}/{_N}", f"{r['paper_behind']}/6"],
                ["arrival order (FIFO)", f"{r['fifo_total']}/{_N}", f"{r['fifo_behind']}/6"],
            ],
        )
    )

    # The paper's ordering secures strictly more of the far-behind
    # requests when the budget cannot cover everyone.
    assert r["paper_behind"] > r["fifo_behind"]
    # The production selection path matches the standalone SLO phase.
    assert r["real_behind"] == r["paper_behind"]
