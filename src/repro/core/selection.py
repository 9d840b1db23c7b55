"""Selection phases of SLO-customized speculative decoding (Algorithm 2).

Given each request's candidate token tree (from the speculation phase) and
its per-iteration acceptance requirement A(r), selection decides which
candidate tokens the target model will verify, under the global token
budget B:

1. **SLO-customized selection** — requests are processed in descending
   order of A(r) (slowest first).  For each request, candidate nodes are
   taken greedily by approximated path probability until the cumulative
   sum reaches A_cap(r) = min(A(r), d+1), the per-request cap ``n_max``
   is hit, or the budget runs out.
2. **Throughput-optimized selection** — remaining budget is spent greedily
   on the globally highest approximated-path-probability candidates across
   all requests.

Both phases pick node indices from a *frontier heap* per tree, keyed on
``(-path_prob, push counter)``: a node becomes a candidate only once its
parent is selected.  Because conditional draft
probabilities are < 1, a node's path probability is strictly below its
parent's, so frontier-greedy equals unrestricted-greedy while guaranteeing
the selected set is connected (Appendix B) by construction.

Budget semantics follow Algorithm 2: each request's root consumes one
budget token up front (the verifier always processes the root position),
then every selected node consumes one.

The outcome is each tree's selection mask (``tree.selected``), which
verification walks in place; nothing is copied out.  The object-per-node
implementation this replaced is the oracle in ``tests/conftest.py``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from repro.core.tree import TokenTree

#: Default cap on tokens added per request during the SLO phase (§4.3).
DEFAULT_N_MAX = 16


@dataclass
class RequestSelection:
    """Per-request outcome of the selection phases."""

    tree: TokenTree
    requirement: float  # A(r)
    capped_requirement: float  # A_cap(r)
    expected_accepted: float = 1.0  # n_acc: root's guaranteed token + sum of path probs
    slo_tokens: int = 0  # nodes added during the SLO phase
    throughput_tokens: int = 0  # nodes added during the throughput phase
    slo_satisfied: bool = False  # n_acc >= A_cap at the end of the SLO phase

    @property
    def num_selected(self) -> int:
        """Total selected (non-root) nodes."""
        return self.slo_tokens + self.throughput_tokens


@dataclass
class SelectionResult:
    """Batch-level outcome of the selection phases."""

    selections: list[RequestSelection]
    budget: int
    budget_used: int  # roots + selected nodes
    candidates_scanned: int = 0  # heap operations, for CPU-overhead modeling


def select_tokens(
    trees: list[TokenTree],
    requirements: list[float],
    budget: int,
    n_max: int = DEFAULT_N_MAX,
    depth: int | None = None,
) -> SelectionResult:
    """Run both selection phases over a batch (Algorithm 2, lines 9-23).

    Parameters
    ----------
    trees:
        Candidate token trees, one per request.  Each tree's selection
        mask (``tree.selected``) is reset and then set in place;
        verification reads it there.
    requirements:
        A(r) per request (may be negative for requests ahead of schedule).
    budget:
        Total verification token budget B (includes one token per root).
    n_max:
        Per-request cap on nodes added during the SLO phase.
    depth:
        Beam depth d used to cap requirements; defaults to each tree's own
        depth.
    """
    n = len(trees)
    if len(requirements) != n:
        raise ValueError("requirements length must match trees")
    if budget < n:
        raise ValueError(f"budget {budget} cannot cover {n} roots")
    if n_max < 0:
        raise ValueError("n_max must be non-negative")

    heappush = heapq.heappush
    heappop = heapq.heappop
    # Heap entries are (-path_prob, push counter, node): the counter
    # breaks path-probability ties in push order.
    counter = itertools.count()
    scanned = 0
    selections = []
    frontiers = []
    child_lists = []
    for tree, req in zip(trees, requirements):
        tree.clear_selection()
        cap = float((depth if depth is not None else tree.depth) + 1)
        selections.append(
            RequestSelection(tree=tree, requirement=req, capped_requirement=min(req, cap))
        )
        kids = tree.child_lists()
        child_lists.append(kids)
        path_prob = tree.path_prob
        frontier = [(-path_prob[c], next(counter), c) for c in kids[0]]
        heapq.heapify(frontier)
        frontiers.append(frontier)
    remaining = budget - n  # each root consumes one budget token

    # ---- Phase 1: SLO-customized selection (descending A(r)). ----
    order = sorted(range(n), key=lambda i: selections[i].requirement, reverse=True)
    for i in order:
        sel = selections[i]
        frontier = frontiers[i]
        tree = trees[i]
        kids = child_lists[i]
        path_prob = tree.path_prob
        mask = tree.selected
        accepted = sel.expected_accepted
        cap = sel.capped_requirement
        taken = 0
        while accepted < cap and taken < n_max and remaining > 0:
            scanned += 1
            if not frontier:
                break
            node = heappop(frontier)[2]
            mask[node] = True
            for c in kids[node]:
                heappush(frontier, (-path_prob[c], next(counter), c))
            accepted += path_prob[node]
            taken += 1
            remaining -= 1
        sel.expected_accepted = accepted
        sel.slo_tokens = taken
        sel.slo_satisfied = accepted >= cap

    # ---- Phase 2: throughput-optimized selection (global greedy). ----
    # A heap over tree indices keyed by each frontier's best node; a
    # tree's key changes only when its own frontier is popped, and it is
    # pushed again right then, so no key goes stale.
    global_heap = [(frontiers[i][0][0], next(counter), i) for i in range(n) if frontiers[i]]
    heapq.heapify(global_heap)
    while remaining > 0 and global_heap:
        i = heappop(global_heap)[2]
        frontier = frontiers[i]
        tree = trees[i]
        path_prob = tree.path_prob
        node = heappop(frontier)[2]
        scanned += 1
        tree.selected[node] = True
        for c in child_lists[i][node]:
            heappush(frontier, (-path_prob[c], next(counter), c))
        sel = selections[i]
        sel.expected_accepted += path_prob[node]
        sel.throughput_tokens += 1
        remaining -= 1
        if frontier:
            heappush(global_heap, (frontier[0][0], next(counter), i))

    return SelectionResult(
        selections=selections,
        budget=budget,
        budget_used=budget - remaining,
        candidates_scanned=scanned,
    )
