"""Algorithm 1: optimal token-tree construction with oracle probabilities.

This is the theoretically optimal (but impractical) algorithm of §4.1: it
assumes the *true* path probability f(v) of every node in the infinite
token tree T_inf(r) is known, and greedily grows each request's tree:

- Step 1: for each request, repeatedly insert the highest-f(v) node from
  its T_inf until the TPOT requirement A(r) is met; return INVALID if the
  budget runs out first.
- Step 2: spend any remaining budget on the globally highest-f(v) nodes
  across all requests' T_inf.

In the simulation we *can* play the oracle: the true f(v) is the product
of the target model's conditional probabilities (the test oracle
``true_path_probability`` in ``tests/calibration.py``).  The infinite tree
is explored lazily through a frontier heap — sound for greedy selection
because conditional probabilities < 1 make f strictly decreasing along
every path, so the best unselected node is always on the frontier.

Used by tests (optimality vs. brute force, INVALID ⇒ infeasible) and by
the decoupling ablation, which compares Algorithm 1's draft-step count
(B - n sequential decodes) against the speculate-then-select pipeline.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from repro._rng import fold_sum
from repro.core.tree import TokenTree
from repro.model.pair import ModelPair

#: Marker returned when SLOs cannot be met within the budget.
INVALID = "INVALID"


@dataclass(frozen=True)
class OptimalResult:
    """Outcome of Algorithm 1."""

    trees: list[TokenTree]
    expected_accepted: list[float]  # n_acc per request (root's 1 + sum f(v))
    budget_used: int
    draft_decode_steps: int  # sequential draft decodes an implementation would need

    @property
    def total_expected(self) -> float:
        """Objective value: expected accepted tokens across the batch."""
        return fold_sum(self.expected_accepted)


class _OracleFrontier:
    """Lazy frontier over T_inf(r) with true path probabilities."""

    __slots__ = ("_pair", "_center", "_heap", "_counter")

    def __init__(
        self,
        pair: ModelPair,
        tree: TokenTree,
        counter: "itertools.count",
        center: float | None,
    ) -> None:
        self._pair = pair
        self._center = center
        self._counter = counter
        self._heap: list[tuple[float, int, int, int, float]] = []
        self._push_children(tree, 0)

    def _push_children(self, tree: TokenTree, node: int) -> None:
        dist = self._pair.target_distribution(tree.ctx[node], self._center)
        path_prob = tree.path_prob[node]
        for token_id, prob in zip(dist.token_ids, dist.probs):
            f = path_prob * prob
            heapq.heappush(
                self._heap, (-f, next(self._counter), node, token_id, prob)
            )

    def peek_prob(self) -> float:
        """f(v) of the best uninserted node (-inf if exhausted)."""
        return -self._heap[0][0] if self._heap else float("-inf")

    def pop_into(self, tree: TokenTree) -> int | None:
        """Insert the best node into the tree and expand its children."""
        if not self._heap:
            return None
        _neg_f, _, parent, token_id, prob = heapq.heappop(self._heap)
        ctx = self._pair.extend(tree.ctx[parent], token_id)
        node = tree.add_child(parent, token_id, ctx, prob)
        tree.selected[node] = True
        self._push_children(tree, node)
        return node


def construct_optimal_trees(
    pair: ModelPair,
    roots: list[tuple[int, int]],
    requirements: list[float],
    budget: int,
    centers: list[float | None] | None = None,
    max_nodes_per_request: int = 512,
) -> OptimalResult | str:
    """Run Algorithm 1.

    Parameters
    ----------
    pair:
        Model pair; the *target* side is the oracle for f(v).
    roots:
        One ``(root_token, root_ctx)`` per request.
    requirements:
        A(r) per request (n_acc starts at 1.0 per the paper's pseudocode).
    budget:
        Total token budget B, roots included.
    centers:
        Optional per-request predictability centers.
    max_nodes_per_request:
        Safety valve against pathological requirements on the lazy
        infinite tree.

    Returns :data:`INVALID` if the SLOs cannot all be met within B,
    otherwise an :class:`OptimalResult` whose trees have all nodes marked
    selected.
    """
    n = len(roots)
    if len(requirements) != n:
        raise ValueError("requirements length must match roots")
    if budget < n:
        return INVALID
    if centers is None:
        centers = [None] * n

    counter = itertools.count()
    trees = [TokenTree(tok, ctx) for tok, ctx in roots]
    frontiers = [
        _OracleFrontier(pair, t, counter, c) for t, c in zip(trees, centers)
    ]
    n_acc = [1.0] * n
    remaining = budget - n
    decode_steps = 0

    # Step 1: satisfy each request's requirement.
    for i in range(n):
        added = 0
        while n_acc[i] < requirements[i]:
            if remaining <= 0:
                return INVALID
            if added >= max_nodes_per_request:
                return INVALID
            node = frontiers[i].pop_into(trees[i])
            if node is None:
                return INVALID
            n_acc[i] += trees[i].path_prob[node]
            remaining -= 1
            decode_steps += 1
            added += 1

    # Step 2: spend the remainder on globally-best nodes.
    global_heap: list[tuple[float, int, int]] = [
        (-frontiers[i].peek_prob(), next(counter), i)
        for i in range(n)
        if frontiers[i].peek_prob() > float("-inf")
    ]
    heapq.heapify(global_heap)
    while remaining > 0 and global_heap:
        neg_f, _, i = heapq.heappop(global_heap)
        live = frontiers[i].peek_prob()
        if live == float("-inf"):
            continue
        if -neg_f > live + 1e-18:
            heapq.heappush(global_heap, (-live, next(counter), i))
            continue
        if trees[i].num_speculated >= max_nodes_per_request:
            continue
        node = frontiers[i].pop_into(trees[i])
        if node is None:
            continue
        n_acc[i] += trees[i].path_prob[node]
        remaining -= 1
        decode_steps += 1
        heapq.heappush(global_heap, (-frontiers[i].peek_prob(), next(counter), i))

    return OptimalResult(
        trees=trees,
        expected_accepted=n_acc,
        budget_used=budget - remaining,
        draft_decode_steps=decode_steps,
    )
