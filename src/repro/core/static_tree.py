"""Sequoia-style static tree topologies (related-work extension, §7).

Sequoia (Chen et al.) sizes a *static* draft-tree topology to the hardware
budget with dynamic programming over expected acceptance, assuming the
acceptance probability of a draft child depends only on its *rank* in the
draft distribution (not on context).  Eagle-2 and AdaServe instead build
*context-aware* trees from live draft probabilities.  This module
implements the Sequoia side so the repository can compare the two designs
(benchmarks/test_ablation_static_tree.py):

- :func:`estimate_rank_probs` — profile the average acceptance of the
  draft's rank-i child over a context sample;
- :func:`optimal_static_topology` — DP for the expected-acceptance-optimal
  topology with a given node budget;
- :func:`instantiate_topology` — stamp the topology onto a request's
  context using the draft's live top-k tokens.

The DP: let q_1 >= q_2 >= ... be rank acceptance probabilities.  A node's
path weight is the product of its ancestors' rank probabilities; a tree's
value is the sum over nodes of path weights (the Theorem 3.1 objective
under the rank-only model).  ``F(n)`` is the best value of hanging ``n``
nodes under a node; splitting on how many nodes each child rank receives:

    F(n) = max over assignments {m_i} with sum(m_i) = n, m_i in {0} U [1..]
           of sum_i [m_i > 0] * q_i * (1 + F(m_i - 1))
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.core.tree import TokenTree
from repro.model.pair import ModelPair


@dataclass(frozen=True)
class Topology:
    """A static tree shape: per-child subtree shapes, in rank order."""

    children: tuple["Topology", ...] = ()

    @property
    def size(self) -> int:
        """Number of nodes in the subtree (excluding the virtual root)."""
        return sum(1 + c.size for c in self.children)


def estimate_rank_probs(
    pair: ModelPair,
    sample_contexts: list[int],
    k: int,
    center: float | None = None,
) -> tuple[float, ...]:
    """Average true acceptance probability of the draft's rank-i child.

    This is Sequoia's offline profiling step: sample contexts, ask the
    draft for its top-k, and measure how often the target would emit each
    rank (here: its exact conditional probability).
    """
    if not sample_contexts:
        raise ValueError("need at least one sample context")
    if k < 1:
        raise ValueError("k must be >= 1")
    totals = [0.0] * k
    for ctx in sample_contexts:
        for i, (tok, _p) in enumerate(pair.draft_children(ctx, k, center)):
            totals[i] += pair.accept_prob(ctx, tok, center)
    n = len(sample_contexts)
    probs = tuple(t / n for t in totals)
    # Ranks are sorted by draft probability; enforce monotonicity to keep
    # the DP's assumptions valid under sampling noise.
    out = []
    prev = 1.0
    for p in probs:
        p = min(p, prev)
        out.append(p)
        prev = p
    return tuple(out)


def optimal_static_topology(
    rank_probs: tuple[float, ...], n_nodes: int
) -> tuple[Topology, float]:
    """DP for the best static topology with ``n_nodes`` nodes.

    Returns (topology, expected accepted tokens under the rank model).
    """
    if n_nodes < 0:
        raise ValueError("n_nodes must be non-negative")
    if not rank_probs or any(not 0.0 <= q <= 1.0 for q in rank_probs):
        raise ValueError("rank_probs must be probabilities")
    k = len(rank_probs)

    @lru_cache(maxsize=None)
    def best(n: int, rank: int) -> tuple[float, tuple]:
        """Best (value, child-shapes) giving ranks >= rank a total of n nodes."""
        if n == 0 or rank >= k:
            return 0.0, ()
        # Option A: rank gets nothing (and, by monotonicity, neither do
        # later ranks if this one is skipped — skipping a stronger child
        # for a weaker one is never optimal, so stop here).
        best_val, best_shape = 0.0, ()
        # Option B: rank gets m >= 1 nodes (itself + m-1 descendants).
        for m in range(1, n + 1):
            sub_val, sub_shape = best(m - 1, 0)
            rest_val, rest_shape = best(n - m, rank + 1)
            val = rank_probs[rank] * (1.0 + sub_val) + rest_val
            if val > best_val:
                best_val = val
                best_shape = ((m - 1, sub_shape), *rest_shape)
        return best_val, best_shape

    def build(shape: tuple) -> tuple[Topology, ...]:
        return tuple(Topology(children=build(sub)) for _n, sub in shape)

    value, shape = best(n_nodes, 0)
    topo = Topology(children=build(shape))
    assert topo.size == min(
        n_nodes, topo.size
    ), "DP must not allocate more nodes than budgeted"
    return topo, value


def instantiate_topology(
    pair: ModelPair,
    root_token: int,
    root_ctx: int,
    topology: Topology,
    center: float | None = None,
) -> TokenTree:
    """Stamp a static topology onto a request's live draft tokens.

    Child slot i of every node takes the draft's rank-i continuation at
    that node's context.
    """
    tree = TokenTree(root_token, root_ctx)

    def fill(parent: int, topo: Topology) -> None:
        if not topo.children:
            return
        ctx = tree.ctx[parent]
        ranked = pair.draft_children(ctx, len(topo.children), center)
        for (tok, prob), sub in zip(ranked, topo.children):
            fill(tree.add_child(parent, tok, pair.extend(ctx, tok), prob), sub)

    fill(0, topology)
    return tree
