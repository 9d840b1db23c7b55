"""Speculation phase: beam-search construction of candidate token trees.

§4.3 step 1: starting from each request's root token, the draft model runs
``d`` decoding steps.  At each step every frontier node proposes its top
continuations; the ``w`` highest approximated-path-probability candidates
*across the whole frontier* survive and extend the candidate tree.  After
``d`` steps the tree has depth at most ``d`` with at most ``w`` nodes per
layer (the first layer is the root alone).

Theorem 4.1 guarantees that a beam of width B and depth D(T_opt) covers
the optimal tree, so the selection phases that follow never need tokens
the beam did not propose (given sufficient d and w).

Each beam level runs for the whole batch in arrays.  Every draft
distribution has the same number of candidates, so every tree's
frontier has the same size ``f`` at a given level and the level is a
dense ``[n, f]`` block:

1. :func:`repro.model.batchgen.draft_top` returns the draft's top-w
   ``(token, prob)`` of every frontier context in one pass, and memoizes
   the target's emission at each of them for verification;
2. candidate scores are ``path_prob * prob`` over ``[n, f * w]``, in
   the per-node scan order (frontier node, then draft rank);
3. a stable descending argsort per tree keeps the ``w`` best, with the
   tie order of ``sorted(..., reverse=True)``;
4. child contexts come from the vectorized ``extend``, and the level
   joins each column of the batch as one ``[n, keep]`` block.

After the last level every column is concatenated across levels and
split into per-tree lists with one ``tolist`` each: the trees are
struct-of-arrays :class:`~repro.core.tree.TokenTree` s, node indices in
level order, and no per-node object is ever built.

Every token, context and float equals the per-node builder's (each
comes from the same IEEE operation on the same operands); the oracle in
``tests/conftest.py`` checks that field by field.  Chain speculation
(:func:`draft_chains`) is the ``w = 1`` case of the same kernel.

Cost accounting: step ``L`` drafts every node of the frontier at level
``L - 1``: 1 token per request (the roots) at step 1, then ``min(w, f *
b)`` per request for branching ``b`` — ``w`` whenever ``w <= b``, all
batched across requests.  The returned :class:`SpeculationResult`
carries these per-step token counts so the scheduler can price the phase
with the draft roofline + CUDA graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.tree import TokenTree
from repro.model import batchgen
from repro.model.pair import ModelPair


def draft_chains(
    pair: ModelPair,
    starts: list[tuple[int, float | None]],
    k: int,
) -> list[list[int]]:
    """Greedy ``k``-token draft chains from each ``(ctx, center)`` start.

    Used by the chain-speculation baselines (vLLM-Spec, SmartSpec).
    Each chain is a pure function of its start context, so the chains
    advance step-lockstep: ``k`` vectorized steps, each the draft's
    top-1 of every chain's current context.
    """
    if not starts or k <= 0:
        return [[] for _ in starts]
    draft = pair.draft
    centers = batchgen.Centers(draft.target, [center for _, center in starts])
    C = np.array([ctx for ctx, _ in starts], dtype=np.uint64)
    steps = []
    for _ in range(k):
        ids, _probs = batchgen.draft_top(draft, C, centers, 1)
        tokens = ids[:, 0]
        steps.append(tokens)
        C = batchgen.extend(C, tokens)
    return np.stack(steps, axis=1).tolist()


@dataclass(frozen=True)
class SpeculationResult:
    """Candidate trees for a batch plus the cost-relevant step shape."""

    trees: list[TokenTree]
    depth: int
    width: int
    step_tokens: tuple[int, ...]  # tokens the draft processed at each step (the frontier)

    @property
    def total_draft_tokens(self) -> int:
        """Total tokens the draft model processed."""
        return sum(self.step_tokens)


def build_candidate_tree(
    pair: ModelPair,
    root_token: int,
    root_ctx: int,
    depth: int,
    width: int,
    center: float | None = None,
) -> TokenTree:
    """Beam-search a candidate tree for a single request.

    Parameters
    ----------
    pair:
        The draft/target model pair (only the draft is consulted).
    root_token, root_ctx:
        The request's last committed token and its context hash.
    depth, width:
        Beam depth d and width w.
    center:
        Optional per-request predictability center forwarded to the model.
    """
    return speculate_batch(pair, [(root_token, root_ctx)], depth, width, [center]).trees[0]


def speculate_batch(
    pair: ModelPair,
    roots: list[tuple[int, int]],
    depth: int,
    width: int,
    centers: list[float | None] | None = None,
) -> SpeculationResult:
    """Run the speculation phase for a whole batch.

    Parameters
    ----------
    roots:
        One ``(root_token, root_ctx)`` per request.
    depth, width:
        Beam shape shared by the batch (chosen by the adaptive controller).
    centers:
        Optional per-request predictability centers.

    Returns
    -------
    SpeculationResult with one candidate tree per request and the per-step
    batched token counts: step ``L`` drafts every frontier node of level
    ``L - 1`` (the ``len(roots)`` roots first).
    """
    n = len(roots)
    if centers is None:
        centers = [None] * n
    elif len(centers) != n:
        raise ValueError("centers length must match roots")
    if depth < 0 or width < 1:
        raise ValueError(f"invalid beam shape: depth={depth}, width={width}")
    if depth == 0 or n == 0:
        trees = [TokenTree(tok, ctx) for tok, ctx in roots]
        return SpeculationResult(trees=trees, depth=depth, width=width, step_tokens=())

    draft = pair.draft
    rows = np.arange(n)
    # The frontier, row-major over [n, f]: f nodes per tree.
    C = np.array([ctx for _, ctx in roots], dtype=np.uint64)
    path = np.ones(n)
    f = 1
    start = 0  # tree index of the frontier's first node
    level_centers = root_centers = batchgen.Centers(draft.target, centers)
    # Per-level [n, nodes] blocks of each column, the roots first.
    tokens = [np.array([tok for tok, _ in roots], dtype=np.uint64)[:, None]]
    ctxs = [C[:, None]]
    probs = [path[:, None]]
    paths = [path[:, None]]
    parents = [np.full((n, 1), -1)]
    levels = [0]
    step_tokens = []
    for level in range(1, depth + 1):
        step_tokens.append(n * f)
        ids, level_probs = batchgen.draft_top(draft, C, level_centers, width)
        per_node = ids.shape[1]  # min(width, branching)
        scores = (path[:, None] * level_probs).reshape(n, f * per_node)
        keep = min(width, f * per_node)
        order = np.argsort(-scores, axis=1, kind="stable")[:, :keep]
        picked = (order + (rows * (f * per_node))[:, None]).ravel()  # flat candidate index
        path = scores.ravel()[picked]
        picked_tokens = ids.ravel()[picked]
        C = batchgen.extend(C[picked // per_node], picked_tokens)
        tokens.append(picked_tokens.reshape(n, keep))
        ctxs.append(C.reshape(n, keep))
        probs.append(level_probs.ravel()[picked].reshape(n, keep))
        paths.append(path.reshape(n, keep))
        parents.append(order // per_node + start)
        levels += [level] * keep
        start += f
        if keep != f:
            level_centers = root_centers.repeat(keep)
            f = keep
    trees = [
        TokenTree.from_columns(*columns, levels.copy(), parent)
        for *columns, parent in zip(
            np.concatenate(tokens, axis=1).tolist(),
            np.concatenate(ctxs, axis=1).tolist(),
            np.concatenate(probs, axis=1).tolist(),
            np.concatenate(paths, axis=1).tolist(),
            np.concatenate(parents, axis=1).tolist(),
        )
    ]
    return SpeculationResult(
        trees=trees, depth=depth, width=width, step_tokens=tuple(step_tokens)
    )
