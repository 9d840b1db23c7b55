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
   ``(token, prob, child context)`` of every frontier context in one
   pass, and stashes the target's emission inputs at each of them;
2. candidate scores are ``path_prob * prob`` over ``[n, f * w]``, in
   the per-node scan order (frontier node, then draft rank);
3. a stable descending argsort per tree keeps the ``w`` best, with the
   tie order of ``sorted(..., reverse=True)``;
4. the kept candidates' tokens, child contexts and probabilities are
   gathered into the level's columns of preallocated
   ``[n, 1 + depth * width]`` matrices, and the children are the next
   frontier.

After the last level the call computes every drafted context's target
emission in one pass (:meth:`repro.model.batchgen.DraftCall.emit`) into
the trees' ``emitted`` column, which verification reads, and each column
matrix is split into per-tree lists with one ``tolist``: the trees are
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


class Chain(list):
    """A draft chain's tokens, with the target's emission before each.

    ``emitted[i]`` is the token the target emits at the context just
    before ``self[i]`` (the start context, then each drafted prefix):
    what sequence verification compares ``self[i]`` with.  ``ctxs[i]``
    is the context through ``self[i]``.
    """

    __slots__ = ("emitted", "ctxs")

    def __init__(self, tokens: list[int], emitted: list[int], ctxs: list[int]) -> None:
        super().__init__(tokens)
        self.emitted = emitted
        self.ctxs = ctxs


def draft_chains(
    pair: ModelPair,
    starts: list[tuple[int, float | None]],
    k: int,
) -> list[Chain]:
    """Greedy ``k``-token draft chains from each ``(ctx, center)`` start.

    Used by the chain-speculation baselines (vLLM-Spec, SmartSpec), which
    verify each chain and hand the verdicts to the engine's speculative
    pass (:meth:`~repro.serving.engine.SimulatedEngine.speculative_step`).
    Each chain is a pure function of its start context, so the chains
    advance step-lockstep: ``k`` vectorized steps, each the draft's
    top-1 of every chain's current context.  Each chain carries the
    ``k`` target emissions at the contexts it drafted, and the context
    through each of its tokens.
    """
    if not starts or k <= 0:
        return [Chain([], [], []) for _ in starts]
    draft = pair.draft
    call = batchgen.DraftCall(draft.target, draft.alignment)
    centers = batchgen.Centers(call, [center for _, center in starts])
    n = len(starts)
    C = np.array([ctx for ctx, _ in starts], dtype=np.uint64)
    chains = np.empty((n, k), dtype=np.uint64)
    ctxs = np.empty((n, k), dtype=np.uint64)
    for step in range(k):
        ids, _probs, children = batchgen.draft_top(call, C, centers, 1)
        chains[:, step : step + 1] = ids
        ctxs[:, step : step + 1] = children
        C = children.ravel()
    emitted = call.emit().reshape(k, n).T  # step-major rows -> one row per chain
    return list(map(Chain, chains.tolist(), emitted.tolist(), ctxs.tolist()))


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
    call = batchgen.DraftCall(draft.target, draft.alignment)
    level_centers = root_centers = batchgen.Centers(call, centers)
    # The frontier, row-major over [n, f]: f nodes per tree.
    C = np.array([ctx for _, ctx in roots], dtype=np.uint64)
    # Each column of the trees, one [n, nodes] matrix; node j of every
    # tree is column j, the roots first.
    cols = 1 + depth * width
    tokens = np.empty((n, cols), dtype=np.uint64)
    ctxs = np.empty((n, cols), dtype=np.uint64)
    probs = np.empty((n, cols))
    paths = np.empty((n, cols))
    # Each node's index in its level's candidate scan (frontier node,
    # then draft rank); its parent is that index over the per-node
    # width, plus the tree index of the level's first frontier node.
    ranks = np.empty((n, cols), dtype=np.int64)
    tokens[:, 0] = [tok for tok, _ in roots]
    ctxs[:, 0] = C
    probs[:, 0] = paths[:, 0] = 1.0
    ranks[:, 0] = 0
    bases = [-1]  # per column: tree index of its level's frontier start
    path = paths[:, :1]  # the frontier's path probabilities, one column
    f = 1
    start = 0  # tree index of the frontier's first node
    scanned = 0  # candidates per tree at the level the offsets were built for
    levels = [0]
    step_tokens = []
    widths = []  # frontier nodes per tree at each drafted level
    for level in range(1, depth + 1):
        step_tokens.append(n * f)
        widths.append(f)
        ids, level_probs, children = batchgen.draft_top(call, C, level_centers, width)
        per_node = ids.shape[1]  # min(width, branching)
        if f * per_node != scanned:
            scanned = f * per_node
            offsets = np.arange(0, n * scanned, scanned)[:, None]
        scores = (path * level_probs).reshape(n, scanned)
        keep = min(width, scanned)
        order = (-scores).argsort(axis=1, kind="stable")[:, :keep]
        picked = order + offsets  # flat candidate index, [n, keep]
        block = slice(start + f, start + f + keep)
        ranks[:, block] = order
        chosen = scores.take(picked)
        paths[:, block] = chosen
        tokens[:, block] = ids.take(picked)
        chosen_ctxs = children.take(picked)
        ctxs[:, block] = chosen_ctxs
        probs[:, block] = level_probs.take(picked)
        path = chosen.reshape(-1, 1)
        C = chosen_ctxs.ravel()
        levels += [level] * keep
        bases += [start] * keep
        start += f
        if keep != f:
            level_centers = root_centers.repeat(keep)
            f = keep
    used = start + f
    # Each level drafted its frontier block of columns, tree-major
    # within the level; the deepest level's ``f`` columns were not drafted.
    emitted = np.full((n, used), -1, dtype=np.int64)
    drafted = call.emit()
    col = row = 0
    for nodes in widths:
        emitted[:, col : col + nodes] = drafted[row : row + n * nodes].reshape(n, nodes)
        col += nodes
        row += n * nodes
    parents = ranks[:, :used] // per_node
    parents += bases
    trees = [
        TokenTree.from_columns(*columns, levels.copy(), parent, emissions)
        for *columns, parent, emissions in zip(
            tokens[:, :used].tolist(),
            ctxs[:, :used].tolist(),
            probs[:, :used].tolist(),
            paths[:, :used].tolist(),
            parents.tolist(),
            emitted.tolist(),
        )
    ]
    return SpeculationResult(
        trees=trees, depth=depth, width=width, step_tokens=tuple(step_tokens)
    )
