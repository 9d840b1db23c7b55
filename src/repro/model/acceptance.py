"""Verification semantics: how the target accepts speculated tokens.

Implements the lossless acceptance rules used throughout the paper:

- **Sequence verification** (vLLM-Spec-style): the draft proposes a chain
  of tokens; the target accepts the longest prefix matching its own
  emissions and contributes one correction token after the first mismatch
  (or after the full chain) — so every verification step yields at least
  one new token, which is why Algorithms 1/2 initialize ``n_acc = 1``.
- **Tree verification** (SpecInfer/Sequoia-style): the draft proposes a
  token tree; the target walks from the root, at each node emitting its
  token and descending into the matching child if present.  The accepted
  path plus the correction token is returned.

Tree verification walks a :class:`~repro.core.tree.TokenTree` by node
index and reads its selection mask in place, so the selected subtree is
never copied out.  Both verifications read the target's emission at each
drafted context from what the speculation call handed over with its
drafts (the tree's ``emitted`` column, a chain's ``emitted`` list; see
:meth:`repro.model.batchgen.DraftCall.emit`), and sample the target
through ``StochasticLM.sample`` only at contexts the call did not draft.
The handed emissions are the target's at the center the call drafted
with, so verification must pass that same center.

Also provides the Theorem 3.1 quantities: the true path probability
``f(v)`` of a node and the expected number of accepted tokens of a tree,
used by tests and by the optimal-construction ablation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.model.pair import ModelPair

if TYPE_CHECKING:
    from repro.core.tree import TokenTree


def verify_sequence(
    pair: ModelPair,
    root_ctx: int,
    draft_tokens: Sequence[int],
    center: float | None = None,
    emitted: Sequence[int] | None = None,
) -> tuple[int, int, int]:
    """Verify a draft *chain* against the target.

    Parameters
    ----------
    pair:
        The coupled models.
    root_ctx:
        Context hash of the sequence so far (up to and including the last
        committed token).
    draft_tokens:
        Speculated continuation, in order.
    emitted:
        The target's emission before each draft token (a drafted chain's
        ``emitted``); ``None`` samples the target at each context.

    Returns
    -------
    (n_accepted, correction_token, new_ctx):
        ``n_accepted`` draft tokens were accepted; ``correction_token`` is
        the target's emission after the accepted prefix (always produced,
        so the step generates ``n_accepted + 1`` tokens); ``new_ctx`` is
        the context hash including the correction token.
    """
    sample = pair.target_sample
    extend = pair.extend
    ctx = root_ctx
    for accepted, tok in enumerate(draft_tokens):
        out = sample(ctx, center) if emitted is None else emitted[accepted]
        if out != tok:
            return accepted, out, extend(ctx, out)
        ctx = extend(ctx, tok)
    out = sample(ctx, center)
    return len(draft_tokens), out, extend(ctx, out)


def verify_tree(
    pair: ModelPair,
    tree: "TokenTree",
    center: float | None = None,
    mask: Sequence[bool] | None = None,
) -> tuple[list[int], int, int]:
    """Verify a draft token *tree* against the target.

    The walk starts at the root (the last committed token).  At each node
    the target emits a token; if a child submitted for verification
    carries that token the walk descends, otherwise it stops and the
    emission becomes the correction token.

    ``mask`` flags the nodes submitted for verification (the selection,
    ``tree.selected``); ``None`` submits the whole tree.  A node's
    emission is ``tree.emitted``'s where the speculation call drafted it,
    and is sampled where it holds -1.

    Returns
    -------
    (accepted_nodes, correction_token, new_ctx):
        ``accepted_nodes`` is the accepted root-to-leaf path of node
        indices *excluding* the root; ``new_ctx`` includes the correction
        token.
    """
    sample = pair.target_sample
    token = tree.token
    ctx = tree.ctx
    handed = tree.emitted
    kids = tree.child_lists()
    node = 0
    accepted: list[int] = []
    while True:
        emitted = handed[node]
        if emitted < 0:
            emitted = sample(ctx[node], center)
        for child in kids[node]:
            if token[child] == emitted and (mask is None or mask[child]):
                break
        else:
            return accepted, emitted, pair.extend(ctx[node], emitted)
        accepted.append(child)
        node = child


# ----------------------------------------------------------------------
# Theorem 3.1 quantities (ground truth, used in tests and ablations)
# ----------------------------------------------------------------------
def true_path_probability(
    pair: ModelPair,
    root_ctx: int,
    path_tokens: Sequence[int],
    center: float | None = None,
) -> float:
    """True f(v): probability the target accepts the whole path.

    The product of the target's conditional probabilities along the path —
    the quantity the draft's logits approximate (Equation 7).
    """
    ctx = root_ctx
    prob = 1.0
    for tok in path_tokens:
        prob *= pair.accept_prob(ctx, tok, center)
        if prob == 0.0:
            return 0.0
        ctx = pair.extend(ctx, tok)
    return prob


def expected_accepted_tokens(
    pair: ModelPair, tree: "TokenTree", center: float | None = None
) -> float:
    """E[acc(T)] for a tree, via the Theorem 3.1 decomposition.

    Sums the true path probability f(v) over all non-root nodes.  The
    guaranteed correction token is *not* included (add 1 for tokens
    generated per iteration).
    """
    kids = tree.child_lists()
    token = tree.token
    total = 0.0
    stack: list[tuple[int, float, int]] = [(0, 1.0, tree.ctx[0])]
    while stack:
        node, prob, ctx = stack.pop()
        for child in kids[node]:
            p = prob * pair.accept_prob(ctx, token[child], center)
            total += p
            if p > 0.0:
                stack.append((child, p, pair.extend(ctx, token[child])))
    return total
