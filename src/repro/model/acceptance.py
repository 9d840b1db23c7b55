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

The Theorem 3.1 ground truth (a path's true probability ``f(v)`` and a
tree's expected accepted tokens) lives with the tests, in
``tests/calibration.py``.
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
