"""Draft token trees, stored as per-node columns.

The central data structure of the paper: a rooted tree whose root is the
last committed token of a request and whose nodes are speculated
continuations.  Nodes are ``int`` indices (the root is 0, and every
parent precedes its children) into parallel columns:

- ``token``: the speculated token;
- ``ctx``: the model-context hash of the sequence *including* this
  node's token (so verification can query the next-token distribution);
- ``draft_prob``: the draft model's conditional probability of this token
  given its parent's path (the surrogate for conditional acceptance);
- ``path_prob``: the product of ``draft_prob`` along the root path — the
  approximation of f(v) from Equation 7;
- ``level``: the node's depth (root = 0);
- ``parent``: the parent's index (-1 for the root);
- ``emitted``: the token the target emits at ``ctx``, handed over by the
  speculation call that drafted the node's children, or -1 where no call
  drafted it (the deepest level, and every node added by ``add_child``);
- ``selected``: the selection mask, set by
  :func:`repro.core.selection.select_tokens`.

Trees are built by speculation (:mod:`repro.core.speculation`, one whole
beam level at a time, or :meth:`TokenTree.from_columns`), by the static
and optimal constructions (:meth:`TokenTree.add_child`), pruned by
selection (:mod:`repro.core.selection`) and walked by verification
(:func:`repro.model.acceptance.verify_tree`), which reads the selection
mask in place.
"""

from __future__ import annotations


class TokenTree:
    """A draft token tree rooted at the last committed token.

    Parameters
    ----------
    root_token:
        Token id of the root (purely informational; verification starts
        *after* the root).
    root_ctx:
        Context hash of the sequence up to and including the root token.
    """

    __slots__ = (
        "token", "ctx", "draft_prob", "path_prob", "level", "parent", "emitted", "selected", "_kids",
    )

    def __init__(self, root_token: int, root_ctx: int) -> None:
        self.token = [root_token]
        self.ctx = [root_ctx]
        self.draft_prob = [1.0]
        self.path_prob = [1.0]
        self.level = [0]
        self.parent = [-1]
        self.emitted = [-1]
        self.selected = [False]
        self._kids: list[list[int]] | None = None

    @classmethod
    def from_columns(
        cls,
        token: list[int],
        ctx: list[int],
        draft_prob: list[float],
        path_prob: list[float],
        level: list[int],
        parent: list[int],
        emitted: list[int] | None = None,
    ) -> "TokenTree":
        """A tree over ready-made columns (row 0 is the root), taken as is.

        ``emitted`` defaults to -1 on every node (no emission handed over).
        """
        tree = cls.__new__(cls)
        tree.token = token
        tree.ctx = ctx
        tree.draft_prob = draft_prob
        tree.path_prob = path_prob
        tree.level = level
        tree.parent = parent
        tree.emitted = [-1] * len(token) if emitted is None else emitted
        tree.selected = [False] * len(token)
        tree._kids = None
        return tree

    # -- construction ----------------------------------------------------
    def add_child(self, parent: int, token_id: int, ctx_hash: int, draft_prob: float) -> int:
        """Append a speculated token under node ``parent``; returns its index."""
        if not 0.0 <= draft_prob <= 1.0:
            raise ValueError(f"draft_prob out of range: {draft_prob}")
        node = len(self.token)
        self.token.append(token_id)
        self.ctx.append(ctx_hash)
        self.draft_prob.append(draft_prob)
        self.path_prob.append(self.path_prob[parent] * draft_prob)
        self.level.append(self.level[parent] + 1)
        self.parent.append(parent)
        self.emitted.append(-1)
        self.selected.append(False)
        if self._kids is not None:
            self._kids[parent].append(node)
            self._kids.append([])
        return node

    # -- inspection -------------------------------------------------------
    def child_lists(self) -> list[list[int]]:
        """Each node's children, in insertion order (built once, then kept)."""
        kids = self._kids
        if kids is None:
            parent = self.parent
            kids = self._kids = [[] for _ in parent]
            for node in range(1, len(parent)):
                kids[parent[node]].append(node)
        return kids

    def children(self, node: int) -> list[int]:
        """The children of ``node``, in insertion order."""
        return self.child_lists()[node]

    @property
    def size(self) -> int:
        """Number of nodes including the root."""
        return len(self.token)

    @property
    def num_speculated(self) -> int:
        """Number of speculated (non-root) tokens."""
        return len(self.token) - 1

    @property
    def depth(self) -> int:
        """Maximum node depth (root = 0)."""
        return max(self.level)

    def clear_selection(self) -> None:
        """Unselect every node."""
        self.selected = [False] * len(self.token)
