"""Vectorized generation of synthetic-model distributions.

The scalar generators in :mod:`repro.model.stochastic_lm` /
:mod:`repro.model.draft` produce one distribution per call from ~18
splitmix64 chains plus a handful of float operations.  Speculation
knows every context it is about to query — one beam level, or one
chain step, across a whole batch — so this module evaluates those
chains for a whole column of contexts at once with ``numpy``
uint64/float64 matrices (contexts x draws).

:func:`draft_top` is the level kernel and the module's one row
function.  It takes a uint64 context column plus per-row centers and
returns each row's draft-sorted top-w ``(token ids, probs, child
contexts)`` matrices in two finalizer passes: one for every chain a
target row needs, one for the draft's noise draws and all ``k``
candidates' child contexts.  It stashes each row's target emission
inputs on its :class:`DraftCall`, and :meth:`DraftCall.emit` turns every
level's rows into target *emissions* — ``StochasticLM.sample`` bit for
bit: a cumulative sum of the row's probabilities against the sample
uniform — once per call and returns them, because verification needs
the target's token at exactly these contexts; the caller hands them to
verification with its drafts.  Nothing is memoized: no draft rows
(regenerating a level is cheaper than looking rows up one by one), no
target distributions and no emissions.  ``prefetch_draft`` and
``warm_target`` warm the distribution memos for a batch of queries from
the same row function.

**Bit-identity is the contract.**  Every vector statement here maps 1:1
onto a scalar statement of the reference implementation:

- uint64 array adds/multiplies wrap modulo 2**64 (silently: numpy
  checks overflow on scalars only) exactly like the masked Python-int
  arithmetic;
- each float64 element is produced by the same IEEE operation sequence
  (multiply, divide, add in the same order) as the scalar path;
- running sums use ``np.add.accumulate`` (``cumsum``: sequential,
  left-associated by definition), never ``np.sum`` (whose pairwise
  summation would differ);
- descending stable ``argsort`` of the negated probabilities matches
  ``sorted(..., reverse=True)`` tie-breaking, and for ``w = 1``
  ``argmax`` is its first entry, because ``argmax`` returns the first
  maximum;
- rows whose first ``k`` token draws collide are repaired with the
  scalar skip-duplicates loop (``StochasticLM._draw_token_ids``);
- child contexts ``splitmix(ctx ^ id * COMBINE)`` are
  ``StochasticLM.extend`` of the repaired ids, finalized in the same
  pass as the noise draws (each element's chain is independent of the
  rest of the pass);
- an emission is a pure function of its row's probabilities, ids and
  sample uniform, so computing every level's emissions once per call,
  after the last level, gives the tokens a per-level pass would.

The golden-equivalence suite (tests/test_golden_equivalence.py),
``tests/test_batchgen.py`` and the per-node oracle in
``tests/conftest.py`` pin this.
"""

from __future__ import annotations

import numpy as np

from repro._rng import MASK64, _GOLDEN, _INV_2_53, mix
from repro._vrng import _C, _G, _S11, _U64, _fin3
from repro.model.draft import _NOISE_MASK
from repro.model.stochastic_lm import (
    MEMO_CAP,
    _SAMPLE_MASK,
    _SHAPE_MASK,
    _TOKEN_MASKS,
    _TOP1_CEIL,
    _TOP1_FLOOR,
    TokenDistribution,
    _token_mask,
)

#: Below this many queries, ``prefetch`` (a memo warm-up for a batch of
#: queries) leaves the rows to on-demand scalar generation.
PREFETCH_MIN_BATCH = 16

#: Twice ``_INV_2_53``: ``(x >> 11) * 2**-52`` is ``2.0 * u`` exactly
#: (power-of-two scalings of an integer below 2**53 never round).
_INV_2_52 = 2.0 * _INV_2_53
#: Running sums (``ndarray.cumsum`` is this ufunc's accumulate, minus a
#: dispatch layer).
_ACCUMULATE = np.add.accumulate

#: Constant arrays reused across calls (token masks / tail weights /
#: noise steps are rebuilt thousands of times per run otherwise).
_MASKS_ARRAYS: dict[int, np.ndarray] = {}
_STEPS_ARRAYS: dict[int, np.ndarray] = {}
_WEIGHTS_ARRAYS: dict[tuple, np.ndarray] = {}


def _draw_masks(k: int) -> np.ndarray:
    """XOR masks of a row's chains: shape, sample, ``k`` token draws, noise base."""
    arr = _MASKS_ARRAYS.get(k)
    if arr is None:
        if k > len(_TOKEN_MASKS):
            _token_mask(k - 1)
        arr = _MASKS_ARRAYS[k] = np.array(
            [_SHAPE_MASK, _SAMPLE_MASK, *_TOKEN_MASKS[:k], _NOISE_MASK], dtype=np.uint64
        )
    return arr


def _steps_array(k: int) -> np.ndarray:
    arr = _STEPS_ARRAYS.get(k)
    if arr is None:
        arr = _STEPS_ARRAYS[k] = np.array(
            [(_GOLDEN * (j + 1)) & MASK64 for j in range(k)], dtype=np.uint64
        )
    return arr


def _weights_array(weights: list[float]) -> np.ndarray:
    """The tail weights behind a zero top-1 slot (overwritten with top-1)."""
    key = tuple(weights)
    arr = _WEIGHTS_ARRAYS.get(key)
    if arr is None:
        arr = _WEIGHTS_ARRAYS[key] = np.array([0.0, *weights], dtype=np.float64)
    return arr


class DraftCall:
    """One speculation call: the model's constants and its stashed rows.

    Built once per ``speculate_batch`` / ``draft_chains`` call (or
    prefetch) for a target and a draft alignment.  Every
    :func:`draft_top` level of the call reads its constants and appends
    its rows' ``(P, ids, sample bits)`` to ``rows``; :meth:`emit` turns
    them into emissions in one pass.
    """

    __slots__ = (
        "target", "k", "masks", "spread", "n_regular", "weights", "steps",
        "alignment", "inv_alignment", "noisy", "rows",
    )

    def __init__(self, target, alignment: float) -> None:
        k = target.branching
        self.target = target
        self.k = k
        self.masks = _draw_masks(k)
        self.spread = target.spread
        self.n_regular = _U64(target._n_regular)
        self.weights = _weights_array(target._tail_weights)
        self.steps = _steps_array(k)
        self.alignment = alignment
        self.inv_alignment = 1.0 - alignment
        # A perfectly aligned draft *is* the target: no noise to draw.
        self.noisy = alignment < 1.0
        self.rows: list[tuple] = []

    def emit(self) -> np.ndarray:
        """The target emission of every row drafted since the last emit.

        One uint64 column, the rows in the order :func:`draft_top`
        drafted them: level by level, each level's rows in order.
        """
        P, ids, bits = map(np.concatenate, zip(*self.rows))
        self.rows = []
        u = (bits >> _S11).astype(np.float64)
        u *= _INV_2_53  # the sample uniforms
        return _emissions(P, ids, u)


class Centers:
    """Per-row predictability centers in the forms the kernel reads.

    ``effective`` is each row's center as an ``[n, 1]`` column (the
    model default where it has none); ``offsets`` is each row's first
    flat index in an ``[n, k]`` matrix.
    """

    __slots__ = ("effective", "offsets", "k")

    def __init__(self, call: DraftCall, centers: list[float | None]) -> None:
        k = self.k = call.k
        self.offsets = np.arange(0, len(centers) * k, k)[:, None]
        default = call.target.predictability
        self.effective = np.array(
            [default if c is None else c for c in centers] if None in centers else centers,
            dtype=np.float64,
        )[:, None]

    def repeat(self, r: int) -> "Centers":
        """The centers of each row repeated ``r`` times (a beam frontier)."""
        out = Centers.__new__(Centers)
        out.k = k = self.k
        out.effective = self.effective.repeat(r, axis=0)
        out.offsets = np.arange(0, out.effective.shape[0] * k, k)[:, None]
        return out


def _emissions(P, ids, u):
    """``StochasticLM.sample`` of every row: the token the target emits.

    The scalar loop returns the first slot whose running sum exceeds the
    sample uniform ``u`` (the last slot if none does).  The accumulated
    row is that running sum; ``argmax`` finds the first slot above ``u``
    once the last slot is marked to stand for "none".
    """
    n, k = P.shape
    above = _ACCUMULATE(P, 1) > u[:, None]
    above[:, -1] = True
    slot = above.argmax(axis=1)
    slot += np.arange(0, n * k, k)
    return ids.take(slot)


def draft_top(call: DraftCall, C: np.ndarray, centers: Centers, w: int):
    """The level kernel: each row's draft-sorted top-``w`` candidates.

    Returns ``(ids, probs, children)`` matrices of shape
    ``[len(C), min(w, k)]``: exactly
    ``draft.distribution(ctx, center).token_ids[:w]`` / ``.probs[:w]``
    row by row, and each candidate's context ``extend(ctx, id)``.  A
    perfectly aligned draft *is* the target, whose rows are not sorted,
    so its top-w is the target row's first ``w`` slots.  Stashes each
    row's emission inputs on ``call`` (see :meth:`DraftCall.emit`).

    The first pass finalizes one ``[len(C), k + 3]`` matrix: column 0 is
    the shape uniform, 1 the target's sample uniform, ``2..k+1`` the
    token draws and ``k + 2`` the draft's noise base.  The second
    finalizes the
    noise stream, which continues from its base as
    ``x_j = base + (j+1) * GOLDEN`` without the extra golden add, next
    to every candidate's child context.
    """
    k = call.k
    n = C.shape[0]
    column = C[:, None]
    X = column ^ call.masks
    X += _G
    _fin3(X)
    top1 = (X[:, :1] >> _S11).astype(np.float64)
    top1 *= _INV_2_52  # 2.0 * the shape uniform
    top1 -= 1.0
    top1 *= call.spread
    top1 += centers.effective
    np.maximum(top1, _TOP1_FLOOR, out=top1)
    np.minimum(top1, _TOP1_CEIL, out=top1)
    P = (1.0 - top1) * call.weights
    P[:, :1] = top1
    ids = X[:, 2 : k + 2] % call.n_regular
    # A row's draws collided when it has more equal pairs than its k
    # diagonal ones.
    equal = ids[:, :, None] == ids[:, None, :]
    if np.count_nonzero(equal) > n * k:
        target = call.target
        for row in np.flatnonzero(equal.sum(axis=(1, 2)) > k).tolist():
            ids[row] = target._draw_token_ids(int(C[row]))
    call.rows.append((P, ids, X[:, 1]))
    noisy = call.noisy
    Y = np.empty((1 + noisy, n, k), dtype=np.uint64)
    children = Y[-1]
    np.multiply(ids, _C, out=children)
    children ^= column
    children += _G
    if noisy:
        np.add(X[:, k + 2 : k + 3], call.steps, out=Y[0])
    _fin3(Y)
    if not noisy:
        return ids[:, :w], P[:, :w], children[:, :w]
    # The draft row: the normalized alignment mixture of P with the
    # normalized noise row.  The noise uniforms are ``bits * 2**-53``;
    # a power-of-two scale commutes with every rounding of the running
    # sum and cancels in the division, so the unscaled integers (exact
    # in float64, being below 2**53) give the same quotients.
    norm = (Y[0] >> _S11).astype(np.float64)
    norm /= _ACCUMULATE(norm, 1)[:, -1:]
    norm *= call.inv_alignment
    norm += P * call.alignment
    norm /= _ACCUMULATE(norm, 1)[:, -1:]
    if w == 1:
        order = norm.argmax(axis=1, keepdims=True)
    else:
        order = (-norm).argsort(axis=1, kind="stable")[:, :w]
    order = order + centers.offsets  # a contiguous index (faster takes)
    return ids.take(order), norm.take(order), children.take(order)


def _memoize(cache, keys_list, ids_mat, P) -> list[TokenDistribution]:
    """Memo entry of each row, storing the rows whose key is absent."""
    new = TokenDistribution.__new__
    get = cache.get
    out = []
    append = out.append
    for key, ids, probs in zip(keys_list, ids_mat.tolist(), P.tolist()):
        dist = get(key)  # present already, or a duplicate context in the batch
        if dist is None:
            if len(cache) >= MEMO_CAP:
                cache.clear()
            dist = new(TokenDistribution)
            dist.token_ids = tuple(ids)
            dist.probs = tuple(probs)
            cache[key] = dist
        append(dist)
    return out


def _draft_items(call: DraftCall, items, w: int):
    """:func:`draft_top` over ``(ctx, center)`` items, then their target rows.

    Returns ``(keys_list, P, ids, top_ids, top_probs)``; each memo key is
    the one ``StochasticLM.distribution`` derives.
    """
    C = np.array([ctx for ctx, _ in items], dtype=np.uint64)
    top_ids, top_probs, _ = draft_top(call, C, Centers(call, [c for _, c in items]), w)
    P, ids, _ = call.rows.pop()
    keys_list = [ctx if c is None else mix(ctx, int(c * 1e6)) for ctx, c in items]
    return keys_list, P, ids, top_ids, top_probs


def warm_target(lm, items) -> None:
    """Generate and memoize ``lm``'s rows for a batch of queries."""
    if len(items) < PREFETCH_MIN_BATCH:
        return
    keys_list, P, ids, _, _ = _draft_items(DraftCall(lm, 1.0), items, 1)
    _memoize(lm._cache, keys_list, ids, P)


def prefetch_draft(draft, items) -> None:
    """Warm the draft's (and target's) memos for a batch of queries (exact)."""
    if len(items) < PREFETCH_MIN_BATCH:
        return
    target = draft.target
    call = DraftCall(target, draft.alignment)
    keys_list, P, ids, top_ids, top_probs = _draft_items(call, items, target.branching)
    # The target rows too: verification samples the target at exactly
    # these contexts later.
    tgt_dists = _memoize(target._cache, keys_list, ids, P)
    dcache = draft._cache
    if not call.noisy:
        for key, dist in zip(keys_list, tgt_dists):
            if key not in dcache:
                if len(dcache) >= MEMO_CAP:
                    dcache.clear()
                dcache[key] = dist
        return
    _memoize(dcache, keys_list, top_ids, top_probs)
