"""Vectorized generation of synthetic-model distributions.

The scalar generators in :mod:`repro.model.stochastic_lm` /
:mod:`repro.model.draft` produce one distribution per call from ~18
splitmix64 chains plus a handful of float operations.  Speculation
knows every context it is about to query — one beam level, or one
chain step, across a whole batch — so this module evaluates those
chains for a whole column of contexts at once with ``numpy``
uint64/float64 matrices (contexts x draws).

:func:`draft_top` is the level kernel.  It takes a uint64 context
column plus per-row centers and returns each row's draft-sorted top-w
``(token ids, probs)`` matrices.  Along the way it computes each row's
target *emission* — ``StochasticLM.sample`` bit for bit: a cumulative
sum of the row's probabilities against the sample uniform, drawn in the
same finalizer pass — and memoizes it as ``key -> token``, because
verification samples the target at exactly these contexts.  Nothing
else is memoized: no draft rows (regenerating a level is cheaper than
looking rows up one by one) and no target distributions.
``prefetch_draft`` and ``warm_target`` warm the distribution memos for
arbitrary query lists with the same row math.

**Bit-identity is the contract.**  Every vector statement here maps 1:1
onto a scalar statement of the reference implementation:

- uint64 array adds/multiplies wrap modulo 2**64 (silently: numpy
  checks overflow on scalars only) exactly like the masked Python-int
  arithmetic;
- each float64 element is produced by the same IEEE operation sequence
  (multiply, divide, add in the same order) as the scalar path;
- running sums use ``cumsum`` (sequential, left-associated by
  definition), never ``np.sum`` (whose pairwise summation would differ);
- descending stable ``argsort`` of the negated probabilities matches
  ``sorted(..., reverse=True)`` tie-breaking;
- rows whose first ``k`` token draws collide are repaired with the
  scalar skip-duplicates loop (``StochasticLM._draw_token_ids``).

The golden-equivalence suite (tests/test_golden_equivalence.py),
``tests/test_batchgen.py`` and the per-node oracle in
``tests/conftest.py`` pin this.
"""

from __future__ import annotations

import numpy as np

from repro._rng import MASK64, _COMBINE, _GOLDEN, _INV_2_53, _MIX1, _MIX2
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

#: Below this many missing rows, ``prefetch`` (a memo warm-up for an
#: arbitrary query list) leaves the rows to on-demand scalar generation.
PREFETCH_MIN_BATCH = 16

_U64 = np.uint64
_G = _U64(_GOLDEN)
_M1 = _U64(_MIX1)
_M2 = _U64(_MIX2)
_C = _U64(_COMBINE)
_S30 = _U64(30)
_S27 = _U64(27)
_S31 = _U64(31)
_S11 = _U64(11)

#: Per-center XOR salts for the cache-key mix (few distinct centers).
_CENTER_SALTS: dict[float, int] = {}

#: Constant arrays reused across calls (token masks / tail weights /
#: noise steps are rebuilt thousands of times per run otherwise).
_MASKS_ARRAYS: dict[int, np.ndarray] = {}
_STEPS_ARRAYS: dict[int, np.ndarray] = {}
_WEIGHTS_ARRAYS: dict[tuple, np.ndarray] = {}


def _center_salt(center: float) -> int:
    salt = _CENTER_SALTS.get(center)
    if salt is None:
        salt = _CENTER_SALTS[center] = (int(center * 1e6) * _COMBINE) & MASK64
    return salt


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
    key = tuple(weights)
    arr = _WEIGHTS_ARRAYS.get(key)
    if arr is None:
        arr = _WEIGHTS_ARRAYS[key] = np.array(weights, dtype=np.float64)
    return arr


def _splitmix(x):
    """Vector splitmix64 finalizer (matches repro._rng.splitmix64)."""
    return _fin3(x + _G)


def _fin3(x):
    """The finalizer minus the golden-ratio add, in place on ``x``."""
    x ^= x >> _S30
    x *= _M1
    x ^= x >> _S27
    x *= _M2
    x ^= x >> _S31
    return x


def extend(C: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """Vector ``StochasticLM.extend``: each context after appending a token."""
    return _splitmix(C ^ (tokens * _C))


class Centers:
    """Per-row predictability centers in the columns the kernel reads.

    ``effective`` is each row's center (the model default where it has
    none); a row with a center has memo key ``mix(ctx, int(center * 1e6))``
    (``salts``), one without has the context itself (``keyed`` false).
    """

    __slots__ = ("effective", "salts", "keyed")

    def __init__(self, lm, centers: list[float | None]) -> None:
        default = lm.predictability
        self.effective = np.array(
            [default if c is None else c for c in centers], dtype=np.float64
        )
        self.salts = np.array(
            [0 if c is None else _center_salt(c) for c in centers], dtype=np.uint64
        )
        self.keyed = np.array([c is not None for c in centers], dtype=bool)

    def repeat(self, r: int) -> "Centers":
        """The centers of each row repeated ``r`` times (a beam frontier)."""
        out = Centers.__new__(Centers)
        out.effective = self.effective.repeat(r)
        out.salts = self.salts.repeat(r)
        out.keyed = self.keyed.repeat(r)
        return out

    def keys(self, C: np.ndarray) -> np.ndarray:
        """Memo keys of contexts ``C`` (the scalar-path key derivation)."""
        return np.where(self.keyed, _splitmix(C ^ self.salts), C)


def _generate_rows(lm, C, centers: Centers):
    """Vectorized ``StochasticLM._generate`` over contexts ``C``.

    Returns ``(P, ids, collided, X, u)``: per-row probabilities and token
    ids, the rows whose fast-path draws collided (the caller re-draws
    those ids with the scalar skip-duplicates loop — probabilities are
    unaffected), the finalized draw matrix and each row's sample uniform.

    Every splitmix64 chain a row needs is one column of a single
    ``[len(C), k + 4]`` finalizer pass: column 0 is the shape uniform,
    1 the target's sample uniform, ``2..k+1`` the token draws, ``k + 2``
    the draft's noise base and ``k + 3`` the memo key
    ``mix(ctx, int(center * 1e6))``.
    """
    k = lm.branching
    n = C.shape[0]
    X = np.empty((n, k + 4), dtype=np.uint64)
    np.bitwise_xor(C[:, None], _draw_masks(k), out=X[:, : k + 3])
    np.bitwise_xor(C, centers.salts, out=X[:, k + 3])
    X += _G
    _fin3(X)
    U = (X[:, :2] >> _S11) * _INV_2_53  # the shape and sample uniforms
    top1 = U[:, 0] * 2.0
    top1 -= 1.0
    top1 *= lm.spread
    top1 += centers.effective
    np.maximum(top1, _TOP1_FLOOR, out=top1)
    np.minimum(top1, _TOP1_CEIL, out=top1)
    P = np.empty((n, k), dtype=np.float64)
    P[:, 0] = top1
    np.multiply((1.0 - top1)[:, None], _weights_array(lm._tail_weights), out=P[:, 1:])
    ids = X[:, 2 : k + 2] % _U64(lm._n_regular)
    ordered = np.sort(ids, axis=1)
    equal = ordered[:, 1:] == ordered[:, :-1]
    collided = np.flatnonzero(equal.any(axis=1)).tolist() if equal.any() else []
    return P, ids, collided, X, U[:, 1]


def _target_rows(lm, C, centers: Centers):
    """``(P, ids, X, u)`` rows for contexts ``C``, collided ids repaired."""
    P, ids, collided, X, u = _generate_rows(lm, C, centers)
    for row in collided:
        ids[row] = lm._draw_token_ids(int(C[row]))
    return P, ids, X, u


def _noise_rows(X, k):
    """The draft's noise rows ``uniforms(ctx, _SALT_NOISE, k)``.

    The stream continues from its base column as
    ``x_j = base + (j+1) * GOLDEN`` (mod 2**64), finalized without the
    extra golden add: one outer add.
    """
    return (_fin3(X[:, k + 2, None] + _steps_array(k)) >> _S11) * _INV_2_53


def _emissions(P, ids, u):
    """``StochasticLM.sample`` of every row: the token the target emits.

    The scalar loop returns the first slot whose running sum exceeds the
    sample uniform ``u`` (the last slot if none does).  ``cumsum`` is that
    running sum, and because it never decreases, the first such slot is
    the count of the first ``k - 1`` sums at or below ``u``.
    """
    n, k = P.shape
    slot = (P.cumsum(axis=1)[:, :-1] <= u[:, None]).sum(axis=1)
    slot += np.arange(0, n * k, k)
    return ids.ravel()[slot]


def _draft_sorted(draft, P, N):
    """The draft's row math for ``alignment < 1``: ``(order, norm)``.

    ``norm`` is each row's normalized alignment mixture of the target
    probabilities ``P`` with the noise rows ``N``; ``order`` sorts it
    descending with ``sorted(..., reverse=True)``'s tie order.
    """
    a = draft.alignment
    noise_total = N.cumsum(axis=1)[:, -1]
    mixed = a * P + (1.0 - a) * (N / noise_total[:, None])
    total = mixed.cumsum(axis=1)[:, -1]
    norm = mixed / total[:, None]
    return np.argsort(-norm, axis=1, kind="stable"), norm


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


def draft_top(draft, C: np.ndarray, centers: Centers, w: int):
    """The level kernel: each row's draft-sorted top-``w`` candidates.

    Returns ``(ids, probs)`` matrices of shape ``[len(C), min(w, k)]``,
    exactly ``draft.distribution(ctx, center).token_ids[:w]`` / ``.probs[:w]``
    row by row.  A perfectly aligned draft *is* the target, whose rows
    are not sorted, so its top-w is the target row's first ``w`` slots.
    Memoizes each row's target emission (see the module docstring).
    """
    target = draft.target
    k = target.branching
    P, ids, X, u = _target_rows(target, C, centers)
    keys = np.where(centers.keyed, X[:, k + 3], C)
    memo = target._emissions
    if len(memo) + C.shape[0] > MEMO_CAP:
        memo.clear()
    memo.update(zip(keys.tolist(), _emissions(P, ids, u).tolist()))
    if draft.alignment >= 1.0:
        return ids[:, :w], P[:, :w]
    order, norm = _draft_sorted(draft, P, _noise_rows(X, k))
    order = order[:, :w]
    order += np.arange(0, C.shape[0] * k, k)[:, None]
    return ids.ravel()[order], norm.ravel()[order]


def _missing_rows(lm, items, memo):
    """``(C, centers, keys_list)`` of the items whose keys miss ``memo``.

    ``None`` when fewer than :data:`PREFETCH_MIN_BATCH` items miss.
    """
    if len(items) < PREFETCH_MIN_BATCH:
        return None
    C = np.array([ctx for ctx, _ in items], dtype=np.uint64)
    keys_list = Centers(lm, [center for _, center in items]).keys(C).tolist()
    missing = [i for i, key in enumerate(keys_list) if key not in memo]
    if len(missing) < PREFETCH_MIN_BATCH:
        return None
    centers = Centers(lm, [items[i][1] for i in missing])
    return C[missing], centers, [keys_list[i] for i in missing]


def warm_target(lm, items) -> None:
    """Generate and memoize ``lm``'s rows for items missing from its memo."""
    rows = _missing_rows(lm, items, lm._cache)
    if rows is None:
        return
    C, centers, keys_list = rows
    P, ids_mat, _, _ = _target_rows(lm, C, centers)
    _memoize(lm._cache, keys_list, ids_mat, P)


def prefetch_draft(draft, items) -> None:
    """Warm the draft's (and target's) memos for many queries (exact)."""
    target = draft.target
    rows = _missing_rows(target, items, draft._cache)
    if rows is None:
        return
    C, centers, keys_list = rows
    P, ids_mat, X, _ = _target_rows(target, C, centers)
    # The target rows too: verification samples the target at exactly
    # these contexts later.
    tgt_dists = _memoize(target._cache, keys_list, ids_mat, P)
    dcache = draft._cache
    if draft.alignment >= 1.0:
        for key, dist in zip(keys_list, tgt_dists):
            if key not in dcache:
                if len(dcache) >= MEMO_CAP:
                    dcache.clear()
                dcache[key] = dist
        return
    order, norm = _draft_sorted(draft, P, _noise_rows(X, target.branching))
    rows = np.arange(len(C))[:, None]
    _memoize(dcache, keys_list, ids_mat[rows, order], norm[rows, order])
