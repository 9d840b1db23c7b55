"""Vectorized batch generation of synthetic-model distributions.

The scalar generators in :mod:`repro.model.stochastic_lm` /
:mod:`repro.model.draft` produce one distribution per call from ~18
splitmix64 chains plus a handful of float operations.  When a caller
knows *many* contexts it is about to query — a beam-search level across
a whole batch — those chains can be evaluated for every context at once
with ``numpy`` uint64/float64 matrices (contexts x draws), collapsing
thousands of interpreter operations into a few dozen array dispatches.

**Bit-identity is the contract.**  Every vector statement here maps 1:1
onto a scalar statement of the reference implementation:

- uint64 adds/multiplies wrap modulo 2**64 exactly like the masked
  Python-int arithmetic;
- each float64 element is produced by the same IEEE operation sequence
  (multiply, divide, add in the same order) as the scalar path;
- running sums use ``cumsum`` (sequential, left-associated by
  definition), never ``np.sum`` (whose pairwise summation would differ);
- descending stable ``argsort`` of the negated probabilities matches
  ``sorted(..., reverse=True)`` tie-breaking.

The golden-equivalence suite (tests/test_golden_equivalence.py) and
``tests/test_batchgen.py`` pin this.  ``numpy`` is optional: when it is
unavailable the ``prefetch`` entry points are no-ops and callers fall
back to on-demand scalar generation.
"""

from __future__ import annotations

try:  # gated dependency: the scalar path is always available
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via AVAILABLE flag
    _np = None

from repro._rng import MASK64, _COMBINE, _GOLDEN, _INV_2_53, _MIX1, _MIX2
from repro.model.stochastic_lm import (
    _SHAPE_MASK,
    _TOKEN_MASKS,
    _TOP1_CEIL,
    _TOP1_FLOOR,
    PREFETCH_MIN_BATCH,
    TokenDistribution,
    _token_mask,
)

#: Whether the vectorized path can run at all.
AVAILABLE = _np is not None

if AVAILABLE:
    _U64 = _np.uint64
    _G = _U64(_GOLDEN)
    _M1 = _U64(_MIX1)
    _M2 = _U64(_MIX2)
    _S30 = _U64(30)
    _S27 = _U64(27)
    _S31 = _U64(31)
    _S11 = _U64(11)

#: Per-center XOR salts for the cache-key mix (few distinct centers).
_CENTER_SALTS: dict[float, int] = {}

#: Constant arrays reused across calls (token masks / tail weights /
#: noise steps are rebuilt thousands of times per run otherwise).
_MASKS_ARRAYS: dict[int, object] = {}
_STEPS_ARRAYS: dict[int, object] = {}
_WEIGHTS_ARRAYS: dict[tuple, object] = {}


def _center_salt(center: float) -> int:
    salt = _CENTER_SALTS.get(center)
    if salt is None:
        salt = _CENTER_SALTS[center] = (int(center * 1e6) * _COMBINE) & MASK64
    return salt


def _masks_array(k: int):
    arr = _MASKS_ARRAYS.get(k)
    if arr is None:
        if k > len(_TOKEN_MASKS):
            _token_mask(k - 1)
        arr = _MASKS_ARRAYS[k] = _np.array(_TOKEN_MASKS[:k], dtype=_np.uint64)
    return arr


def _steps_array(k: int):
    arr = _STEPS_ARRAYS.get(k)
    if arr is None:
        arr = _STEPS_ARRAYS[k] = _np.array(
            [(_GOLDEN * (j + 1)) & MASK64 for j in range(k)], dtype=_np.uint64
        )
    return arr


def _weights_array(weights: list[float]):
    key = tuple(weights)
    arr = _WEIGHTS_ARRAYS.get(key)
    if arr is None:
        arr = _WEIGHTS_ARRAYS[key] = _np.array(weights, dtype=_np.float64)
    return arr


def _splitmix(x):
    """Vector splitmix64 finalizer (matches repro._rng.splitmix64)."""
    x = x + _G
    x = (x ^ (x >> _S30)) * _M1
    x = (x ^ (x >> _S27)) * _M2
    return x ^ (x >> _S31)


def _fin3(x):
    """The finalizer minus the golden-ratio add (uniforms() inner loop)."""
    x = (x ^ (x >> _S30)) * _M1
    x = (x ^ (x >> _S27)) * _M2
    return x ^ (x >> _S31)


def _keys(C, items):
    """Cache keys for (ctx, center) items (scalar-path key derivation)."""
    has_none = False
    has_center = False
    salts_list = []
    for _, center in items:
        if center is None:
            has_none = True
            salts_list.append(0)
        else:
            has_center = True
            salts_list.append(_center_salt(center))
    if not has_center:
        return C
    salts = _np.array(salts_list, dtype=_np.uint64)
    with _np.errstate(over="ignore"):
        K = _splitmix(C ^ salts)
    if not has_none:
        return K
    none_mask = _np.array([center is None for _, center in items], dtype=bool)
    return _np.where(none_mask, C, K)


def _generate_rows(lm, C, centers):
    """Vectorized ``StochasticLM._generate`` over contexts ``C``.

    ``centers`` is a float64 array (per-element predictability).  Returns
    ``(P, ids_mat, dup)``: per-row probabilities and token ids, plus a mask of
    rows whose fast-path draws collided (the caller re-draws those ids
    with the scalar skip-duplicates loop — probabilities are unaffected).
    """
    k = lm.branching
    with _np.errstate(over="ignore"):
        u = (_splitmix(C ^ _U64(_SHAPE_MASK)) >> _S11) * _INV_2_53
        top1 = centers + lm.spread * (2.0 * u - 1.0)
        top1 = _np.where(top1 < _TOP1_FLOOR, _TOP1_FLOOR, top1)
        top1 = _np.where(top1 > _TOP1_CEIL, _TOP1_CEIL, top1)
        tail_mass = 1.0 - top1
        weights = _weights_array(lm._tail_weights)
        P = _np.empty((C.shape[0], k), dtype=_np.float64)
        P[:, 0] = top1
        P[:, 1:] = tail_mass[:, None] * weights[None, :]
        masks = _masks_array(k)
        ids_mat = _splitmix(C[:, None] ^ masks[None, :]) % _U64(lm._n_regular)
        ordered = _np.sort(ids_mat, axis=1)
        dup = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    return P, ids_mat, dup


def _noise_rows(C, k):
    """Vectorized ``uniforms(ctx, _SALT_NOISE, k)`` over contexts ``C``.

    The scalar loop's chain is ``x_j = base + (j+1) * GOLDEN`` (mod 2**64)
    finalized without the extra golden add, which vectorizes as one outer
    add.
    """
    from repro.model.draft import _NOISE_MASK

    with _np.errstate(over="ignore"):
        base = _splitmix(C ^ _U64(_NOISE_MASK))
        return (_fin3(base[:, None] + _steps_array(k)[None, :]) >> _S11) * _INV_2_53


def _effective_centers(lm, items):
    """Per-item predictability (model default where center is None)."""
    default = lm.predictability
    return _np.array(
        [default if center is None else center for _, center in items],
        dtype=_np.float64,
    )


def _select_missing(cache, keys_list):
    """Indices of keys absent from ``cache``."""
    return [i for i, key in enumerate(keys_list) if key not in cache]


def warm_target(lm, items, memo):
    """Generate and memoize ``lm``'s rows for items whose keys miss ``memo``.

    ``memo`` is ``lm``'s own memo for a target prefetch and the draft's
    for a draft prefetch (which needs the target rows as its base).
    Returns ``(keys_list, missing, C[missing], P, ids_mat, dists)`` with
    ``dists`` the memoized target rows, or ``None`` when numpy is
    unavailable or fewer than ``PREFETCH_MIN_BATCH`` items miss.
    """
    if _np is None or len(items) < PREFETCH_MIN_BATCH:
        return None
    C = _np.array([ctx for ctx, _ in items], dtype=_np.uint64)
    keys_list = _keys(C, items).tolist()
    missing = _select_missing(memo, keys_list)
    if len(missing) < PREFETCH_MIN_BATCH:
        return None
    sub = C[_np.array(missing, dtype=_np.intp)]
    sub_items = [items[i] for i in missing]
    P, ids_mat, dup = _generate_rows(lm, sub, _effective_centers(lm, sub_items))
    if dup.any():
        for row in _np.nonzero(dup)[0]:
            ids_mat[row] = lm._draw_token_ids(sub_items[int(row)][0])
    ids_rows = ids_mat.tolist()
    probs_rows = P.tolist()
    cache = lm._cache
    cap = lm._cache_cap
    new = TokenDistribution.__new__
    dists = []
    for j, i in enumerate(missing):
        key = keys_list[i]
        dist = cache.get(key)  # present for a duplicate ctx within the batch
        if dist is None:
            if len(cache) >= cap:
                cache.clear()
            dist = new(TokenDistribution)
            dist.token_ids = tuple(ids_rows[j])
            dist.probs = tuple(probs_rows[j])
            cache[key] = dist
        dists.append(dist)
    return keys_list, missing, sub, P, ids_mat, dists


def prefetch_draft(draft, items) -> None:
    """Warm the draft's (and target's) memos for many queries (exact)."""
    dcache = draft._cache
    # Materialize (and memoize) the target rows too: verification samples
    # the target at exactly these contexts later.
    rows = warm_target(draft.target, items, dcache)
    if rows is None:
        return
    keys_list, missing, sub, P, ids_mat, tgt_dists = rows
    a = draft.alignment
    k = draft.target.branching
    dcap = draft._cache_cap
    new = TokenDistribution.__new__
    if a >= 1.0:
        for j, i in enumerate(missing):
            key = keys_list[i]
            if key not in dcache:
                if len(dcache) >= dcap:
                    dcache.clear()
                dcache[key] = tgt_dists[j]
        return
    with _np.errstate(over="ignore"):
        N = _noise_rows(sub, k)
        noise_total = N.cumsum(axis=1)[:, -1]
        mixed = a * P + (1.0 - a) * (N / noise_total[:, None])
        total = mixed.cumsum(axis=1)[:, -1]
        norm = mixed / total[:, None]
        order = _np.argsort(-norm, axis=1, kind="stable")
        ids_sorted = _np.take_along_axis(ids_mat, order, axis=1)
        probs_sorted = _np.take_along_axis(norm, order, axis=1)
    ids_rows = ids_sorted.tolist()
    probs_rows = probs_sorted.tolist()
    for j, i in enumerate(missing):
        key = keys_list[i]
        if key in dcache:
            continue
        if len(dcache) >= dcap:
            dcache.clear()
        dist = new(TokenDistribution)
        dist.token_ids = tuple(ids_rows[j])
        dist.probs = tuple(probs_rows[j])
        dcache[key] = dist
