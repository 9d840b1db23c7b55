"""Synthetic draft (speculator) model.

A draft model in speculative decoding is a small network whose next-token
distribution approximates the target's — typically because it was distilled
from it (the paper leans on this in §4.2 to justify using draft logits as
surrogates for path probabilities f(v)).

``DraftLM`` reproduces that relationship with a single *alignment* knob:

    draft_probs = normalize(alignment * target_probs + (1 - alignment) * noise)

- ``alignment = 1.0``: the draft is a perfect surrogate (distillation
  limit); its path-probability estimates equal the true f(v).
- ``alignment = 0.0``: the draft is uninformative noise over the same
  support; speculation degenerates.

The draft shares the target's truncated support.  This mirrors reality
closely enough for the algorithms under study: what matters is that the
*ranking and rough magnitude* of draft probabilities track true acceptance
probabilities, with controllable estimation error.
"""

from __future__ import annotations

from operator import itemgetter

from repro._rng import (
    MASK64,
    _COMBINE,
    _GOLDEN,
    _INV_2_53,
    _MIX1,
    _MIX2,
    salted,
)
from repro.model.stochastic_lm import (
    MEMO_CAP,
    StochasticLM,
    TokenDistribution,
    shared_distribution_cache,
)

_SALT_NOISE = 0x44_52  # ASCII "DR"

#: Precomputed XOR mask for the noise stream (see repro._rng.salted).
_NOISE_MASK = salted(_SALT_NOISE)

#: Sort key for (token, prob) pairs — itemgetter beats a lambda in the
#: per-context distribution construction.
_BY_PROB = itemgetter(1)


class DraftLM:
    """A speculator whose distribution is an alignment-mixture of the target's.

    Parameters
    ----------
    target:
        The target :class:`StochasticLM` this draft approximates.
    alignment:
        Mixture weight on the target distribution, in [0, 1].
    """

    def __init__(self, target: StochasticLM, alignment: float = 0.85) -> None:
        if not 0.0 <= alignment <= 1.0:
            raise ValueError(f"alignment must be in [0, 1], got {alignment}")
        self.target = target
        self.alignment = alignment
        # Same sharing rationale as the target's memo: the draft mapping
        # is fully determined by the target's parameters + alignment, and
        # the target's seed decides which contexts occur.
        self._cache: dict[int, TokenDistribution] = shared_distribution_cache(
            (
                "draft",
                target.vocab.num_regular,
                target.branching,
                target.predictability,
                target.spread,
                target.decay,
                alignment,
                target.seed,
            )
        )

    def distribution(self, ctx: int, center: float | None = None) -> TokenDistribution:
        """Draft next-token distribution at a context (cached).

        Shares the target's support; probabilities are re-sorted descending
        so that ``token_ids[0]`` is the draft's top pick, which may differ
        from the target's when alignment < 1.  ``center`` is forwarded to
        the target (per-request predictability).
        """
        # The per-context reference for the speculation kernel
        # (repro.model.batchgen.draft_top, whose top-w rows are this
        # row's first w entries): the cache key is computed once and
        # shared with the target's memo (same derivation, distinct
        # dicts), the noise stream is the uniforms() loop of
        # tests/conftest.py inlined, and (ids, probs) come from one
        # zip(*...) — every float is produced by the same operations in
        # the same order as the kernel's, so the two agree bit for bit.
        if center is None:
            key = ctx
        else:
            # mix(ctx, int(center * 1e6)), inlined.
            x = (((ctx ^ (int(center * 1e6) * _COMBINE)) & MASK64) + _GOLDEN) & MASK64
            x = ((x ^ (x >> 30)) * _MIX1) & MASK64
            x = ((x ^ (x >> 27)) * _MIX2) & MASK64
            key = x ^ (x >> 31)
        cache = self._cache
        cached = cache.get(key)
        if cached is not None:
            return cached
        target = self.target
        tgt_cache = target._cache
        tgt = tgt_cache.get(key)
        if tgt is None:
            tgt = target._generate(
                ctx, target.predictability if center is None else center
            )
            if len(tgt_cache) >= MEMO_CAP:
                tgt_cache.clear()
            tgt_cache[key] = tgt
        a = self.alignment
        if a >= 1.0:
            dist = tgt
        else:
            # uniforms(ctx, _SALT_NOISE, k) (tests/conftest.py), inlined.
            k = len(tgt.token_ids)
            x = ((ctx ^ _NOISE_MASK) + _GOLDEN) & MASK64
            x = ((x ^ (x >> 30)) * _MIX1) & MASK64
            x = ((x ^ (x >> 27)) * _MIX2) & MASK64
            x ^= x >> 31
            # Sums fold left to right, like batchgen's running sums; the builtin
            # sum() compensates its rounding on Python >= 3.12.
            noise = []
            append = noise.append
            noise_total = 0.0
            for _ in range(k):
                x = (x + _GOLDEN) & MASK64
                y = ((x ^ (x >> 30)) * _MIX1) & MASK64
                y = ((y ^ (y >> 27)) * _MIX2) & MASK64
                y ^= y >> 31
                u = (y >> 11) * _INV_2_53
                append(u)
                noise_total += u
            inv_a = 1.0 - a
            mixed = [
                a * p + inv_a * (n / noise_total)
                for p, n in zip(tgt.probs, noise)
            ]
            total = 0.0
            for m in mixed:
                total += m
            pairs = sorted(
                zip(tgt.token_ids, [m / total for m in mixed]),
                key=_BY_PROB,
                reverse=True,
            )
            ids, probs = zip(*pairs)
            dist = TokenDistribution(ids, probs)
        if len(cache) >= MEMO_CAP:
            cache.clear()
        cache[key] = dist
        return dist

    def prefetch(self, items) -> None:
        """Warm the draft (and target) memos for many ``(ctx, center)`` queries.

        The speculation kernel's row function (see
        :mod:`repro.model.batchgen`); bit-identical to generating on
        demand, and a no-op for a batch too small to amortize it.
        """
        from repro.model import batchgen

        batchgen.prefetch_draft(self, items)

    def top_w(self, ctx: int, w: int, center: float | None = None) -> list[tuple[int, float]]:
        """The draft's ``w`` most likely continuations as (token, prob) pairs."""
        dist = self.distribution(ctx, center)
        return list(zip(dist.token_ids[:w], dist.probs[:w]))

    def clear_cache(self) -> None:
        """Drop memoized distributions."""
        self._cache.clear()
