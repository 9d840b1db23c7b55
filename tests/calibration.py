"""Calibration utilities for the synthetic model substrate (a test tool).

The substrate's two quality knobs — per-category *predictability*
(:mod:`repro.workloads.categories`) and the draft's *alignment*
(:data:`repro.model.pair.PAIR_PRESETS`) — are set to land acceptance
rates in the band the paper reports (Figure 12: ~2-6 accepted tokens per
verification).  This module, which no simulation imports, makes that calibration
reproducible and testable:

- :func:`measure_acceptance` — empirical accepted-tokens-per-verification
  of a (pair, beam shape, predictability) configuration;
- :func:`measure_draft_quality` — agreement statistics between draft
  estimates and true acceptance probabilities (the Equation 7 surrogate's
  fidelity);
- :func:`calibrate_alignment` — find the alignment level that achieves a
  target acceptance rate, by bisection;
- :func:`true_path_probability` and :func:`expected_accepted_tokens` — the
  Theorem 3.1 ground truth: a path's true probability f(v) and a tree's
  expected accepted tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro._rng import fold_sum
from repro.core.speculation import speculate_batch
from repro.core.tree import TokenTree
from repro.model.acceptance import verify_tree
from repro.model.pair import ModelPair


@dataclass(frozen=True)
class DraftQuality:
    """Fidelity of the draft's acceptance estimates (Equation 7)."""

    mean_estimate: float
    mean_true: float
    correlation: float
    top1_agreement: float  # how often draft argmax == target argmax

    @property
    def bias(self) -> float:
        """Signed estimation bias (negative = draft is conservative)."""
        return self.mean_estimate - self.mean_true


def measure_acceptance(
    pair: ModelPair,
    n_contexts: int = 200,
    depth: int = 4,
    width: int = 2,
    center: float | None = None,
    seed_tokens: tuple[int, int] = (11, 29),
) -> float:
    """Mean accepted draft tokens per verification over sampled contexts."""
    if n_contexts < 1:
        raise ValueError("n_contexts must be >= 1")
    total = 0
    a, b = seed_tokens
    for i in range(n_contexts):
        ctx = pair.context_of([i * a + b, i])
        tree = speculate_batch(pair, [(0, ctx)], depth, width, [center]).trees[0]
        accepted, _, _ = verify_tree(pair, tree, center=center)
        total += len(accepted)
    return total / n_contexts


def measure_draft_quality(
    pair: ModelPair,
    n_contexts: int = 300,
    center: float | None = None,
) -> DraftQuality:
    """Agreement between draft top-1 estimates and true acceptance."""
    if n_contexts < 2:
        raise ValueError("n_contexts must be >= 2")
    ests: list[float] = []
    trues: list[float] = []
    agree = 0
    for i in range(n_contexts):
        ctx = pair.context_of([i, 3 * i + 7])
        (tok, p), = pair.draft_children(ctx, 1, center)
        ests.append(p)
        trues.append(pair.accept_prob(ctx, tok, center))
        if tok == pair.target_distribution(ctx, center).token_ids[0]:
            agree += 1
    n = n_contexts
    mean_e = fold_sum(ests) / n
    mean_t = fold_sum(trues) / n
    cov = fold_sum((e - mean_e) * (t - mean_t) for e, t in zip(ests, trues)) / n
    var_e = fold_sum((e - mean_e) ** 2 for e in ests) / n
    var_t = fold_sum((t - mean_t) ** 2 for t in trues) / n
    corr = cov / (var_e**0.5 * var_t**0.5) if var_e > 0 and var_t > 0 else 0.0
    return DraftQuality(
        mean_estimate=mean_e,
        mean_true=mean_t,
        correlation=corr,
        top1_agreement=agree / n,
    )


def calibrate_alignment(
    target_acceptance: float,
    vocab_size: int = 8000,
    seed: int = 0,
    predictability: float = 0.7,
    depth: int = 4,
    width: int = 2,
    n_contexts: int = 150,
    tolerance: float = 0.05,
    max_iters: int = 12,
) -> tuple[float, float]:
    """Bisection for the alignment achieving a target acceptance rate.

    Returns (alignment, achieved acceptance).  Raises ``ValueError`` if
    the target is outside what alignment in [0, 1] can reach for the
    given predictability/beam shape.
    """

    def acceptance(alignment: float) -> float:
        pair = ModelPair.build(
            vocab_size=vocab_size,
            seed=seed,
            alignment=alignment,
            predictability=predictability,
        )
        return measure_acceptance(pair, n_contexts, depth, width)

    lo, hi = 0.0, 1.0
    acc_lo, acc_hi = acceptance(lo), acceptance(hi)
    if not acc_lo - tolerance <= target_acceptance <= acc_hi + tolerance:
        raise ValueError(
            f"target acceptance {target_acceptance:.2f} outside achievable "
            f"range [{acc_lo:.2f}, {acc_hi:.2f}]"
        )
    best = (hi, acc_hi)
    for _ in range(max_iters):
        mid = (lo + hi) / 2
        acc = acceptance(mid)
        if abs(acc - target_acceptance) < abs(best[1] - target_acceptance):
            best = (mid, acc)
        if abs(acc - target_acceptance) <= tolerance:
            return mid, acc
        if acc < target_acceptance:
            lo = mid
        else:
            hi = mid
    return best


# ----------------------------------------------------------------------
# Theorem 3.1 quantities (ground truth the tests compare against)
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
    pair: ModelPair, tree: TokenTree, center: float | None = None
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
