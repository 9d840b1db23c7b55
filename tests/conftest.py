"""Shared fixtures: small, fast model pairs and serving setups."""

from __future__ import annotations

from collections import Counter

import pytest

from repro._rng import mix
from repro.core.speculation import SpeculationResult
from repro.core.tree import TokenTree, TreeNode
from repro.hardware.roofline import RooflineModel
from repro.hardware.spec import DEPLOYMENT_PRESETS
from repro.model import batchgen
from repro.model.draft import DraftLM
from repro.model.pair import ModelPair
from repro.model.stochastic_lm import StochasticLM
from repro.serving.engine import SimulatedEngine
from repro.serving.kv_cache import KVCacheManager
from repro.serving.request import Request
from repro.workloads.datasets import DATASETS
from repro.workloads.generator import WorkloadGenerator


@pytest.fixture
def pair() -> ModelPair:
    """Small deterministic model pair."""
    return ModelPair.build(vocab_size=1000, seed=42, alignment=0.85, predictability=0.7)


@pytest.fixture
def perfect_pair() -> ModelPair:
    """Pair whose draft is a perfect surrogate (alignment = 1)."""
    return ModelPair.build(vocab_size=1000, seed=7, alignment=1.0, predictability=0.7)


@pytest.fixture
def generated(monkeypatch) -> Counter:
    """Distributions the models generate from here on, by kind.

    ``target`` counts scalar ``StochasticLM._generate`` calls plus rows
    of the vectorized ``batchgen._generate_rows``; ``draft`` counts
    entries the scalar ``DraftLM.distribution`` adds to its memo plus
    the noise rows ``batchgen._generate_rows`` draws.  Memo hits count
    nothing.
    """
    counts: Counter = Counter()
    generate = StochasticLM._generate
    generate_rows = batchgen._generate_rows
    draft_distribution = DraftLM.distribution

    def counted_generate(self, ctx, center):
        counts["target"] += 1
        return generate(self, ctx, center)

    def counted_generate_rows(lm, C, centers, noise=False):
        counts["target"] += len(C)
        counts["draft"] += len(C) if noise else 0
        return generate_rows(lm, C, centers, noise)

    def counted_draft_distribution(self, ctx, center=None):
        before = len(self._cache)
        dist = draft_distribution(self, ctx, center)
        counts["draft"] += len(self._cache) - before
        return dist

    monkeypatch.setattr(StochasticLM, "_generate", counted_generate)
    monkeypatch.setattr(batchgen, "_generate_rows", counted_generate_rows)
    monkeypatch.setattr(DraftLM, "distribution", counted_draft_distribution)
    return counts


@pytest.fixture
def target_roofline() -> RooflineModel:
    """Llama-70B on 4xA100 cost model."""
    return RooflineModel(DEPLOYMENT_PRESETS["llama70b-4xa100"])


@pytest.fixture
def draft_roofline() -> RooflineModel:
    """Llama-1B draft cost model."""
    return RooflineModel(DEPLOYMENT_PRESETS["llama1b-1xa100"])


@pytest.fixture
def engine(pair, target_roofline, draft_roofline) -> SimulatedEngine:
    """Engine over the small pair and real rooflines."""
    kv = KVCacheManager(capacity_tokens=200_000)
    return SimulatedEngine(pair, target_roofline, draft_roofline, kv, seed=42)


def make_request(
    rid: int = 0,
    category: str = "coding",
    arrival: float = 0.0,
    prompt_len: int = 32,
    max_new_tokens: int = 16,
    tpot_slo: float = 0.05,
    predictability: float = 0.75,
    priority: int = 0,
) -> Request:
    """Hand-built request with sane defaults."""
    return Request(
        rid=rid,
        category=category,
        arrival_time=arrival,
        prompt_len=prompt_len,
        max_new_tokens=max_new_tokens,
        tpot_slo=tpot_slo,
        predictability=predictability,
        priority=priority,
    )


def autoregressive_ctx(
    pair: ModelPair, ctx: int, n: int, center: float | None = None
) -> int:
    """Context after decoding ``n`` target tokens one at a time from ``ctx``.

    The losslessness oracle: a speculative system's final context must
    equal plain autoregressive decoding's from the same root context.
    """
    for _ in range(n):
        ctx = pair.extend(ctx, pair.target_sample(ctx, center))
    return ctx


def reference_speculate(
    pair: ModelPair,
    roots: list[tuple[int, int]],
    depth: int,
    width: int,
    centers: list[float | None] | None = None,
) -> SpeculationResult:
    """Per-node beam search: the oracle for ``speculate_batch``.

    One ``DraftLM.distribution`` call and one sort per tree and level:
    every frontier node offers its draft top-``width`` children, scored
    by ``path_prob * prob``, and the ``width`` best candidates across
    the frontier (``sorted(..., reverse=True)`` order) join the tree.
    """
    if centers is None:
        centers = [None] * len(roots)
    trees = []
    for (root_token, root_ctx), center in zip(roots, centers):
        tree = TokenTree(root_token, root_ctx)
        frontier: list[TreeNode] = [tree.root]
        for _ in range(depth):
            candidates = []
            for node in frontier:
                dist = pair.draft.distribution(node.ctx_hash, center)
                for token_id, prob in zip(dist.token_ids[:width], dist.probs[:width]):
                    candidates.append((node.path_prob * prob, node, token_id, prob))
            candidates.sort(key=lambda c: c[0], reverse=True)
            frontier = [
                tree.add_child(parent, tok, pair.extend(parent.ctx_hash, tok), prob)
                for _score, parent, tok, prob in candidates[:width]
            ]
        trees.append(tree)
    n = len(roots)
    step_tokens = () if depth == 0 or n == 0 else (n, *(n * width for _ in range(depth - 1)))
    return SpeculationResult(trees=trees, depth=depth, width=width, step_tokens=step_tokens)


def reference_draft_chains(
    pair: ModelPair, starts: list[tuple[int, float | None]], k: int
) -> list[list[int]]:
    """Per-request greedy chains: the oracle for ``draft_chains``."""
    chains = []
    for ctx, center in starts:
        chain = []
        for _ in range(k):
            tok, _prob = pair.draft.top_w(ctx, 1, center)[0]
            chain.append(tok)
            ctx = pair.extend(ctx, tok)
        chains.append(chain)
    return chains


def content_block_keys(
    segments: tuple[tuple[int, int], ...], n_tokens: int, block_size: int
) -> list[int]:
    """Block keys hashed from per-token content: the equivalence oracle.

    Token ``j`` of a segment is ``mix(namespace, j)``, generated tokens
    extend the final segment, and key ``b`` hash-chains every token of
    ``[0, (b+1) * block_size)``.  Equal keys here mean equal token
    content, so :func:`repro.prefixcache.tokens.request_block_keys` must
    produce equal keys exactly when this does.
    """
    keys: list[int] = []
    h = 0
    pos = 0
    for i, (namespace, length) in enumerate(segments):
        span = n_tokens - pos if i == len(segments) - 1 else min(length, n_tokens - pos)
        for j in range(span):
            h = mix(h, mix(namespace, j))
            pos += 1
            if pos % block_size == 0:
                keys.append(h)
    return keys


def tiny_generator(roofline: RooflineModel, seed: int = 5) -> WorkloadGenerator:
    """Workload generator with every category mapped to the tiny dataset."""
    gen = WorkloadGenerator(roofline, seed=seed)
    tiny = DATASETS["tiny"]
    gen.datasets = {name: tiny for name in gen.datasets}
    return gen


@pytest.fixture
def tiny_workload(target_roofline) -> list[Request]:
    """A small mixed workload using the tiny dataset (fast sims)."""
    return tiny_generator(target_roofline).steady(duration_s=8.0, rps=3.0)
