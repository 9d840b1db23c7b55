"""Shared fixtures: small, fast model pairs and serving setups."""

from __future__ import annotations

import pytest

from repro.hardware.roofline import RooflineModel
from repro.hardware.spec import DEPLOYMENT_PRESETS
from repro.model.pair import ModelPair
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
