"""Coupled draft/target model pair.

``ModelPair`` bundles the target :class:`StochasticLM` and its
:class:`DraftLM` speculator and exposes, as the models' own bound methods,
the two primitives every scheduler in this repository is written against:

- ``draft_children(ctx, w, center)``: the draft's top-w continuations with
  their conditional probabilities (what speculation drafts, per context);
- ``target_sample(ctx, center)``: the token the target emits at a context
  (what verification consumes).

It also provides convenience constructors for the model families used in
the paper's evaluation (Llama-3.1-70B + Llama-3.2-1B, Qwen2.5-32B +
Qwen2.5-0.5B), mapping each family to an alignment level: the Qwen draft is
smaller relative to its target, so we give it slightly lower alignment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.draft import DraftLM
from repro.model.stochastic_lm import StochasticLM, TokenDistribution
from repro.model.vocab import Vocabulary


@dataclass(frozen=True)
class PairPreset:
    """Named configuration for a draft/target pair."""

    name: str
    vocab_size: int
    alignment: float
    predictability: float


#: Presets mirroring Table 1's model families.  Alignment stands in for
#: draft quality (how well draft logits approximate target acceptance).
PAIR_PRESETS: dict[str, PairPreset] = {
    "llama70b-1b": PairPreset("llama70b-1b", 128_256, alignment=0.88, predictability=0.72),
    "qwen32b-05b": PairPreset("qwen32b-05b", 151_936, alignment=0.82, predictability=0.70),
    "toy": PairPreset("toy", 1_000, alignment=0.9, predictability=0.75),
}


class ModelPair:
    """A target model and the draft model speculating for it."""

    def __init__(self, target: StochasticLM, draft: DraftLM) -> None:
        if draft.target is not target:
            raise ValueError("draft must wrap the same target model")
        self.target = target
        self.draft = draft
        # The hottest delegations are the underlying bound methods
        # themselves: verification calls these once per sampled token,
        # and a delegating frame would be pure overhead.
        self.extend = target.extend
        self.draft_children = draft.top_w
        self.target_sample = target.sample

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_preset(cls, name: str, seed: int = 0, predictability: float | None = None) -> "ModelPair":
        """Build a pair from a named preset (see :data:`PAIR_PRESETS`)."""
        try:
            preset = PAIR_PRESETS[name]
        except KeyError:
            raise KeyError(
                f"unknown pair preset {name!r}; available: {sorted(PAIR_PRESETS)}"
            ) from None
        pred = preset.predictability if predictability is None else predictability
        target = StochasticLM(Vocabulary(preset.vocab_size), seed=seed, predictability=pred)
        return cls(target, DraftLM(target, alignment=preset.alignment))

    @classmethod
    def build(
        cls,
        vocab_size: int = 32_000,
        seed: int = 0,
        alignment: float = 0.85,
        predictability: float = 0.7,
        branching: int = 8,
    ) -> "ModelPair":
        """Build a pair from raw knobs."""
        target = StochasticLM(
            Vocabulary(vocab_size),
            seed=seed,
            branching=branching,
            predictability=predictability,
        )
        return cls(target, DraftLM(target, alignment=alignment))

    def context_of(self, tokens) -> int:
        """Context hash for a token sequence."""
        return self.target.context_of(tokens)

    def target_distribution(self, ctx: int, center: float | None = None) -> TokenDistribution:
        """Full (truncated) target distribution at ``ctx``."""
        return self.target.distribution(ctx, center)

    def accept_prob(self, ctx: int, token_id: int, center: float | None = None) -> float:
        """True conditional acceptance probability of ``token_id`` at ``ctx``.

        Over the ensemble of contexts, the target's sampled token matches
        ``token_id`` with exactly this probability, so it is the ground-truth
        counterpart of the draft's conditional estimate.
        """
        return self.target.distribution(ctx, center).prob_of(token_id)

    def clear_caches(self) -> None:
        """Drop both models' memoized distributions."""
        self.target.clear_cache()
        self.draft.clear_cache()
