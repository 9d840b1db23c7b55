"""Synthetic stand-ins for the paper's evaluation datasets.

The paper samples prompts from HumanEval (code completion), Alpaca
(instruction-following chat) and CNN/DailyMail (news summarization).  The
serving system only observes two things per request: prompt length and
output length (plus how guessable the text is, which lives on the
category).  Each synthetic dataset therefore models prompt/output lengths
with clipped lognormal distributions whose parameters approximate the
real corpora's token statistics:

- HumanEval: moderate prompts (problem + context), medium completions;
- Alpaca: short instructions, medium-length answers;
- CNN/DailyMail: long article prompts, short summaries — the long-prefill
  class whose interference the paper discusses in §6.2.

Sampling is deterministic per (dataset, seed, index); the draws are made
on numpy columns by :mod:`repro.workloads.batcharrivals`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LengthDistribution:
    """Clipped lognormal over integer token counts."""

    mean: float  # desired mean of the clipped distribution (approx.)
    sigma: float  # lognormal shape parameter (in log space)
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 1 or self.hi < self.lo:
            raise ValueError(f"invalid clip range: {self}")
        if self.mean <= 0 or self.sigma <= 0:
            raise ValueError(f"invalid lognormal params: {self}")


@dataclass(frozen=True)
class SyntheticDataset:
    """Prompt/output length model for one corpus."""

    name: str
    prompt: LengthDistribution
    output: LengthDistribution


DATASETS: dict[str, SyntheticDataset] = {
    "humaneval": SyntheticDataset(
        name="humaneval",
        prompt=LengthDistribution(mean=300.0, sigma=0.45, lo=100, hi=800),
        output=LengthDistribution(mean=130.0, sigma=0.50, lo=30, hi=300),
    ),
    "alpaca": SyntheticDataset(
        name="alpaca",
        prompt=LengthDistribution(mean=100.0, sigma=0.70, lo=20, hi=400),
        output=LengthDistribution(mean=220.0, sigma=0.55, lo=30, hi=500),
    ),
    "cnn_dailymail": SyntheticDataset(
        name="cnn_dailymail",
        prompt=LengthDistribution(mean=900.0, sigma=0.40, lo=300, hi=2500),
        output=LengthDistribution(mean=100.0, sigma=0.45, lo=30, hi=250),
    ),
    # A tiny dataset for fast tests and examples.
    "tiny": SyntheticDataset(
        name="tiny",
        prompt=LengthDistribution(mean=60.0, sigma=0.30, lo=10, hi=150),
        output=LengthDistribution(mean=24.0, sigma=0.30, lo=4, hi=60),
    ),
}
