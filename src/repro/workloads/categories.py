"""Request categories and their SLOs (Table 2).

Three application classes drive the multi-SLO workload:

- **Category 1, coding copilot** — TPOT SLO of 1.2x the *baseline
  latency* (the model's decode latency at near-zero load), a stringent
  target aligned with MLPerf's interactive serving SLOs.  Since the
  baseline depends on the deployed model, the SLO is resolved against a
  roofline at workload-build time.
- **Category 2, chatbot** — 50 ms/token (slightly faster than fast human
  reading).
- **Category 3, summarization** — 150 ms/token (relaxed).

Each category also carries the synthetic-dataset name that supplies its
prompt/output length distributions and a *predictability* level standing
in for how guessable its text is (code >> news summaries), which drives
speculative acceptance rates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.registry import SpecError


@dataclass(frozen=True)
class Category:
    """One Table 2 row, with workload-relevant extras."""

    name: str
    app: str
    dataset: str
    predictability: float
    #: Absolute TPOT SLO in seconds, or None if baseline-relative.
    tpot_slo_s: float | None = None
    #: Multiplier over baseline decode latency (used when tpot_slo_s is None).
    baseline_multiplier: float | None = None

    def __post_init__(self) -> None:
        if (self.tpot_slo_s is None) == (self.baseline_multiplier is None):
            raise ValueError(
                f"category {self.name}: exactly one of tpot_slo_s / baseline_multiplier"
            )

    def resolve_slo(self, baseline_latency_s: float, scale: float = 1.0) -> float:
        """Concrete TPOT SLO in seconds for a given deployment.

        ``scale`` implements the Figure 11 sweep: it multiplies the SLO of
        baseline-relative (urgent) categories; absolute categories are
        left untouched.
        """
        if self.baseline_multiplier is not None:
            return self.baseline_multiplier * baseline_latency_s * scale
        assert self.tpot_slo_s is not None
        return self.tpot_slo_s

    @property
    def is_urgent(self) -> bool:
        """Whether this is the latency-stringent (baseline-relative) class."""
        return self.baseline_multiplier is not None


#: The paper's three categories (Table 2).
CODING = Category(
    name="coding",
    app="Coding copilot",
    dataset="humaneval",
    predictability=0.80,
    baseline_multiplier=1.2,
)
CHATBOT = Category(
    name="chatbot",
    app="Chatbot",
    dataset="alpaca",
    predictability=0.70,
    tpot_slo_s=0.050,
)
SUMMARIZATION = Category(
    name="summarization",
    app="Summarization",
    dataset="cnn_dailymail",
    predictability=0.62,
    tpot_slo_s=0.150,
)

CATEGORIES: dict[str, Category] = {
    c.name: c for c in (CODING, CHATBOT, SUMMARIZATION)
}

#: The paper's default application mix (60% cat-1 peak-load scenario, §6.2).
DEFAULT_MIX: dict[str, float] = {"coding": 0.6, "chatbot": 0.2, "summarization": 0.2}


def urgent_mix(urgent_fraction: float) -> dict[str, float]:
    """Figure 10 mix: ``urgent_fraction`` coding, remainder split evenly."""
    if not 0.0 <= urgent_fraction <= 1.0:  # NaN fails both comparisons
        raise SpecError(f"urgent_fraction must be in [0, 1], got {urgent_fraction!r}")
    rest = (1.0 - urgent_fraction) / 2.0
    return {"coding": urgent_fraction, "chatbot": rest, "summarization": rest}
