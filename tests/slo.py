"""SLO accounting: the TPOT constraint of §3, as an oracle.

For a request r in the current decoding iteration the paper defines

    A(r) = (l + t_spec) / t_TPOT - o

where l is the elapsed time since the request's first decoding step,
t_spec the (predicted) latency of the current iteration, t_TPOT the
request's per-token SLO, and o the tokens decoded so far.  A(r) is the
minimum number of tokens that must be accepted this iteration for the
request's *average* per-token latency to remain within its SLO after the
iteration.  Because at most d+1 tokens can be produced per iteration
(d accepted draft tokens on the deepest path plus the correction token),
the attainable target is capped at A_cap = min(A, d+1) (§4.3, step 2).

:class:`~repro.core.scheduler.AdaServeScheduler` computes A(r) through
``Request.requirement`` at its SLO margin and A_cap as the demand clamp
in ``step``; ``tests/test_slo.py`` pins both against these formulas.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SLOClass:
    """A named TPOT service level (one Table 2 row)."""

    name: str
    tpot_s: float

    def __post_init__(self) -> None:
        if self.tpot_s <= 0:
            raise ValueError(f"TPOT SLO must be positive: {self}")


def min_accept_requirement(
    elapsed_decode_s: float,
    tokens_decoded: int,
    iteration_latency_s: float,
    tpot_slo_s: float,
) -> float:
    """A(r): minimum accepted tokens needed in this iteration.

    Parameters
    ----------
    elapsed_decode_s:
        l — time since the request's first decoding step began.
    tokens_decoded:
        o — output tokens committed so far.
    iteration_latency_s:
        t_spec — predicted latency of the iteration being planned.
    tpot_slo_s:
        t_TPOT — the request's per-token SLO.

    Returns the (possibly negative) requirement; negative or zero means the
    request is ahead of its SLO and needs nothing this iteration.
    """
    if tpot_slo_s <= 0:
        raise ValueError("tpot_slo_s must be positive")
    if iteration_latency_s < 0 or elapsed_decode_s < 0:
        raise ValueError("latencies must be non-negative")
    return (elapsed_decode_s + iteration_latency_s) / tpot_slo_s - tokens_decoded


def capped_requirement(requirement: float, depth: int) -> float:
    """A_cap(r) = min(A(r), d + 1): attainable progress this iteration."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    return min(requirement, float(depth + 1))


def is_on_track(
    elapsed_decode_s: float,
    tokens_decoded: int,
    tpot_slo_s: float,
) -> bool:
    """Whether the request's running average TPOT currently meets its SLO."""
    if tokens_decoded <= 0:
        return True
    return elapsed_decode_s / tokens_decoded <= tpot_slo_s


def average_tpot(decode_duration_s: float, tokens_decoded: int) -> float:
    """Average per-token latency over a request's decode phase."""
    if tokens_decoded <= 0:
        return float("inf")
    return decode_duration_s / tokens_decoded
