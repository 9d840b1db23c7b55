"""Multi-turn session workloads (chat, agents, RAG over a shared prompt).

Production LLM traffic is dominated by *conversations*, not independent
cold prompts: each turn's prompt is the shared system prompt plus the
full history so far plus a fresh user message, so successive turns repeat
an ever-growing prefix that a prefix-sharing KV cache can serve without
recomputation (see :mod:`repro.prefixcache`).

:class:`SessionGenerator` synthesizes that structure deterministically:

- **sessions start** as a Poisson process at ``rps / turns`` so the
  request-level arrival rate averages ``rps``, comparable with the other
  trace kinds;
- each session draws a **category** from the mix once (a conversation
  stays in one application class) and its per-turn user-message/answer
  lengths from the category's dataset;
- turn ``k+1`` **arrives** after turn ``k``'s estimated service time
  (output length x the deployment's baseline decode latency) plus an
  exponential think-time gap — an open-loop approximation of a user
  reading the answer before replying;
- prompts are composed of ``(namespace, length)`` **segments**, from
  which :mod:`repro.prefixcache.tokens` derives prefix block keys: one
  global system-prompt namespace shared by *every* session, plus a
  per-session conversation namespace covering user turns and model
  answers, so turn ``k+1``'s prompt is a strict prefix extension of turn
  ``k``'s prompt + output and its leading block keys equal turn ``k``'s.

Two trace kinds are registered: ``sessions`` (chat-shaped: a few turns,
human think time) and ``agentic`` (agent-loop-shaped: many short turns
over a large system prompt with near-zero gaps).  Both are sweepable via
``--grid trace.<param>=...`` like any registered component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro._rng import derive_seed, hash_seed, uniform
from repro.registry import TRACES, Param
from repro.serving.request import Request
from repro.workloads import batcharrivals
from repro.workloads.categories import DEFAULT_MIX
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.trace import uniform_trace

#: Follow-up user messages are much shorter than the opening prompt.
_FOLLOWUP_DIVISOR = 4
_MIN_USER_TOKENS = 4


@dataclass
class SessionGenerator:
    """Emit multi-turn conversations as a flat, arrival-sorted request list.

    Parameters
    ----------
    base:
        The single-shot :class:`WorkloadGenerator` supplying categories,
        datasets, SLO resolution, and the workload seed.
    turns:
        Turns per session (requests per conversation).
    system_prompt:
        Tokens of system prompt shared by every session (0 disables the
        cross-session shared stream).
    think_time_s:
        Mean of the exponential think-time gap between a turn's estimated
        completion and the next turn's arrival.
    """

    base: WorkloadGenerator
    turns: int = 6
    system_prompt: int = 256
    think_time_s: float = 4.0

    def __post_init__(self) -> None:
        if self.turns < 1:
            raise ValueError("turns must be >= 1")
        if self.system_prompt < 0:
            raise ValueError("system_prompt must be >= 0")
        if self.think_time_s < 0:
            raise ValueError("think_time_s must be >= 0")

    # ------------------------------------------------------------------
    def generate(
        self, duration_s: float, rps: float, mix: dict[str, float] | None = None
    ) -> list[Request]:
        """Session requests over ``[0, duration_s)`` averaging ``rps``.

        Turns whose arrival falls beyond the window are dropped (the
        trace is a fixed observation window; late sessions are cut
        short), so the realized rate is slightly below ``rps``.
        """
        if duration_s <= 0 or rps <= 0:
            raise ValueError("duration and rps must be positive")
        mix = mix or DEFAULT_MIX
        unknown = set(mix) - set(self.base.categories)
        if unknown:
            raise KeyError(f"unknown categories in mix: {sorted(unknown)}")
        seed = self.base.seed
        baseline = self.base.roofline.baseline_decode_latency
        sys_namespace = hash_seed(seed, 0x535953)  # "SYS": one stream for all
        starts = uniform_trace(
            duration_s, rps / self.turns, seed=derive_seed(seed, "session-starts")
        )
        if batcharrivals.enabled(len(starts) * self.turns):
            return self.columnar(duration_s, rps, mix, _starts=starts).materialize()

        names, cdf = self.base._category_cdf(mix)
        protos: list[tuple[float, int, int, Request]] = []
        for s, start in enumerate(starts):
            category = self.base._sample_category_cdf(
                names, cdf, derive_seed(seed, "session-category", s)
            )
            dataset = self.base.datasets[category.dataset]
            sess_namespace = hash_seed(seed, 0x53455353, s)  # "SESS"
            arrival = start
            history = 0  # session-stream tokens accumulated before this turn
            for k in range(self.turns):
                if arrival >= duration_s:
                    break
                sampled_prompt, output_len = dataset.sample(
                    seed, derive_seed(seed, "turn", s, k)
                )
                user_tokens = (
                    sampled_prompt
                    if k == 0
                    else max(_MIN_USER_TOKENS, sampled_prompt // _FOLLOWUP_DIVISOR)
                )
                segments = ((sess_namespace, history + user_tokens),)
                if self.system_prompt > 0:
                    segments = ((sys_namespace, self.system_prompt), *segments)
                req = Request(
                    rid=0,  # assigned after the global arrival sort
                    category=category.name,
                    arrival_time=arrival,
                    prompt_len=self.system_prompt + history + user_tokens,
                    max_new_tokens=output_len,
                    tpot_slo=category.resolve_slo(baseline, self.base.slo_scale),
                    predictability=category.predictability,
                    priority=0 if category.is_urgent else 1,
                    session_id=s,
                    turn_index=k,
                    prompt_segments=segments,
                )
                protos.append((arrival, s, k, req))
                # The answer joins the conversation stream; the next turn
                # arrives once it has (approximately) been generated and
                # the user has thought about it.
                history += user_tokens + output_len
                gap = uniform(hash_seed(seed, 0x47415021, s), k)  # "GAP!"
                arrival += output_len * baseline - math.log(
                    max(gap, 1e-12)
                ) * self.think_time_s

        protos.sort(key=lambda item: (item[0], item[1], item[2]))
        requests = []
        for rid, (_, _, _, req) in enumerate(protos):
            req.rid = rid
            requests.append(req)
        return requests

    def columnar(
        self,
        duration_s: float,
        rps: float,
        mix: dict[str, float] | None = None,
        _starts: list[float] | None = None,
    ) -> "batcharrivals.ColumnarWorkload":
        """The session workload as numpy columns (population scale).

        Same requests as :meth:`generate` — ``columnar(...).materialize()``
        is bit-identical — but holds ~60 bytes per request instead of a
        ``Request`` object and materializes any row slice on demand; built
        by the batch substrate (:mod:`repro.workloads.batcharrivals`).
        """
        if duration_s <= 0 or rps <= 0:
            raise ValueError("duration and rps must be positive")
        mix = mix or DEFAULT_MIX
        unknown = set(mix) - set(self.base.categories)
        if unknown:
            raise KeyError(f"unknown categories in mix: {sorted(unknown)}")
        starts = _starts if _starts is not None else uniform_trace(
            duration_s, rps / self.turns,
            seed=derive_seed(self.base.seed, "session-starts"),
        )
        return batcharrivals.columnar_sessions(self, duration_s, starts, mix)


# ----------------------------------------------------------------------
# Trace registration (the spec grammar makes every knob sweepable).

_SESSION_PARAMS = dict(
    turns=lambda default: Param(
        "turns", "int", default=default, minimum=1,
        help="turns (requests) per session",
    ),
    system_prompt=lambda default: Param(
        "system_prompt", "int", default=default, minimum=0,
        help="system-prompt tokens shared by every session (0 disables)",
    ),
    think_time=lambda default: Param(
        "think_time", "float", default=default, minimum=0.0,
        help="mean think-time gap between turns, seconds",
    ),
)


def _session_trace(gen, duration_s, rps, mix, turns, system_prompt, think_time):
    return SessionGenerator(
        gen, turns=turns, system_prompt=system_prompt, think_time_s=think_time
    ).generate(duration_s, rps, mix)


@TRACES.register(
    "sessions",
    params=[
        _SESSION_PARAMS["turns"](6),
        _SESSION_PARAMS["system_prompt"](256),
        _SESSION_PARAMS["think_time"](4.0),
    ],
    summary="multi-turn chat sessions with a growing shared prefix",
)
def _sessions(gen, duration_s, rps, mix=None, turns=6, system_prompt=256, think_time=4.0):
    return _session_trace(gen, duration_s, rps, mix, turns, system_prompt, think_time)


@TRACES.register(
    "agentic",
    params=[
        _SESSION_PARAMS["turns"](10),
        _SESSION_PARAMS["system_prompt"](512),
        _SESSION_PARAMS["think_time"](0.5),
    ],
    summary="agent loops: many short turns over a large shared system prompt",
)
def _agentic(gen, duration_s, rps, mix=None, turns=10, system_prompt=512, think_time=0.5):
    return _session_trace(gen, duration_s, rps, mix, turns, system_prompt, think_time)
