"""Columnar (vectorized) workload generation: the one workload-generation path.

Each request of a workload comes from a handful of splitmix64 chains plus
lognormal length draws.  This module evaluates those chains for *every*
request at once with ``numpy`` uint64/float64 columns; every trace, at
every size (0 and 1 requests included), and every session workload is
built here.

**Bit-identity with the scalar recipe is the contract.**  Every vector
statement maps 1:1 onto a statement of the per-request recipe (one
:mod:`repro._rng` chain at a time, kept as the test oracle in
``tests/conftest.py``):

- uint64 adds/multiplies wrap modulo 2**64 exactly like the masked
  Python-int arithmetic of :mod:`repro._rng`;
- float64 arithmetic (``+ - * /``, ``sqrt``) is IEEE-754
  correctly-rounded elementwise, so array expressions written in the
  scalar evaluation order produce the same doubles;
- running sums use ``cumsum`` (sequential, left-associated by
  definition), never ``np.sum`` (whose pairwise summation would differ);
- **transcendentals are NOT trusted to numpy**: ``np.log`` / ``np.exp``
  (and, on some builds, ``np.sin`` / ``np.cos`` and ``x ** 2``) use
  SIMD kernels with a few-ULP error bound, which is *not* bit-identical
  to libm's ``math.log`` / ``math.exp``.  Every transcendental (and
  ``** 2``) therefore routes through an exact elementwise kernel that
  calls the same ``math.*`` / ``float.__pow__`` the scalar recipe
  calls (~130 ns/element);
- stable ``lexsort`` matches ``list.sort`` with the same key tuple.

``tests/test_batcharrivals.py`` pins byte-identity with the oracle for
every trace kind at 0-200 requests, custom mixes and the tiny dataset;
the golden digests pin the shipped output itself.

The columnar form is also the *memory* story: :class:`ColumnarWorkload`
holds one float64/int64 column per field (~60 B/request instead of a
~700 B ``Request`` object) and materializes any row slice on demand,
so a million-session trace need never exist as one object list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro._rng import MASK64, _GOLDEN, _INV_2_53, hash_seed, mix, salted
from repro._vrng import _C, _G, _S11, _U64, _fin3
from repro.serving.request import Request, RequestState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.generator import WorkloadGenerator
    from repro.workloads.sessions import SessionGenerator

_G2 = _U64((2 * _GOLDEN) & MASK64)
_S1 = _U64(1)


# ----------------------------------------------------------------------
# Vector RNG primitives (bit-identical to repro._rng)
# ----------------------------------------------------------------------
def _splitmix(x):
    """Vector splitmix64 finalizer (matches ``repro._rng.splitmix64``)."""
    return _fin3(x + _G)


def _vmix(h, v):
    """Vector ``repro._rng.mix`` over broadcastable uint64 operands."""
    return _splitmix(h ^ (v * _C))


def _uniform2_cols(h, salt_mask):
    """Vector ``uniforms(h, salt, 2)`` (tests/conftest.py): the two chained finalizations."""
    base = _splitmix(h ^ salt_mask)
    u1 = (_fin3(base + _G) >> _S11) * _INV_2_53
    u2 = (_fin3(base + _G2) >> _S11) * _INV_2_53
    return u1, u2


def _derive_prefix(base_seed: int, *parts) -> int:
    """The internal fold of ``derive_seed`` *before* the final ``>> 1``.

    Lets per-entity derivations (``derive_seed(seed, label, s)``) hoist
    the label fold out of the loop: the remaining per-entity step is one
    ``mix`` plus a shift, which vectorizes.
    """
    h = hash_seed(int(base_seed) & MASK64)
    for part in parts:
        if isinstance(part, int):
            h = mix(h, part & MASK64)
        else:
            for byte in str(part).encode("utf-8"):
                h = mix(h, byte)
    return h


# ----------------------------------------------------------------------
# Exact elementwise kernels (scalar libm through an array interface)
# ----------------------------------------------------------------------
def _exact_unary(fn, a):
    flat = a.ravel()
    out = np.fromiter(map(fn, flat.tolist()), dtype=np.float64, count=flat.size)
    return out.reshape(a.shape)


def vlog(a):
    """Elementwise ``math.log`` (libm, bit-exact)."""
    return _exact_unary(math.log, a)


def vexp(a):
    """Elementwise ``math.exp`` (libm, bit-exact)."""
    return _exact_unary(math.exp, a)


def vsin(a):
    """Elementwise ``math.sin`` (libm, bit-exact)."""
    return _exact_unary(math.sin, a)


def vcos(a):
    """Elementwise ``math.cos`` (libm, bit-exact)."""
    return _exact_unary(math.cos, a)


def vpow2(a):
    """Elementwise ``x ** 2`` via ``float.__pow__``.

    Python's ``x ** 2`` routes through libm ``pow``, which is not
    guaranteed to equal ``x * x`` (and measurably differs from numpy's
    ``**`` on some builds), so squaring in rate shapes calls the exact
    operation a scalar ``x ** 2`` runs.
    """
    return _exact_unary(lambda x: x**2, a)


def vmaximum(a, b):
    """Elementwise ``max`` (IEEE-exact; exposed for rate-shape closures)."""
    return np.maximum(a, b)


def vfull(like, value: float):
    """A constant rate column shaped like ``like`` (constant-rate traces)."""
    return np.full(like.shape, value)


# ----------------------------------------------------------------------
# Non-homogeneous Poisson thinning
# ----------------------------------------------------------------------
def thin_poisson(rate_vec, duration_s: float, rate_max: float, seed: int) -> list[float]:
    """Non-homogeneous Poisson arrivals on ``[0, duration_s)`` via thinning.

    ``rate_vec`` maps a float64 array of candidate times to the arrival
    rate at each, evaluated with the exact scalar operation sequence.
    Candidate ``i``'s inter-arrival gap and acceptance draw come from the
    ``uniforms(h, i, 2)`` chain; gaps are accumulated with ``cumsum``
    (sequential, so the running time matches a scalar ``t += gap``
    left-associated float chain).  If the
    candidate block doesn't reach ``duration_s`` it is **regenerated from
    index 0** at double size — continuing an old block would re-associate
    the partial sums.
    """
    h = hash_seed(seed, 0x5452_4143)  # "TRAC"
    est = rate_max * duration_s
    n = int(est + 10.0 * math.sqrt(est + 1.0)) + 64
    with np.errstate(over="ignore"):
        while True:
            idx = np.arange(n, dtype=np.uint64)
            base = _splitmix(_U64(h) ^ (idx * _C))
            u1 = (_fin3(base + _G) >> _S11) * _INV_2_53
            u2 = (_fin3(base + _G2) >> _S11) * _INV_2_53
            u1 = np.maximum(u1, 1e-12)
            t = np.cumsum(-vlog(u1) / rate_max)
            if t[-1] >= duration_s:
                break
            n *= 2
    stop = int(np.argmax(t >= duration_s))  # the first candidate past the window
    t = t[:stop]
    u2 = u2[:stop]
    accept = (u2 * rate_max) <= rate_vec(t)
    return t[accept].tolist()


# ----------------------------------------------------------------------
# Columnar workload container + lazy materialization
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CategoryMeta:
    """Per-category constants resolved once per workload."""

    name: str
    tpot_slo: float
    predictability: float
    priority: int
    dataset: str


@dataclass
class ColumnarWorkload:
    """A workload as per-request numpy columns, materialized on demand.

    Row ``i`` is request ``rid == i`` (rows are already in the final
    emission order).  ``materialize(lo, hi)`` produces the ``Request``
    objects of rows ``[lo, hi)``; callers materialize before simulating,
    in slices when they must not hold every object at once.
    """

    arrival: object  # float64[n]
    category_idx: object  # int64[n] into ``categories``
    prompt_len: object  # int64[n]
    output_len: object  # int64[n]
    categories: tuple[CategoryMeta, ...]
    # Session structure (None for one-shot workloads):
    session_id: object | None = None  # int64[n]
    turn_index: object | None = None  # int64[n]
    seg_namespace: object | None = None  # uint64[n] per-session stream
    seg_tokens: object | None = None  # int64[n] session-stream tokens
    sys_namespace: int | None = None  # shared system-prompt stream
    system_prompt: int = 0

    def __len__(self) -> int:
        return int(self.arrival.shape[0])

    @property
    def nbytes(self) -> int:
        """Resident bytes of the column store (the O(n) footprint)."""
        total = 0
        for col in (
            self.arrival,
            self.category_idx,
            self.prompt_len,
            self.output_len,
            self.session_id,
            self.turn_index,
            self.seg_namespace,
            self.seg_tokens,
        ):
            if col is not None:
                total += int(col.nbytes)
        return total

    def materialize(self, lo: int = 0, hi: int | None = None) -> list[Request]:
        """Construct the ``Request`` objects for rows ``[lo, hi)``.

        Bypasses dataclass ``__init__`` exactly like
        :meth:`Request.fresh_copy` — the columns were produced by the
        validated construction recipe, so per-object re-validation would
        only burn the batch win — and, like it, sets every slot.  Session
        prompts share one system-prompt segment tuple per call.
        """
        hi = len(self) if hi is None else min(hi, len(self))
        if lo >= hi:
            return []
        arrival = self.arrival[lo:hi].tolist()
        cat_idx = self.category_idx[lo:hi].tolist()
        prompt = self.prompt_len[lo:hi].tolist()
        output = self.output_len[lo:hi].tolist()
        cats = self.categories
        sessions = self.session_id[lo:hi].tolist() if self.session_id is not None else None
        turns = self.turn_index[lo:hi].tolist() if self.turn_index is not None else None
        seg_ns = self.seg_namespace[lo:hi].tolist() if self.seg_namespace is not None else None
        seg_tok = self.seg_tokens[lo:hi].tolist() if self.seg_tokens is not None else None
        # One shared (namespace, tokens) segment for every session prompt.
        if self.sys_namespace is not None and self.system_prompt > 0:
            sys_seg = (self.sys_namespace, self.system_prompt)
        else:
            sys_seg = None
        queued = RequestState.QUEUED
        new = Request.__new__
        out: list[Request] = []
        for i in range(hi - lo):
            cat = cats[cat_idx[i]]
            req = new(Request)
            req.rid = lo + i
            req.category = cat.name
            req.arrival_time = arrival[i]
            req.prompt_len = prompt[i]
            req.max_new_tokens = output[i]
            req.tpot_slo = cat.tpot_slo
            req.predictability = cat.predictability
            req.priority = cat.priority
            if sessions is None:
                req.session_id = None
                req.turn_index = 0
                req.prompt_segments = None
            else:
                req.session_id = sessions[i]
                req.turn_index = turns[i]
                session_seg = (seg_ns[i], seg_tok[i])
                if sys_seg is not None:
                    req.prompt_segments = (sys_seg, session_seg)
                else:
                    req.prompt_segments = (session_seg,)
            req.state = queued
            req.prefilled = 0
            req.ctx = 0
            req.n_generated = 0
            req.decode_start = None
            req.first_token_time = None
            req.last_token_time = None
            req.finish_time = None
            req.preempt_count = 0
            req.failover_count = 0
            req.cached_prompt_tokens = 0
            req.verify_steps = 0
            req.accepted_draft_tokens = 0
            req.on_finish = None
            out.append(req)
        return out


# ----------------------------------------------------------------------
# Category / length columns
# ----------------------------------------------------------------------
def _category_meta(gen: "WorkloadGenerator", names: list[str]) -> tuple[CategoryMeta, ...]:
    out = []
    for name in names:
        cat = gen.categories[name]
        out.append(
            CategoryMeta(
                name=cat.name,
                tpot_slo=cat.resolve_slo(gen._baseline, gen.slo_scale),
                predictability=cat.predictability,
                priority=0 if cat.is_urgent else 1,
                dataset=cat.dataset,
            )
        )
    return tuple(out)


def _dataset_name_tag(name: str) -> int:
    """A dataset name's stable 32-bit hash (``str.__hash__`` is salted per process)."""
    name_tag = 0
    for ch in name:
        name_tag = (name_tag * 131 + ord(ch)) & ((1 << 32) - 1)
    return name_tag


def _sample_lengths(H, salt: int, dist) -> object:
    """Lengths drawn from ``dist`` for per-row hashes ``H``.

    A clipped lognormal via Box-Muller on ``uniforms(h, salt, 2)``, with
    ``mu`` chosen so that the unclipped mean is ``dist.mean``.
    """
    u1, u2 = _uniform2_cols(H, _U64(salted(salt)))
    u1 = np.maximum(u1, 1e-12)
    z = np.sqrt(-2.0 * vlog(u1)) * vcos((2.0 * math.pi) * u2)
    mu = math.log(dist.mean) - 0.5 * dist.sigma**2
    value = np.rint(vexp(mu + dist.sigma * z)).astype(np.int64)
    return np.clip(value, dist.lo, dist.hi)


def _length_columns(gen: "WorkloadGenerator", cats: tuple[CategoryMeta, ...], cat_idx, indices):
    """(prompt_len, output_len) columns for dataset draws at ``indices``.

    ``indices`` is the per-row dataset sample index (the ``rid`` for
    one-shot traces, ``derive_seed(seed, "turn", s, k)`` for
    sessions), grouped by dataset so each group shares one hash prefix.
    """
    n = indices.shape[0]
    prompt = np.empty(n, dtype=np.int64)
    output = np.empty(n, dtype=np.int64)
    # Dataset index per row, via the category -> dataset mapping.
    ds_names = sorted({c.dataset for c in cats})
    ds_of_cat = np.array([ds_names.index(c.dataset) for c in cats], dtype=np.int64)
    row_ds = ds_of_cat[cat_idx]
    for di, ds_name in enumerate(ds_names):
        rows = np.nonzero(row_ds == di)[0]
        if rows.size == 0:
            continue
        dataset = gen.datasets[ds_name]
        # Lengths hash the *dataset's own* name (tests remap every
        # registry key to one tiny dataset), not the registry key.
        prefix = _U64(hash_seed(gen.seed, _dataset_name_tag(dataset.name)))
        H = _vmix(prefix, indices[rows])
        prompt[rows] = _sample_lengths(H, 1, dataset.prompt)
        output[rows] = _sample_lengths(H, 2, dataset.output)
    return prompt, output


def _category_column(gen: "WorkloadGenerator", mix: dict[str, float], draws):
    """One category draw per row against ``mix``'s CDF.

    Row ``i`` draws ``uniform(hash_seed(seed, "CAT", draws[i]), 0)``:
    ``draws`` is the rid for one-shot traces and the derived per-session
    seed for sessions.  Returns ``(names, cat_idx)``.
    """
    names, cdf = gen._category_cdf(mix)
    prefix = _U64(hash_seed(gen.seed, 0x434154))  # "CAT"
    u = (_splitmix(_vmix(prefix, draws)) >> _S11) * _INV_2_53
    cdf_arr = np.array(cdf, dtype=np.float64)
    idx = np.searchsorted(cdf_arr, u, side="right")
    return names, np.minimum(idx, len(names) - 1).astype(np.int64)


def columnar_from_arrivals(
    gen: "WorkloadGenerator", arrivals, mix: dict[str, float]
) -> ColumnarWorkload:
    """The columns of ``WorkloadGenerator.from_arrivals``.

    ``arrivals`` must already be ascending (the caller's contract after
    its monotonicity scan).
    """
    arrival = np.asarray(arrivals, dtype=np.float64)
    n = arrival.shape[0]
    rids = np.arange(n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        names, cat_idx = _category_column(gen, mix, rids)
        cats = _category_meta(gen, names)
        prompt, output = _length_columns(gen, cats, cat_idx, rids)
    return ColumnarWorkload(
        arrival=arrival,
        category_idx=cat_idx,
        prompt_len=prompt,
        output_len=output,
        categories=cats,
    )


def columnar_phased(
    gen: "WorkloadGenerator", pairs: list[tuple[float, str]], order: tuple[str, ...]
) -> ColumnarWorkload:
    """The columns of ``WorkloadGenerator.phased``.

    ``pairs`` is the trace's (arrival, category) list; categories are
    given by the trace rather than drawn from a mix.
    """
    names = list(order)
    cats = _category_meta(gen, names)
    pos = {name: i for i, name in enumerate(names)}
    arrival = np.fromiter(
        (t for t, _ in pairs), dtype=np.float64, count=len(pairs)
    )
    cat_idx = np.fromiter(
        (pos[cat] for _, cat in pairs), dtype=np.int64, count=len(pairs)
    )
    rids = np.arange(len(pairs), dtype=np.uint64)
    with np.errstate(over="ignore"):
        prompt, output = _length_columns(gen, cats, cat_idx, rids)
    return ColumnarWorkload(
        arrival=arrival,
        category_idx=cat_idx,
        prompt_len=prompt,
        output_len=output,
        categories=cats,
    )


# ----------------------------------------------------------------------
# Session grids
# ----------------------------------------------------------------------
def columnar_sessions(
    sgen: "SessionGenerator",
    duration_s: float,
    starts: list[float],
    mix: dict[str, float],
) -> ColumnarWorkload:
    """The columns of ``SessionGenerator.generate``.

    ``starts`` is the session-start Poisson trace.  Every per-session and
    per-turn draw is evaluated on an S x K grid with the per-entity
    derivations of :mod:`repro._rng`; a session ends at its first turn
    past the window, and the final (arrival, session, turn) sort is a
    stable ``lexsort``.
    """
    from repro.workloads.sessions import _FOLLOWUP_DIVISOR, _MIN_USER_TOKENS

    gen = sgen.base
    seed = gen.seed
    turns = sgen.turns
    baseline = gen.roofline.baseline_decode_latency
    S = len(starts)
    start_col = np.asarray(starts, dtype=np.float64)
    s_arr = np.arange(S, dtype=np.uint64)
    k_arr = np.arange(turns, dtype=np.uint64)

    with np.errstate(over="ignore"):
        # Per-session category, drawn at derive_seed(seed,
        # "session-category", s).
        cat_prefix = _U64(_derive_prefix(seed, "session-category"))
        d_cat = _vmix(cat_prefix, s_arr) >> _S1
        names, cat_idx = _category_column(gen, mix, d_cat)
        cats = _category_meta(gen, names)

        # Per-session conversation stream: hash_seed(seed, 0x53455353, s).
        sess_ns = _vmix(_U64(hash_seed(seed, 0x53455353)), s_arr)  # "SESS"

        # Per-turn dataset sample index: derive_seed(seed, "turn", s, k).
        turn_prefix = _U64(_derive_prefix(seed, "turn"))
        d_turn = _vmix(_vmix(turn_prefix, s_arr)[:, None], k_arr[None, :]) >> _S1

        # Length draws on the S x K grid, grouped by dataset.
        prompt_grid, output_grid = _length_columns(
            gen,
            cats,
            np.repeat(cat_idx, turns),
            d_turn.ravel(),
        )
        prompt_grid = prompt_grid.reshape(S, turns)
        output_grid = output_grid.reshape(S, turns)

        # Follow-up user turns are shorter than the opening prompt.
        user_grid = np.where(
            k_arr[None, :] == _U64(0),
            prompt_grid,
            np.maximum(_MIN_USER_TOKENS, prompt_grid // _FOLLOWUP_DIVISOR),
        )

        # Session-stream history before each turn (ints, exact).
        contrib = user_grid + output_grid
        history = np.zeros((S, turns), dtype=np.int64)
        if turns > 1:
            history[:, 1:] = np.cumsum(contrib[:, :-1], axis=1)

        # Think-time gaps: uniform(hash_seed(seed, 0x47415021, s), k).
        gap_h = _vmix(_U64(hash_seed(seed, 0x47415021)), s_arr)  # "GAP!"
        gap = (_splitmix(gap_h[:, None] ^ (k_arr * _C)[None, :]) >> _S11) * _INV_2_53

        # Arrival chain per session: arrival_{k+1} = arrival_k +
        # output_k * baseline - log(max(gap_k, 1e-12)) * think_time.
        inc = output_grid * baseline - vlog(np.maximum(gap, 1e-12)) * sgen.think_time_s
        chain = np.empty((S, turns), dtype=np.float64)
        chain[:, 0] = start_col
        if turns > 1:
            chain[:, 1:] = inc[:, :-1]
        arrival_grid = np.cumsum(chain, axis=1)

        # A session ends at its first arrival >= duration.
        keep = np.logical_and.accumulate(arrival_grid < duration_s, axis=1)

    row_s, row_k = np.nonzero(keep)
    arrival = arrival_grid[keep]
    order = np.lexsort((row_k, row_s, arrival))
    seg_tokens = (history + user_grid)[keep][order]
    return ColumnarWorkload(
        arrival=arrival[order],
        category_idx=cat_idx[row_s][order],
        prompt_len=sgen.system_prompt + seg_tokens,
        output_len=output_grid[keep][order],
        categories=cats,
        session_id=row_s[order].astype(np.int64),
        turn_index=row_k[order].astype(np.int64),
        seg_namespace=sess_ns[row_s][order],
        seg_tokens=seg_tokens,
        sys_namespace=(
            hash_seed(seed, 0x535953) if sgen.system_prompt > 0 else None  # "SYS"
        ),
        system_prompt=sgen.system_prompt,
    )
