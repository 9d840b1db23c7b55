"""Deterministic prefix identity for prefix matching.

The simulator never materializes text, but prefix caching needs *content
identity*: two prompts share cached KV exactly when they share leading
tokens.  Every request therefore describes its prompt as a sequence of
``(namespace, length)`` **segments**
(:attr:`~repro.serving.request.Request.prompt_segments`), each standing
for the first ``length`` tokens of its namespace's deterministic stream:

- a shared system prompt is one namespace common to every session of a
  workload, so even unrelated sessions reuse its KV;
- a session's conversation history is one namespace per session whose
  stream covers user turns *and* model answers — turn ``k+1``'s history
  is a strict prefix extension of turn ``k``'s prompt + output, which is
  what makes multi-turn reuse work.

Generated tokens extend the final segment (the model's answer continues
the conversation stream).  Since every segment starts its stream at
position 0, a prefix's content is fixed by its structure: the complete
segments it covers, then the namespace and depth of the segment it ends
in.  Block keys are derived from that structure alone, never from
per-token ids, yet equal keys still mean equal prefixes (up to 64-bit
collisions) — the contract of vLLM's hash-chained block table.  Requests
without segments own private content nothing can match; the engine and
schedulers skip them.
"""

from __future__ import annotations

import numpy as np

from repro._rng import mix
from repro.workloads.batcharrivals import _U64, _vmix

#: Root of every block-key chain.
_CHAIN_ROOT = 0x50464358  # "PFCX"


def request_block_keys(req, n_tokens: int, block_size: int) -> list[int]:
    """Keys of the *full* blocks covering the request's first ``n_tokens``.

    Key ``b`` identifies the prefix ``[0, P)`` with ``P = (b+1) *
    block_size``.  When ``P`` ends in segment ``i`` (starting at position
    ``offset_i``), the key is ``mix(mix(H_i, ns_i), P - offset_i)``, where
    ``H_i`` chains ``mix(mix(h, ns_j), len_j)`` over the earlier segments
    from :data:`_CHAIN_ROOT`.  A prefix ending exactly on a segment
    boundary belongs to the segment it completes, zero-length segments
    before the last contribute no tokens and are skipped, and the final
    segment extends without bound (generated tokens).  The trailing
    partial block has no key (only whole blocks are shareable).  Cost:
    at most two :func:`mix` calls per segment, plus one vector
    ``_vmix`` call keying all of a segment's blocks at once.
    """
    segments = req.prompt_segments
    last = len(segments) - 1
    keys: list[int] = []
    h = _CHAIN_ROOT
    offset = 0
    pos = block_size  # end of the next block to key
    for i, (namespace, length) in enumerate(segments):
        if pos > n_tokens:
            break
        if length == 0 and i != last:
            continue
        end = n_tokens if i == last else min(offset + length, n_tokens)
        head = mix(h, namespace)
        if pos <= end:
            ends = np.arange(pos - offset, end - offset + 1, block_size, dtype=np.uint64)
            keys += _vmix(_U64(head), ends).tolist()  # block ends within the segment
            pos = (end // block_size + 1) * block_size
        h = mix(head, length)
        offset += length
    return keys
