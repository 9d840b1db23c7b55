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
in.  So a full block is identified by **(stream, depth)**: the *stream
key* hash-chains the segment structure up to and including the
namespace of the segment the block ends in, and the depth is the
block's index in the request's chain.  A stream key fixes everything
before its segment, so equal (stream, depth) pairs mean equal prefixes
(up to 64-bit collisions) — the contract of vLLM's hash-chained block
table, without a key per block.  Requests without segments own private
content nothing can match; the engine and schedulers skip them.
"""

from __future__ import annotations

from repro._rng import mix

#: Root of every stream-key chain.
_CHAIN_ROOT = 0x50464358  # "PFCX"


def request_block_keys(req, n_tokens: int, block_size: int) -> list[tuple[int, int]]:
    """The chain of *full* blocks covering the request's first ``n_tokens``.

    Returns ``(stream, end)`` pairs in chain order: blocks ``[previous
    end, end)`` are keyed in ``stream``, and the last ``end`` is
    ``n_tokens // block_size``.  Block ``b`` covers the prefix ``[0,
    P)`` with ``P = (b+1) * block_size``; when ``P`` ends in segment
    ``i``, its stream is ``mix(H_i, ns_i)``, where ``H_i`` chains
    ``mix(mix(h, ns_j), len_j)`` over the earlier segments from
    :data:`_CHAIN_ROOT`.  A prefix ending exactly on a segment boundary
    belongs to the segment it completes, zero-length segments before the
    last contribute no tokens and are skipped, and the final segment
    extends without bound (generated tokens).  Segments holding no
    block end get no pair, and the trailing partial block no key (only
    whole blocks are shareable).  Cost: at most two :func:`mix` calls
    per segment, whatever the block count.
    """
    segments = req.prompt_segments
    last = len(segments) - 1
    chain: list[tuple[int, int]] = []
    full = n_tokens // block_size
    depth = 0  # blocks keyed so far
    h = _CHAIN_ROOT
    offset = 0
    for i, (namespace, length) in enumerate(segments):
        if depth == full:
            break
        if length == 0 and i != last:
            continue
        head = mix(h, namespace)
        end = full if i == last else min(offset + length, n_tokens) // block_size
        if end > depth:
            chain.append((head, end))
            depth = end
        h = mix(head, length)
        offset += length
    return chain
