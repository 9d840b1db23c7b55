"""Shared fixtures: small, fast model pairs and serving setups."""

from __future__ import annotations

import heapq
import itertools
import json
import math
import os
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from unittest.mock import patch

import hypothesis.strategies as st
import pytest

from repro._rng import (
    _COMBINE,
    _GOLDEN,
    _INV_2_53,
    _MIX1,
    _MIX2,
    MASK64,
    derive_seed,
    fold_sum,
    hash_seed,
    mix,
    splitmix64,
    uniform,
)
from repro.core.selection import RequestSelection, SelectionResult
from repro.core.speculation import SpeculationResult
from repro.core.tree import TokenTree
from repro.hardware.roofline import RooflineModel
from repro.hardware.spec import DEPLOYMENT_PRESETS
from repro.model import batchgen
from repro.model.draft import DraftLM
from repro.model.pair import PAIR_PRESETS, ModelPair
from repro.model.stochastic_lm import StochasticLM
from repro.prefixcache.manager import PrefixStats
from repro.prefixcache.tokens import _CHAIN_ROOT
from repro.registry import TRACES
from repro.serving.engine import SimulatedEngine
from repro.serving.kv_cache import KVCacheManager, OutOfKVCache
from repro.serving.metrics import CategoryMetrics, RunMetrics
from repro.serving.request import Request
from repro.serving.scheduler_base import Scheduler
from repro.workloads.categories import DEFAULT_MIX, Category
from repro.workloads.datasets import DATASETS, LengthDistribution, SyntheticDataset
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.sessions import SessionGenerator

#: The ``src`` directory a fresh interpreter imports ``repro`` from.
SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(code: str):
    """Run ``code`` in a new interpreter and return the JSON it prints last.

    A fresh process starts with an empty ``sys.modules``, so what the
    code imports, and only that, is what it loads.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


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
    of the level kernel ``batchgen.draft_top``; ``draft`` counts entries
    the scalar ``DraftLM.distribution`` adds to its memo plus the
    kernel's rows that mix in noise (alignment below 1).  Memo hits
    count nothing.
    """
    counts: Counter = Counter()
    generate = StochasticLM._generate
    draft_top = batchgen.draft_top
    draft_distribution = DraftLM.distribution

    def counted_generate(self, ctx, center):
        counts["target"] += 1
        return generate(self, ctx, center)

    def counted_draft_top(call, C, centers, w):
        counts["target"] += len(C)
        if call.noisy:
            counts["draft"] += len(C)
        return draft_top(call, C, centers, w)

    def counted_draft_distribution(self, ctx, center=None):
        before = len(self._cache)
        dist = draft_distribution(self, ctx, center)
        counts["draft"] += len(self._cache) - before
        return dist

    monkeypatch.setattr(StochasticLM, "_generate", counted_generate)
    monkeypatch.setattr(batchgen, "draft_top", counted_draft_top)
    monkeypatch.setattr(DraftLM, "distribution", counted_draft_distribution)
    return counts


#: Every preset, a perfectly aligned draft (its top-w is the target row's
#: first w slots, which are not sorted by probability), and a vocabulary
#: so small that most rows' first token draws collide.
ORACLE_PAIRS = (*sorted(PAIR_PRESETS), "perfect", "tiny-vocab")

#: Per-request predictability centers, unset ones included.
CENTERS = st.one_of(st.none(), st.sampled_from([0.3, 0.62, 0.7, 0.8, 0.95]))


@cache
def oracle_pair(name: str) -> ModelPair:
    """The model pair an oracle test draws by name (see :data:`ORACLE_PAIRS`)."""
    if name == "perfect":
        return ModelPair.build(vocab_size=1000, seed=7, alignment=1.0)
    if name == "tiny-vocab":
        return ModelPair.build(vocab_size=24, seed=6)
    return ModelPair.from_preset(name, seed=11)


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


class TreeNode:
    """One node of a reference (object-per-node) draft token tree."""

    __slots__ = (
        "token_id",
        "ctx_hash",
        "draft_prob",
        "path_prob",
        "depth",
        "parent",
        "children",
        "selected",
    )

    def __init__(
        self,
        token_id: int,
        ctx_hash: int,
        draft_prob: float,
        path_prob: float,
        depth: int,
        parent: "TreeNode | None",
    ) -> None:
        self.token_id = token_id
        self.ctx_hash = ctx_hash
        self.draft_prob = draft_prob
        self.path_prob = path_prob
        self.depth = depth
        self.parent = parent
        self.children: list[TreeNode] = []
        self.selected = False

    @property
    def is_root(self) -> bool:
        return self.parent is None


class ObjectTree:
    """The object-per-node tree the reference builder and selection use.

    ``repro.core.tree.TokenTree`` stores the same nodes as columns;
    :func:`object_tree` converts one into the other.
    """

    def __init__(self, root_token: int, root_ctx: int) -> None:
        self.root = TreeNode(root_token, root_ctx, 1.0, 1.0, 0, None)
        self._nodes: list[TreeNode] = [self.root]

    def add_child(self, parent: TreeNode, token_id: int, ctx_hash: int, draft_prob: float) -> TreeNode:
        if not 0.0 <= draft_prob <= 1.0:
            raise ValueError(f"draft_prob out of range: {draft_prob}")
        node = TreeNode(
            token_id, ctx_hash, draft_prob, parent.path_prob * draft_prob, parent.depth + 1, parent
        )
        parent.children.append(node)
        self._nodes.append(node)
        return node

    def nodes(self, include_root: bool = True) -> list[TreeNode]:
        return list(self._nodes if include_root else self._nodes[1:])

    @property
    def size(self) -> int:
        return len(self._nodes)

    @property
    def num_speculated(self) -> int:
        return len(self._nodes) - 1

    @property
    def depth(self) -> int:
        return max(n.depth for n in self._nodes)

    def clear_selection(self) -> None:
        for n in self._nodes[1:]:
            n.selected = False

    def is_selection_connected(self) -> bool:
        return all(
            not n.selected or n.parent.is_root or n.parent.selected for n in self._nodes[1:]
        )

    def extract_selected(self) -> "ObjectTree":
        """Copy the selected subtree (plus root) into a standalone tree.

        Raises ``ValueError`` if the selection is not connected.
        """
        if not self.is_selection_connected():
            raise ValueError("selection is not connected; cannot extract a valid tree")
        out = ObjectTree(self.root.token_id, self.root.ctx_hash)
        mapping: dict[int, TreeNode] = {id(self.root): out.root}
        # insertion order guarantees parents precede children
        for node in self._nodes[1:]:
            if node.selected:
                mapping[id(node)] = out.add_child(
                    mapping[id(node.parent)], node.token_id, node.ctx_hash, node.draft_prob
                )
        return out


def object_tree(tree: TokenTree) -> ObjectTree:
    """The reference-object copy of an index tree (selection flags included)."""
    out = ObjectTree(tree.token[0], tree.ctx[0])
    nodes = [out.root]
    for i in range(1, tree.size):
        node = out.add_child(nodes[tree.parent[i]], tree.token[i], tree.ctx[i], tree.draft_prob[i])
        node.selected = tree.selected[i]
        nodes.append(node)
    return out


def assert_same_tree(tree: TokenTree, ref: ObjectTree) -> None:
    """Every column of ``tree`` equals the reference's nodes, exactly."""
    ref_nodes = ref.nodes()
    index = {id(node): i for i, node in enumerate(ref_nodes)}
    assert tree.size == len(ref_nodes)
    assert tree.token == [n.token_id for n in ref_nodes]
    assert tree.ctx == [n.ctx_hash for n in ref_nodes]
    assert tree.draft_prob == [n.draft_prob for n in ref_nodes]  # exact floats
    assert tree.path_prob == [n.path_prob for n in ref_nodes]
    assert tree.level == [n.depth for n in ref_nodes]
    assert tree.parent == [-1 if n.parent is None else index[id(n.parent)] for n in ref_nodes]
    assert tree.child_lists() == [[index[id(c)] for c in n.children] for n in ref_nodes]
    assert tree.selected[1:] == [n.selected for n in ref_nodes[1:]]


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
    Step ``L`` drafts every frontier node of level ``L - 1``.
    """
    if centers is None:
        centers = [None] * len(roots)
    trees = []
    step_tokens = [0] * depth if roots else []
    for (root_token, root_ctx), center in zip(roots, centers):
        tree = ObjectTree(root_token, root_ctx)
        frontier: list[TreeNode] = [tree.root]
        for level in range(depth):
            step_tokens[level] += len(frontier)
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
    return SpeculationResult(trees=trees, depth=depth, width=width, step_tokens=tuple(step_tokens))


class _Frontier:
    """Max-heap of selectable nodes for one reference tree."""

    __slots__ = ("_heap", "_counter")

    def __init__(self, root: TreeNode, counter: "itertools.count") -> None:
        self._heap: list[tuple[float, int, TreeNode]] = []
        self._counter = counter
        for child in root.children:
            heapq.heappush(self._heap, (-child.path_prob, next(counter), child))

    def peek_prob(self) -> float:
        return -self._heap[0][0] if self._heap else float("-inf")

    def pop(self) -> TreeNode | None:
        if not self._heap:
            return None
        _, _, node = heapq.heappop(self._heap)
        node.selected = True
        for child in node.children:
            heapq.heappush(self._heap, (-child.path_prob, next(self._counter), child))
        return node

    def __len__(self) -> int:
        return len(self._heap)


def reference_select_tokens(
    trees: list[ObjectTree],
    requirements: list[float],
    budget: int,
    n_max: int,
    depth: int | None = None,
) -> SelectionResult:
    """Algorithm 2 over node objects: the oracle for ``select_tokens``."""
    n = len(trees)
    counter = itertools.count()
    scanned = 0
    for tree in trees:
        tree.clear_selection()
    frontiers = [_Frontier(t.root, counter) for t in trees]
    selections = [
        RequestSelection(
            tree=t,
            requirement=req,
            capped_requirement=min(req, float((depth if depth is not None else t.depth) + 1)),
        )
        for t, req in zip(trees, requirements)
    ]
    remaining = budget - n

    order = sorted(range(n), key=lambda i: selections[i].requirement, reverse=True)
    for i in order:
        sel = selections[i]
        frontier = frontiers[i]
        while (
            sel.expected_accepted < sel.capped_requirement
            and sel.slo_tokens < n_max
            and remaining > 0
        ):
            node = frontier.pop()
            scanned += 1
            if node is None:
                break
            sel.expected_accepted += node.path_prob
            sel.slo_tokens += 1
            remaining -= 1
        sel.slo_satisfied = sel.expected_accepted >= sel.capped_requirement

    global_heap: list[tuple[float, int, int]] = [
        (-frontiers[i].peek_prob(), next(counter), i) for i in range(n) if len(frontiers[i]) > 0
    ]
    heapq.heapify(global_heap)
    while remaining > 0 and global_heap:
        neg_prob, _, i = heapq.heappop(global_heap)
        frontier = frontiers[i]
        live = frontier.peek_prob()
        if live == float("-inf"):
            continue
        if -neg_prob > live + 1e-18:
            heapq.heappush(global_heap, (-live, next(counter), i))
            continue
        node = frontier.pop()
        scanned += 1
        if node is None:
            continue
        sel = selections[i]
        sel.expected_accepted += node.path_prob
        sel.throughput_tokens += 1
        remaining -= 1
        if len(frontier) > 0:
            heapq.heappush(global_heap, (-frontier.peek_prob(), next(counter), i))

    return SelectionResult(
        selections=selections,
        budget=budget,
        budget_used=budget - remaining,
        candidates_scanned=scanned,
    )


def reference_verify_tree(
    pair: ModelPair, root: TreeNode, center: float | None = None
) -> tuple[list[TreeNode], int, int]:
    """Tree verification over node objects: the oracle for ``verify_tree``."""
    node = root
    accepted: list[TreeNode] = []
    while True:
        emitted = pair.target_sample(node.ctx_hash, center)
        nxt = None
        for child in node.children:
            if child.token_id == emitted:
                nxt = child
                break
        if nxt is None:
            return accepted, emitted, pair.extend(node.ctx_hash, emitted)
        accepted.append(nxt)
        node = nxt


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
    content, so the (stream, depth) identities of
    :func:`repro.prefixcache.tokens.request_block_keys` must be equal
    exactly when these keys are.
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


def block_identities(chain) -> list[tuple[int, int]]:
    """``(stream, depth)`` of every block of a ``request_block_keys`` chain."""
    out: list[tuple[int, int]] = []
    for stream, end in chain:
        out.extend((stream, depth) for depth in range(len(out), end))
    return out


def reference_block_keys(req, n_tokens: int, block_size: int) -> list[int]:
    """One key per full block: the chain the per-block oracle manager keys.

    Block ``b``'s key is ``mix(stream, P - offset)``: its stream key (see
    :func:`repro.prefixcache.tokens.request_block_keys`) mixed with the
    block's end ``P = (b+1) * block_size`` measured from the start of its
    segment.  A stream key fixes its segment's offset, so keys are equal
    exactly when (stream, depth) identities are.
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
            keys.extend([mix(head, p - offset) for p in range(pos, end + 1, block_size)])
            pos = (end // block_size + 1) * block_size
        h = mix(head, length)
        offset += length
    return keys


# ---------------------------------------------------------------------------
# Per-block prefix cache: the oracle for the run-granular PrefixCacheManager
# ---------------------------------------------------------------------------


@dataclass
class _RefBlock:
    """One shared (prefix-addressed) KV block of the reference manager."""

    parent: int | None  # key of the previous block in the chain
    refcount: int = 0  # live requests referencing this block
    children: int = 0  # resident blocks chained after this one
    touch: int = 0  # LRU stamp (monotonic tick at last use)


class ReferencePrefixCacheManager(KVCacheManager):
    """Per-block keys and refcounts, one ``_ref``/``_unref`` per block.

    The straightforward form of :class:`repro.prefixcache.manager.PrefixCacheManager`:
    the same public behaviour (return values, errors, ``prefix_stats``,
    occupancy, LRU leaf-first eviction order), with every shared block
    its own refcounted record addressed by its own key
    (:func:`reference_block_keys`) instead of runs addressed by stream.
    """

    prefix_caching = True

    def __init__(self, capacity_tokens: int, block_size: int = 16) -> None:
        super().__init__(capacity_tokens, block_size)
        self._shared: dict[int, _RefBlock] = {}
        self._refs: dict[int, list[int]] = {}  # rid -> chain of shared keys
        self._unreferenced = 0
        self._tick = 0
        self._evictable: list[tuple[int, int]] = []  # (touch, key) lazy heap
        self._miss_counted: set[int] = set()
        self._lookups = 0
        self._hits = 0
        self._hit_tokens = 0
        self._committed = 0
        self._evicted = 0

    @property
    def used_blocks(self) -> int:
        return self._used + len(self._shared)

    @property
    def free_blocks(self) -> int:
        return self.total_blocks - self._used - len(self._shared)

    def holds(self, rid: int) -> bool:
        return rid in self._allocated or rid in self._refs

    def prefix_stats(self) -> PrefixStats:
        return PrefixStats(
            lookups=self._lookups,
            hits=self._hits,
            hit_tokens=self._hit_tokens,
            committed_blocks=self._committed,
            evicted_blocks=self._evicted,
            cached_blocks=len(self._shared),
            unreferenced_blocks=self._unreferenced,
        )

    def lock_keys(self, rid: int, keys) -> int:
        held = self._refs.get(rid)
        if held:
            return len(held) * self.block_size
        chain: list[int] = []
        for key in keys:
            block = self._shared.get(key)
            if block is None:
                break
            self._ref(block)
            chain.append(key)
        if chain:
            self._refs[rid] = chain
            if rid not in self._miss_counted:
                self._lookups += 1
            self._miss_counted.discard(rid)
            self._hits += 1
            self._hit_tokens += len(chain) * self.block_size
        elif rid not in self._miss_counted:
            self._miss_counted.add(rid)
            self._lookups += 1
        return len(chain) * self.block_size

    def release_prefix(self, rid: int) -> int:
        chain = self._refs.pop(rid, [])
        self.covered.pop(rid, None)
        for key in reversed(chain):
            self._unref(key)
        if chain:
            self._hits -= 1
            self._hit_tokens -= len(chain) * self.block_size
            self._lookups -= 1
        return len(chain)

    def commit_keys(self, rid: int, keys) -> int:
        keys = list(keys)
        chain = self._refs.setdefault(rid, [])
        if keys[: len(chain)] != chain:
            raise ValueError(f"request {rid}: commit diverges from its locked prefix")
        added = 0
        for key in keys[len(chain) :]:
            block = self._shared.get(key)
            if block is None:
                parent = chain[-1] if chain else None
                block = _RefBlock(parent=parent, touch=self._tick)
                if parent is not None:
                    self._shared[parent].children += 1
                self._shared[key] = block
                self._unreferenced += 1  # transient; _ref below claims it
            self._ref(block)
            chain.append(key)
            if self._allocated.get(rid, 0) > 0:
                self._allocated[rid] -= 1
                self._used -= 1
            self._committed += 1
            added += 1
        return added

    def _ref(self, block: _RefBlock) -> None:
        if block.refcount == 0:
            self._unreferenced -= 1
        block.refcount += 1
        self._tick += 1
        block.touch = self._tick

    def _unref(self, key: int) -> None:
        block = self._shared[key]
        block.refcount -= 1
        if block.refcount == 0:
            self._unreferenced += 1
            self._tick += 1
            block.touch = self._tick
            heapq.heappush(self._evictable, (block.touch, key))

    def ensure(self, rid: int, tokens: int) -> None:
        refs = len(self._refs.get(rid, ()))
        target = self.blocks_for(tokens) - refs
        have = self._allocated.get(rid, 0)
        if target > have:
            need = target - have
            self._reclaim(need)
            if need > self.free_blocks:
                raise OutOfKVCache(
                    f"request {rid} needs {need} blocks, only {self.free_blocks} free"
                )
            self._allocated[rid] = have = target
            self._used += need
        if have or refs:
            self.covered[rid] = (have + refs) * self.block_size

    def free(self, rid: int) -> int:
        released = super().free(rid)
        chain = self._refs.pop(rid, [])
        for key in reversed(chain):
            self._unref(key)
        self._miss_counted.discard(rid)
        return released + len(chain)

    def invalidate_all(self) -> None:
        super().invalidate_all()
        self._shared.clear()
        self._refs.clear()
        self._unreferenced = 0
        self._evictable = []
        self._miss_counted.clear()

    def _reclaim(self, need: int) -> None:
        while self.free_blocks < need and self._evictable:
            touch, key = heapq.heappop(self._evictable)
            block = self._shared.get(key)
            if (
                block is None
                or block.touch != touch
                or block.refcount != 0
                or block.children != 0
            ):
                continue  # stale heap entry
            del self._shared[key]
            self._unreferenced -= 1
            self._evicted += 1
            if block.parent is not None:
                parent = self._shared[block.parent]
                parent.children -= 1
                if parent.refcount == 0 and parent.children == 0:
                    heapq.heappush(self._evictable, (parent.touch, block.parent))


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


# ---------------------------------------------------------------------------
# Scalar workload generation: the oracle for the columnar substrate
# ---------------------------------------------------------------------------
# One request (and one thinning candidate) at a time through repro._rng,
# exactly the recipe repro.workloads.batcharrivals evaluates on columns.


def reference_thin(rate, duration_s: float, rate_max: float, seed: int) -> list[float]:
    """Non-homogeneous Poisson arrivals on [0, duration) via thinning."""
    h = hash_seed(seed, 0x5452_4143)  # "TRAC"
    arrivals: list[float] = []
    t = 0.0
    i = 0
    while True:
        u1, u2 = uniforms(h, i, 2)
        i += 1
        t += -math.log(max(u1, 1e-12)) / rate_max
        if t >= duration_s:
            return arrivals
        if u2 * rate_max <= rate(t):
            arrivals.append(t)


def reference_bursty_trace(duration_s, target_rps, seed, burstiness=0.5, num_bursts=4):
    """Scalar :func:`repro.workloads.trace.bursty_trace`."""
    h = hash_seed(seed, 0x4255_5253)  # "BURS"
    burst_pos = [uniform(h, 10 + k) * duration_s for k in range(num_bursts)]
    burst_width = duration_s * 0.02

    def shape(t: float) -> float:
        base = 1.0
        base += burstiness * 0.6 * math.sin(2 * math.pi * t / (duration_s / 2.3))
        base += burstiness * 0.3 * math.sin(2 * math.pi * t / (duration_s / 7.1) + 1.0)
        for p in burst_pos:
            base += burstiness * 1.5 * math.exp(-0.5 * ((t - p) / burst_width) ** 2)
        return max(0.05, base)

    grid = [shape(duration_s * (k + 0.5) / 512) for k in range(512)]
    scale = target_rps / (fold_sum(grid) / 512)
    rate_max = scale * max(grid) * 1.05
    return reference_thin(lambda t: scale * shape(t), duration_s, rate_max, seed)


def reference_diurnal_trace(duration_s, target_rps, seed, peak_to_trough=4.0, cycles=1.0):
    """Scalar :func:`repro.workloads.trace.diurnal_trace`."""
    amplitude = (peak_to_trough - 1.0) / (peak_to_trough + 1.0)

    def rate(t: float) -> float:
        phase = 2 * math.pi * cycles * t / duration_s
        return target_rps * (1.0 + amplitude * math.sin(phase - math.pi / 2))

    return reference_thin(rate, duration_s, target_rps * (1.0 + amplitude), seed)


def reference_phased_trace(duration_s, categories, peak_rps, base_rps, seed):
    """Scalar :func:`repro.workloads.trace.phased_trace`."""
    width = duration_s / (len(categories) * 2.5)
    out = []
    for k, cat in enumerate(categories):
        centre = duration_s * (k + 0.5) / len(categories)

        def rate(t: float, c: float = centre) -> float:
            return base_rps + peak_rps * math.exp(-0.5 * ((t - c) / width) ** 2)

        arrivals = reference_thin(rate, duration_s, base_rps + peak_rps, hash_seed(seed, k))
        out.extend((t, cat) for t in arrivals)
    out.sort(key=lambda tc: tc[0])
    return out


def uniforms(h: int, salt: int, n: int) -> list[float]:
    """``n`` independent uniforms in [0, 1) derived from (hash, salt).

    The scalar reference for the vector draws (``repro._vrng``) and the
    noise loop inlined in ``DraftLM.distribution``.
    """
    base = splitmix64((h ^ (salt * _COMBINE)) & MASK64)
    out = []
    x = base
    for _ in range(n):
        x = (x + _GOLDEN) & MASK64
        y = ((x ^ (x >> 30)) * _MIX1) & MASK64
        y = ((y ^ (y >> 27)) * _MIX2) & MASK64
        y ^= y >> 31
        out.append((y >> 11) * _INV_2_53)
    return out


def reference_length(dist: LengthDistribution, h: int, salt: int) -> int:
    """One clipped-lognormal length of ``dist`` (Box-Muller)."""
    u1, u2 = uniforms(h, salt, 2)
    u1 = max(u1, 1e-12)
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    mu = math.log(dist.mean) - 0.5 * dist.sigma**2
    value = int(round(math.exp(mu + dist.sigma * z)))
    return max(dist.lo, min(dist.hi, value))


def reference_lengths(dataset: SyntheticDataset, seed: int, index: int) -> tuple[int, int]:
    """(prompt_len, output_len) of ``dataset``'s ``index``-th draw."""
    name_tag = 0
    for ch in dataset.name:
        name_tag = (name_tag * 131 + ord(ch)) & ((1 << 32) - 1)
    h = hash_seed(seed, name_tag, index)
    return reference_length(dataset.prompt, h, 1), reference_length(dataset.output, h, 2)


def reference_category(gen: WorkloadGenerator, mix: dict[str, float], draw: int) -> Category:
    """The category ``mix`` assigns to ``draw`` (a rid or a session seed)."""
    u = uniform(hash_seed(gen.seed, 0x434154, draw), 0)  # "CAT"
    total = fold_sum(mix.values())
    acc = 0.0
    for name in sorted(mix):
        acc += mix[name] / total
        if u < acc:
            return gen.categories[name]
    return gen.categories[max(mix)]


def _reference_request(gen, rid, arrival, category, prompt_len, output_len, **session) -> Request:
    return Request(
        rid=rid,
        category=category.name,
        arrival_time=arrival,
        prompt_len=prompt_len,
        max_new_tokens=output_len,
        tpot_slo=category.resolve_slo(gen.roofline.baseline_decode_latency, gen.slo_scale),
        predictability=category.predictability,
        priority=0 if category.is_urgent else 1,
        **session,
    )


def reference_from_arrivals(gen: WorkloadGenerator, arrivals, mix=None) -> list[Request]:
    """Scalar :meth:`WorkloadGenerator.from_arrivals`."""
    mix = mix or DEFAULT_MIX
    out = []
    for rid, t in enumerate(sorted(arrivals)):
        category = reference_category(gen, mix, rid)
        lengths = reference_lengths(gen.datasets[category.dataset], gen.seed, rid)
        out.append(_reference_request(gen, rid, t, category, *lengths))
    return out


def reference_phased(gen: WorkloadGenerator, duration_s, peak_rps, base_rps=0.3) -> list[Request]:
    """Scalar :meth:`WorkloadGenerator.phased` (default category order)."""
    order = ["chatbot", "coding", "summarization"]
    out = []
    pairs = reference_phased_trace(duration_s, order, peak_rps, base_rps, gen.seed)
    for rid, (t, name) in enumerate(pairs):
        category = gen.categories[name]
        lengths = reference_lengths(gen.datasets[category.dataset], gen.seed, rid)
        out.append(_reference_request(gen, rid, t, category, *lengths))
    return out


def reference_sessions(sgen: SessionGenerator, duration_s, rps, mix=None) -> list[Request]:
    """Scalar :meth:`SessionGenerator.generate`: one session, one turn at a time."""
    gen = sgen.base
    seed = gen.seed
    mix = mix or DEFAULT_MIX
    baseline = gen.roofline.baseline_decode_latency
    sys_namespace = hash_seed(seed, 0x535953)  # "SYS": one stream for all
    starts = reference_thin(
        lambda t: rps / sgen.turns, duration_s, rps / sgen.turns,
        derive_seed(seed, "session-starts"),
    )
    protos: list[tuple[float, int, int, Request]] = []
    for s, start in enumerate(starts):
        category = reference_category(gen, mix, derive_seed(seed, "session-category", s))
        dataset = gen.datasets[category.dataset]
        sess_namespace = hash_seed(seed, 0x53455353, s)  # "SESS"
        arrival = start
        history = 0  # session-stream tokens accumulated before this turn
        for k in range(sgen.turns):
            if arrival >= duration_s:
                break
            sampled_prompt, output_len = reference_lengths(
                dataset, seed, derive_seed(seed, "turn", s, k)
            )
            # Follow-up user messages: a quarter of the draw, at least 4 tokens.
            user_tokens = sampled_prompt if k == 0 else max(4, sampled_prompt // 4)
            segments = ((sess_namespace, history + user_tokens),)
            if sgen.system_prompt > 0:
                segments = ((sys_namespace, sgen.system_prompt), *segments)
            req = _reference_request(
                gen, 0, arrival, category, sgen.system_prompt + history + user_tokens,
                output_len, session_id=s, turn_index=k, prompt_segments=segments,
            )
            protos.append((arrival, s, k, req))
            history += user_tokens + output_len
            gap = uniform(hash_seed(seed, 0x47415021, s), k)  # "GAP!"
            arrival += output_len * baseline - math.log(max(gap, 1e-12)) * sgen.think_time_s
    protos.sort(key=lambda item: item[:3])
    for rid, (*_, req) in enumerate(protos):
        req.rid = rid
    return [req for *_, req in protos]


def reference_trace(spec: str, gen: WorkloadGenerator, duration_s, rps, mix=None) -> list[Request]:
    """Scalar build of the registered trace ``spec`` (``TRACES.create``'s oracle)."""
    resolved = TRACES.resolve(spec)
    params = resolved.kwargs()
    kind = resolved.component.name
    if kind in ("sessions", "agentic"):
        sgen = SessionGenerator(
            gen, turns=params["turns"], system_prompt=params["system_prompt"],
            think_time_s=params["think_time"],
        )
        return reference_sessions(sgen, duration_s, rps, mix)
    if kind == "phased":
        return reference_phased(gen, duration_s, rps, params["base_rps"])
    if kind == "bursty":
        arrivals = reference_bursty_trace(duration_s, rps, gen.seed, params["burstiness"])
    elif kind == "diurnal":
        arrivals = reference_diurnal_trace(duration_s, rps, gen.seed, params["peak_to_trough"])
    else:
        assert kind == "steady", kind
        arrivals = reference_thin(lambda t: rps, duration_s, rps, gen.seed)
    return reference_from_arrivals(gen, arrivals, mix)


# ---------------------------------------------------------------------------
# Eager plain decode: the oracle for the lazy decode cohort
# ---------------------------------------------------------------------------


def eager_decode(engine, requests, now, context_tokens=None) -> float:
    """Plain decode committing every request's token as it is produced.

    The per-request loop :meth:`SimulatedEngine.decode` ran before token
    counts moved into :class:`repro.serving.cohort.DecodeCohort`.
    """
    if not requests:
        raise ValueError("empty decode batch")
    context = sum(r.kv_tokens for r in requests) if context_tokens is None else context_tokens
    latency = engine.target_roofline.forward_latency(len(requests), context)
    latency += engine.step_overhead_s
    if engine.slow_factor != 1.0:
        latency *= engine.slow_factor
    end = now + latency
    for req in requests:
        req.commit_tokens(1, req.ctx, end)
    engine.phase_times.decode_s += latency
    return latency


def eager_mixed_step(engine, decode_requests, prefill_chunks, now, decode_context_tokens=None):
    """Sarathi's co-batched step with eager decode commits (see :func:`eager_decode`)."""
    if not decode_requests and not prefill_chunks:
        raise ValueError("empty mixed step")
    decode_tokens = len(decode_requests)
    chunk_tokens = sum(t for _, t in prefill_chunks)
    context = (
        sum(r.kv_tokens for r in decode_requests)
        if decode_context_tokens is None
        else decode_context_tokens
    )
    context += sum(req.prefilled + t // 2 for req, t in prefill_chunks)
    latency = engine.target_roofline.forward_latency(decode_tokens + chunk_tokens, context)
    latency += engine.step_overhead_s
    if engine.slow_factor != 1.0:
        latency *= engine.slow_factor
    end = now + latency
    for req in decode_requests:
        req.commit_tokens(1, req.ctx, end)
    for req, tokens in prefill_chunks:
        req.advance_prefill(tokens)
        if req.remaining_prompt == 0:
            req.begin_decode(engine.root_ctx(req), end)
            engine._commit_prefix(req, req.prompt_len)
    obs = engine.obs
    if obs is not None:
        for req, tokens in prefill_chunks:
            obs.prefill(now, latency, req, tokens)
    total = decode_tokens + chunk_tokens
    engine.phase_times.decode_s += latency * (decode_tokens / total)
    engine.phase_times.prefill_s += latency * (chunk_tokens / total)
    return latency


def eager_ensure_kv_for_decode(scheduler, batch, extra_tokens=1):
    """Decode KV admission walking the whole batch every step.

    Each request whose need exceeds ``kv.covered`` calls ``kv.ensure``
    in batch order; on pressure the newest arrival among the survivors
    (the needy request only as a last resort) is preempted with its KV
    dropped and re-queued.  Leaves the survivors' summed KV residency in
    ``scheduler._last_decode_context``.
    """
    kv = scheduler.engine.kv
    covered = kv.covered
    survivors = list(batch)
    evicted: set[int] = set()
    context_tokens = 0
    contributions: dict[int, int] = {}
    victim_order = None
    for req in batch:
        rid = req.rid
        if rid in evicted:
            continue
        tokens = req.kv_tokens
        need = tokens + extra_tokens
        while need > covered.get(rid, 0):
            try:
                kv.ensure(rid, need)
                break
            except OutOfKVCache:
                if victim_order is None:
                    victim_order = sorted(survivors, key=lambda r: r.arrival_time, reverse=True)
                while victim_order and victim_order[0].rid in evicted:
                    victim_order.pop(0)
                victim = victim_order[0] if victim_order else None
                if victim is req:
                    victim = next((r for r in victim_order[1:] if r.rid not in evicted), req)
                if victim is None:
                    evicted.add(rid)
                    scheduler._remove_by_identity(survivors, req)
                    break
                scheduler.engine.preempt(victim, drop_kv=True)
                evicted.add(victim.rid)
                scheduler._remove_by_identity(survivors, victim)
                scheduler._remove_by_identity(scheduler.running, victim)
                scheduler.waiting.appendleft(victim)
                context_tokens -= contributions.pop(victim.rid, 0)
                if victim is req:
                    break
        if rid in evicted:
            continue
        contributions[rid] = tokens
        context_tokens += tokens
    scheduler._last_decode_context = context_tokens
    return survivors


@contextmanager
def eager_plain_decode():
    """Run plain-decode schedulers with eager per-request commits.

    Swaps the lazy cohort path for the oracle above: admission walks the
    batch, and decode commits each token as it is produced.  The
    schedulers' cohorts then stay empty, so their materialization calls
    do nothing.
    """
    with (
        patch.object(
            Scheduler,
            "_admit_plain_decode",
            lambda self, batch: eager_ensure_kv_for_decode(self, batch),
        ),
        patch.object(
            SimulatedEngine,
            "decode",
            lambda self, requests, now, _cohort: eager_decode(self, requests, now),
        ),
        patch.object(
            SimulatedEngine,
            "mixed_step",
            lambda self, decode, chunks, now, _cohort: eager_mixed_step(self, decode, chunks, now),
        ),
    ):
        yield


# ---------------------------------------------------------------------------
# Metrics oracle: per-category sample lists, sorted and read by rank
# ---------------------------------------------------------------------------


def reference_nearest_rank(values, q: float) -> float:
    """The smallest of ``values`` whose rank is at least ``ceil(q/100 * n)`` (and 1)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def reference_metrics(requests) -> RunMetrics:
    """:func:`repro.serving.metrics.aggregate_metrics`, from whole sample lists."""
    reqs = list(requests)
    if not reqs:
        return RunMetrics(0, 0, 0, 0, 0, 0.0, 0.0)
    finished = [r for r in reqs if r.is_finished]
    first = min(r.arrival_time for r in reqs)
    last = max((r.finish_time for r in finished if r.finish_time is not None), default=first)
    verify = sum(r.verify_steps for r in reqs)
    hits = [r for r in reqs if r.cached_prompt_tokens > 0]
    disrupted = [r for r in reqs if r.failover_count > 0]
    per_cat = {}
    for cat in sorted({r.category for r in reqs}):
        members = [r for r in reqs if r.category == cat]
        fin = [r for r in members if r.is_finished]
        tpots, ttfts = [r.avg_tpot for r in fin], [r.ttft for r in fin]
        stats = dict(mean_tpot_s=None, p99_tpot_s=None)
        if fin:
            stats = dict(
                mean_tpot_s=fold_sum(tpots) / len(fin),
                p99_tpot_s=reference_nearest_rank(tpots, 99.0),
                mean_ttft_s=fold_sum(ttfts) / len(fin),
                p99_ttft_s=reference_nearest_rank(ttfts, 99.0),
                p50_tpot_s=reference_nearest_rank(tpots, 50.0),
                p50_ttft_s=reference_nearest_rank(ttfts, 50.0),
            )
        per_cat[cat] = CategoryMetrics(
            cat, len(members), sum(1 for r in fin if r.attained), **stats
        )
    attained = [r for r in finished if r.attained]
    return RunMetrics(
        num_requests=len(reqs),
        num_finished=len(finished),
        num_attained=len(attained),
        total_tokens=sum(r.n_generated for r in reqs),
        attained_tokens=sum(r.n_generated for r in attained),
        span_s=max(1e-9, last - first),
        mean_accepted_per_verify=(
            sum(r.accepted_draft_tokens for r in reqs) / verify if verify else 0.0
        ),
        per_category=per_cat,
        mean_ttft_s=fold_sum(r.ttft for r in finished) / len(finished) if finished else None,
        prefix_hit_requests=len(hits),
        prefill_tokens_saved=sum(r.cached_prompt_tokens for r in hits),
        requests_disrupted=len(disrupted),
        requests_lost=sum(1 for r in disrupted if not r.is_finished),
    )
