"""Pluggable request routing across fleet replicas.

A router sees each arrival once, at its admission boundary, together with
the replicas that are currently routable (warm, not draining), and picks
the one that receives the request.  All policies are deterministic given
the fleet seed — the power-of-two-choices sampler draws its candidates
from :mod:`repro._rng` keyed on (seed, request id), never from global
randomness — so a fixed-seed cluster run is byte-reproducible.

Policies
--------
- ``round-robin``: cycle through routable replicas in index order.
- ``least-loaded``: send to the replica with the fewest queued tokens
  (outstanding prompt + output work), ties to the lowest index.
- ``p2c``: power-of-two-choices — sample two distinct replicas from the
  seeded hash stream, keep the less loaded.  The classic load-balancing
  result: almost all of least-loaded's benefit at O(1) inspection cost.
- ``affinity``: SLO/category affinity — reserve a slice of the fleet for
  urgent (baseline-relative SLO) categories so their stringent TPOT
  targets are not queued behind relaxed bulk traffic; both partitions
  route least-loaded internally.  The reservation is sized adaptively to
  the urgent share of routed token load (or pinned via
  ``reserved_fraction``), so isolation does not starve either class.
- ``prefix-affinity``: session stickiness — follow-up turns of a
  conversation go to the replica that already holds the session's prefix
  KV (falling back to least-loaded when it is not routable), making the
  fleet-wide prefix hit rate a routing objective.  Requests without a
  session route least-loaded.
"""

from __future__ import annotations

import abc
import math
from collections.abc import Sequence

from repro._rng import hash_seed, randint
from repro.cluster.replica import Replica
from repro.registry import ROUTERS, Param
from repro.serving.request import Request



class Router(abc.ABC):
    """Routing policy: one replica choice per arriving request."""

    #: Registry key and display name.
    name: str = "base"

    @abc.abstractmethod
    def route(self, req: Request, replicas: Sequence[Replica]) -> Replica:
        """Pick the replica that receives ``req``.

        ``replicas`` is the non-empty, index-ordered routable subset of
        the fleet at the admission instant.
        """

    def forget_replica(self, index: int) -> None:
        """Drop any sticky state referring to replica ``index``.

        Called by the fleet when a replica crashes (see
        :mod:`repro.chaos`): its caches are gone, so affinity toward it
        is stale.  Stateless policies need no reaction.
        """


def _least_loaded(replicas: Sequence[Replica]) -> Replica:
    """Fewest queued tokens, ties broken by lowest index."""
    return min(replicas, key=lambda r: (r.queued_tokens, r.index))


@ROUTERS.register("round-robin", summary="cycle through routable replicas in index order")
class RoundRobinRouter(Router):
    """Cycle through routable replicas in index order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._sent = 0

    def route(self, req: Request, replicas: Sequence[Replica]) -> Replica:
        choice = replicas[self._sent % len(replicas)]
        self._sent += 1
        return choice


@ROUTERS.register("least-loaded", summary="fewest queued tokens wins, ties to lowest index")
class LeastLoadedRouter(Router):
    """Send each request to the replica with the fewest queued tokens."""

    name = "least-loaded"

    def route(self, req: Request, replicas: Sequence[Replica]) -> Replica:
        return _least_loaded(replicas)


@ROUTERS.register("p2c", summary="power-of-two-choices: sample two replicas, keep the less loaded")
class PowerOfTwoRouter(Router):
    """Sample two distinct replicas (seeded); keep the less loaded."""

    name = "p2c"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def route(self, req: Request, replicas: Sequence[Replica]) -> Replica:
        n = len(replicas)
        if n == 1:
            return replicas[0]
        h = hash_seed(self.seed, 0x5032_4348, req.rid)  # "P2CH"
        first = randint(h, 0, 0, n)
        second = (first + 1 + randint(h, 1, 0, n - 1)) % n
        return _least_loaded([replicas[first], replicas[second]])


@ROUTERS.register(
    "affinity",
    params=[
        Param(
            "reserve", "float", default=None, dest="reserved_fraction", allow_auto=True,
            minimum=0.0, maximum=1.0, exclusive_min=True, exclusive_max=True,
            help="fraction of the fleet reserved for urgent categories "
            "(auto: sized adaptively from the urgent token share)",
        ),
    ],
    summary="reserve a headroom-sized slice of the fleet for urgent categories",
)
class AffinityRouter(Router):
    """Pin urgent categories to a reserved slice of the fleet.

    The first ``k`` routable replicas (by index) serve urgent requests
    (priority 0, mirroring ``Category.is_urgent`` through the workload
    generator) and the remaining ``n - k`` serve everything else, with
    least-loaded routing inside each partition.

    ``k`` is sized from the observed urgent share of routed token load
    (prompt + output tokens) times :data:`URGENT_HEADROOM`.  The headroom
    is the point of the policy: urgent SLOs are *latency* targets (1.2x
    the zero-load baseline), so urgent replicas must run at low batch
    occupancy, not merely at a fair share of the tokens — reserving only
    the proportional slice recreates the very contention the reservation
    is meant to remove.  A fixed ``reserved_fraction`` pins ``k``
    instead; a single-replica fleet serves everything.
    """

    name = "affinity"

    #: Over-provisioning factor for the urgent partition.
    URGENT_HEADROOM = 1.5

    def __init__(self, reserved_fraction: float | None = None) -> None:
        if reserved_fraction is not None and not 0.0 < reserved_fraction < 1.0:
            raise ValueError(
                f"reserved_fraction must be in (0, 1), got {reserved_fraction}"
            )
        self.reserved_fraction = reserved_fraction
        self._urgent_tokens = 0
        self._total_tokens = 0

    def _num_reserved(self, n: int) -> int:
        if self.reserved_fraction is not None:
            fraction = self.reserved_fraction
        else:
            share = (
                self._urgent_tokens / self._total_tokens
                if self._total_tokens > 0
                else 0.5
            )
            fraction = min(0.9, self.URGENT_HEADROOM * share)
        # Round up: headroom means erring toward a larger urgent slice.
        return min(n - 1, max(1, math.ceil(fraction * n)))

    def route(self, req: Request, replicas: Sequence[Replica]) -> Replica:
        urgent = req.priority == 0
        tokens = req.prompt_len + req.max_new_tokens
        self._total_tokens += tokens
        if urgent:
            self._urgent_tokens += tokens
        n = len(replicas)
        if n == 1:
            return replicas[0]
        k = self._num_reserved(n)
        pool = replicas[:k] if urgent else replicas[k:]
        return _least_loaded(pool)


@ROUTERS.register(
    "prefix-affinity",
    summary="pin a session's turns to the replica holding its prefix KV",
)
class PrefixAffinityRouter(Router):
    """Route follow-up turns to the replica that cached the session's prefix.

    The first turn of a session (and every sessionless request) routes
    least-loaded; the chosen replica becomes the session's *home*, and
    later turns return there so the conversation's KV is reused instead
    of re-prefilled.  A home that stops being routable (draining,
    retired, still warming) falls back to least-loaded and the session
    is re-homed — its prefix must be recomputed wherever it lands, which
    is exactly the migration cost real sticky routing pays.
    """

    name = "prefix-affinity"

    def __init__(self) -> None:
        self._home: dict[int, int] = {}  # session id -> replica index

    def route(self, req: Request, replicas: Sequence[Replica]) -> Replica:
        sid = req.session_id
        if sid is not None:
            home = self._home.get(sid)
            if home is not None:
                for replica in replicas:
                    if replica.index == home:
                        return replica
        choice = _least_loaded(replicas)
        if sid is not None:
            self._home[sid] = choice.index
        return choice

    def forget_replica(self, index: int) -> None:
        """Un-home every session pinned to a crashed replica.

        Their prefix KV died with it; the next turn routes least-loaded
        and re-homes wherever it lands (re-prefilling from scratch),
        rather than returning to a replica that restarts cold.
        """
        self._home = {sid: home for sid, home in self._home.items() if home != index}


def make_router(name: str, seed: int = 0, **kwargs) -> Router:
    """Instantiate a routing policy from a spec string.

    Accepts any :data:`~repro.registry.ROUTERS` spec (``p2c``,
    ``affinity:reserve=0.4``, ...); ``seed`` is passed to policies whose
    constructor takes one and silently dropped otherwise.
    """
    return ROUTERS.create(name, seed=seed, **kwargs)
