"""Decentralized (P2P) replica discovery — the road not taken in the paper.

"Rather than relying on a completely decentralized Peer-to-Peer (P2P)
architecture, we initially use a centralized group of allocation servers
to manage the CDN, to enable more efficient discovery of replicas"
(Section V-B). This module implements the decentralized alternative so the
trade-off can be measured: each researcher's client keeps a *local* index
of what it hosts plus gossip-learned entries about its social neighbors'
holdings, and lookups flood the social graph with a TTL.

The comparison the paper implies (and
``benchmarks/test_bench_p2p.py`` measures): centralized discovery always
finds a servable replica in one catalog query; TTL-bounded social flooding
trades lookup success and message cost against the removed central
dependency.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..errors import ConfigurationError
from ..ids import AuthorId, SegmentId
from ..obs import Registry
from ..social.graph import CoauthorshipGraph
from .allocation import AllocationServer


@dataclass(frozen=True, slots=True)
class LookupResult:
    """Outcome of one decentralized lookup.

    Attributes
    ----------
    found:
        Whether a holder was located within the TTL.
    holder:
        The located holder's author id (None on failure).
    hops:
        Social distance at which the holder was found (0 = requester
        itself).
    messages:
        Query messages sent (the flooding cost).
    """

    found: bool
    holder: Optional[AuthorId]
    hops: int
    messages: int


class GossipIndex:
    """A researcher's local view: own holdings + gossip about neighbors.

    ``gossip_rounds`` controls how far holding announcements spread: with
    1 round each node knows its direct neighbors' holdings (the DOSN
    "social cache" model); with 0 only its own.
    """

    def __init__(
        self,
        graph: CoauthorshipGraph,
        *,
        gossip_rounds: int = 1,
        registry: Optional[Registry] = None,
    ) -> None:
        if gossip_rounds < 0:
            raise ConfigurationError("gossip_rounds must be >= 0")
        self.graph = graph
        self.gossip_rounds = gossip_rounds
        self._m_stale = (registry if registry is not None else Registry()).counter(
            "p2p.lookup.stale",
            help="stale gossip entries hit (and purged) during consults",
        )
        #: per author: the set of segments they are known (to whom?) to hold —
        #: keyed (observer, holder) -> segments
        self._known: Dict[AuthorId, Dict[AuthorId, Set[SegmentId]]] = {}
        self._holdings: Dict[AuthorId, Set[SegmentId]] = {}

    def announce(self, holder: AuthorId, segment_id: SegmentId) -> int:
        """Record that ``holder`` hosts ``segment_id`` and gossip it
        ``gossip_rounds`` hops out. Returns the number of peers informed."""
        if holder not in self.graph:
            raise ConfigurationError(f"unknown holder {holder!r}")
        self._holdings.setdefault(holder, set()).add(segment_id)
        informed = 0
        frontier = {holder}
        seen = {holder}
        for _ in range(self.gossip_rounds):
            nxt: Set[AuthorId] = set()
            for node in frontier:
                for peer in self.graph.neighbors(node):
                    if peer in seen:
                        continue
                    self._known.setdefault(peer, {}).setdefault(holder, set()).add(
                        segment_id
                    )
                    informed += 1
                    nxt.add(peer)
            seen |= nxt
            frontier = nxt
        return informed

    def retract(self, holder: AuthorId, segment_id: SegmentId) -> None:
        """Remove a holding (e.g. after migration); gossip entries go stale
        and are corrected lazily on failed consults — like real gossip."""
        self._holdings.get(holder, set()).discard(segment_id)

    def holds(self, author: AuthorId, segment_id: SegmentId) -> bool:
        """Ground truth: does ``author`` hold the segment right now?"""
        return segment_id in self._holdings.get(author, ())

    def known_holders(self, observer: AuthorId, segment_id: SegmentId) -> List[AuthorId]:
        """Holders ``observer`` knows about (own holdings + gossip).

        A gossip entry naming a holder that no longer holds the segment
        is *stale*: it is purged here so later consults stop paying for
        it, and counted on ``p2p.lookup.stale``.
        """
        out = []
        if self.holds(observer, segment_id):
            out.append(observer)
        gossip = self._known.get(observer)
        if gossip:
            stale: List[AuthorId] = []
            for holder, segs in gossip.items():
                if segment_id not in segs:
                    continue
                if self.holds(holder, segment_id):
                    out.append(holder)
                else:
                    segs.discard(segment_id)
                    self._m_stale.inc()
                    if not segs:
                        stale.append(holder)
            for holder in stale:
                del gossip[holder]
        return out

    def lookup(
        self,
        requester: AuthorId,
        segment_id: SegmentId,
        *,
        ttl: int = 3,
    ) -> LookupResult:
        """TTL-bounded social flood: ask neighbors, who consult their local
        indexes, forwarding until the TTL expires.

        Each queried peer costs one message. The search stops at the first
        peer whose index knows a live holder.
        """
        if requester not in self.graph:
            raise ConfigurationError(f"unknown requester {requester!r}")
        if ttl < 0:
            raise ConfigurationError("ttl must be >= 0")
        # hop 0: own index
        own = self.known_holders(requester, segment_id)
        if own:
            holder = own[0]
            return LookupResult(
                found=True,
                holder=holder,
                hops=0 if holder == requester else 1,
                messages=0,
            )
        messages = 0
        visited = {requester}
        queue = deque([(requester, 0)])
        while queue:
            node, depth = queue.popleft()
            if depth >= ttl:
                continue
            for peer in self.graph.neighbors(node):
                if peer in visited:
                    continue
                visited.add(peer)
                messages += 1
                known = self.known_holders(peer, segment_id)
                if known:
                    holder = known[0]
                    hops = depth + 1 if holder == peer else depth + 2
                    return LookupResult(
                        found=True, holder=holder, hops=hops, messages=messages
                    )
                queue.append((peer, depth + 1))
        return LookupResult(found=False, holder=None, hops=-1, messages=messages)


def index_from_server(
    server: AllocationServer,
    *,
    gossip_rounds: int = 1,
    registry: Optional[Registry] = None,
) -> GossipIndex:
    """Build a gossip index reflecting the current placements of an
    allocation tier (each replica's holder announces it).

    Accepts any :class:`~repro.cdn.allocation.AllocationServer` — for
    the sharded router the index is built over the *federated* servable
    view (every shard's catalog). Anything else raises
    :class:`ConfigurationError`.
    """
    if not isinstance(server, AllocationServer):
        raise ConfigurationError(
            "index_from_server() needs an AllocationServer, "
            f"got {type(server).__name__}"
        )
    index = GossipIndex(server.graph, gossip_rounds=gossip_rounds, registry=registry)
    for replica in server.catalog.iter_replicas():
        if not replica.servable:
            continue
        holder = server.author_of(replica.node_id)
        index.announce(holder, replica.segment_id)
    return index
