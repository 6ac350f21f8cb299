"""Peer-assisted delivery tier: requesters as ephemeral, trust-gated edge caches.

The paper (Section V-B) deliberately chose centralized allocation servers
over a P2P architecture "to enable more efficient discovery of replicas";
:mod:`repro.cdn.p2p` measures what that choice costs on the *discovery*
side. This module measures — and exploits — the *delivery* side of the
same trade-off: WebCloud (arXiv:1109.3791) showed that recruiting clients
as short-lived edge caches behind a redirector offloads origin traffic,
and Wang et al. (arXiv:1606.04195) showed social-aware peer selection is
what makes that offload effective. Here the allocation server keeps its
role as the single discovery authority (so lookups stay O(1) against the
catalog, not a gossip flood), while *delivery* gains a second tier:

* A client that successfully fetches a segment keeps the bytes in its
  user-space cache anyway (:meth:`repro.cdn.client.CDNClient.access_segment`).
  The :class:`PeerRegistry` turns that cached copy into a **time-limited
  serving lease**: for the next ``lease_ttl_s`` of engine time, the
  client's node is offered by discovery as a source for that segment.
* Admission is **trust-gated** with the same predicate replica migration
  uses for target eligibility (:meth:`AllocationServer.eligible_migration_targets`):
  the author must be a member of the *current* trusted graph and the node
  must be live (not offline, alive per the liveness oracle). A requester
  outside the trust boundary can read (policy permitting) but never
  serves.
* Peers are **capacity-capped** (at most ``cache_segments`` concurrent
  leases per node; a cap of zero disables minting entirely) and
  **serve-capped** (at most ``max_concurrent_serves`` in-flight reads per
  lease) so a flash crowd cannot drown a single early fetcher.
* Discovery ranks peers *ahead of repository replicas when socially
  closer* (hop-index distance); ties go to the repository tier — it is
  authoritative, its copies are scrubbed, and the peer saves nothing when
  it is no nearer. See :meth:`AllocationServer.resolve_candidates`.
* Integrity never weakens: the registry records the **content digest** of
  every leased copy at mint time and answers the transfer client's digest
  resolver for peer nodes, so a peer serve is digest-verified exactly
  like a repository read and a corrupt peer copy fails over to the
  repository tier (:class:`repro.errors.IntegrityError` path).

Churn and determinism
---------------------
Lease expiry is an engine event scheduled at mint time; abrupt leaves
(crash, outage via the :class:`~repro.sim.failures.FailureInjector`, cache
eviction, scripted churn) cancel the pending expiry event through
:meth:`SimulationEngine.cancel` — a dead peer never fires a phantom
lease-end. The registry itself draws **no randomness**: minting, ranking,
expiry, and eviction are pure functions of engine time and insertion
order, so enabling the tier without churn perturbs no RNG stream, and
``peer_tier=off`` deployments are bit-identical to pre-peer ones (gated
against the frozen chaos baselines in ``tests/sim/test_chaos.py``).
Random churn draws live in :meth:`FailureInjector.random_peer_leaves`,
placed last in the injector's stream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set

from ..errors import ConfigurationError
from ..ids import NodeId, ReplicaId, SegmentId
from ..obs import Registry, get_registry
from .content import DataSegment, Replica, ReplicaState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.engine import SimulationEngine
    from ..sim.failures import FailureEvent, FailureInjector
    from .allocation import AllocationFabric

#: Lease lifecycle states (plain strings: leases are internal bookkeeping,
#: not catalog entries, and never serialize).
_ACTIVE = "active"
#: Expired while a serve was in flight: no longer offered by discovery,
#: finalized when the last in-flight serve releases.
_DRAINING = "draining"
_CLOSED = "closed"


class PeerLease:
    """One node's time-limited right to serve one segment.

    Carries a synthetic :class:`~repro.cdn.content.Replica` (id
    ``peer:<node>:<segment>``) so the resolve path and the CDN client's
    failover loop handle peer sources with the exact machinery they use
    for repository replicas — same ``ResolvedReplica`` envelope, same
    ``TransferRequest`` construction, same digest verification.
    """

    __slots__ = (
        "node_id",
        "segment_id",
        "digest",
        "granted_at",
        "expires_at",
        "replica",
        "in_flight",
        "serves",
        "state",
        "close_reason",
        "expiry_event",
    )

    def __init__(
        self,
        node_id: NodeId,
        segment_id: SegmentId,
        digest: str,
        *,
        granted_at: float,
        expires_at: float,
    ) -> None:
        self.node_id = node_id
        self.segment_id = segment_id
        #: digest of the bytes the peer actually holds — the segment's
        #: content digest at mint time; :meth:`PeerRegistry.corrupt_copy`
        #: perturbs it to model a rotted or lying peer
        self.digest = digest
        self.granted_at = granted_at
        self.expires_at = expires_at
        self.replica = Replica(
            replica_id=ReplicaId(f"peer:{node_id}:{segment_id}"),
            segment_id=segment_id,
            node_id=node_id,
            created_at=granted_at,
            state=ReplicaState.ACTIVE,
            digest=digest,
        )
        self.in_flight = 0
        self.serves = 0
        self.state = _ACTIVE
        self.close_reason: Optional[str] = None
        self.expiry_event = None  # engine Event; cancelled on abrupt leave

    @property
    def active(self) -> bool:
        """Whether discovery may still offer this lease."""
        return self.state == _ACTIVE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PeerLease({self.node_id}, {self.segment_id}, state={self.state}, "
            f"expires_at={self.expires_at}, in_flight={self.in_flight})"
        )


class PeerServe:
    """Handle for one in-flight peer read (begin/end bracket).

    Returned by :meth:`PeerRegistry.begin_serve`; pass it back to
    :meth:`PeerRegistry.end_serve` when the transfer completes. Holding a
    handle pins the lease: an expiry that fires mid-transfer drains
    instead of killing the read out from under the mover.
    """

    __slots__ = ("lease", "started_at", "done")

    def __init__(self, lease: PeerLease, started_at: float) -> None:
        self.lease = lease
        self.started_at = started_at
        self.done = False


class PeerRegistry:
    """Time-limited, trust-gated serving leases over clients' cached copies.

    Parameters
    ----------
    fabric:
        The deployment's shared :class:`~repro.cdn.allocation.AllocationFabric`
        — the registry reads the trusted graph, the offline set, the
        liveness oracle, and the reachability oracle from it, so peer
        admission and candidate filtering always agree with the
        allocation tier's view of membership (one fabric = one truth,
        shared across shards exactly like liveness).
    engine:
        The deployment's :class:`~repro.sim.engine.SimulationEngine`.
        Lease TTLs are engine-time; expiry is a scheduled event.
    lease_ttl_s:
        How long a freshly minted (or renewed) lease may serve.
    cache_segments:
        Per-node cap on concurrent leases. ``0`` disables admission
        entirely (every offer is rejected) — the "zero-capacity peers are
        never admitted" knob.
    max_concurrent_serves:
        Per-lease cap on in-flight reads; discovery stops offering a
        lease at the cap.
    registry:
        Observability registry; defaults to the process-wide one.
    """

    def __init__(
        self,
        fabric: "AllocationFabric",
        engine: "SimulationEngine",
        *,
        lease_ttl_s: float = 600.0,
        cache_segments: int = 4,
        max_concurrent_serves: int = 4,
        registry: Optional[Registry] = None,
    ) -> None:
        if lease_ttl_s <= 0:
            raise ConfigurationError(
                f"lease_ttl_s must be positive, got {lease_ttl_s}"
            )
        if cache_segments < 0:
            raise ConfigurationError(
                f"cache_segments must be >= 0, got {cache_segments}"
            )
        if max_concurrent_serves < 1:
            raise ConfigurationError(
                f"max_concurrent_serves must be >= 1, got {max_concurrent_serves}"
            )
        self.fabric = fabric
        self.engine = engine
        self.lease_ttl_s = lease_ttl_s
        self.cache_segments = cache_segments
        self.max_concurrent_serves = max_concurrent_serves

        #: node -> segment -> lease (active or draining), insertion-ordered
        #: at both levels so every iteration (leave, churn victim pools)
        #: is deterministic without sorting on the hot path
        self._leases: Dict[NodeId, Dict[SegmentId, PeerLease]] = {}
        #: segment -> node -> *active* lease, in per-segment admission
        #: order: discovery reads one segment's entry, never every node
        self._by_segment: Dict[SegmentId, Dict[NodeId, PeerLease]] = {}
        #: active-lease count per node (nodes with none are absent) and
        #: in total; the cap check, the gauges and the queries read these
        self._node_active: Dict[NodeId, int] = {}
        self._n_active = 0

        self.obs = registry if registry is not None else get_registry()
        obs = self.obs
        self._m_admitted = obs.counter(
            "peer.admitted", help="serving leases granted to fetching clients"
        )
        self._m_renewed = obs.counter(
            "peer.renewed", help="existing leases extended by a re-fetch/re-offer"
        )
        self._m_rejected_untrusted = obs.counter(
            "peer.rejected.untrusted",
            help="lease offers refused: author outside the trusted graph",
        )
        self._m_rejected_capacity = obs.counter(
            "peer.rejected.capacity",
            help="lease offers refused: per-node lease cap (or cap of zero)",
        )
        self._m_rejected_dead = obs.counter(
            "peer.rejected.dead",
            help="lease offers refused: node offline or failed per liveness",
        )
        self._m_serves = obs.counter(
            "peer.serves", help="reads served from peer leases (transfer ok)"
        )
        self._m_serve_failures = obs.counter(
            "peer.serve.failures",
            help="peer reads that failed in transfer (incl. digest mismatch)",
        )
        self._m_expired = obs.counter(
            "peer.lease.expired", help="leases ended by TTL expiry"
        )
        self._m_evicted = obs.counter(
            "peer.lease.evicted",
            help="leases retracted because the cached copy was evicted",
        )
        self._m_leaves = obs.counter(
            "peer.leaves",
            help="abrupt node-level departures (crash/outage/churn leave)",
        )
        self._g_leases = obs.gauge(
            "peer.active_leases", help="serving leases currently active"
        )
        self._g_nodes = obs.gauge(
            "peer.active_nodes", help="nodes currently holding >= 1 active lease"
        )

    # ------------------------------------------------------------------
    # admission (trust gate + capacity)
    # ------------------------------------------------------------------
    def _is_live(self, node: NodeId) -> bool:
        """The allocation tier's liveness rule, verbatim: not offline on
        the fabric, and alive per the liveness oracle when installed —
        the same predicate :meth:`AllocationServer._is_live` applies and
        :meth:`eligible_migration_targets` builds on, so a node migration
        would refuse as a replica target is equally refused as a peer."""
        if node in self.fabric.offline:
            return False
        liveness = self.fabric.liveness
        if liveness is not None and not liveness(node):
            return False
        return True

    def _trusted(self, node: NodeId) -> bool:
        author = self.fabric.author_of_node.get(node)
        return author is not None and author in self.fabric.graph

    def offer(
        self, node: NodeId, segment: DataSegment, *, at: Optional[float] = None
    ) -> Optional[PeerLease]:
        """A client that just fetched ``segment`` offers to serve it.

        Returns the granted (or renewed) lease, or ``None`` when the
        offer is rejected — untrusted author, dead node, or the per-node
        lease cap (a ``cache_segments`` of zero rejects everything).
        Re-offering an active lease renews it: the TTL restarts from
        ``at`` (the old expiry event is cancelled, a new one scheduled).
        Draws no randomness; rejections are counted per reason.
        """
        now = self.engine.now if at is None else at
        if self.cache_segments == 0:
            self._m_rejected_capacity.inc()
            return None
        if not self._trusted(node):
            self._m_rejected_untrusted.inc()
            self.obs.trace(
                "peer_reject", ts=now, node=str(node), reason="untrusted"
            )
            return None
        if not self._is_live(node):
            self._m_rejected_dead.inc()
            self.obs.trace("peer_reject", ts=now, node=str(node), reason="dead")
            return None
        per_node = self._leases.setdefault(node, {})
        existing = per_node.get(segment.segment_id)
        if existing is not None and existing.active:
            # renewal: restart the TTL, keep the lease object (and its
            # serve counters / any in-flight pins) intact
            if existing.expiry_event is not None:
                self.engine.cancel(existing.expiry_event)
            existing.expires_at = now + self.lease_ttl_s
            existing.expiry_event = self.engine.schedule(
                existing.expires_at,
                lambda engine, lease=existing: self._on_expiry(lease),
                label=f"peer-lease-expiry:{node}:{segment.segment_id}",
            )
            self._m_renewed.inc()
            self.obs.trace(
                "peer_renew",
                ts=now,
                node=str(node),
                segment=str(segment.segment_id),
                expires_at=existing.expires_at,
            )
            return existing
        if existing is not None:
            # a draining husk for the same segment: replace it
            del per_node[segment.segment_id]
        if self._node_active.get(node, 0) >= self.cache_segments:
            self._m_rejected_capacity.inc()
            self.obs.trace(
                "peer_reject", ts=now, node=str(node), reason="capacity"
            )
            return None
        lease = PeerLease(
            node,
            segment.segment_id,
            segment.digest,
            granted_at=now,
            expires_at=now + self.lease_ttl_s,
        )
        lease.expiry_event = self.engine.schedule(
            lease.expires_at,
            lambda engine, lease=lease: self._on_expiry(lease),
            label=f"peer-lease-expiry:{node}:{segment.segment_id}",
        )
        per_node[segment.segment_id] = lease
        self._by_segment.setdefault(segment.segment_id, {})[node] = lease
        self._node_active[node] = self._node_active.get(node, 0) + 1
        self._n_active += 1
        self._m_admitted.inc()
        self._sync_gauges()
        self.obs.trace(
            "peer_admit",
            ts=now,
            node=str(node),
            segment=str(segment.segment_id),
            expires_at=lease.expires_at,
        )
        return lease

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------
    def candidates(
        self,
        segment_id: SegmentId,
        *,
        requester_node: Optional[NodeId] = None,
        exclude_nodes: Iterable[NodeId] = (),
    ) -> List[PeerLease]:
        """Leases discovery may offer for ``segment_id`` right now.

        A candidate lease is active (not expired/draining/closed), on a
        node that is still trusted *and* live (trust is re-checked at
        lookup time — a graph swap mid-lease silently retires the peer
        from discovery), under its concurrent-serve cap, reachable from
        ``requester_node`` while the network reports a partition, not the
        requester's own node, and not in ``exclude_nodes`` (the resolve
        path passes the repository candidates' nodes so one host is never
        listed in both tiers). Walks only this segment's index entry:
        O(its active leases). Returned in the segment's lease-admission
        order; the caller's rank key ends in the node id, unique within
        one ranking, so this order can never change a ranking.
        """
        by_node = self._by_segment.get(segment_id)
        if not by_node:
            return []
        excluded: Set[NodeId] = set(exclude_nodes)
        net = self.fabric.reachability
        partitioned = net is not None and net.partitioned
        out: List[PeerLease] = []
        for node, lease in by_node.items():
            if node == requester_node or node in excluded:
                continue
            if lease.in_flight >= self.max_concurrent_serves:
                continue
            if not self._trusted(node) or not self._is_live(node):
                continue
            if (
                partitioned
                and requester_node is not None
                and not net.reachable(requester_node, node)
            ):
                continue
            out.append(lease)
        return out

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def begin_serve(
        self, node: NodeId, segment_id: SegmentId
    ) -> Optional[PeerServe]:
        """Pin a lease for one read; ``None`` when it is no longer servable.

        The client's failover loop calls this immediately before the
        transfer: a ``None`` (lease expired, node left, serve cap hit
        between ranking and fetch) is treated exactly like a failed
        transfer — the loop moves to the next ranked source.
        """
        lease = self._leases.get(node, {}).get(segment_id)
        if lease is None or not lease.active:
            return None
        if lease.in_flight >= self.max_concurrent_serves:
            return None
        lease.in_flight += 1
        return PeerServe(lease, self.engine.now)

    def end_serve(self, serve: PeerServe, *, ok: bool) -> None:
        """Release a pinned lease and account the outcome.

        A lease whose TTL fired while pinned (state ``draining``) is
        finalized here — the expiry is charged to ``peer.lease.expired``
        only once the last in-flight read completes, never mid-transfer.
        """
        if serve.done:
            raise ConfigurationError("end_serve called twice for one serve")
        serve.done = True
        lease = serve.lease
        lease.in_flight -= 1
        if ok:
            lease.serves += 1
            lease.replica.touch()
            self._m_serves.inc()
            self.obs.trace(
                "peer_serve",
                ts=self.engine.now,
                node=str(lease.node_id),
                segment=str(lease.segment_id),
            )
        else:
            self._m_serve_failures.inc()
        if lease.state == _DRAINING and lease.in_flight == 0:
            self._finalize_expiry(lease)

    def record_direct_serve(self, replica: Replica) -> None:
        """Account a peer serve chosen by ``resolve(record=True)``.

        The facade's client uses the begin/end bracket; callers driving
        the allocation server directly (perf harnesses, batch resolves)
        get their peer serves counted here instead — the peer-tier
        analogue of :meth:`AllocationServer.record_served`, which must
        not run for peers (it would charge a repository-partition read
        to a node serving from user-space cache).
        """
        lease = self._leases.get(replica.node_id, {}).get(replica.segment_id)
        if lease is not None:
            lease.serves += 1
        replica.touch()
        self._m_serves.inc()

    # ------------------------------------------------------------------
    # lease lifecycle
    # ------------------------------------------------------------------
    def _on_expiry(self, lease: PeerLease) -> None:
        """TTL fired. Drain if pinned mid-transfer, else close now."""
        lease.expiry_event = None
        if not lease.active:
            return
        if lease.in_flight > 0:
            lease.state = _DRAINING
            self._retire(lease)
            return
        self._finalize_expiry(lease)

    def _retire(self, lease: PeerLease) -> None:
        """Take an active lease out of discovery and the counts (at drain
        or close). A re-offer renews an active lease in place, so the
        index entry for its (segment, node) is this very lease."""
        node = lease.node_id
        by_node = self._by_segment[lease.segment_id]
        del by_node[node]
        if not by_node:
            del self._by_segment[lease.segment_id]
        left = self._node_active[node] - 1
        if left:
            self._node_active[node] = left
        else:
            del self._node_active[node]
        self._n_active -= 1
        self._sync_gauges()

    def _finalize_expiry(self, lease: PeerLease) -> None:
        self._close(lease, reason="expired")
        self._m_expired.inc()
        self.obs.trace(
            "peer_expire",
            ts=self.engine.now,
            node=str(lease.node_id),
            segment=str(lease.segment_id),
            serves=lease.serves,
        )

    def _close(self, lease: PeerLease, *, reason: str) -> None:
        """Remove a lease from the registry and cancel its pending expiry
        event — abrupt ends (crash, eviction, leave) must not leave a
        phantom lease-end event in the engine queue. Only this very lease
        leaves ``_leases``: a re-offer may have replaced a draining lease
        there, and finishing the old read must not drop its successor."""
        if lease.state == _CLOSED:
            return
        if lease.state == _ACTIVE:
            self._retire(lease)
        lease.state = _CLOSED
        lease.close_reason = reason
        if lease.expiry_event is not None:
            self.engine.cancel(lease.expiry_event)
            lease.expiry_event = None
        per_node = self._leases.get(lease.node_id)
        if per_node is not None and per_node.get(lease.segment_id) is lease:
            del per_node[lease.segment_id]
            if not per_node:
                del self._leases[lease.node_id]

    def evict(
        self, node: NodeId, segment_id: SegmentId, *, reason: str = "cache-evict"
    ) -> bool:
        """Retract one lease because its backing copy is gone.

        The CDN client calls this when its cache FIFO evicts a
        ``cache:<segment>`` file — a lease over evicted bytes would make
        discovery hand out a source that cannot pass digest verification.
        Returns whether a lease was actually retracted.
        """
        lease = self._leases.get(node, {}).get(segment_id)
        if lease is None or lease.state == _CLOSED:
            return False
        self._close(lease, reason=reason)
        self._m_evicted.inc()
        self.obs.trace(
            "peer_evict",
            ts=self.engine.now,
            node=str(node),
            segment=str(segment_id),
            reason=reason,
        )
        return True

    def leave(
        self, node: NodeId, *, reason: str = "leave", at: Optional[float] = None
    ) -> int:
        """Abrupt node-level departure: drop every lease the node holds.

        Covers browser-tab-close churn (scripted or
        :meth:`FailureInjector.random_peer_leaves`) and the injector's
        crash/outage events. Every pending expiry event is cancelled —
        no phantom lease-ends fire for a node that already left. Returns
        the number of leases dropped; a node with no leases is a no-op
        (nothing counted).
        """
        now = self.engine.now if at is None else at
        per_node = self._leases.get(node)
        if not per_node:
            return 0
        dropped = 0
        for lease in list(per_node.values()):
            self._close(lease, reason=reason)
            dropped += 1
        self._m_leaves.inc()
        self.obs.trace(
            "peer_leave", ts=now, node=str(node), reason=reason, dropped=dropped
        )
        return dropped

    def attach_injector(self, injector: "FailureInjector") -> None:
        """Subscribe to a failure injector: crashes and outage starts
        drop the node's leases immediately (with their expiry events
        cancelled), exactly like any other abrupt leave."""
        injector.on_failure(self._on_failure_event)

    def _on_failure_event(self, event: "FailureEvent") -> None:
        if event.kind in ("crash", "outage-start"):
            self.leave(event.node, reason=event.kind, at=event.time)

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def stored_digest(
        self, node: NodeId, segment_id: SegmentId
    ) -> Optional[str]:
        """Digest of the bytes ``node``'s lease actually holds — the
        transfer client's verification source for peer reads (wired via
        :meth:`SCDN._stored_digest`). ``None`` without a live lease, so a
        transfer from a node that just lost its lease fails verification
        rather than trusting unaccounted bytes."""
        lease = self._leases.get(node, {}).get(segment_id)
        if lease is None or lease.state == _CLOSED:
            return None
        return lease.digest

    def corrupt_copy(self, node: NodeId, segment_id: SegmentId) -> bool:
        """Model a rotted (or lying) peer copy: perturb the lease digest.

        The next verified transfer from this peer fails its digest check
        and the client fails over to the repository tier — the
        peers-never-weaken-integrity property, testable on demand.
        Returns whether a lease was found to corrupt.
        """
        lease = self._leases.get(node, {}).get(segment_id)
        if lease is None:
            return False
        lease.digest = f"rot:{lease.digest}"
        return True

    # ------------------------------------------------------------------
    # queries / bookkeeping
    # ------------------------------------------------------------------
    def lease_of(
        self, node: NodeId, segment_id: SegmentId
    ) -> Optional[PeerLease]:
        """The lease ``node`` holds for ``segment_id``, if any (any state
        short of closed-and-collected)."""
        return self._leases.get(node, {}).get(segment_id)

    def has_active_lease(self, node: NodeId, segment_id: SegmentId) -> bool:
        """Whether ``node`` currently holds an active lease for the segment."""
        lease = self._leases.get(node, {}).get(segment_id)
        return lease is not None and lease.active

    def peer_nodes(self) -> List[NodeId]:
        """Nodes holding at least one active lease, insertion-ordered.

        The churn campaign's victim pool: stable order means the
        injector's fire-time RNG draw maps to the same victim for the
        same history, keeping peer-churn campaigns deterministic. Reads
        the per-node active counts, in ``_leases`` node order.
        """
        active = self._node_active
        return [node for node in self._leases if node in active]

    @property
    def n_active_leases(self) -> int:
        """Count of active leases across all nodes (kept at admit, drain
        and close; no scan)."""
        return self._n_active

    def _sync_gauges(self) -> None:
        self._g_leases.set(self._n_active)
        self._g_nodes.set(len(self._node_active))
