"""Federated allocation: N catalog shards behind one router.

The paper's Allocation Server is a single centralized catalog — the wall
between this reproduction and a millions-of-users deployment. This module
partitions the *replica catalog* across N :class:`AllocationServer`
shards keyed by the deterministic community partition of the trusted
graph (Section V-D's social data partitioning as a shard key), while
keeping the *membership fabric* — graph, repositories, liveness, hop
index — shared through one :class:`~repro.cdn.allocation.AllocationFabric`.
Cross-shard operations coordinate through the
:class:`~repro.cdn.syscat.SystemCatalog` metadata instead of one shared
catalog object.

Equivalence contract
--------------------
The router is a drop-in replacement for :class:`AllocationServer`:

* Replica ids come from one shared
  :class:`~repro.cdn.catalog.ReplicaIdAllocator`, so the global id
  sequence is identical to an unsharded server's for the same operation
  order — and catalog-wide iteration orders are reconstructed exactly by
  sorting on the numeric id suffix (creation order).
* All shards draw placement randomness from the shared fabric RNG, and
  federation-wide repair walks the globally sorted under-replication
  queue segment by segment, so the RNG draw sequence matches the
  unsharded server's.
* Counters and gauges are resolved by name from one registry, so shard
  instruments are the *same objects* as an unsharded server's would be.

With one shard this makes every operation bit-identical to today's
server (asserted differentially in tests and ``repro perf --shards``,
same pattern as :func:`~repro.cdn.allocation.resolve_candidates_reference`),
and :class:`~repro.sim.campaign.CampaignExecutor` campaigns produce
bit-identical reports with sharding on or off at any shard count.

Documented divergences at N > 1 (none observable by chaos reports):
``alloc.resolve.batches`` counts one batch per *site touched* instead of
one per call; :meth:`resolve_many` rejects unknown segments at routing
time (before processing the batch) instead of mid-batch; and
``publish_dataset_partitioned``'s internal post-publish repair is scoped
to the owning site.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from ..errors import CatalogError, ConfigurationError
from ..ids import AuthorId, DatasetId, NodeId, ReplicaId, SegmentId
from ..obs import Registry
from ..rng import SeedLike
from ..social.graph import CoauthorshipGraph
from .allocation import (
    AllocationFabric,
    AllocationServer,
    ReconcileReport,
    ResolvedReplica,
)
from .catalog import ReplicaCatalog, ReplicaIdAllocator
from .content import Dataset, DataSegment, Replica, ReplicaState
from .demand import DemandTracker
from .hopindex import HopIndex
from .partitioning import PartitionAssignment
from .placement.base import PlacementAlgorithm
from .storage import StorageRepository
from .syscat import SiteId, SystemCatalog, build_system_catalog


def _creation_key(replica: Replica) -> Tuple[int, int, str]:
    """Sort key reconstructing global creation order from replica ids.

    Ids minted by :class:`ReplicaIdAllocator` are ``r-N`` with N strictly
    increasing across the federation, so the numeric suffix *is* the
    creation sequence. Foreign ids (no numeric suffix) sort after, by
    string, for a total order.
    """
    s = str(replica.replica_id)
    _, _, suffix = s.rpartition("-")
    if suffix.isdigit():
        return (0, int(suffix), s)
    return (1, 0, s)


class FederatedCatalog:
    """The :class:`~repro.cdn.catalog.ReplicaCatalog` surface over N shards.

    Point lookups route through the system catalog's fragment map (with
    a shard-scan fallback for entries registered behind the router's
    back); catalog-wide views merge every shard and sort by numeric
    replica-id suffix, which — thanks to the shared id allocator — is
    exactly the creation order a single catalog would have iterated in.
    """

    def __init__(
        self,
        syscat: SystemCatalog,
        shards: List[ReplicaCatalog],
        site_of_owner: Callable[[AuthorId], SiteId],
        forget_segment: Optional[Callable[[SegmentId], None]] = None,
    ) -> None:
        self._syscat = syscat
        self._shards = shards
        self._site_of_owner = site_of_owner
        # router hook: drop a segment's memoized owner-site entry when the
        # segment leaves the federation (unregister), so a later re-register
        # can never be routed on a stale memo
        self._forget_segment = forget_segment

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def shard_of_segment(self, segment_id: SegmentId) -> ReplicaCatalog:
        """The shard catalog owning ``segment_id``."""
        if self._syscat.has_segment(segment_id):
            return self._shards[self._syscat.site_of_segment(segment_id)]
        for shard in self._shards:
            try:
                shard.segment(segment_id)
            except CatalogError:
                continue
            return shard
        raise CatalogError(f"unknown segment {segment_id!r}")

    def shard_of_dataset(self, dataset_id: DatasetId) -> ReplicaCatalog:
        """The shard catalog owning ``dataset_id``."""
        if self._syscat.has_dataset(dataset_id):
            return self._shards[self._syscat.site_of_dataset(dataset_id)]
        for shard in self._shards:
            if dataset_id in shard:
                return shard
        raise CatalogError(f"unknown dataset {dataset_id!r}")

    def shard_of_replica(self, replica_id: ReplicaId) -> ReplicaCatalog:
        """The shard catalog indexing ``replica_id``."""
        for shard in self._shards:
            if shard.has_replica(replica_id):
                return shard
        raise CatalogError(f"unknown replica {replica_id!r}")

    # ------------------------------------------------------------------
    # datasets
    # ------------------------------------------------------------------
    def register_dataset(self, dataset: Dataset) -> None:
        """Register a dataset on its owner's site and record the metadata."""
        site = self._site_of_owner(dataset.owner)
        self._shards[site].register_dataset(dataset)
        self._syscat.register_dataset(dataset.dataset_id, site)
        for seg in dataset.segments:
            self._syscat.register_fragment(seg.segment_id, dataset.dataset_id, site)

    def unregister_dataset(self, dataset_id: DatasetId) -> None:
        """Unregister a dataset from its shard and drop its metadata."""
        shard = self.shard_of_dataset(dataset_id)
        segments = [seg.segment_id for seg in shard.dataset(dataset_id).segments]
        shard.unregister_dataset(dataset_id)
        if self._syscat.has_dataset(dataset_id):
            self._syscat.drop_dataset(dataset_id)
        if self._forget_segment is not None:
            for seg_id in segments:
                self._forget_segment(seg_id)

    def dataset(self, dataset_id: DatasetId) -> Dataset:
        """Look up a dataset on its owning shard."""
        return self.shard_of_dataset(dataset_id).dataset(dataset_id)

    def segment(self, segment_id: SegmentId) -> DataSegment:
        """Look up a segment on its owning shard."""
        return self.shard_of_segment(segment_id).segment(segment_id)

    def datasets(self) -> List[Dataset]:
        """All datasets, in global registration order.

        The system catalog tracks the federation-wide registration
        sequence; datasets registered behind the router's back (directly
        into a shard catalog) follow in shard order.
        """
        out: List[Dataset] = []
        seen: Set[DatasetId] = set()
        for ds_id in self._syscat.datasets():
            for shard in self._shards:
                if ds_id in shard:
                    out.append(shard.dataset(ds_id))
                    seen.add(ds_id)
                    break
        for shard in self._shards:
            for ds in shard.datasets():
                if ds.dataset_id not in seen:
                    out.append(ds)
                    seen.add(ds.dataset_id)
        return out

    def __contains__(self, dataset_id: object) -> bool:
        return any(dataset_id in shard for shard in self._shards)

    # ------------------------------------------------------------------
    # replicas
    # ------------------------------------------------------------------
    def create_replica(
        self,
        segment_id: SegmentId,
        node_id: NodeId,
        *,
        created_at: float = 0.0,
        state: ReplicaState = ReplicaState.PENDING,
    ) -> Replica:
        """Create a replica on the segment's owning shard."""
        return self.shard_of_segment(segment_id).create_replica(
            segment_id, node_id, created_at=created_at, state=state
        )

    def replica(self, replica_id: ReplicaId) -> Replica:
        """Look up a replica across the federation."""
        return self.shard_of_replica(replica_id).replica(replica_id)

    def has_replica(self, replica_id: ReplicaId) -> bool:
        """Whether any shard indexes ``replica_id``."""
        return any(shard.has_replica(replica_id) for shard in self._shards)

    def replicas_of_segment(
        self, segment_id: SegmentId, *, servable_only: bool = False
    ) -> List[Replica]:
        """Replicas of one segment (single-shard: no merge needed)."""
        return self.shard_of_segment(segment_id).replicas_of_segment(
            segment_id, servable_only=servable_only
        )

    def replicas_of_dataset(
        self, dataset_id: DatasetId, *, servable_only: bool = False
    ) -> List[Replica]:
        """Replicas of every segment of a dataset."""
        return self.shard_of_dataset(dataset_id).replicas_of_dataset(
            dataset_id, servable_only=servable_only
        )

    def replicas_on_node(self, node_id: NodeId) -> List[Replica]:
        """Non-retired replicas on a node, merged in creation order."""
        out: List[Replica] = []
        for shard in self._shards:
            out.extend(shard.replicas_on_node(node_id))
        out.sort(key=_creation_key)
        return out

    def nodes_hosting(self, segment_id: SegmentId) -> Set[NodeId]:
        """Nodes with a servable replica of ``segment_id``."""
        return self.shard_of_segment(segment_id).nodes_hosting(segment_id)

    def retire(self, replica_id: ReplicaId) -> Replica:
        """Retire a replica on its owning shard."""
        return self.shard_of_replica(replica_id).retire(replica_id)

    def activate(self, replica_id: ReplicaId) -> Replica:
        """Activate a replica on its owning shard."""
        return self.shard_of_replica(replica_id).activate(replica_id)

    def mark_stale(self, replica_id: ReplicaId) -> Replica:
        """Mark a replica stale on its owning shard."""
        return self.shard_of_replica(replica_id).mark_stale(replica_id)

    def quarantine(self, replica_id: ReplicaId) -> Replica:
        """Quarantine a replica on its owning shard."""
        return self.shard_of_replica(replica_id).quarantine(replica_id)

    def quarantined_replicas(self) -> List[Replica]:
        """All quarantined replicas, merged in creation order."""
        out: List[Replica] = []
        for shard in self._shards:
            out.extend(shard.quarantined_replicas())
        out.sort(key=_creation_key)
        return out

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def redundancy(self, segment_id: SegmentId) -> int:
        """Servable replica count of a segment."""
        return self.shard_of_segment(segment_id).redundancy(segment_id)

    def total_replicas(self) -> int:
        """Non-retired replica count across every shard."""
        return sum(shard.total_replicas() for shard in self._shards)

    def iter_replicas(self) -> Iterator[Replica]:
        """All non-retired replicas, merged in creation order."""
        out: List[Replica] = []
        for shard in self._shards:
            out.extend(shard.iter_replicas())
        out.sort(key=_creation_key)
        return iter(out)

    def under_replicated(self, min_replicas: int) -> List[Tuple[SegmentId, int]]:
        """Segments below ``min_replicas``, merged, most-degraded first."""
        out: List[Tuple[SegmentId, int]] = []
        for shard in self._shards:
            out.extend(shard.under_replicated(min_replicas))
        out.sort(key=lambda t: (t[1], t[0]))
        return out


class ShardedAllocationRouter:
    """N allocation-server shards behind the single-server interface.

    Drop-in for :class:`~repro.cdn.allocation.AllocationServer`: every
    public method and property of the server exists here with identical
    semantics, so :class:`~repro.scdn.SCDN`, the CDN client, the
    replication policy, the failure injector, the scrubber, and the
    migration engine run unmodified against a federation.

    Membership, liveness, and hop-distance state live on one shared
    :class:`AllocationFabric`; per-dataset replica state lives on the
    shard that owns the dataset's site (the dataset owner's community's
    site). The :class:`~repro.cdn.syscat.SystemCatalog` records the
    site/fragment metadata that routes each operation.
    """

    def __init__(
        self,
        graph: CoauthorshipGraph,
        placement: PlacementAlgorithm,
        *,
        n_shards: int,
        seed: SeedLike = None,
        registry: Optional[Registry] = None,
        hop_cache_sources: int = 1024,
        handoff_limit: int = 256,
    ) -> None:
        if n_shards < 1:
            raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
        if handoff_limit < 1:
            raise ConfigurationError(
                f"handoff_limit must be >= 1, got {handoff_limit}"
            )
        self.placement = placement
        self.fabric = AllocationFabric(
            graph, seed=seed, hop_cache_sources=hop_cache_sources
        )
        self.syscat = build_system_catalog(graph, n_shards)
        self._ids = ReplicaIdAllocator()
        self.shards: List[AllocationServer] = [
            AllocationServer(
                graph,
                placement,
                registry=registry,
                fabric=self.fabric,
                id_allocator=self._ids,
            )
            for _ in range(n_shards)
        ]
        self._home = self.shards[0]
        self.obs = self._home.obs
        #: memoized segment -> owner-site map, the routed resolve path's
        #: dispatch shortcut: one dict probe instead of two system-catalog
        #: method calls per request. Entries are dropped when a dataset is
        #: unregistered (via the federated catalog's forget hook); sites
        #: never move otherwise.
        self._site_memo: Dict[SegmentId, SiteId] = {}
        self.catalog = FederatedCatalog(
            self.syscat,
            [shard.catalog for shard in self.shards],
            self._site_of_owner,
            self._forget_site_memo,
        )
        #: bounded hinted-handoff log: writes destined for a partitioned-
        #: away site wait here until reconcile_after_heal() drains them
        self.handoff_limit = handoff_limit
        self._handoff: List[Tuple] = []
        self._handoff_repairs: Set[SegmentId] = set()
        self._m_handoff_queued = self.obs.counter(
            "alloc.handoff.queued",
            help="writes queued for a partitioned-away site",
        )
        self._m_handoff_replayed = self.obs.counter(
            "alloc.handoff.replayed",
            help="queued handoff hints replayed after a partition healed",
        )
        self._m_handoff_dropped = self.obs.counter(
            "alloc.handoff.dropped",
            help="writes rejected because the hinted-handoff log was full",
        )
        self._m_reconciles = self.obs.counter(
            "alloc.reconcile.runs", help="post-heal anti-entropy sweeps"
        )

    @property
    def n_shards(self) -> int:
        """Number of allocation shards in the federation."""
        return len(self.shards)

    def _site_of_owner(self, author: AuthorId) -> SiteId:
        """The author's site; late joiners get a hash-ring assignment."""
        site = self.syscat.site_of_author(author)
        if site is not None:
            return site
        return self.syscat.assign_author_fallback(author)

    def _forget_site_memo(self, segment_id: SegmentId) -> None:
        self._site_memo.pop(segment_id, None)

    def _site_of_segment(self, segment_id: SegmentId) -> SiteId:
        site = self._site_memo.get(segment_id)
        if site is not None:
            return site
        if self.syscat.has_segment(segment_id):
            site = self.syscat.site_of_segment(segment_id)
        else:
            site = -1
            for i, shard in enumerate(self.shards):
                try:
                    shard.catalog.segment(segment_id)
                except CatalogError:
                    continue
                site = i
                break
            if site < 0:
                raise CatalogError(f"unknown segment {segment_id!r}")
        self._site_memo[segment_id] = site
        return site

    def _shard_of_segment(self, segment_id: SegmentId) -> AllocationServer:
        return self.shards[self._site_of_segment(segment_id)]

    def _shard_of_dataset(self, dataset_id: DatasetId) -> AllocationServer:
        if self.syscat.has_dataset(dataset_id):
            return self.shards[self.syscat.site_of_dataset(dataset_id)]
        for shard in self.shards:
            if dataset_id in shard.catalog:
                return shard
        raise CatalogError(f"unknown dataset {dataset_id!r}")

    def _shard_of_replica(self, replica_id: ReplicaId) -> AllocationServer:
        for shard in self.shards:
            if shard.catalog.has_replica(replica_id):
                return shard
        raise CatalogError(f"unknown replica {replica_id!r}")

    # ------------------------------------------------------------------
    # partition awareness
    # ------------------------------------------------------------------
    def _site_origin(self, site: SiteId) -> Optional[NodeId]:
        """The deterministic coordinator node of a site: the smallest node
        id among registered authors assigned to it (None when the site has
        no registered members yet). A site's allocation shard "runs" at
        its coordinator for reachability purposes: an operation can reach
        the shard iff it can reach this node."""
        best: Optional[NodeId] = None
        for author, node in self.fabric.node_of_author.items():
            if self.syscat.site_of_author(author) != site:
                continue
            if best is None or str(node) < str(best):
                best = node
        return best

    def _degraded_site(self, site: SiteId, requester: AuthorId) -> bool:
        """Whether ``requester`` must fall back to degraded mode for an
        operation owned by ``site``: a partition is active and the
        requester's node cannot reach the site's coordinator. Always
        False on a whole network — the fast path is untouched."""
        net = self.fabric.reachability
        if net is None or not net.partitioned:
            return False
        origin = self.fabric.node_of_author.get(requester)
        if origin is None:
            return False
        coordinator = self._site_origin(site)
        if coordinator is None:
            return False
        return not net.reachable(origin, coordinator)

    def _queue_handoff(self, hint: Tuple) -> None:
        """Append a write hint to the bounded handoff log (or reject)."""
        if len(self._handoff) >= self.handoff_limit:
            self._m_handoff_dropped.inc()
            self.obs.trace("handoff_dropped", hint=hint[0])
            raise CatalogError(
                f"hinted-handoff log full ({self.handoff_limit} hints): "
                f"cannot queue {hint[0]} for a partitioned-away site"
            )
        self._handoff.append(hint)
        self._m_handoff_queued.inc()
        self.obs.trace("handoff_queued", hint=hint[0])

    def pending_handoff(self) -> List[Tuple]:
        """Queued handoff hints (copy), oldest first."""
        return list(self._handoff)

    # ------------------------------------------------------------------
    # graph (overlay fabric) — shared; one hop index for the federation
    # ------------------------------------------------------------------
    @property
    def graph(self) -> CoauthorshipGraph:
        """The shared trusted graph; assignment rebuilds the hop index once."""
        return self.fabric.graph

    @graph.setter
    def graph(self, graph: CoauthorshipGraph) -> None:
        # the home shard's setter swaps fabric.graph and rebuilds the
        # shared index exactly once — other shards alias the same fabric
        self._home.graph = graph

    @property
    def hop_index(self) -> HopIndex:
        """The federation's shared hop index."""
        return self.fabric.hops

    # ------------------------------------------------------------------
    # membership / liveness — shared fabric state, served by the home shard
    # ------------------------------------------------------------------
    def register_repository(
        self, author: AuthorId, repository: StorageRepository
    ) -> NodeId:
        """Register a repository with the federation (shared membership)."""
        return self._home.register_repository(author, repository)

    def repository(self, node: NodeId) -> StorageRepository:
        """Look up a registered repository."""
        return self._home.repository(node)

    def node_of(self, author: AuthorId) -> NodeId:
        """Node id of an author's repository."""
        return self._home.node_of(author)

    def author_of(self, node: NodeId) -> AuthorId:
        """Author hosting a node."""
        return self._home.author_of(node)

    def registered_authors(self) -> List[AuthorId]:
        """Authors that contributed repositories."""
        return self._home.registered_authors()

    @property
    def n_nodes(self) -> int:
        """Number of registered storage nodes."""
        return self._home.n_nodes

    def has_node(self, node: NodeId) -> bool:
        """Whether ``node`` has a registered repository."""
        return self._home.has_node(node)

    def set_liveness_oracle(
        self, oracle: Optional[Callable[[NodeId], bool]]
    ) -> None:
        """Install a liveness oracle on the shared fabric."""
        self._home.set_liveness_oracle(oracle)

    def set_reachability_oracle(self, model: Optional[object]) -> None:
        """Install a reachability oracle on the shared fabric (see
        :meth:`AllocationServer.set_reachability_oracle`). Beyond the
        per-shard candidate filtering, the router uses it to detect
        unreachable owning sites and fall back to degraded resolves and
        hinted handoff."""
        self._home.set_reachability_oracle(model)

    def set_peer_registry(self, peers: Optional[object]) -> None:
        """Install a peer-tier registry on the shared fabric (see
        :meth:`AllocationServer.set_peer_registry`). One fabric, one peer
        population: every shard's resolve path merges the same leases,
        so a peer minted by a requester homed on one site serves
        requesters homed on any site."""
        self._home.set_peer_registry(peers)

    def _is_live(self, node: NodeId) -> bool:
        return self._home._is_live(node)

    def is_online(self, node: NodeId) -> bool:
        """Whether a registered node is currently online."""
        return self._home.is_online(node)

    def state_transitions(self, node: NodeId) -> List[Tuple[float, str]]:
        """The recorded state transitions of a node."""
        return self._home.state_transitions(node)

    def availability_log(self) -> Dict[NodeId, List[Tuple[float, str]]]:
        """State-transition logs for every registered node."""
        return self._home.availability_log()

    def hops_from(self, requester: AuthorId) -> Dict[AuthorId, int]:
        """Hop distances from ``requester`` (shared hop index)."""
        return self._home.hops_from(requester)

    def untrusted_hosts(self) -> List[NodeId]:
        """Registered nodes outside the current trust boundary."""
        return self._home.untrusted_hosts()

    # ------------------------------------------------------------------
    # node state — federation-wide, replica transitions routed per shard
    # ------------------------------------------------------------------
    def node_offline(self, node: NodeId, *, at: float = 0.0) -> int:
        """Mark a node offline federation-wide; its replicas become STALE.

        Same guard/transition/replica sequence as the single server: one
        recorded transition, then the node's replicas walked in creation
        order (the federated merge) and marked stale on their owning
        shards.
        """
        fabric = self.fabric
        if node not in fabric.repos:
            raise ConfigurationError(f"unknown node {node!r}")
        if node in fabric.offline:
            return 0
        fabric.offline.add(node)
        self._home._record_transition(node, at, "offline")
        n = 0
        for rep in self.catalog.replicas_on_node(node):
            if rep.state is ReplicaState.ACTIVE:
                self.catalog.mark_stale(rep.replica_id)
                n += 1
        return n

    def node_online(self, node: NodeId, *, at: float = 0.0) -> int:
        """Mark a node online; digest-verified STALE replicas reactivate."""
        fabric = self.fabric
        if node not in fabric.repos:
            raise ConfigurationError(f"unknown node {node!r}")
        if node not in fabric.offline:
            return 0
        fabric.offline.discard(node)
        self._home._record_transition(node, at, "online")
        repo = fabric.repos[node]
        n = 0
        for rep in self.catalog.replicas_on_node(node):
            if rep.state is ReplicaState.STALE and repo.hosts_segment(rep.segment_id):
                segment = self.catalog.segment(rep.segment_id)
                if repo.verify_replica(rep.segment_id, segment.digest):
                    self.catalog.activate(rep.replica_id)
                    n += 1
                else:
                    self.quarantine_replica(
                        rep.replica_id, at=at, reason="reactivation-check"
                    )
        return n

    # ------------------------------------------------------------------
    # budgets / publication — routed by dataset owner's site
    # ------------------------------------------------------------------
    def replica_budget(self, dataset_id: DatasetId) -> int:
        """The replica budget of a dataset, from its owning shard."""
        return self._shard_of_dataset(dataset_id).replica_budget(dataset_id)

    def set_replica_budget(self, dataset_id: DatasetId, budget: int) -> None:
        """Set a dataset's replica budget on its owning shard."""
        self._shard_of_dataset(dataset_id).set_replica_budget(dataset_id, budget)

    def publish_dataset(
        self,
        dataset: Dataset,
        *,
        n_replicas: int = 3,
        at: float = 0.0,
    ) -> List[Replica]:
        """Publish a dataset on its owner's site.

        The owning shard runs the exact single-server publication
        (placement over the shared host fabric, shared RNG, shared id
        allocator); the system catalog records the dataset and its
        fragments only after the shard commits, so a rolled-back
        publication leaves no metadata behind.

        When the owner is partitioned away from the owning site, the
        publish queues in the bounded hinted-handoff log instead of
        erroring (returns ``[]``; no replicas exist and no metadata is
        registered until :meth:`reconcile_after_heal` replays the hint).
        """
        site = self._site_of_owner(dataset.owner)
        if self._degraded_site(site, dataset.owner):
            self._queue_handoff(("publish", dataset, n_replicas, at))
            return []
        replicas = self.shards[site].publish_dataset(
            dataset, n_replicas=n_replicas, at=at
        )
        self.syscat.register_dataset(dataset.dataset_id, site)
        for seg in dataset.segments:
            self.syscat.register_fragment(seg.segment_id, dataset.dataset_id, site)
        return replicas

    def publish_dataset_partitioned(
        self,
        dataset: Dataset,
        assignment: "PartitionAssignment",
        *,
        extra_replicas: int = 0,
        at: float = 0.0,
    ) -> List[Replica]:
        """Publish with socially partitioned placement on the owner's site.

        The post-publish redundancy repair this method runs internally is
        scoped to the owning shard (a documented N > 1 divergence; the
        federation-wide :meth:`repair` covers every site). Like
        :meth:`publish_dataset`, an owner partitioned away from the
        owning site queues a hint instead of publishing.
        """
        site = self._site_of_owner(dataset.owner)
        if self._degraded_site(site, dataset.owner):
            self._queue_handoff(
                ("publish_partitioned", dataset, assignment, extra_replicas, at)
            )
            return []
        replicas = self.shards[site].publish_dataset_partitioned(
            dataset, assignment, extra_replicas=extra_replicas, at=at
        )
        self.syscat.register_dataset(dataset.dataset_id, site)
        for seg in dataset.segments:
            self.syscat.register_fragment(seg.segment_id, dataset.dataset_id, site)
        return replicas

    # ------------------------------------------------------------------
    # discovery — routed by segment
    # ------------------------------------------------------------------
    def resolve_candidates(
        self,
        segment_id: SegmentId,
        requester: AuthorId,
        *,
        limit: Optional[int] = None,
    ) -> List[ResolvedReplica]:
        """Rank a segment's servable replicas on its owning shard.

        When the owning site is partitioned away from the requester, the
        ranking comes from the stale federated view restricted to
        replicas the requester can reach, and every result is flagged
        ``degraded=True``.
        """
        site = self._site_memo.get(segment_id)
        if site is None:
            site = self._site_of_segment(segment_id)
        candidates = self.shards[site].resolve_candidates(
            segment_id, requester, limit=limit
        )
        # a whole network (the common case) never degrades: skip the call
        if (
            candidates
            and self.fabric.reachability is not None
            and self._degraded_site(site, requester)
        ):
            candidates = [
                ResolvedReplica(
                    replica=c.replica,
                    social_hops=c.social_hops,
                    degraded=True,
                    peer=c.peer,
                )
                for c in candidates
            ]
        return candidates

    def _resolve_degraded(
        self,
        site: SiteId,
        segment_id: SegmentId,
        requester: AuthorId,
        *,
        record: bool,
    ) -> ResolvedReplica:
        """Serve a resolve whose owning shard is unreachable.

        Candidates come from the stale federated view (the fragment map
        plus the shard catalog contents as of the partition) filtered to
        replicas the requester's side can reach; bookkeeping mirrors the
        single-server :meth:`AllocationServer.resolve` plus the
        ``alloc.resolve.degraded`` counter and a ``resolve_degraded``
        trace, and the returned replica is flagged ``degraded=True``.
        """
        shard = self.shards[site]
        t0 = perf_counter()
        candidates = shard.resolve_candidates(segment_id, requester)
        if not candidates:
            shard._m_resolve_failed.inc()
            self.obs.trace(
                "resolve_failed", segment=str(segment_id), requester=str(requester)
            )
            raise CatalogError(
                f"no reachable servable replica of {segment_id} "
                "(owning site partitioned away)"
            )
        best = candidates[0]
        load = self.fabric.repos[best.replica.node_id].reads_served
        if record:
            if best.peer:
                self.fabric.peer_registry.record_direct_serve(best.replica)
            else:
                shard.record_served(best.replica)
        elapsed = perf_counter() - t0
        shard._m_resolve_latency.observe(elapsed)
        shard._m_resolve_total.inc()
        shard._m_resolve_degraded.inc()
        shard._m_chosen_load.set(load)
        d = best.social_hops
        if d is not None:
            shard._m_resolve_hops.observe(d)
        else:
            shard._m_resolve_unreachable.inc()
        self.obs.trace(
            "resolve_degraded",
            segment=str(segment_id),
            requester=str(requester),
            node=str(best.replica.node_id),
            hops=d,
            load=load,
            latency_s=elapsed,
        )
        return ResolvedReplica(
            replica=best.replica, social_hops=d, degraded=True, peer=best.peer
        )

    def resolve(
        self, segment_id: SegmentId, requester: AuthorId, *, record: bool = True
    ) -> ResolvedReplica:
        """Resolve a segment on its owning shard (single-server semantics).

        When the owning site is partitioned away from the requester the
        resolve degrades instead of failing: any replica on the
        requester's side of the partition can still serve (flagged
        ``degraded=True``, counted on ``alloc.resolve.degraded``).
        """
        site = self._site_of_segment(segment_id)
        if self._degraded_site(site, requester):
            return self._resolve_degraded(
                site, segment_id, requester, record=record
            )
        return self.shards[site].resolve(segment_id, requester, record=record)

    def resolve_many(
        self,
        requests: List[Tuple[SegmentId, AuthorId]],
        *,
        record: bool = True,
        demand: Optional[DemandTracker] = None,
    ) -> List[Optional[ResolvedReplica]]:
        """Resolve a batch, grouped by owning site.

        Request indices are grouped per site preserving intra-site order,
        each site's sub-batch runs on its shard, and results reassemble
        into positional output. With one shard this is exactly the
        single-server batch. Unknown segments raise
        :class:`~repro.errors.CatalogError` at grouping time — stricter
        than the unsharded server, which raises mid-batch when it reaches
        the unknown request (documented divergence). At N > 1 the
        ``alloc.resolve.batches`` counter moves once per site touched.
        """
        by_site: Dict[int, List[int]] = {}
        for i, (segment_id, _requester) in enumerate(requests):
            by_site.setdefault(self._site_of_segment(segment_id), []).append(i)
        out: List[Optional[ResolvedReplica]] = [None] * len(requests)
        for site in sorted(by_site):
            idx = by_site[site]
            # degraded requests (owning site unreachable from *this*
            # requester) peel off into the per-request fallback; the rest
            # keep the batched fast path (the common case: no partition)
            batched: List[int] = []
            for i in idx:
                segment_id, requester = requests[i]
                if self._degraded_site(site, requester):
                    try:
                        out[i] = self._resolve_degraded(
                            site, segment_id, requester, record=record
                        )
                    except CatalogError:
                        out[i] = None
                else:
                    batched.append(i)
            if not batched:
                continue
            sub = [requests[i] for i in batched]
            res = self.shards[site].resolve_many(sub, record=record, demand=demand)
            for i, r in zip(batched, res):
                out[i] = r
        return out

    def record_served(self, replica: Replica) -> None:
        """Record a read served by ``replica`` (shared repositories)."""
        self._home.record_served(replica)

    def record_failover(
        self,
        segment_id: SegmentId,
        requester: AuthorId,
        *,
        from_node: NodeId,
        to_node: NodeId,
    ) -> None:
        """Record a failover (shared counter and trace ring)."""
        self._home.record_failover(
            segment_id, requester, from_node=from_node, to_node=to_node
        )

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def replica_verified(self, replica: Replica) -> bool:
        """Digest-verify a replica against its owning shard's segment."""
        return self._shard_of_segment(replica.segment_id).replica_verified(replica)

    def quarantine_replica(
        self, replica_id: ReplicaId, *, at: float = 0.0, reason: str = "scrub"
    ) -> Replica:
        """Quarantine a replica on its owning shard."""
        return self._shard_of_replica(replica_id).quarantine_replica(
            replica_id, at=at, reason=reason
        )

    # ------------------------------------------------------------------
    # management: repair, demand, migration — federation-wide
    # ------------------------------------------------------------------
    def under_replicated(self) -> List[Tuple[SegmentId, int]]:
        """Under-budget segments across every shard, most-degraded first.

        The merge re-applies the single server's ``(live, segment_id)``
        sort, so the federation repairs in the same global order — and
        with the same RNG draw sequence — as one server would.
        """
        out: List[Tuple[SegmentId, int]] = []
        for shard in self.shards:
            out.extend(shard.under_replicated())
        out.sort(key=lambda t: (t[1], t[0]))
        return out

    def eligible_migration_targets(self, segment_id: SegmentId) -> List[AuthorId]:
        """Eligible new hosts for a segment, per its owning shard."""
        return self._shard_of_segment(segment_id).eligible_migration_targets(
            segment_id
        )

    def repair(self, *, at: float = 0.0) -> List[Replica]:
        """Re-replicate every under-replicated segment, federation-wide.

        Walks the globally sorted queue and dispatches each segment to
        its owning shard's per-segment repair, then counts the grand
        total once — identical counters, traces, and placement-RNG draws
        to the single server's :meth:`~AllocationServer.repair`.

        Under an active partition the sweep degrades instead of copying
        bytes across severed links: segments owned by a site whose
        coordinator the control plane (the home site's coordinator)
        cannot reach queue a repair hint for :meth:`reconcile_after_heal`
        (deduplicated per segment), and repairs that do run are confined
        to the owning coordinator's side of the partition.
        """
        net = self.fabric.reachability
        partitioned = net is not None and net.partitioned
        home_origin = self._site_origin(0) if partitioned else None
        created: List[Replica] = []
        for segment_id, live in self.under_replicated():
            site = self._site_of_segment(segment_id)
            shard = self.shards[site]
            if not partitioned:
                created.extend(shard._repair_segment(segment_id, live, at=at))
                continue
            coordinator = self._site_origin(site)
            if (
                home_origin is not None
                and coordinator is not None
                and not net.reachable(home_origin, coordinator)
            ):
                if segment_id not in self._handoff_repairs:
                    self._handoff_repairs.add(segment_id)
                    self._queue_handoff(("repair", segment_id))
                continue
            created.extend(
                shard._repair_segment(
                    segment_id, live, at=at, origin=coordinator
                )
            )
        self._home._m_repairs.inc(len(created))
        return created

    def reconcile_after_heal(self, *, at: float = 0.0) -> ReconcileReport:
        """Deterministic post-heal anti-entropy sweep.

        Drains the hinted-handoff log in FIFO order — queued publishes
        replay as normal publications (placement, system-catalog
        registration, metadata), queued repair hints dissolve into the
        closing federation-wide :meth:`repair` — then runs that repair so
        every segment stranded under-replicated by the partition
        re-converges to budget. Hints whose destination is *still*
        unreachable (a sweep mid-partition) re-queue instead of being
        lost. Returns a :class:`ReconcileReport`.
        """
        self._m_reconciles.inc()
        pending = self._handoff
        self._handoff = []
        self._handoff_repairs = set()
        replayed_publishes = 0
        replayed_repairs = 0
        for hint in pending:
            kind = hint[0]
            if kind == "publish":
                _, dataset, n_replicas, _t = hint
                if self._degraded_site(
                    self._site_of_owner(dataset.owner), dataset.owner
                ):
                    self._queue_handoff(hint)  # still partitioned away
                    continue
                self.publish_dataset(dataset, n_replicas=n_replicas, at=at)
                replayed_publishes += 1
                self._m_handoff_replayed.inc()
            elif kind == "publish_partitioned":
                _, dataset, assignment, extra_replicas, _t = hint
                if self._degraded_site(
                    self._site_of_owner(dataset.owner), dataset.owner
                ):
                    self._queue_handoff(hint)
                    continue
                self.publish_dataset_partitioned(
                    dataset, assignment, extra_replicas=extra_replicas, at=at
                )
                replayed_publishes += 1
                self._m_handoff_replayed.inc()
            else:  # "repair": the closing sweep below covers it
                replayed_repairs += 1
                self._m_handoff_replayed.inc()
        created = self.repair(at=at)
        report = ReconcileReport(
            replayed_publishes=replayed_publishes,
            replayed_repairs=replayed_repairs,
            repaired=len(created),
            remaining=len(self._handoff),
        )
        self.obs.trace(
            "reconcile",
            ts=at,
            replayed_publishes=replayed_publishes,
            replayed_repairs=replayed_repairs,
            repaired=len(created),
            remaining=len(self._handoff),
        )
        return report

    def hot_segments(self, threshold: int) -> List[Tuple[SegmentId, int]]:
        """Hot segments across the federation, hottest first."""
        totals: Dict[SegmentId, int] = {}
        for rep in self.catalog.iter_replicas():
            totals[rep.segment_id] = totals.get(rep.segment_id, 0) + rep.access_count
        out = [(s, c) for s, c in totals.items() if c >= threshold]
        out.sort(key=lambda t: (-t[1], t[0]))
        return out

    def scale_hot(
        self, threshold: int, *, extra: int = 1, at: float = 0.0
    ) -> List[Replica]:
        """Raise hot datasets' budgets on their owning shards and repair."""
        if extra < 1:
            raise ConfigurationError(f"extra must be >= 1, got {extra}")
        touched: Set[DatasetId] = set()
        for seg_id, _count in self.hot_segments(threshold):
            shard = self._shard_of_segment(seg_id)
            ds_id = shard.catalog.segment(seg_id).dataset_id
            if ds_id not in touched:
                shard._dataset_budget[ds_id] = shard.replica_budget(ds_id) + extra
                touched.add(ds_id)
        if not touched:
            return []
        return self.repair(at=at)

    def migrate_node(self, node: NodeId, *, at: float = 0.0) -> List[Replica]:
        """Handle a permanent departure federation-wide, then repair."""
        fabric = self.fabric
        if node not in fabric.repos:
            raise ConfigurationError(f"unknown node {node!r}")
        repo = fabric.repos[node]
        for rep in self.catalog.replicas_on_node(node):
            self.catalog.retire(rep.replica_id)
            if repo.hosts_segment(rep.segment_id):
                repo.evict_replica(rep.segment_id)
        if node not in fabric.offline:
            fabric.offline.add(node)
            self._home._record_transition(node, at, "offline")
        self._home._m_migrations.inc()
        self.obs.trace("migrate", ts=at, node=str(node))
        return self.repair(at=at)
