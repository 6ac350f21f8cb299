"""Federated allocation: one allocation server over N catalog shards.

The paper's Allocation Server is a single centralized catalog. This
module partitions its *replica catalog* across N plain
:class:`~repro.cdn.catalog.ReplicaCatalog` shards, one per site, keyed by
the deterministic community partition of the trusted graph (Section
V-D's social data partitioning as a shard key).
:class:`ShardedAllocationRouter` is an
:class:`~repro.cdn.allocation.AllocationServer` whose ``catalog`` is a
:class:`FederatedCatalog` over those shards, so membership, liveness,
discovery, repair, migration and integrity run once, from the server's
code. The router adds only what a partitioned control plane needs: site
coordinators, degraded reads, and a hinted-handoff log for writes bound
for a site the writer cannot reach. The
:class:`~repro.cdn.syscat.SystemCatalog` records which site owns each
dataset and segment.

Equivalence contract
--------------------
The router is a drop-in replacement for :class:`AllocationServer`:

* Replica ids come from one shared
  :class:`~repro.cdn.catalog.ReplicaIdAllocator`, so the global id
  sequence is identical to an unsharded server's for the same operation
  order — and catalog-wide iteration orders are reconstructed exactly by
  sorting on the numeric id suffix (creation order).
* Placement draws from the server's one RNG, and repair walks the
  globally sorted under-replication queue, so the RNG draw sequence
  matches the unsharded server's.
* The shard catalogs resolve their counters by name from the server's
  registry, so every instrument is the object an unsharded server owns.

With one shard this makes every operation bit-identical to the unsharded
server (asserted differentially in ``tests/cdn/test_sharding.py``, against
the unsharded server and the test suite's fresh-BFS reference resolver),
and :class:`~repro.sim.campaign.CampaignExecutor` campaigns produce
bit-identical reports with sharding on or off at any shard count.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..errors import CatalogError, ConfigurationError
from ..ids import AuthorId, DatasetId, NodeId, ReplicaId, SegmentId
from ..obs import Registry
from ..rng import SeedLike
from ..social.graph import CoauthorshipGraph
from .allocation import AllocationServer, ReconcileReport, ResolvedReplica
from .catalog import ReplicaCatalog, ReplicaIdAllocator
from .content import Dataset, DataSegment, Replica, ReplicaState
from .partitioning import PartitionAssignment
from .placement.base import PlacementAlgorithm
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

    The one segment → site router: point lookups route through the
    system catalog's dataset and fragment maps, with each segment's site
    memoized after its first lookup (one dict probe on the resolve path)
    and forgotten when its dataset is unregistered. Catalog-wide views
    merge every shard and sort by numeric replica-id suffix, which —
    thanks to the shared id allocator — is exactly the creation order a
    single catalog would have iterated in.
    """

    def __init__(self, syscat: SystemCatalog, shards: List[ReplicaCatalog]) -> None:
        self._syscat = syscat
        self._shards = shards
        self._site_memo: Dict[SegmentId, SiteId] = {}

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def site_of_owner(self, author: AuthorId) -> SiteId:
        """The author's site; late joiners get a sticky hash-ring site."""
        return self._syscat.assign_author_fallback(author)

    def site_of_segment(self, segment_id: SegmentId) -> SiteId:
        """The site owning ``segment_id``'s replicas."""
        site = self._site_memo.get(segment_id)
        if site is None:
            site = self._syscat.site_of_segment(segment_id)
            self._site_memo[segment_id] = site
        return site

    def shard_of_segment(self, segment_id: SegmentId) -> ReplicaCatalog:
        """The shard catalog owning ``segment_id``."""
        # the memo probe inlined: this routes every resolve
        site = self._site_memo.get(segment_id)
        if site is None:
            site = self.site_of_segment(segment_id)
        return self._shards[site]

    def shard_of_dataset(self, dataset_id: DatasetId) -> ReplicaCatalog:
        """The shard catalog owning ``dataset_id``."""
        return self._shards[self._syscat.site_of_dataset(dataset_id)]

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
        """Register a dataset on its owner's site and record the metadata.

        The system catalog records the id first, so a duplicate id is
        rejected before any shard is touched.
        """
        site = self.site_of_owner(dataset.owner)
        self._syscat.register_dataset(dataset.dataset_id, site)
        self._shards[site].register_dataset(dataset)
        for seg in dataset.segments:
            self._syscat.register_fragment(seg.segment_id, dataset.dataset_id, site)

    def unregister_dataset(self, dataset_id: DatasetId) -> None:
        """Unregister a dataset from its shard and drop its metadata."""
        shard = self.shard_of_dataset(dataset_id)
        segments = shard.dataset(dataset_id).segments
        shard.unregister_dataset(dataset_id)
        self._syscat.drop_dataset(dataset_id)
        for seg in segments:
            self._site_memo.pop(seg.segment_id, None)

    def dataset(self, dataset_id: DatasetId) -> Dataset:
        """Look up a dataset on its owning shard."""
        return self.shard_of_dataset(dataset_id).dataset(dataset_id)

    def segment(self, segment_id: SegmentId) -> DataSegment:
        """Look up a segment on its owning shard."""
        return self.shard_of_segment(segment_id).segment(segment_id)

    def datasets(self) -> List[Dataset]:
        """All datasets, in global registration order."""
        return [self.dataset(ds_id) for ds_id in self._syscat.datasets()]

    def __contains__(self, dataset_id: object) -> bool:
        return self._syscat.has_dataset(dataset_id)  # type: ignore[arg-type]

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


class ShardedAllocationRouter(AllocationServer):
    """An allocation server whose replica catalog is split across sites.

    Drop-in for :class:`~repro.cdn.allocation.AllocationServer`, because
    it *is* one: every method of the server runs unchanged over
    :attr:`catalog`, here a :class:`FederatedCatalog` whose shards hold
    each dataset on its owner's site (the owner's community's site).
    The :class:`~repro.cdn.syscat.SystemCatalog` (:attr:`syscat`)
    records the site and fragment metadata that routes each lookup.

    What a partitioned control plane adds lives here. Each site "runs"
    at a coordinator node; a requester that cannot reach the owning
    site's coordinator gets :meth:`resolve_candidates` results flagged
    ``degraded``, and its writes queue in a bounded hinted-handoff log
    that :meth:`reconcile_after_heal` drains.
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
        super().__init__(
            graph,
            placement,
            seed=seed,
            registry=registry,
            hop_cache_sources=hop_cache_sources,
        )
        self.syscat = build_system_catalog(graph, n_shards)
        ids = ReplicaIdAllocator()
        # replaces the server's single catalog; the shards resolve their
        # servable-cache counters by name from the same registry
        shards = [
            ReplicaCatalog(id_allocator=ids, registry=self.obs)
            for _ in range(n_shards)
        ]
        self.catalog = FederatedCatalog(self.syscat, shards)
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
        return self.syscat.n_sites

    # ``bench/probe.py`` traces methods by patching ``vars(cls)[name]``,
    # so every method it traces on the router must sit in this class
    # body, even where the server's implementation serves unchanged.
    register_repository = AllocationServer.register_repository
    node_offline = AllocationServer.node_offline
    node_online = AllocationServer.node_online
    migrate_node = AllocationServer.migrate_node
    quarantine_replica = AllocationServer.quarantine_replica
    record_served = AllocationServer.record_served
    record_failover = AllocationServer.record_failover
    resolve = AllocationServer.resolve

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
        for author, node in self._node_of_author.items():
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
        origin = self._node_of_author.get(requester)
        if origin is None:
            return False
        coordinator = self._site_origin(site)
        if coordinator is None:
            return False
        return not net.reachable(origin, coordinator)

    def _owner_cut_off(self, dataset: Dataset) -> bool:
        """Whether ``dataset``'s owner cannot reach its own site."""
        return self._degraded_site(
            self.catalog.site_of_owner(dataset.owner), dataset.owner
        )

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
    # publication — queued while the owner is cut off from its site
    # ------------------------------------------------------------------
    def publish_dataset(
        self,
        dataset: Dataset,
        *,
        n_replicas: int = 3,
        at: float = 0.0,
    ) -> List[Replica]:
        """Publish a dataset on its owner's site.

        When the owner is partitioned away from its site's coordinator,
        the publish queues in the bounded hinted-handoff log instead of
        erroring (returns ``[]``; no replicas exist and no metadata is
        registered until :meth:`reconcile_after_heal` replays the hint).
        """
        if self._owner_cut_off(dataset):
            self._queue_handoff(("publish", dataset, n_replicas, at))
            return []
        return super().publish_dataset(dataset, n_replicas=n_replicas, at=at)

    def publish_dataset_partitioned(
        self,
        dataset: Dataset,
        assignment: "PartitionAssignment",
        *,
        extra_replicas: int = 0,
        at: float = 0.0,
    ) -> List[Replica]:
        """Publish with socially partitioned placement on the owner's site.

        Like :meth:`publish_dataset`, an owner partitioned away from its
        site queues a hint instead of publishing.
        """
        if self._owner_cut_off(dataset):
            self._queue_handoff(
                ("publish_partitioned", dataset, assignment, extra_replicas, at)
            )
            return []
        return super().publish_dataset_partitioned(
            dataset, assignment, extra_replicas=extra_replicas, at=at
        )

    # ------------------------------------------------------------------
    # discovery — degraded across a partition
    # ------------------------------------------------------------------
    def resolve_candidates(
        self,
        segment_id: SegmentId,
        requester: AuthorId,
        *,
        limit: Optional[int] = None,
    ) -> List[ResolvedReplica]:
        """Rank a segment's servable replicas, as the server does.

        When the owning site is partitioned away from the requester, the
        ranking comes from the stale federated view restricted to
        replicas the requester can reach, and every result is flagged
        ``degraded=True`` (which :meth:`resolve` counts on
        ``alloc.resolve.degraded``).
        """
        candidates = super().resolve_candidates(segment_id, requester, limit=limit)
        # a whole network (the common case) never degrades: skip the call
        if (
            candidates
            and self.fabric.reachability is not None
            and self._degraded_site(
                self.catalog.site_of_segment(segment_id), requester
            )
        ):
            candidates = [replace(c, degraded=True) for c in candidates]
        return candidates

    # ------------------------------------------------------------------
    # repair and post-heal reconciliation
    # ------------------------------------------------------------------
    def repair(self, *, at: float = 0.0) -> List[Replica]:
        """Re-replicate every under-replicated segment, federation-wide.

        On a whole network this is the server's :meth:`~AllocationServer.repair`.
        Under an active partition the sweep degrades instead of copying
        bytes across severed links: segments owned by a site whose
        coordinator the control plane (site 0's coordinator) cannot reach
        queue a repair hint for :meth:`reconcile_after_heal`
        (deduplicated per segment), and repairs that do run are confined
        to the owning coordinator's side of the partition.
        """
        net = self.fabric.reachability
        if net is None or not net.partitioned:
            return super().repair(at=at)
        home_origin = self._site_origin(0)
        created: List[Replica] = []
        for segment_id, live in self.under_replicated():
            coordinator = self._site_origin(self.catalog.site_of_segment(segment_id))
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
                self._repair_segment(segment_id, live, at=at, origin=coordinator)
            )
        self._m_repairs.inc(len(created))
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
            if kind == "repair":  # the closing sweep below covers it
                replayed_repairs += 1
                self._m_handoff_replayed.inc()
                continue
            dataset = hint[1]
            if self._owner_cut_off(dataset):
                self._queue_handoff(hint)  # still partitioned away
                continue
            if kind == "publish":
                _, _, n_replicas, _t = hint
                self.publish_dataset(dataset, n_replicas=n_replicas, at=at)
            else:  # "publish_partitioned"
                _, _, assignment, extra_replicas, _t = hint
                self.publish_dataset_partitioned(
                    dataset, assignment, extra_replicas=extra_replicas, at=at
                )
            replayed_publishes += 1
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
