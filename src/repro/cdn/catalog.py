"""The replica catalog maintained by allocation servers.

"A mapping between data sets and replicas is maintained by each allocation
server, which is used to resolve requests" (paper Section V-B). The catalog
indexes replicas by segment, by dataset, and by hosting node, and enforces
the invariants the rest of the system relies on: replica ids are unique, at
most one replica of a segment per node, and datasets are registered before
their segments receive replicas.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..errors import CatalogError
from ..ids import DatasetId, NodeId, ReplicaId, SegmentId
from ..obs import Registry, get_registry
from .content import Dataset, DataSegment, Replica, ReplicaState


class ReplicaIdAllocator:
    """Monotonic source of globally unique replica ids (``r-0``, ``r-1``, ...).

    A catalog builds a private allocator by default. A federation of
    sharded catalogs shares *one* allocator so replica ids stay globally
    unique — and, because every create flows through the same counter,
    the id sequence matches what a single unsharded catalog would have
    produced for the same global creation order. That is what lets the
    sharded tier reconstruct creation order by sorting on the numeric id
    suffix, and what makes sharded deployments bit-comparable to
    unsharded ones.
    """

    __slots__ = ("_next",)

    def __init__(self) -> None:
        self._next = 0

    def next_id(self) -> ReplicaId:
        """Mint the next replica id in sequence."""
        rid = ReplicaId(f"r-{self._next}")
        self._next += 1
        return rid


class ReplicaCatalog:
    """Indexed store of datasets and their replicas.

    Parameters
    ----------
    id_allocator:
        Source of replica ids; private by default. Sharded catalogs pass
        a shared :class:`ReplicaIdAllocator` for global uniqueness.
    registry:
        Observability registry for the ``catalog.servable_cache.*``
        counters; defaults to the process-wide one.
    """

    def __init__(
        self,
        *,
        id_allocator: Optional[ReplicaIdAllocator] = None,
        registry: Optional[Registry] = None,
    ) -> None:
        self._datasets: Dict[DatasetId, Dataset] = {}
        self._segments: Dict[SegmentId, DataSegment] = {}
        self._replicas: Dict[ReplicaId, Replica] = {}
        self._by_segment: Dict[SegmentId, List[Replica]] = {}
        self._by_node: Dict[NodeId, List[Replica]] = {}
        # per-segment servable-replica index: memoized filtered view of
        # _by_segment, dropped whenever a replica of the segment is created
        # or changes state. Every state transition flows through the catalog
        # methods below, so the cache cannot go stale.
        self._servable_cache: Dict[SegmentId, List[Replica]] = {}
        self._ids = id_allocator if id_allocator is not None else ReplicaIdAllocator()
        obs = registry if registry is not None else get_registry()
        self._m_servable_hits = obs.counter(
            "catalog.servable_cache.hits",
            help="servable-view lookups served from the memoized per-segment list",
        )
        self._m_servable_misses = obs.counter(
            "catalog.servable_cache.misses",
            help="servable-view lookups that had to rebuild the filtered list",
        )
        self._m_servable_invalidations = obs.counter(
            "catalog.servable_cache.invalidations",
            help="replica mutations that dropped a segment's memoized servable view",
        )

    def _invalidate(self, segment_id: SegmentId) -> None:
        """A replica of ``segment_id`` was created or changed state: drop
        the memoized servable view."""
        self._servable_cache.pop(segment_id, None)
        self._m_servable_invalidations.inc()

    # ------------------------------------------------------------------
    # datasets
    # ------------------------------------------------------------------
    def register_dataset(self, dataset: Dataset) -> None:
        """Add a dataset (and its segments) to the catalog."""
        if dataset.dataset_id in self._datasets:
            raise CatalogError(f"dataset {dataset.dataset_id} already registered")
        self._datasets[dataset.dataset_id] = dataset
        for seg in dataset.segments:
            self._segments[seg.segment_id] = seg
            self._by_segment.setdefault(seg.segment_id, [])

    def unregister_dataset(self, dataset_id: DatasetId) -> None:
        """Remove a dataset whose replicas are all retired (or absent).

        Used to roll back failed publications; refuse to drop datasets
        with live replicas (retire them first).
        """
        ds = self.dataset(dataset_id)
        for seg in ds.segments:
            if self._by_segment.get(seg.segment_id):
                live = [
                    r
                    for r in self._by_segment[seg.segment_id]
                    if r.state is not ReplicaState.RETIRED
                ]
                if live:
                    raise CatalogError(
                        f"cannot unregister {dataset_id}: segment "
                        f"{seg.segment_id} still has {len(live)} live replicas"
                    )
        for seg in ds.segments:
            self._segments.pop(seg.segment_id, None)
            self._by_segment.pop(seg.segment_id, None)
            self._invalidate(seg.segment_id)
        del self._datasets[dataset_id]

    def dataset(self, dataset_id: DatasetId) -> Dataset:
        """Look up a dataset."""
        try:
            return self._datasets[dataset_id]
        except KeyError:
            raise CatalogError(f"unknown dataset {dataset_id!r}") from None

    def segment(self, segment_id: SegmentId) -> DataSegment:
        """Look up a segment."""
        try:
            return self._segments[segment_id]
        except KeyError:
            raise CatalogError(f"unknown segment {segment_id!r}") from None

    def datasets(self) -> List[Dataset]:
        """All registered datasets."""
        return list(self._datasets.values())

    def __contains__(self, dataset_id: object) -> bool:
        return dataset_id in self._datasets

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
        """Create and index a replica of ``segment_id`` on ``node_id``.

        Raises
        ------
        CatalogError
            If the segment is unknown or the node already hosts a replica
            of it (including retired ones still on disk — retire+purge
            first).
        """
        if segment_id not in self._segments:
            raise CatalogError(f"unknown segment {segment_id!r}")
        for existing in self._by_segment[segment_id]:
            if existing.node_id == node_id and existing.state is not ReplicaState.RETIRED:
                raise CatalogError(
                    f"node {node_id} already hosts a replica of {segment_id}"
                )
        replica = Replica(
            replica_id=self._ids.next_id(),
            segment_id=segment_id,
            node_id=node_id,
            created_at=created_at,
            state=state,
            digest=self._segments[segment_id].digest,
        )
        self._replicas[replica.replica_id] = replica
        self._by_segment[segment_id].append(replica)
        self._by_node.setdefault(node_id, []).append(replica)
        self._invalidate(segment_id)
        return replica

    def replica(self, replica_id: ReplicaId) -> Replica:
        """Look up a replica by id."""
        try:
            return self._replicas[replica_id]
        except KeyError:
            raise CatalogError(f"unknown replica {replica_id!r}") from None

    def has_replica(self, replica_id: ReplicaId) -> bool:
        """Whether this catalog indexes ``replica_id`` (any state).

        The federated catalog uses this to locate a replica's owning
        shard without the exception overhead of :meth:`replica`.
        """
        return replica_id in self._replicas

    def replicas_of_segment(
        self, segment_id: SegmentId, *, servable_only: bool = False
    ) -> List[Replica]:
        """Replicas of one segment (optionally only ACTIVE ones).

        The servable view is memoized per segment (the resolve hot path
        asks for it on every request) and invalidated by any state
        transition or replica creation touching the segment; callers get
        a fresh list copy either way, so mutating the returned list never
        corrupts the index.
        """
        if segment_id not in self._segments:
            raise CatalogError(f"unknown segment {segment_id!r}")
        reps = self._by_segment[segment_id]
        if servable_only:
            cached = self._servable_cache.get(segment_id)
            if cached is None:
                self._m_servable_misses.inc()
                cached = [r for r in reps if r.servable]
                self._servable_cache[segment_id] = cached
            else:
                self._m_servable_hits.inc()
            return list(cached)
        return [r for r in reps if r.state is not ReplicaState.RETIRED]

    def replicas_of_dataset(
        self, dataset_id: DatasetId, *, servable_only: bool = False
    ) -> List[Replica]:
        """Replicas of every segment of a dataset."""
        ds = self.dataset(dataset_id)
        out: List[Replica] = []
        for seg in ds.segments:
            out.extend(self.replicas_of_segment(seg.segment_id, servable_only=servable_only))
        return out

    def replicas_on_node(self, node_id: NodeId) -> List[Replica]:
        """Non-retired replicas hosted by ``node_id``."""
        return [
            r
            for r in self._by_node.get(node_id, [])
            if r.state is not ReplicaState.RETIRED
        ]

    def nodes_hosting(self, segment_id: SegmentId) -> Set[NodeId]:
        """Nodes with a servable replica of ``segment_id``."""
        return {r.node_id for r in self.replicas_of_segment(segment_id, servable_only=True)}

    def retire(self, replica_id: ReplicaId) -> Replica:
        """Mark a replica RETIRED (kept for audit; excluded from lookups)."""
        rep = self.replica(replica_id)
        rep.state = ReplicaState.RETIRED
        self._invalidate(rep.segment_id)
        return rep

    def activate(self, replica_id: ReplicaId) -> Replica:
        """Mark a PENDING or STALE replica ACTIVE (transfer/repair done).

        QUARANTINED replicas can never be reactivated — a copy that failed
        a digest check stays out of service until retired (repair creates
        a *new* replica from a verified source instead).
        """
        rep = self.replica(replica_id)
        if rep.state is ReplicaState.RETIRED:
            raise CatalogError(f"cannot activate retired replica {replica_id}")
        if rep.state is ReplicaState.QUARANTINED:
            raise CatalogError(
                f"cannot activate quarantined replica {replica_id}; "
                f"repair from a verified source instead"
            )
        rep.state = ReplicaState.ACTIVE
        self._invalidate(rep.segment_id)
        return rep

    def mark_stale(self, replica_id: ReplicaId) -> Replica:
        """Mark a replica STALE (host offline)."""
        rep = self.replica(replica_id)
        if rep.state is ReplicaState.RETIRED:
            raise CatalogError(f"cannot mark retired replica {replica_id} stale")
        if rep.state is ReplicaState.QUARANTINED:
            return rep  # quarantine outranks staleness; keep the stronger state
        rep.state = ReplicaState.STALE
        self._invalidate(rep.segment_id)
        return rep

    def quarantine(self, replica_id: ReplicaId) -> Replica:
        """Mark a replica QUARANTINED (failed a content-digest check).

        Quarantined replicas are excluded from every servable lookup and
        can only leave the state via :meth:`retire`.
        """
        rep = self.replica(replica_id)
        if rep.state is ReplicaState.RETIRED:
            raise CatalogError(f"cannot quarantine retired replica {replica_id}")
        rep.state = ReplicaState.QUARANTINED
        self._invalidate(rep.segment_id)
        return rep

    def quarantined_replicas(self) -> List[Replica]:
        """All replicas currently under quarantine."""
        return [
            r
            for r in self._replicas.values()
            if r.state is ReplicaState.QUARANTINED
        ]

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def redundancy(self, segment_id: SegmentId) -> int:
        """Number of servable replicas of a segment."""
        return len(self.replicas_of_segment(segment_id, servable_only=True))

    def total_replicas(self) -> int:
        """Count of non-retired replicas across the catalog."""
        return sum(
            1 for r in self._replicas.values() if r.state is not ReplicaState.RETIRED
        )

    def iter_replicas(self) -> Iterator[Replica]:
        """Iterate over all non-retired replicas."""
        return (r for r in self._replicas.values() if r.state is not ReplicaState.RETIRED)

    def under_replicated(
        self, min_replicas: int
    ) -> List[Tuple[SegmentId, int]]:
        """Segments with fewer than ``min_replicas`` servable replicas.

        Returns ``(segment_id, current_redundancy)`` pairs, most-degraded
        first — the repair queue for :class:`~repro.cdn.replication.ReplicationPolicy`.
        """
        out = [
            (seg_id, self.redundancy(seg_id))
            for seg_id in self._segments
            if self.redundancy(seg_id) < min_replicas
        ]
        out.sort(key=lambda t: (t[1], t[0]))
        return out
