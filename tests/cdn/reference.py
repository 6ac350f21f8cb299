"""Test oracle and deployments for the differential resolve tests.

:func:`resolve_candidates_reference` is the pre-index
``resolve_candidates``: a fresh Python BFS per call, no cache, no CSR
index. The fast path, the sharded router and every warm memo layer are
asserted byte-identical to it. :func:`build_deployment` builds the
scenario deployment those tests rank on, flat or sharded from the same
seed and operation order, and :func:`request_workload` is the
deterministic request list they replay.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.ids import AuthorId, DatasetId, NodeId, SegmentId
from repro.obs import Registry
from repro.cdn.allocation import AllocationServer, ResolvedReplica
from repro.cdn.content import Replica, segment_dataset
from repro.cdn.placement import RandomPlacement
from repro.cdn.sharding import ShardedAllocationRouter
from repro.cdn.storage import StorageRepository
from repro.sim.scenarios import scenario_graph
from repro.social.ego import hop_distances


def resolve_candidates_reference(
    server: AllocationServer,
    segment_id: SegmentId,
    requester: AuthorId,
    *,
    limit: Optional[int] = None,
) -> List[ResolvedReplica]:
    """The pre-index ``resolve_candidates``, retained as a differential oracle.

    Recomputes hop distances with a fresh per-call Python BFS
    (:func:`repro.social.ego.hop_distances`) — no cache, no CSR index —
    and applies the identical servable/live filter, hoisted load lookup,
    and ``(hops, load, node id)`` sort. Tests assert the fast path's
    output is byte-identical to this on arbitrary deployments. Moves no
    counters.
    """
    reps = [
        r
        for r in server.catalog.replicas_of_segment(segment_id, servable_only=True)
        if server._is_live(r.node_id)
    ]
    if not reps:
        return []
    if requester in server.graph:
        hops = hop_distances(server.graph, {requester})
    else:
        hops = {}

    loads: Dict[NodeId, int] = {}
    for r in reps:
        if r.node_id not in loads:
            loads[r.node_id] = server.repository(r.node_id).reads_served

    author_of = server.author_of

    def sort_key(r: Replica) -> Tuple[int, int, str]:
        d = hops.get(author_of(r.node_id), 10**9)
        return (d, loads[r.node_id], str(r.node_id))

    reps.sort(key=sort_key)
    if limit is not None:
        reps = reps[:limit]
    return [
        ResolvedReplica(replica=r, social_hops=hops.get(author_of(r.node_id)))
        for r in reps
    ]


def build_deployment(
    *,
    far_clusters: int = 40,
    datasets: int = 6,
    n_replicas: int = 3,
    seed: int = 7,
    n_shards: Optional[int] = None,
    registry: Optional[Registry] = None,
    spread_owners: bool = False,
) -> Tuple[AllocationServer, List[SegmentId], List[AuthorId]]:
    """A scaled demand-shift scenario deployment, flat or sharded.

    A :func:`~repro.sim.scenarios.scenario_graph` of ``far_clusters``
    far clusters, one repository per author (``node-<author>``), and
    ``datasets`` single-segment datasets published at ``n_replicas``
    copies by random placement. Returns the server, the published
    segment ids, and the sorted author list the request workload
    round-robins over.

    ``n_shards=None`` builds a flat
    :class:`~repro.cdn.allocation.AllocationServer`; a count builds a
    :class:`~repro.cdn.sharding.ShardedAllocationRouter` over that many
    community-keyed catalog shards. Everything else — graph,
    repositories, datasets, placement seed and operation order — is the
    same, and the shards share one id allocator and one placement RNG,
    so replica ids and placements are byte-identical to the flat
    deployment's at any shard count.

    By default every dataset is published under the scenario's seed
    author. ``spread_owners`` picks owners at a fixed stride across the
    sorted author list instead, landing them in distinct far clusters —
    and so in distinct communities and sites — so a sharded deployment
    routes real work to every shard.
    """
    if datasets < 1:
        raise ConfigurationError(f"datasets must be >= 1, got {datasets}")
    graph = scenario_graph(far_clusters=far_clusters)
    registry = registry if registry is not None else Registry()
    if n_shards is None:
        server = AllocationServer(
            graph, RandomPlacement(), seed=seed, registry=registry
        )
    else:
        server = ShardedAllocationRouter(
            graph, RandomPlacement(), n_shards=n_shards, seed=seed, registry=registry
        )
    authors = sorted(graph.nodes())
    for author in authors:
        server.register_repository(
            author, StorageRepository(NodeId(f"node-{author}"), 10_000_000)
        )
    if spread_owners:
        owners = [authors[(i * len(authors)) // datasets] for i in range(datasets)]
    else:
        owners = [graph.seed if graph.seed is not None else authors[0]] * datasets
    segments: List[SegmentId] = []
    for i in range(datasets):
        ds = segment_dataset(DatasetId(f"bench-{i}"), owners[i], 1_000)
        server.publish_dataset(ds, n_replicas=n_replicas)
        segments.extend(s.segment_id for s in ds.segments)
    return server, segments, authors


def request_workload(
    segments: List[SegmentId], authors: List[AuthorId], requests: int
) -> List[Tuple[SegmentId, AuthorId]]:
    """Deterministic round-robin workload over segments x authors."""
    return [
        (segments[i % len(segments)], authors[i % len(authors)])
        for i in range(requests)
    ]
