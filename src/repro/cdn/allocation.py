"""Allocation servers (paper Section V-B).

"One or more allocation servers act as catalogs for global datasets ...
together they maintain a list of current replicas and place, move, update,
and maintain replicas." Their three tasks, all implemented here:

1. **Selection of replicas and data allocation** — placement algorithms
   run over the trusted social graph restricted to registered hosts.
2. **Data discovery and transfer management** — ``resolve`` finds the
   best servable replica for a requester (closest by social hops, online,
   tie-broken by load).
3. **General CDN management** — availability-driven state transitions,
   demand-driven re-replication of hot segments, and migration of replicas
   off departing nodes.

The server is fully instrumented through :mod:`repro.obs`: every resolve
records its latency, social hop distance, hop-cache hit/miss, and the
chosen node's load; publish/repair/migrate emit counters and structured
trace events. Pass ``registry=`` for an isolated registry (tests,
multi-tenant sims); the process-wide default is used otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..errors import CatalogError, ConfigurationError, PlacementError
from ..ids import AuthorId, DatasetId, NodeId, ReplicaId, SegmentId
from ..obs import Registry, get_registry, linear_buckets
from ..rng import SeedLike, make_rng, spawn
from ..social.ego import hop_distances
from ..social.graph import CoauthorshipGraph
from .catalog import ReplicaCatalog, ReplicaIdAllocator
from .content import Dataset, Replica, ReplicaState
from .demand import DemandTracker
from .hopindex import HopIndex
from .partitioning import PartitionAssignment
from .placement.base import PlacementAlgorithm
from .storage import StorageRepository

#: hop-distance sentinel for "requester has no social path to this host";
#: sorts after every real distance and is reported as ``social_hops=None``
UNREACHABLE_HOPS = 10**9


@dataclass(frozen=True, slots=True)
class ResolvedReplica:
    """Outcome of a discovery query: the chosen replica and its social
    distance from the requester (None when the requester is outside the
    graph or disconnected from every replica host).

    ``degraded`` marks a result served from a stale federated view while
    the replica's owning shard was unreachable (network partition): the
    replica was reachable and servable when chosen, but the authoritative
    catalog could not be consulted, so it may be short on freshness
    guarantees the owning shard would have enforced.

    ``peer`` marks a peer-tier source (:mod:`repro.cdn.peers`): the
    ``replica`` is the lease's synthetic envelope, not a catalog entry —
    reads from it are accounted on the :class:`~repro.cdn.peers.PeerRegistry`
    (never :meth:`AllocationServer.record_served`, which would charge a
    repository-partition read to a node serving from user-space cache)."""

    replica: Replica
    social_hops: Optional[int]
    degraded: bool = False
    peer: bool = False


@dataclass(frozen=True, slots=True)
class ReconcileReport:
    """Outcome of one post-heal anti-entropy sweep.

    ``remaining`` counts hints still queued after the sweep (non-zero
    only when the sweep ran while a partition was still active and some
    destinations stayed unreachable)."""

    replayed_publishes: int
    replayed_repairs: int
    repaired: int
    remaining: int


class AllocationFabric:
    """Shared membership/trust state for a federation of allocation servers.

    One fabric = one Social Cloud: the trusted graph, registered
    repositories, author<->node maps, offline set, liveness oracle, node
    state logs, the hop index, and the placement RNG. A standalone
    :class:`AllocationServer` builds a private fabric; the sharded router
    (:mod:`repro.cdn.sharding`) builds one and hands it to every shard, so
    membership events, liveness, and hop-distance caching behave exactly
    as on a single server while the *replica catalog* is partitioned.

    Containers (``repos``, ``node_of_author``, ``offline``, ...) are
    mutated in place and never rebound, so servers may hold direct
    aliases. ``graph``, ``hops``, ``liveness``, ``demand`` and
    ``hop_evictions_seen`` are rebound on events (graph swaps, oracle
    installs, a migration engine's construction) and must be read through
    the fabric.
    """

    def __init__(
        self,
        graph: CoauthorshipGraph,
        *,
        seed: SeedLike = None,
        hop_cache_sources: int = 1024,
    ) -> None:
        self.graph = graph
        self.repos: Dict[NodeId, StorageRepository] = {}
        self.node_of_author: Dict[AuthorId, NodeId] = {}
        self.author_of_node: Dict[NodeId, AuthorId] = {}
        self.offline: Set[NodeId] = set()
        self.liveness: Optional[Callable[[NodeId], bool]] = None
        #: reachability oracle (a NetworkModel-like object with
        #: ``reachable(a, b)`` and ``partitioned``); None = fully connected
        self.reachability: Optional[object] = None
        #: per-node (time, "online"|"offline") transitions, in record order
        self.state_log: Dict[NodeId, List[Tuple[float, str]]] = {}
        #: peer-tier registry (:class:`repro.cdn.peers.PeerRegistry`);
        #: ``None`` keeps discovery on the repository tier alone. Shared
        #: across shards exactly like ``liveness``: one fabric, one peer
        #: population.
        self.peer_registry: Optional[object] = None
        #: demand tracker every successful :meth:`AllocationServer.resolve`
        #: feeds; set by the :class:`~repro.cdn.migration.MigrationEngine`
        #: built over this fabric, ``None`` until then
        self.demand: Optional[DemandTracker] = None
        self.rng = make_rng(seed)
        self.hop_cache_sources = hop_cache_sources
        self.hops = HopIndex(graph, max_sources=hop_cache_sources)
        # high-water mark of index evictions already mirrored to obs; the
        # index is replaced on graph swaps, so the mark resets with it
        self.hop_evictions_seen = 0


class AllocationServer:
    """A centralized allocation server over one Social Cloud.

    Parameters
    ----------
    graph:
        The (trusted) coauthorship graph — the CDN overlay's social fabric.
        Placement and proximity queries run on it. Assigning a new graph to
        :attr:`graph` (an overlay rebuild) invalidates the hop cache.
    placement:
        Replica placement algorithm used at publish time.
    seed:
        RNG seed; placement randomness derives from it.
    registry:
        Observability registry; defaults to the process-wide one.

    Notes
    -----
    Storage hosts are researchers: a repository registered for author ``a``
    gets node id equal to ``a`` unless an explicit node id was chosen when
    constructing the repository. The mapping author -> node is kept by the
    server.
    """

    def __init__(
        self,
        graph: CoauthorshipGraph,
        placement: PlacementAlgorithm,
        *,
        seed: SeedLike = None,
        registry: Optional[Registry] = None,
        hop_cache_sources: int = 1024,
        fabric: Optional[AllocationFabric] = None,
        id_allocator: Optional[ReplicaIdAllocator] = None,
    ) -> None:
        if fabric is None:
            fabric = AllocationFabric(
                graph, seed=seed, hop_cache_sources=hop_cache_sources
            )
        # When a fabric is passed (shard mode), it wins over the graph /
        # seed / hop_cache_sources arguments: the router owns those.
        self.fabric = fabric
        self.placement = placement
        # Direct aliases into the fabric: these containers are mutated in
        # place and never rebound, so every shard sharing the fabric sees
        # one membership map (and standalone servers behave as before).
        self._rng = fabric.rng
        self._repos = fabric.repos
        self._node_of_author = fabric.node_of_author
        self._author_of_node = fabric.author_of_node
        self._offline = fabric.offline
        self._state_log = fabric.state_log
        self._dataset_budget: Dict[DatasetId, int] = {}

        self.obs = registry if registry is not None else get_registry()
        obs = self.obs
        # built after obs so the catalog's servable-cache counters land in
        # the same registry as the server's own instruments
        self.catalog = ReplicaCatalog(id_allocator=id_allocator, registry=obs)
        self._m_resolve_latency = obs.histogram(
            "alloc.resolve.latency_s", help="wall-clock duration of resolve()"
        )
        self._m_resolve_hops = obs.histogram(
            "alloc.resolve.hops",
            buckets=linear_buckets(0.0, 1.0, 16),
            help="social hop distance of the chosen replica",
        )
        self._m_resolve_total = obs.counter(
            "alloc.resolve.total", help="resolve() calls that found a replica"
        )
        self._m_resolve_unreachable = obs.counter(
            "alloc.resolve.unreachable",
            help="resolves whose requester had no social path to the chosen host",
        )
        self._m_resolve_failed = obs.counter(
            "alloc.resolve.failed", help="resolve() calls with no servable replica"
        )
        self._m_resolve_degraded = obs.counter(
            "alloc.resolve.degraded",
            help="resolves served from a stale federated view while the "
            "owning shard was partitioned away",
        )
        self._m_failovers = obs.counter(
            "alloc.resolve.failover",
            help="reads redirected to a backup replica after a failed transfer",
        )
        self._m_hop_cache_hits = obs.counter(
            "alloc.hop_cache.hits", help="hop-distance rows served from cache"
        )
        self._m_hop_cache_misses = obs.counter(
            "alloc.hop_cache.misses", help="hop-distance rows built by a BFS"
        )
        self._m_hop_cache_invalidations = obs.counter(
            "alloc.hop_cache.invalidations",
            help="full hop-index rebuilds (graph swaps)",
        )
        self._m_hop_partial_invalidations = obs.counter(
            "alloc.hop_index.partial_invalidations",
            help="cached hop rows dropped by selective membership invalidation",
        )
        self._m_hop_evictions = obs.counter(
            "alloc.hop_index.evictions",
            help="cached hop rows evicted by the index's size bound",
        )
        self._g_hop_index_size = obs.gauge(
            "alloc.hop_index.size", help="hop rows currently cached by the index"
        )
        self._m_chosen_load = obs.gauge(
            "alloc.resolve.chosen_node_load",
            help="reads already served by the most recently chosen node",
        )
        self._m_publishes = obs.counter(
            "alloc.publish.datasets", help="datasets successfully published"
        )
        self._m_replicas_placed = obs.counter(
            "alloc.publish.replicas", help="replicas created by publications"
        )
        self._m_rollbacks = obs.counter(
            "alloc.publish.rollbacks", help="publications rolled back mid-dataset"
        )
        self._m_budget_backfilled = obs.counter(
            "alloc.budget.backfilled",
            help="datasets found without an explicit replica budget (bug signal)",
        )
        self._m_repairs = obs.counter(
            "alloc.repair.replicas", help="replicas created by repair()"
        )
        self._m_repair_unrecoverable = obs.counter(
            "alloc.repair.unrecoverable", help="segments skipped with zero live replicas"
        )
        self._m_repair_starved = obs.counter(
            "alloc.repair.starved",
            help="repair passes that left a segment below budget (no eligible host)",
        )
        self._m_repair_no_source = obs.counter(
            "alloc.repair.no_verified_source",
            help="segments skipped because every live replica failed verification",
        )
        self._m_quarantines = obs.counter(
            "alloc.quarantine.replicas",
            help="replicas quarantined after failing a content-digest check",
        )
        self._m_migrations = obs.counter(
            "alloc.migrate.nodes", help="permanent node departures handled"
        )
        self._m_transitions = obs.counter(
            "alloc.node.transitions", help="recorded online/offline state changes"
        )
        self._m_repo_serves = obs.counter(
            "alloc.serves.repository",
            help="reads recorded on repository replicas (record_served); the "
            "denominator's repository share when computing peer offload",
        )

    # ------------------------------------------------------------------
    # graph (overlay fabric)
    # ------------------------------------------------------------------
    @property
    def graph(self) -> CoauthorshipGraph:
        """The trusted social graph the overlay runs on.

        Assigning a new graph (e.g. after a trust re-evaluation) rebuilds
        the hop index so discovery never serves distances from the old
        fabric.
        """
        return self.fabric.graph

    @graph.setter
    def graph(self, graph: CoauthorshipGraph) -> None:
        self.fabric.graph = graph
        self._rebuild_hop_index(reason="graph-swap")

    @property
    def hop_index(self) -> HopIndex:
        """The CSR-backed :class:`~repro.cdn.hopindex.HopIndex` behind
        discovery's distance lookups. Rebuilt on graph swaps; read-only
        for callers (tests inspect cache state through it)."""
        return self.fabric.hops

    def _rebuild_hop_index(self, *, reason: str) -> None:
        """Replace the hop index wholesale (the graph structure changed).

        Counted on ``alloc.hop_cache.invalidations`` — the historical
        full-flush counter, which since the :class:`HopIndex` rewrite
        moves only on graph swaps, never on membership events (those are
        ``alloc.hop_index.partial_invalidations``).
        """
        fabric = self.fabric
        fabric.hops = HopIndex(fabric.graph, max_sources=fabric.hop_cache_sources)
        fabric.hop_evictions_seen = 0
        self._sync_hop_metrics()
        self._m_hop_cache_invalidations.inc()
        self.obs.trace("hop_cache_invalidate", reason=reason)

    def _sync_hop_metrics(self) -> None:
        """Mirror the hop index's eviction count and size to obs.

        Runs after every event that can change the index — row builds
        (cache misses), membership invalidations, and full rebuilds — so
        the ``alloc.hop_index.size`` gauge can never go stale. A hit
        changes nothing and skips the sync. The historical bug: the sync
        only ran on cache misses, so an invalidation followed by nothing
        but hits left the gauge at its pre-invalidation value.
        """
        fabric = self.fabric
        evicted = fabric.hops.evictions - fabric.hop_evictions_seen
        if evicted:
            self._m_hop_evictions.inc(evicted)
            fabric.hop_evictions_seen = fabric.hops.evictions
        self._g_hop_index_size.set(fabric.hops.n_cached)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def register_repository(
        self, author: AuthorId, repository: StorageRepository
    ) -> NodeId:
        """Register a researcher's storage contribution.

        The author must be a member of the social graph — the paper's trust
        boundary: only community members may host replicas. Registration is
        a membership change, so the hop index selectively invalidates:
        only cached rows of sources in the newcomer's connected component
        are dropped (they are the only sources whose view of the overlay
        the newcomer can change); rows of sources in other components
        stay. Dropped rows are counted on
        ``alloc.hop_index.partial_invalidations``.
        """
        if author not in self.fabric.graph:
            raise ConfigurationError(
                f"author {author!r} is not in the trusted social graph"
            )
        if author in self._node_of_author:
            raise ConfigurationError(f"author {author!r} already contributed a repository")
        node = repository.node_id
        if node in self._repos:
            raise ConfigurationError(f"node {node!r} already registered")
        self._repos[node] = repository
        self._node_of_author[author] = node
        self._author_of_node[node] = author
        dropped = self.fabric.hops.invalidate_reachable(author)
        if dropped:
            self._m_hop_partial_invalidations.inc(dropped)
        self._sync_hop_metrics()
        self.obs.trace(
            "hop_index_invalidate",
            reason="register",
            author=str(author),
            dropped=dropped,
        )
        return node

    def repository(self, node: NodeId) -> StorageRepository:
        """Look up a registered repository."""
        try:
            return self._repos[node]
        except KeyError:
            raise ConfigurationError(f"unknown node {node!r}") from None

    def node_of(self, author: AuthorId) -> NodeId:
        """Node id of an author's repository."""
        try:
            return self._node_of_author[author]
        except KeyError:
            raise ConfigurationError(f"author {author!r} has no repository") from None

    def author_of(self, node: NodeId) -> AuthorId:
        """Author hosting a node."""
        try:
            return self._author_of_node[node]
        except KeyError:
            raise ConfigurationError(f"unknown node {node!r}") from None

    def registered_authors(self) -> List[AuthorId]:
        """Authors that contributed repositories."""
        return list(self._node_of_author)

    @property
    def n_nodes(self) -> int:
        """Number of registered storage nodes."""
        return len(self._repos)

    def has_node(self, node: NodeId) -> bool:
        """Whether ``node`` has a registered repository."""
        return node in self._repos

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
    def set_liveness_oracle(
        self, oracle: Optional[Callable[[NodeId], bool]]
    ) -> None:
        """Install an external liveness signal (e.g. a failure injector's
        ``is_alive``).

        Once set, discovery, placement, and repair treat a node as
        servable only when it is both not marked offline on the server
        (``node_offline`` / ``migrate_node``) *and* the oracle reports it
        alive — so replicas are never handed out on nodes the failure
        layer already killed, even before the corresponding
        ``node_offline`` bookkeeping lands. Pass ``None`` to remove.
        """
        if oracle is not None and not callable(oracle):
            raise ConfigurationError("liveness oracle must be callable or None")
        self.fabric.liveness = oracle

    def set_reachability_oracle(self, model: Optional[object]) -> None:
        """Install a network reachability oracle (typically the
        deployment's :class:`~repro.sim.network.NetworkModel`).

        The oracle must expose ``reachable(a, b) -> bool`` and a
        ``partitioned`` property; anything else raises
        :class:`~repro.errors.ConfigurationError`. While it reports a
        partition, discovery filters candidates down to replicas the
        *requester's node* can actually reach — a replica across the
        partition boundary is unservable no matter how alive its host is.
        When the network is whole the filter is a no-op (resolution stays
        bit-identical to a partition-unaware server). Pass ``None`` to
        remove.
        """
        if model is not None and not (
            callable(getattr(model, "reachable", None))
            and hasattr(model, "partitioned")
        ):
            raise ConfigurationError(
                "reachability oracle must expose reachable(a, b) and "
                "partitioned, or be None"
            )
        self.fabric.reachability = model

    def set_peer_registry(self, peers: Optional[object]) -> None:
        """Install a peer-tier registry (:class:`repro.cdn.peers.PeerRegistry`).

        Once set, :meth:`resolve_candidates` merges the registry's live,
        trust-admitted serving leases into the ranking — a peer beats a
        repository replica only when strictly socially closer (ties go to
        the authoritative repository tier). Installed on the shared
        fabric, so in a sharded deployment every shard (and the router's
        degraded path excepted — see :mod:`repro.cdn.sharding`) sees one
        peer population. Pass ``None`` to remove; with no registry the
        resolve path is byte-identical to a peer-unaware server.
        """
        if peers is not None and not callable(getattr(peers, "candidates", None)):
            raise ConfigurationError(
                "peer registry must expose candidates(segment_id, ...) or be None"
            )
        self.fabric.peer_registry = peers

    def _is_live(self, node: NodeId) -> bool:
        """Server-side liveness: not offline, and alive per the oracle."""
        if node in self._offline:
            return False
        liveness = self.fabric.liveness
        if liveness is not None and not liveness(node):
            return False
        return True
    def _record_transition(self, node: NodeId, at: float, state: str) -> None:
        # append-only; consumers (node_availability) sort by time, so callers
        # may mix explicit timestamps with the 0.0 default without breaking
        self._state_log.setdefault(node, []).append((at, state))
        self._m_transitions.inc()
        self.obs.trace("node_state", ts=at, node=str(node), state=state)

    def node_offline(self, node: NodeId, *, at: float = 0.0) -> int:
        """Mark a node offline; its replicas become STALE. Returns count.

        The transition time ``at`` is recorded in the server's per-node
        state log (see :meth:`state_transitions`) so downtime can be
        integrated into the paper's availability metric. Marking an
        already-offline node offline again is a no-op (no transition is
        recorded).
        """
        if node not in self._repos:
            raise ConfigurationError(f"unknown node {node!r}")
        if node in self._offline:
            return 0
        self._offline.add(node)
        self._record_transition(node, at, "offline")
        n = 0
        for rep in self.catalog.replicas_on_node(node):
            if rep.state is ReplicaState.ACTIVE:
                self.catalog.mark_stale(rep.replica_id)
                n += 1
        return n

    def node_online(self, node: NodeId, *, at: float = 0.0) -> int:
        """Mark a node online again; STALE replicas with intact data reactivate.

        Reactivation is digest-verified: a STALE copy whose on-disk digest
        no longer matches its segment rotted while the host was away and
        is quarantined (and evicted) instead of being resurrected into
        service. Records the transition time like :meth:`node_offline`.
        Bringing an already-online node online again is a no-op.
        """
        if node not in self._repos:
            raise ConfigurationError(f"unknown node {node!r}")
        if node not in self._offline:
            return 0
        self._offline.discard(node)
        self._record_transition(node, at, "online")
        repo = self._repos[node]
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

    def is_online(self, node: NodeId) -> bool:
        """Whether a registered node is currently online (and, when a
        liveness oracle is installed, alive according to it)."""
        if node not in self._repos:
            raise ConfigurationError(f"unknown node {node!r}")
        return self._is_live(node)

    def state_transitions(self, node: NodeId) -> List[Tuple[float, str]]:
        """The recorded ``(time, "online"|"offline")`` transitions of a node.

        Nodes are online from registration until their first transition;
        :func:`repro.metrics.cdn_metrics.node_availability` integrates this
        log into the paper's availability metric.
        """
        if node not in self._repos:
            raise ConfigurationError(f"unknown node {node!r}")
        return list(self._state_log.get(node, []))

    def availability_log(self) -> Dict[NodeId, List[Tuple[float, str]]]:
        """State-transition logs for every registered node (empty list for
        nodes that never changed state)."""
        return {node: list(self._state_log.get(node, [])) for node in self._repos}

    # ------------------------------------------------------------------
    # replica budgets
    # ------------------------------------------------------------------
    def replica_budget(self, dataset_id: DatasetId) -> int:
        """The replica budget of a registered dataset.

        Every dataset published through the server has an explicit budget.
        A dataset present in the catalog *without* one (registered behind
        the server's back) is backfilled with budget 1 — counted on the
        ``alloc.budget.backfilled`` counter so it is never silent.
        """
        try:
            return self._dataset_budget[dataset_id]
        except KeyError:
            self.catalog.dataset(dataset_id)  # raises CatalogError if unknown
            self._dataset_budget[dataset_id] = 1
            self._m_budget_backfilled.inc()
            self.obs.trace("budget_backfill", dataset=str(dataset_id))
            return 1

    def set_replica_budget(self, dataset_id: DatasetId, budget: int) -> None:
        """Set the replica budget of a registered dataset explicitly."""
        if budget < 1:
            raise ConfigurationError(f"budget must be >= 1, got {budget}")
        self.catalog.dataset(dataset_id)  # raises CatalogError if unknown
        self._dataset_budget[dataset_id] = budget

    # ------------------------------------------------------------------
    # placement / publication
    # ------------------------------------------------------------------
    def _host_subgraph(self) -> CoauthorshipGraph:
        """The social graph restricted to authors with online repositories.

        Authors who fell out of the trusted graph (a trust re-evaluation
        swapped in a smaller fabric after they registered) are excluded:
        the trust boundary is dynamic, and placement must never choose a
        host the current graph no longer admits.
        """
        graph = self.fabric.graph
        hosts = [
            a
            for a, n in self._node_of_author.items()
            if a in graph and self._is_live(n)
        ]
        if not hosts:
            raise PlacementError("no online repositories registered")
        # a throwaway read-only view: placement only ranks over it, so the
        # O(V + E) copy of subgraph() would be pure overhead on this path
        return graph.subgraph_view(hosts)

    def publish_dataset(
        self,
        dataset: Dataset,
        *,
        n_replicas: int = 3,
        at: float = 0.0,
    ) -> List[Replica]:
        """Register a dataset and place ``n_replicas`` replicas of each segment.

        Placement runs once per dataset over the host subgraph; every
        segment is replicated to the same hosts (segment-level scattering
        is the partitioner's job, see :mod:`repro.cdn.partitioning`).
        Hosts whose replica partition cannot fit a segment are skipped in
        favor of the next-ranked host. Publication is atomic: if any
        segment cannot be placed at least once, everything is rolled back
        and the dataset is not registered.
        """
        self.catalog.register_dataset(dataset)
        self._dataset_budget[dataset.dataset_id] = n_replicas
        replicas: List[Replica] = []
        try:
            hosts_graph = self._host_subgraph()
            budget = min(n_replicas, hosts_graph.n_nodes)
            # ask for extra candidates so capacity-skips can be back-filled
            want = min(hosts_graph.n_nodes, max(budget * 3, budget + 4))
            (rng,) = spawn(self._rng, 1)
            candidates = self.placement.select(hosts_graph, want, rng=rng)

            for segment in dataset.segments:
                placed = 0
                for author in candidates:
                    if placed >= budget:
                        break
                    node = self._node_of_author[author]
                    repo = self._repos[node]
                    if repo.hosts_segment(segment.segment_id):
                        continue
                    if not repo.can_host(segment.size_bytes):
                        continue
                    repo.store_replica(
                        segment.segment_id, segment.size_bytes, digest=segment.digest
                    )
                    rep = self.catalog.create_replica(
                        segment.segment_id, node, created_at=at, state=ReplicaState.ACTIVE
                    )
                    replicas.append(rep)
                    placed += 1
                if placed == 0:
                    raise PlacementError(
                        f"no registered host could store segment {segment.segment_id} "
                        f"({segment.size_bytes} bytes)"
                    )
        except PlacementError:
            self._rollback_publication(dataset, replicas)
            raise
        self._m_publishes.inc()
        self._m_replicas_placed.inc(len(replicas))
        self.obs.trace(
            "publish",
            ts=at,
            dataset=str(dataset.dataset_id),
            replicas=len(replicas),
            budget=n_replicas,
        )
        return replicas

    def _rollback_publication(self, dataset: Dataset, replicas: List[Replica]) -> None:
        """Undo a partially placed publication: free storage, retire
        replicas, unregister the dataset and its budget."""
        for rep in replicas:
            repo = self._repos[rep.node_id]
            if repo.hosts_segment(rep.segment_id):
                repo.evict_replica(rep.segment_id)
            self.catalog.retire(rep.replica_id)
        self._dataset_budget.pop(dataset.dataset_id, None)
        self.catalog.unregister_dataset(dataset.dataset_id)
        self._m_rollbacks.inc()
        self.obs.trace("publish_rollback", dataset=str(dataset.dataset_id))

    def publish_dataset_partitioned(
        self,
        dataset: Dataset,
        assignment: "PartitionAssignment",
        *,
        extra_replicas: int = 0,
        at: float = 0.0,
    ) -> List[Replica]:
        """Publish a dataset with socially partitioned segment placement.

        Each segment's primary replica goes to the host its community
        partition suggests (Section V-D second stage: "assign data
        segments to replicas based on usage records and social
        information"); ``extra_replicas`` additional copies per segment
        are then placed by the configured placement algorithm for
        redundancy.

        Hosts suggested by the assignment must have registered
        repositories; segments whose suggested host lacks capacity fall
        back to placement-chosen hosts. The dataset's replica budget is
        recorded explicitly as ``1 + extra_replicas``; if the post-publish
        repair pass cannot reach that budget for some segment (no eligible
        host with capacity), the shortfall is reported on the
        ``alloc.repair.starved`` counter and a ``publish_deficit`` trace
        event rather than passing silently.
        """
        self.catalog.register_dataset(dataset)
        self._dataset_budget[dataset.dataset_id] = 1 + extra_replicas
        replicas: List[Replica] = []
        try:
            hosts_graph = self._host_subgraph()
            (rng,) = spawn(self._rng, 1)
            fallback = self.placement.select(
                hosts_graph, min(hosts_graph.n_nodes, extra_replicas + 4), rng=rng
            )
            for segment in dataset.segments:
                host_author = assignment.host_of_segment.get(segment.segment_id)
                candidates: List[AuthorId] = []
                if host_author is not None:
                    candidates.append(host_author)
                candidates.extend(a for a in fallback if a != host_author)
                placed = False
                for author in candidates:
                    node = self._node_of_author.get(author)
                    if node is None or not self._is_live(node):
                        continue
                    repo = self._repos[node]
                    if repo.hosts_segment(segment.segment_id) or not repo.can_host(
                        segment.size_bytes
                    ):
                        continue
                    repo.store_replica(
                        segment.segment_id, segment.size_bytes, digest=segment.digest
                    )
                    replicas.append(
                        self.catalog.create_replica(
                            segment.segment_id,
                            node,
                            created_at=at,
                            state=ReplicaState.ACTIVE,
                        )
                    )
                    placed = True
                    break
                if not placed:
                    raise PlacementError(
                        f"no registered host could store segment {segment.segment_id}"
                    )
        except PlacementError:
            self._rollback_publication(dataset, replicas)
            raise
        self._m_publishes.inc()
        self._m_replicas_placed.inc(len(replicas))
        if extra_replicas:
            replicas.extend(self.repair(at=at))
            for seg_id, live in self.under_replicated():
                segment = self.catalog.segment(seg_id)
                if segment.dataset_id != dataset.dataset_id:
                    continue
                # repair() already counted the starvation; this trace ties the
                # shortfall to the publication that requested the budget
                self.obs.trace(
                    "publish_deficit",
                    ts=at,
                    dataset=str(dataset.dataset_id),
                    segment=str(seg_id),
                    live=live,
                    budget=1 + extra_replicas,
                )
        self.obs.trace(
            "publish",
            ts=at,
            dataset=str(dataset.dataset_id),
            replicas=len(replicas),
            budget=1 + extra_replicas,
        )
        return replicas

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------
    def _holder_hops(self, requester: AuthorId, placed: List[object]) -> List[int]:
        """Hop distance from ``requester`` to the host of each of ``placed``
        (replicas or peer leases — anything with a ``node_id``), in order.

        The one rank gather behind every discovery path: each distance is
        read off the *holder's* cached row at the requester's CSR position
        (the graph is undirected), so a cold requester costs one list
        index per holder instead of a BFS. :data:`UNREACHABLE_HOPS` stands
        in for "no path" — a requester outside the graph, a holder outside
        a swapped-in graph, or a holder in another component — and every
        caller reports it as a ``social_hops`` of None.

        Every row lookup counts on ``alloc.hop_cache.hits``/``misses``; a
        requester outside the graph looks up no rows.
        """
        index = self.fabric.hops
        col = index.position(requester)
        if col is None:
            return [UNREACHABLE_HOPS] * len(placed)
        author_of = self._author_of_node
        cached = index.rows.get
        out: List[int] = []
        append = out.append
        misses = 0
        for item in placed:
            author = author_of[item.node_id]
            row = cached(author)
            if row is None:
                row, _ = index.row(author)
                misses += 1
            d = row[col]
            append(d if d >= 0 else UNREACHABLE_HOPS)
        self._m_hop_cache_hits.inc(len(placed) - misses)
        if misses:
            self._m_hop_cache_misses.inc(misses)
            self._sync_hop_metrics()
        return out

    def hops_from(self, requester: AuthorId) -> Dict[AuthorId, int]:
        """Hop distances from ``requester`` over the trusted graph.

        Built from ``requester``'s row in the
        :class:`~repro.cdn.hopindex.HopIndex` behind :meth:`resolve`
        (rebuilt on graph swaps, selectively invalidated on membership
        events, bounded) — a fresh dict per call, O(V), so callers
        looking up many authors should call it once. Authors unreachable
        from the requester are absent; an unknown requester yields an
        empty map. The row lookup counts on ``alloc.hop_cache.*``. The
        migration planner scores promotion targets with this.
        """
        hops, hit = self.fabric.hops.distances(requester)
        if hit:
            self._m_hop_cache_hits.inc()
        else:
            self._m_hop_cache_misses.inc()
            self._sync_hop_metrics()
        return hops

    def resolve_candidates(
        self,
        segment_id: SegmentId,
        requester: AuthorId,
        *,
        limit: Optional[int] = None,
    ) -> List[ResolvedReplica]:
        """Rank every servable live replica of a segment for ``requester``.

        Ordering matches :meth:`resolve`: social hop distance from the
        requester first (unknown distance sorts last), then load (fewest
        reads served), then node id for determinism. Load is looked up
        once per candidate before sorting — never inside the comparison
        key.

        With a peer registry installed (:meth:`set_peer_registry`), the
        registry's candidate leases join the ranking under the peer-tier
        rank rule: a peer sorts **ahead of repository replicas only when
        strictly socially closer**; at equal distance the repository tier
        wins (authoritative, scrubbed, and the peer saves nothing when it
        is no nearer). Among peers at one distance, fewest serves first,
        then node id. Both tiers share one key, ``(hops, tier, load, node
        id)`` with tier 0 for the repository and 1 for peers: without peer
        candidates it orders exactly like ``(hops, load, node id)``, so
        the output is byte-identical to a peer-unaware server. Node ids
        are unique within one ranking, so the key is a total order; plain
        tuples are sorted and a :class:`ResolvedReplica` is built only for
        the first ``limit`` entries (callers keeping the head pass 1).

        This is a pure query — no read is recorded, no resolve counters
        move (hop-cache hit/miss accounting still applies). It is the
        failover path's source of backup replicas: when a transfer to the
        first choice fails, callers walk the remainder of this ranking —
        which is exactly how a failed or digest-mismatched peer read
        falls back to the repository tier.
        Returns an empty list when nothing is servable.
        """
        reps = [
            r
            for r in self.catalog.replicas_of_segment(segment_id, servable_only=True)
            if self._is_live(r.node_id)
        ]
        net = self.fabric.reachability
        if reps and net is not None and net.partitioned:
            origin = self._node_of_author.get(requester)
            if origin is not None:
                reps = [r for r in reps if net.reachable(origin, r.node_id)]
        peers = self.fabric.peer_registry
        peer_leases: List[object] = []
        if peers is not None:
            peer_leases = peers.candidates(
                segment_id,
                requester_node=self._node_of_author.get(requester),
                exclude_nodes=[r.node_id for r in reps],
            )
        if not reps and not peer_leases:
            return []
        dists = self._holder_hops(requester, reps + peer_leases)

        # the node id is unique per ranking: ties never reach the replica
        repos = self._repos
        ranked = [
            (d, 0, repos[r.node_id].reads_served, str(r.node_id), r)
            for r, d in zip(reps, dists)
        ]
        ranked += [
            (d, 1, lease.serves, str(lease.node_id), lease.replica)
            for lease, d in zip(peer_leases, dists[len(reps):])
        ]
        ranked.sort()
        if limit is not None:
            del ranked[limit:]
        return [
            ResolvedReplica(
                replica=r,
                social_hops=None if d == UNREACHABLE_HOPS else d,
                peer=tier == 1,
            )
            for d, tier, _load, _node, r in ranked
        ]

    def record_served(self, replica: Replica) -> None:
        """Record a read served by ``replica``: the demand signal on the
        replica plus load on its host repository. :meth:`resolve` does
        this for its chosen replica; failover callers do it for the
        backup that actually served. Repository replicas only — peer
        serves are accounted on the
        :class:`~repro.cdn.peers.PeerRegistry` instead (a peer holds the
        bytes in user space, not in a replica partition)."""
        replica.touch()
        self._repos[replica.node_id].read_segment(replica.segment_id)
        self._m_repo_serves.inc()

    def record_failover(
        self,
        segment_id: SegmentId,
        requester: AuthorId,
        *,
        from_node: NodeId,
        to_node: NodeId,
    ) -> None:
        """Record that a read of ``segment_id`` failed over from
        ``from_node`` to ``to_node`` after a transfer failure (the
        ``alloc.resolve.failover`` counter and a ``failover`` trace)."""
        self._m_failovers.inc()
        self.obs.trace(
            "failover",
            segment=str(segment_id),
            requester=str(requester),
            from_node=str(from_node),
            to_node=str(to_node),
        )

    def resolve(
        self, segment_id: SegmentId, requester: AuthorId, *, record: bool = True
    ) -> ResolvedReplica:
        """Find the best servable replica of a segment for ``requester``.

        Selection: live hosts only (not offline, alive per the liveness
        oracle when one is installed), ranked by
        :meth:`resolve_candidates`. By default the access is recorded on
        the chosen replica (the demand signal); callers that only learn
        later which replica actually served — the CDN client's failover
        path — pass ``record=False`` and call :meth:`record_served` on
        the replica that did, so a host that failed its transfer is never
        credited with a read it did not serve. Full observability either
        way: latency, hop distance, hop-cache hit/miss, chosen-node load,
        and a ``resolve`` trace event.

        Every successful resolve, ``record=False`` included, counts one
        access of ``(segment_id, requester)`` on the fabric's demand
        tracker (:attr:`AllocationFabric.demand`, installed by a
        :class:`~repro.cdn.migration.MigrationEngine`); a failed resolve
        counts none. The client always passes ``record=False``, so this
        feed — not the read recorded on a replica — is what the migration
        planner's rates are built from.

        Raises
        ------
        CatalogError
            If no servable replica exists.
        """
        t0 = perf_counter()
        candidates = self.resolve_candidates(segment_id, requester, limit=1)
        if not candidates:
            self._m_resolve_failed.inc()
            self.obs.trace(
                "resolve_failed", segment=str(segment_id), requester=str(requester)
            )
            raise CatalogError(f"no servable replica of {segment_id}")
        best = candidates[0]
        load = self._repos[best.replica.node_id].reads_served
        if record:
            if best.peer:
                self.fabric.peer_registry.record_direct_serve(best.replica)
            else:
                self.record_served(best.replica)
        demand = self.fabric.demand
        if demand is not None:
            demand.record_access(segment_id, requester)
        d = best.social_hops

        elapsed = perf_counter() - t0
        self._m_resolve_latency.observe(elapsed)
        self._m_resolve_total.inc()
        self._m_chosen_load.set(load)
        if d is not None:
            self._m_resolve_hops.observe(d)
        else:
            self._m_resolve_unreachable.inc()
        self.obs.trace(
            "resolve",
            segment=str(segment_id),
            requester=str(requester),
            node=str(best.replica.node_id),
            hops=d,
            load=load,
            latency_s=elapsed,
        )
        return best

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def replica_verified(self, replica: Replica) -> bool:
        """Whether a replica's on-disk copy matches its segment digest.

        False when the hosting repository no longer holds the segment at
        all (catalog/disk divergence) or when the stored digest disagrees
        with the segment's content digest. Legacy undigested copies verify
        trivially.
        """
        repo = self._repos.get(replica.node_id)
        if repo is None or not repo.hosts_segment(replica.segment_id):
            return False
        segment = self.catalog.segment(replica.segment_id)
        return repo.verify_replica(replica.segment_id, segment.digest)

    def quarantine_replica(
        self, replica_id: ReplicaId, *, at: float = 0.0, reason: str = "scrub"
    ) -> Replica:
        """Quarantine a corrupt replica and evict its rotted bytes.

        The replica leaves every servable lookup (so
        :meth:`resolve_candidates` never offers it and repair never uses
        it as a source), and the on-disk copy is evicted so the replica
        partition's byte accounting returns to baseline once repair
        re-replicates elsewhere. Counted on ``alloc.quarantine.replicas``.
        """
        rep = self.catalog.quarantine(replica_id)
        repo = self._repos.get(rep.node_id)
        if repo is not None and repo.hosts_segment(rep.segment_id):
            repo.evict_replica(rep.segment_id)
        self._m_quarantines.inc()
        self.obs.trace(
            "quarantine",
            ts=at,
            replica=str(rep.replica_id),
            node=str(rep.node_id),
            segment=str(rep.segment_id),
            reason=reason,
        )
        return rep

    # ------------------------------------------------------------------
    # management: repair, demand, migration
    # ------------------------------------------------------------------
    def under_replicated(self) -> List[Tuple[SegmentId, int]]:
        """Segments below their dataset's replica budget, counting only
        replicas on live hosts (online, and alive per the liveness
        oracle when one is installed)."""
        out: List[Tuple[SegmentId, int]] = []
        for ds in self.catalog.datasets():
            budget = self.replica_budget(ds.dataset_id)
            for seg in ds.segments:
                live = [
                    r
                    for r in self.catalog.replicas_of_segment(
                        seg.segment_id, servable_only=True
                    )
                    if self._is_live(r.node_id)
                ]
                if len(live) < budget:
                    out.append((seg.segment_id, len(live)))
        out.sort(key=lambda t: (t[1], t[0]))
        return out

    def eligible_migration_targets(self, segment_id: SegmentId) -> List[AuthorId]:
        """Authors whose nodes may receive a new replica of ``segment_id``.

        A target must be trusted (a member of the *current* graph — the
        boundary is dynamic after a trust re-evaluation swaps the fabric),
        live (online and alive per the liveness oracle), and not already
        holding any non-retired replica of the segment: servable ones
        obviously, but also STALE (bytes still on the offline disk) and
        QUARANTINED (the node's copy rotted once — ``create_replica``
        refuses the node until the entry is retired).

        This is the single target-eligibility rule shared by
        :meth:`repair` (and therefore :meth:`migrate_node`) and the
        migration planner (:mod:`repro.cdn.migration`), so crash-driven
        and demand-driven migration cannot diverge on who may host.
        Capacity is intentionally not checked here — it changes between
        planning and execution, so placers re-check ``can_host`` when they
        actually store bytes.
        """
        self.catalog.segment(segment_id)  # raises CatalogError if unknown
        holders = {r.node_id for r in self.catalog.replicas_of_segment(segment_id)}
        graph = self.fabric.graph
        return [
            a
            for a, n in self._node_of_author.items()
            if a in graph and self._is_live(n) and n not in holders
        ]

    def untrusted_hosts(self) -> List[NodeId]:
        """Registered nodes whose author the current graph no longer admits.

        Non-empty after a trust-graph swap (or policy change) strands
        replicas on hosts outside the trust boundary; the migration
        planner turns each stranded replica into a mandatory
        ``EVICT_UNTRUSTED`` move. Sorted for determinism.
        """
        return sorted(
            n for a, n in self._node_of_author.items() if a not in self.fabric.graph
        )

    def pending_handoff(self) -> List[Tuple]:
        """Queued hinted-handoff writes: always empty here.

        One server has no remote coordinator to park a write for; the
        sharded router (:mod:`repro.cdn.sharding`) keeps the real log.
        """
        return []

    def reconcile_after_heal(self, *, at: float = 0.0) -> ReconcileReport:
        """Post-heal anti-entropy sweep: a no-op on one server, which
        parks no writes during a partition. Returns an all-zero
        :class:`ReconcileReport`."""
        return ReconcileReport(
            replayed_publishes=0, replayed_repairs=0, repaired=0, remaining=0
        )

    def repair(self, *, at: float = 0.0) -> List[Replica]:
        """Re-replicate every under-replicated segment onto new hosts.

        New hosts are chosen by the placement algorithm over online hosts
        not already holding the segment. Re-replication copies from a
        *verified* source: a live replica whose on-disk digest matches the
        segment (quarantined replicas are not servable and corrupt-but-
        undetected copies fail verification, so neither can seed a
        repair). Segments with zero live replicas are unrecoverable (data
        loss) and are skipped — they surface in :meth:`under_replicated`
        output, on the ``alloc.repair.unrecoverable`` counter, and as
        ``repair_skip`` trace events; segments whose every live replica
        fails verification are counted on
        ``alloc.repair.no_verified_source``. Segments left below budget
        because no eligible host remained are counted on
        ``alloc.repair.starved``.
        """
        created: List[Replica] = []
        for segment_id, live in self.under_replicated():
            created.extend(self._repair_segment(segment_id, live, at=at))
        self._m_repairs.inc(len(created))
        return created

    def _repair_segment(
        self,
        segment_id: SegmentId,
        live: int,
        *,
        at: float = 0.0,
        origin: Optional[NodeId] = None,
    ) -> List[Replica]:
        """Re-replicate one under-replicated segment.

        The per-segment body of :meth:`repair`, factored out so the
        sharded router can drive a *federation-wide* repair in the same
        global segment order — and therefore the same placement-RNG draw
        sequence — as a single server, dispatching each segment to the
        shard that owns it. Does not touch ``alloc.repair.replicas``;
        the caller counts the grand total.

        With ``origin`` given while the network is partitioned, both copy
        sources and placement targets are confined to nodes reachable
        from ``origin`` — a partitioned repair must not pretend to copy
        bytes across a severed link. When the network is whole the filter
        is a no-op (identical RNG draws to a partition-unaware repair).
        """
        net = self.fabric.reachability
        if origin is None or net is None or not net.partitioned:
            reach = None
        else:
            reach = net.reachable
        if live == 0:
            self._m_repair_unrecoverable.inc()
            self.obs.trace(
                "repair_skip", ts=at, segment=str(segment_id), reason="unrecoverable"
            )
            return []  # unrecoverable without a live source
        sources = [
            r
            for r in self.catalog.replicas_of_segment(
                segment_id, servable_only=True
            )
            if self._is_live(r.node_id)
            and (reach is None or reach(origin, r.node_id))
            and self.replica_verified(r)
        ]
        if not sources:
            self._m_repair_no_source.inc()
            self.obs.trace(
                "repair_skip",
                ts=at,
                segment=str(segment_id),
                reason="no-verified-source",
            )
            return []  # every live copy is rotted: nothing safe to copy
        segment = self.catalog.segment(segment_id)
        budget = self.replica_budget(segment.dataset_id)
        need = budget - live
        eligible = self.eligible_migration_targets(segment_id)
        if reach is not None:
            eligible = [
                a
                for a in eligible
                if reach(origin, self._node_of_author[a])
            ]
        if not eligible:
            self._m_repair_starved.inc()
            self.obs.trace(
                "repair_skip", ts=at, segment=str(segment_id), reason="no-eligible-host"
            )
            return []
        sub = self.fabric.graph.subgraph_view(eligible)
        (rng,) = spawn(self._rng, 1)
        try:
            picks = self.placement.select(sub, min(need * 2 + 2, sub.n_nodes), rng=rng)
        except PlacementError:
            self._m_repair_starved.inc()
            self.obs.trace(
                "repair_skip", ts=at, segment=str(segment_id), reason="placement-failed"
            )
            return []
        created: List[Replica] = []
        for author in picks:
            if len(created) >= need:
                break
            node = self._node_of_author[author]
            repo = self._repos[node]
            if repo.hosts_segment(segment_id) or not repo.can_host(segment.size_bytes):
                continue
            repo.store_replica(
                segment_id, segment.size_bytes, digest=segment.digest
            )
            created.append(
                self.catalog.create_replica(
                    segment_id, node, created_at=at, state=ReplicaState.ACTIVE
                )
            )
        if len(created) < need:
            self._m_repair_starved.inc()
            self.obs.trace(
                "repair_skip",
                ts=at,
                segment=str(segment_id),
                reason="insufficient-capacity",
            )
        return created

    def hot_segments(self, threshold: int) -> List[Tuple[SegmentId, int]]:
        """Segments whose total replica access count reaches ``threshold``,
        hottest first (demand signal for re-replication)."""
        totals: Dict[SegmentId, int] = {}
        for rep in self.catalog.iter_replicas():
            totals[rep.segment_id] = totals.get(rep.segment_id, 0) + rep.access_count
        out = [(s, c) for s, c in totals.items() if c >= threshold]
        out.sort(key=lambda t: (-t[1], t[0]))
        return out

    def scale_hot(self, threshold: int, *, extra: int = 1, at: float = 0.0) -> List[Replica]:
        """Raise the budget of hot segments' datasets by ``extra`` and repair.

        Implements "ensuring availability by increasing the number of
        replicas needed based on demand" (Section V-B).
        """
        if extra < 1:
            raise ConfigurationError(f"extra must be >= 1, got {extra}")
        touched: Set[DatasetId] = set()
        for seg_id, _count in self.hot_segments(threshold):
            ds_id = self.catalog.segment(seg_id).dataset_id
            if ds_id not in touched:
                self._dataset_budget[ds_id] = self.replica_budget(ds_id) + extra
                touched.add(ds_id)
        if not touched:
            return []
        return self.repair(at=at)

    def migrate_node(self, node: NodeId, *, at: float = 0.0) -> List[Replica]:
        """Handle a permanent departure: retire the node's replicas, free its
        storage, and re-replicate elsewhere. Returns the new replicas.

        The departure is recorded as an ``offline`` transition at ``at`` in
        the node's state log (the availability metric treats departure as
        terminal downtime).
        """
        if node not in self._repos:
            raise ConfigurationError(f"unknown node {node!r}")
        repo = self._repos[node]
        for rep in self.catalog.replicas_on_node(node):
            self.catalog.retire(rep.replica_id)
            if repo.hosts_segment(rep.segment_id):
                repo.evict_replica(rep.segment_id)
        if node not in self._offline:
            self._offline.add(node)
            self._record_transition(node, at, "offline")
        self._m_migrations.inc()
        self.obs.trace("migrate", ts=at, node=str(node))
        return self.repair(at=at)


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
    output is byte-identical to this on arbitrary deployments; benchmarks
    use it as the resolves-per-second baseline. Moves no counters.
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
