"""The S-CDN facade: one object wiring the paper's four components.

"Our vision of a S-CDN captures four core components: a Social Network
Platform, Allocation Servers, Individual Storage Repositories, and a
Social Middleware" (Section V). :class:`SCDN` assembles them over a
trusted social graph and drives a full simulated deployment:

* researchers **join** through the platform (credential + session),
  contributing a storage repository;
* owners **publish** datasets (policy-checked, placement-driven);
* members **access** data through their CDN client (policy-checked,
  socially-routed, measured);
* churn and failures flow through the allocation server and the
  replication policy;
* every event lands in a :class:`~repro.metrics.MetricsCollector`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:
    from .cdn.integrity import IntegrityScrubber
    from .cdn.migration import MigrationConfig, MigrationEngine
    from .cdn.peers import PeerRegistry
    from .sim.failures import FailureInjector

from .errors import AuthenticationError, AuthorizationError, ConfigurationError
from .ids import AuthorId, DatasetId, NodeId
from .rng import SeedLike, make_rng, spawn
from .social.graph import CoauthorshipGraph
from .cdn.allocation import AllocationServer
from .cdn.client import AccessOutcome, CDNClient
from .cdn.sharding import ShardedAllocationRouter
from .cdn.content import Dataset, segment_dataset
from .cdn.placement.base import PlacementAlgorithm
from .cdn.placement import CommunityNodeDegreePlacement
from .cdn.consistency import UpdatePropagator, WriteRecord
from .cdn.replication import ReplicationPolicy
from .cdn.storage import StorageRepository
from .cdn.transfer import RetryPolicy, TransferClient
from .middleware.auth import Credential, SocialNetworkPlatform
from .middleware.policy import (
    AccessDecision,
    OwnerPolicy,
    PolicyStack,
    ProjectMembershipPolicy,
    SocialProximityPolicy,
)
from .middleware.session import Session, SessionManager
from .metrics.collector import (
    ExchangeEvent,
    MetricsCollector,
    NodeStateEvent,
    RequestEvent,
)
from .obs import Registry, get_registry
from .sim.engine import SimulationEngine
from .sim.network import NetworkModel, random_geography


@dataclass(frozen=True)
class SCDNConfig:
    """Facade configuration.

    Attributes
    ----------
    n_replicas:
        Default replica budget per dataset.
    default_capacity_bytes:
        Repository capacity for members joining without an explicit one.
    proximity_hops:
        Social distance from the owner within which access is granted
        (on top of project rosters and ownership).
    transfer_failure_prob:
        Per-attempt failure probability of the simulated mover.
    transfer_retry:
        Retry/backoff/timeout policy of the simulated mover (see
        :class:`repro.cdn.transfer.RetryPolicy`); it validates itself.
    shards:
        Number of allocation shards. 1 (default) wires the classic
        single :class:`~repro.cdn.allocation.AllocationServer`; above 1
        the allocation tier is a
        :class:`~repro.cdn.sharding.ShardedAllocationRouter` over a
        community-partitioned catalog — same interface, bit-identical
        behavior (see :mod:`repro.cdn.sharding`).
    peer_tier:
        Enable the peer-assisted delivery tier (:mod:`repro.cdn.peers`):
        clients that successfully fetch a segment become time-limited,
        trust-gated serving peers ranked ahead of repository replicas
        when socially closer. Off by default — and when off, the
        deployment is bit-identical to a peer-unaware one.
    peer_lease_ttl_s / peer_cache_segments / peer_max_concurrent_serves:
        Peer-tier knobs (lease TTL in engine time, per-node lease cap —
        zero admits nobody — and per-lease in-flight read cap); see
        :class:`~repro.cdn.peers.PeerRegistry`.
    """

    n_replicas: int = 3
    default_capacity_bytes: int = 500 * 10**9
    proximity_hops: int = 2
    transfer_failure_prob: float = 0.02
    transfer_retry: RetryPolicy = RetryPolicy()
    shards: int = 1
    peer_tier: bool = False
    peer_lease_ttl_s: float = 600.0
    peer_cache_segments: int = 4
    peer_max_concurrent_serves: int = 4

    def __post_init__(self) -> None:
        if self.n_replicas < 1:
            raise ConfigurationError("n_replicas must be >= 1")
        if self.default_capacity_bytes <= 0:
            raise ConfigurationError("default_capacity_bytes must be positive")
        if self.proximity_hops < 0:
            raise ConfigurationError("proximity_hops must be >= 0")
        if not 0.0 <= self.transfer_failure_prob < 1.0:
            raise ConfigurationError("transfer_failure_prob must be in [0, 1)")
        if self.shards < 1:
            raise ConfigurationError("shards must be >= 1")
        if self.peer_lease_ttl_s <= 0:
            raise ConfigurationError("peer_lease_ttl_s must be positive")
        if self.peer_cache_segments < 0:
            raise ConfigurationError("peer_cache_segments must be >= 0")
        if self.peer_max_concurrent_serves < 1:
            raise ConfigurationError("peer_max_concurrent_serves must be >= 1")


class SCDN:
    """A fully wired Social Content Delivery Network.

    Parameters
    ----------
    graph:
        The trusted coauthorship graph (typically the output of a trust
        heuristic).
    placement:
        Replica placement algorithm (default: the paper's winner,
        community node degree).
    network:
        Geographic network model; generated randomly when omitted.
    registry:
        Observability registry shared by every component (allocation
        server, transfer client, sim engine, replication policy);
        defaults to the process-wide one. :meth:`obs_snapshot` exports it.
    """

    def __init__(
        self,
        graph: CoauthorshipGraph,
        *,
        placement: Optional[PlacementAlgorithm] = None,
        network: Optional[NetworkModel] = None,
        config: Optional[SCDNConfig] = None,
        seed: SeedLike = None,
        registry: Optional[Registry] = None,
    ) -> None:
        self.graph = graph
        self.config = config or SCDNConfig()
        self.obs = registry if registry is not None else get_registry()
        rng = make_rng(seed)
        net_rng, alloc_rng, transfer_rng = spawn(rng, 3)
        self.network = network or random_geography(
            [NodeId(str(a)) for a in graph.nodes()], seed=net_rng
        )
        self.platform = SocialNetworkPlatform(graph)
        self.sessions = SessionManager(self.platform)
        if self.config.shards > 1:
            self.server = ShardedAllocationRouter(
                graph,
                placement or CommunityNodeDegreePlacement(),
                n_shards=self.config.shards,
                seed=alloc_rng,
                registry=self.obs,
            )
        else:
            self.server = AllocationServer(
                graph,
                placement or CommunityNodeDegreePlacement(),
                seed=alloc_rng,
                registry=self.obs,
            )
        # partition awareness: discovery filters candidates by requester
        # reachability whenever the network model reports a partition
        self.server.set_reachability_oracle(self.network)
        self.transfer = TransferClient(
            self.network,
            failure_prob=self.config.transfer_failure_prob,
            retry=self.config.transfer_retry,
            seed=transfer_rng,
            registry=self.obs,
        )
        # verified transfers: the mover checks the source's stored digest
        # against the request's expected digest at completion
        self.transfer.set_digest_resolver(self._stored_digest)
        self.engine = SimulationEngine(registry=self.obs)
        self.collector = MetricsCollector()
        self.replication = ReplicationPolicy(self.server, registry=self.obs)
        self.propagator = UpdatePropagator(
            self.server, self.transfer, self.engine
        )
        self.clients: Dict[AuthorId, CDNClient] = {}
        self._sessions_by_author: Dict[AuthorId, Session] = {}
        self._credentials: Dict[AuthorId, Credential] = {}
        self._rosters: Dict[str, set] = {}
        self._policy = self._build_policy()
        #: peer-assisted delivery tier (None until enabled — the default;
        #: a peerless deployment is bit-identical to pre-peer builds)
        self.peers: Optional["PeerRegistry"] = None
        if self.config.peer_tier:
            self.enable_peer_tier()

    def _build_policy(self) -> PolicyStack:
        return PolicyStack(
            [
                OwnerPolicy(),
                ProjectMembershipPolicy(self._rosters),
                SocialProximityPolicy(self.graph, max_hops=self.config.proximity_hops),
            ]
        )

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def join(
        self,
        author: AuthorId,
        *,
        secret: str = "s3cret",
        capacity_bytes: Optional[int] = None,
        region: str = "unknown",
    ) -> CDNClient:
        """A researcher joins: register, authenticate, contribute storage.

        Returns the researcher's CDN client.
        """
        if author in self.clients:
            raise ConfigurationError(f"{author!r} already joined")
        credential = self.platform.register_user(author, secret)
        self._credentials[author] = credential
        session = self.sessions.login(credential, now=self.engine.now)
        self._sessions_by_author[author] = session
        capacity = capacity_bytes or self.config.default_capacity_bytes
        node = NodeId(str(author))
        if node not in self.network:
            # member provisioned after network creation: co-locate at origin
            from .sim.network import GeoPoint

            self.network.add_node(node, GeoPoint(0.0, 0.0))
        repo = StorageRepository(node, capacity)
        self.server.register_repository(author, repo)
        client = CDNClient(
            author, repo, self.server, self.transfer, peers=self.peers
        )
        self.clients[author] = client
        self.collector.register_node(node, capacity_bytes=capacity, region=region)
        self.collector.record_node_state(
            NodeStateEvent(time=self.engine.now, node=node, state="joined")
        )
        return client

    def create_project(self, name: str, members: Sequence[AuthorId]) -> None:
        """Declare a project roster (the multi-center-trial boundary)."""
        if name in self._rosters:
            raise ConfigurationError(f"project {name!r} already exists")
        self._rosters[name] = set(members)
        # ProjectMembershipPolicy snapshots rosters at construction
        self._policy = self._build_policy()

    def _require_session(self, author: AuthorId) -> Session:
        session = self._sessions_by_author.get(author)
        if session is None:
            raise AuthorizationError(f"{author!r} has not joined the S-CDN")
        try:
            return self.sessions.validate(session.token, now=self.engine.now)
        except AuthenticationError:
            # expired: the CDN client holds the user's platform credentials
            # ("configured with the user's social network credentials"),
            # so it re-authenticates transparently
            fresh = self.sessions.login(
                self._credentials[author], now=self.engine.now
            )
            self._sessions_by_author[author] = fresh
            return fresh

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def publish(
        self,
        owner: AuthorId,
        dataset_id: str,
        size_bytes: int,
        *,
        n_segments: int = 1,
        project: Optional[str] = None,
        n_replicas: Optional[int] = None,
    ) -> Dataset:
        """Publish a dataset into the CDN (authenticated, policy-checked)."""
        self._require_session(owner)
        if project is not None and project not in self._rosters:
            raise ConfigurationError(f"unknown project {project!r}")
        if project is not None and owner not in self._rosters[project]:
            raise AuthorizationError(
                f"{owner!r} is not a member of project {project!r}"
            )
        dataset = segment_dataset(
            DatasetId(dataset_id),
            owner,
            size_bytes,
            n_segments=n_segments,
            project=project,
        )
        self.server.publish_dataset(
            dataset,
            n_replicas=n_replicas or self.config.n_replicas,
            at=self.engine.now,
        )
        return dataset

    def access(self, author: AuthorId, dataset_id: str) -> List[AccessOutcome]:
        """Access a dataset as ``author`` (authenticated, policy-checked,
        measured). Returns per-segment outcomes."""
        self._require_session(author)
        client = self.clients[author]
        dataset = self.server.catalog.dataset(DatasetId(dataset_id))
        self._policy.authorize(author, dataset)
        outcomes = client.access_dataset(dataset.dataset_id)
        for outcome in outcomes:
            if outcome.source == "replica-partition":
                kind = "local"
            elif outcome.source == "user-cache":
                kind = "local"
            elif not outcome.ok:
                kind = "failed"
            elif outcome.social_hops is not None and outcome.social_hops <= 1:
                kind = "near"
            else:
                kind = "remote"
            self.collector.record_request(
                RequestEvent(
                    time=self.engine.now,
                    requester=author,
                    segment_id=outcome.segment_id,
                    outcome=kind,  # type: ignore[arg-type]
                    social_hops=outcome.social_hops,
                    duration_s=outcome.duration_s,
                )
            )
            if outcome.source == "remote" and outcome.ok:
                segment = self.server.catalog.segment(outcome.segment_id)
                self.collector.record_exchange(
                    ExchangeEvent(
                        time=self.engine.now,
                        source=NodeId("replica"),
                        dest=client.repository.node_id,
                        segment_id=outcome.segment_id,
                        size_bytes=segment.size_bytes,
                        ok=True,
                        duration_s=outcome.duration_s,
                    )
                )
        return outcomes

    def can_access(self, author: AuthorId, dataset_id: str) -> bool:
        """Policy check without side effects."""
        dataset = self.server.catalog.dataset(DatasetId(dataset_id))
        return self._policy.evaluate(author, dataset) is AccessDecision.ALLOW

    def update(self, author: AuthorId, dataset_id: str) -> List[WriteRecord]:
        """Re-publish a dataset's contents: a new version of every segment.

        Only the dataset owner may write. The write lands on the replica
        socially closest to the owner and propagates to the other replicas
        (eventual consistency; replicas offline at write time are caught
        up by the propagator's anti-entropy sweeps).
        """
        self._require_session(author)
        dataset = self.server.catalog.dataset(DatasetId(dataset_id))
        if author != dataset.owner:
            raise AuthorizationError(
                f"only the owner {dataset.owner!r} may update {dataset_id!r}"
            )
        records: List[WriteRecord] = []
        for segment in dataset.segments:
            resolved = self.server.resolve(segment.segment_id, author)
            records.append(
                self.propagator.write(segment.segment_id, resolved.replica.node_id)
            )
        return records

    # ------------------------------------------------------------------
    # churn
    # ------------------------------------------------------------------
    def set_offline(self, author: AuthorId) -> None:
        """Take a member's node offline (transient)."""
        node = self.server.node_of(author)
        self.server.node_offline(node, at=self.engine.now)
        self.collector.record_node_state(
            NodeStateEvent(time=self.engine.now, node=node, state="offline")
        )

    def set_online(self, author: AuthorId) -> None:
        """Bring a member's node back online."""
        node = self.server.node_of(author)
        self.server.node_online(node, at=self.engine.now)
        self.collector.record_node_state(
            NodeStateEvent(time=self.engine.now, node=node, state="online")
        )

    def depart(self, author: AuthorId) -> None:
        """A member permanently leaves; replicas migrate elsewhere."""
        node = self.server.node_of(author)
        self.server.migrate_node(node, at=self.engine.now)
        self.collector.record_node_state(
            NodeStateEvent(time=self.engine.now, node=node, state="departed")
        )

    def failure_injector(
        self,
        *,
        seed: SeedLike = None,
        repair_delay_s: float = 0.0,
    ) -> "FailureInjector":
        """A :class:`~repro.sim.failures.FailureInjector` over every
        member node, fully wired into this deployment: its ``is_alive``
        becomes the allocation server's liveness oracle, crashes trigger
        replica migration, outages flip nodes offline/online, and every
        disruption schedules a repair audit ``repair_delay_s`` later on
        the replication policy. The chaos harness
        (:mod:`repro.sim.chaos`) builds on this.
        """
        from .sim.failures import FailureInjector

        if not self.clients:
            raise ConfigurationError("no members joined yet")
        nodes = [client.repository.node_id for client in self.clients.values()]
        injector = FailureInjector(self.engine, nodes, seed=seed)
        injector.attach_server(
            self.server, policy=self.replication, repair_delay_s=repair_delay_s
        )
        if self.peers is not None:
            # crashes and outage starts drop the victim's serving leases
            # (expiry events cancelled — no phantom lease-ends)
            self.peers.attach_injector(injector)
        return injector

    # ------------------------------------------------------------------
    # peer-assisted delivery tier
    # ------------------------------------------------------------------
    def enable_peer_tier(
        self,
        *,
        lease_ttl_s: Optional[float] = None,
        cache_segments: Optional[int] = None,
        max_concurrent_serves: Optional[int] = None,
    ) -> "PeerRegistry":
        """Switch on the peer-assisted delivery tier (:mod:`repro.cdn.peers`).

        Builds a :class:`~repro.cdn.peers.PeerRegistry` over the
        allocation fabric and this deployment's engine, installs it on
        the allocation tier (single server or sharded router — the
        fabric is shared either way), and wires every current and future
        CDN client to offer leases and bracket peer reads. Knobs default
        to the facade config's ``peer_*`` values. Idempotent: a second
        call returns the existing registry unchanged.
        """
        if self.peers is not None:
            return self.peers
        from .cdn.peers import PeerRegistry

        self.peers = PeerRegistry(
            self.server.fabric,
            self.engine,
            lease_ttl_s=lease_ttl_s
            if lease_ttl_s is not None
            else self.config.peer_lease_ttl_s,
            cache_segments=cache_segments
            if cache_segments is not None
            else self.config.peer_cache_segments,
            max_concurrent_serves=max_concurrent_serves
            if max_concurrent_serves is not None
            else self.config.peer_max_concurrent_serves,
            registry=self.obs,
        )
        self.server.set_peer_registry(self.peers)
        for client in self.clients.values():
            client.peers = self.peers
        return self.peers

    # ------------------------------------------------------------------
    # data integrity
    # ------------------------------------------------------------------
    def _stored_digest(self, node: NodeId, segment_id) -> Optional[str]:
        """Digest of the bytes ``node`` actually holds for ``segment_id``
        (the transfer client's verification source). ``None`` when the
        node is unregistered or no longer hosts the segment.

        Peer-tier coverage: when the node's *replica partition* does not
        host the segment but the peer registry holds a lease for it, the
        lease digest answers — so peer reads are digest-verified exactly
        like repository reads and a corrupt peer copy fails the transfer
        (then fails over to the repository tier)."""
        if not self.server.has_node(node):
            return None
        repo = self.server.repository(node)
        if not repo.hosts_segment(segment_id):
            if self.peers is not None:
                return self.peers.stored_digest(node, segment_id)
            return None
        return repo.stored_digest(segment_id)

    def integrity_scrubber(
        self,
        *,
        scrub_interval_s: float = 600.0,
        repair_delay_s: float = 0.0,
    ) -> "IntegrityScrubber":
        """An :class:`~repro.cdn.integrity.IntegrityScrubber` over this
        deployment: it audits every member repository against the catalog's
        content digests, quarantines rotted replicas through the allocation
        server, and triggers re-replication on the replication policy.
        Call :meth:`IntegrityScrubber.attach` with :attr:`engine` for
        periodic scrubs, or drive :meth:`IntegrityScrubber.scrub` directly.
        """
        from .cdn.integrity import IntegrityScrubber

        return IntegrityScrubber(
            self.server,
            policy=self.replication,
            scrub_interval_s=scrub_interval_s,
            repair_delay_s=repair_delay_s,
            registry=self.obs,
        )

    # ------------------------------------------------------------------
    # replica migration
    # ------------------------------------------------------------------
    def migration_engine(
        self,
        *,
        config: Optional["MigrationConfig"] = None,
        seed: SeedLike = None,
    ) -> "MigrationEngine":
        """A :class:`~repro.cdn.migration.MigrationEngine` over this
        deployment: its demand tracker is installed on the allocation
        fabric, so every successful resolve of this deployment records
        its access there directly; its planner reads the allocation
        server's catalog/trust/load state, and its executor moves replicas
        through the verified transfer client copy-first/retire-after. Call
        :meth:`MigrationEngine.attach` with :attr:`engine` for periodic
        cycles, or drive :meth:`MigrationEngine.run_cycle` directly.
        """
        from .cdn.migration import MigrationEngine

        return MigrationEngine(
            self.server,
            self.transfer,
            config=config,
            seed=seed,
            registry=self.obs,
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def sync_usage(self) -> None:
        """Push every repository's usage snapshot into the collector."""
        for author, client in self.clients.items():
            stats = client.repository.stats()
            self.collector.report_usage(
                client.repository.node_id, stats.replica_used_bytes
            )

    def obs_snapshot(self) -> dict:
        """Serializable snapshot of the shared observability registry —
        resolve latencies, hop distributions, cache hit rates, transfer and
        repair counters, plus the trace ring (see :mod:`repro.obs`)."""
        return self.obs.snapshot()

    def dump_obs(self, path: str) -> None:
        """Write :meth:`obs_snapshot` to ``path`` as JSON (ingestable by
        :meth:`repro.metrics.MetricsCollector.ingest_obs_snapshot`)."""
        self.obs.to_json(path)
