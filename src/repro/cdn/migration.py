"""Demand- and trust-driven replica migration and rebalancing.

The paper makes allocation servers responsible for "management, placement,
and migration of data" (Section V-B), but one-shot placement plus
crash-driven :meth:`~repro.cdn.allocation.AllocationServer.migrate_node`
leaves three gaps this subsystem closes, following the SNA-driven
re-placement of Salahuddin et al. (arXiv:1506.08348) and the
demand-reactive replication of La et al. (arXiv:0909.2024):

* **PROMOTE** — add a replica near hot demand. The
  :class:`~repro.cdn.demand.DemandTracker`'s EWMA rates pick the
  segments; targets are scored by demand-weighted social hop distance to
  the segment's heaviest requesters, tie-broken by node load (and by the
  configured placement algorithm when demand has no attribution).
* **REBALANCE** — move the coldest replica off a node whose replica
  partition is above a utilization watermark.
* **EVICT_UNTRUSTED** — the paper's trust boundary made dynamic: when a
  trust-graph swap or policy change leaves a replica on a node the
  current graph no longer admits, the replica *must* move (or, when
  redundancy is already met on trusted nodes, simply retire).

The :class:`MigrationExecutor` runs every move copy-first/retire-after:
the new copy is transferred (digest-verified, under the mover's
:class:`~repro.cdn.transfer.RetryPolicy`), lands as a PENDING catalog
entry, activates when the simulated transfer completes, and only then is
the old replica retired — so servable redundancy never dips below the
dataset's budget mid-move. Sources are always verified and never
quarantined. A per-cycle move/byte throttle plus an in-flight cap keep
migration traffic from starving reads. Everything is observable under
``migration.*`` counters/histograms/gauges and ``migration_*`` traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

from ..errors import CatalogError, ConfigurationError, PlacementError, TransferError
from ..ids import AuthorId, NodeId, ReplicaId, SegmentId
from ..obs import Registry, get_registry
from ..rng import SeedLike, make_rng, spawn
from ..sim.engine import SimulationEngine
from .allocation import AllocationServer
from .content import ReplicaState
from .demand import DemandTracker
from .transfer import TransferClient, TransferRequest

#: Hop distance charged for a target no requester can reach.
_UNREACHABLE_HOPS = 32


class MigrationKind(Enum):
    """Why a replica moves."""

    PROMOTE = "promote"
    REBALANCE = "rebalance"
    EVICT_UNTRUSTED = "evict-untrusted"


@dataclass(frozen=True, slots=True)
class MigrationAction:
    """One proposed move.

    ``target_node`` is ``None`` for retire-only evictions (the untrusted
    copy is redundant — trusted servable replicas already meet the
    budget, so nothing needs to be copied first). ``source_replica_id``
    is the replica retired after the new copy activates; ``None`` for
    PROMOTE (pure addition).
    """

    kind: MigrationKind
    segment_id: SegmentId
    target_node: Optional[NodeId]
    source_replica_id: Optional[ReplicaId]
    reason: str


@dataclass(frozen=True)
class MigrationConfig:
    """Knobs of the migration engine; validates itself.

    Attributes
    ----------
    interval_s:
        Planning-cycle period when attached to an engine.
    hot_rate_per_s:
        EWMA demand rate at which a segment qualifies for promotion.
    promote_headroom:
        Replicas a hot segment may hold *above* its dataset budget.
    load_watermark:
        Replica-partition utilization (used / quota) above which a node
        sheds its coldest replica; targets must stay at or below it
        after receiving.
    max_moves_per_cycle:
        Copy-moves started per cycle (the concurrency throttle).
    max_bytes_per_cycle:
        Payload bytes started per cycle; 0 disables the byte throttle.
    max_in_flight:
        Concurrent pending moves across cycles.
    """

    interval_s: float = 600.0
    hot_rate_per_s: float = 1e-3
    promote_headroom: int = 1
    load_watermark: float = 0.9
    max_moves_per_cycle: int = 4
    max_bytes_per_cycle: int = 0
    max_in_flight: int = 8

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ConfigurationError("interval_s must be positive")
        if self.hot_rate_per_s < 0:
            raise ConfigurationError("hot_rate_per_s must be >= 0")
        if self.promote_headroom < 0:
            raise ConfigurationError("promote_headroom must be >= 0")
        if not 0.0 < self.load_watermark <= 1.0:
            raise ConfigurationError("load_watermark must be in (0, 1]")
        if self.max_moves_per_cycle < 1:
            raise ConfigurationError("max_moves_per_cycle must be >= 1")
        if self.max_bytes_per_cycle < 0:
            raise ConfigurationError("max_bytes_per_cycle must be >= 0")
        if self.max_in_flight < 1:
            raise ConfigurationError("max_in_flight must be >= 1")


@dataclass(frozen=True, slots=True)
class MigrationReport:
    """Outcome of one planning/execution cycle.

    ``completed``/``failed`` count moves *settled during this cycle* —
    with an engine attached, copy-moves complete when their simulated
    transfer lands, so they settle in a later cycle (or at quiesce);
    lifetime totals live on the executor.
    """

    time: float
    planned: int
    promotes: int
    rebalances: int
    evictions: int
    started: int
    completed: int
    failed: int
    deferred: int
    bytes_started: int


class MigrationPlanner:
    """Turns demand rates, node load, and the trust boundary into actions.

    Planning is read-only and deterministic: candidates are visited in
    sorted order, randomness appears only inside the placement fallback
    (seeded, via :func:`repro.rng.spawn`). Evictions are planned first —
    they are mandatory — then rebalances, then promotions.
    """

    def __init__(
        self,
        server: AllocationServer,
        demand: DemandTracker,
        *,
        config: Optional[MigrationConfig] = None,
        seed: SeedLike = None,
        executor: Optional["MigrationExecutor"] = None,
        registry: Optional[Registry] = None,
    ) -> None:
        self.server = server
        self.demand = demand
        self.config = config or MigrationConfig()
        self._rng = make_rng(seed)
        self._executor = executor
        self.obs = registry if registry is not None else get_registry()
        self._m_skipped = self.obs.counter(
            "migration.plan.skipped",
            help="wanted moves dropped at planning time (no eligible target)",
        )

    # ------------------------------------------------------------------
    # capacity bookkeeping (plan-time; executors re-check at store time)
    # ------------------------------------------------------------------
    def _has_room(
        self, node: NodeId, size_bytes: int, claimed: Dict[NodeId, int]
    ) -> bool:
        repo = self.server.repository(node)
        reserved = (
            self._executor.reserved_bytes(node) if self._executor is not None else 0
        )
        return repo.can_host(size_bytes + reserved + claimed.get(node, 0))

    def plan(self, *, at: float = 0.0) -> List[MigrationAction]:
        """Propose this cycle's actions: evictions, rebalances, promotions."""
        actions: List[MigrationAction] = []
        #: bytes claimed on each target by actions planned this cycle, so
        #: two moves cannot promise the same free space
        claimed: Dict[NodeId, int] = {}
        #: (segment, target) pairs claimed this cycle
        taken: Set[Tuple[SegmentId, NodeId]] = set()
        self._plan_evictions(actions, claimed, taken, at)
        self._plan_rebalances(actions, claimed, taken, at)
        self._plan_promotions(actions, claimed, taken, at)
        return actions

    # ------------------------------------------------------------------
    # EVICT_UNTRUSTED
    # ------------------------------------------------------------------
    def _trusted_servable(self, segment_id: SegmentId) -> int:
        """Servable live replicas of a segment on trusted nodes."""
        server = self.server
        return sum(
            1
            for r in server.catalog.replicas_of_segment(segment_id, servable_only=True)
            if server.is_online(r.node_id)
            and server.author_of(r.node_id) in server.graph
        )

    def _plan_evictions(
        self,
        actions: List[MigrationAction],
        claimed: Dict[NodeId, int],
        taken: Set[Tuple[SegmentId, NodeId]],
        at: float,
    ) -> None:
        server = self.server
        for node in server.untrusted_hosts():
            reps = sorted(
                server.catalog.replicas_on_node(node), key=lambda r: str(r.replica_id)
            )
            for rep in reps:
                seg_id = rep.segment_id
                budget = server.replica_budget(
                    server.catalog.segment(seg_id).dataset_id
                )
                if not rep.servable or self._trusted_servable(seg_id) >= budget:
                    # nothing to copy first: the copy is out of service
                    # already, or trusted redundancy is met without it
                    # (the executor re-validates before retiring)
                    actions.append(
                        MigrationAction(
                            kind=MigrationKind.EVICT_UNTRUSTED,
                            segment_id=seg_id,
                            target_node=None,
                            source_replica_id=rep.replica_id,
                            reason="untrusted-host",
                        )
                    )
                    continue
                size = server.catalog.segment(seg_id).size_bytes
                target = self._evict_target(seg_id, size, claimed, taken)
                if target is None:
                    self._m_skipped.inc()
                    self.obs.trace(
                        "migration_plan_skip",
                        ts=at,
                        move=MigrationKind.EVICT_UNTRUSTED.value,
                        segment=str(seg_id),
                        reason="no-eligible-target",
                    )
                    continue
                claimed[target] = claimed.get(target, 0) + size
                taken.add((seg_id, target))
                actions.append(
                    MigrationAction(
                        kind=MigrationKind.EVICT_UNTRUSTED,
                        segment_id=seg_id,
                        target_node=target,
                        source_replica_id=rep.replica_id,
                        reason="untrusted-host",
                    )
                )

    def _evict_target(
        self,
        segment_id: SegmentId,
        size_bytes: int,
        claimed: Dict[NodeId, int],
        taken: Set[Tuple[SegmentId, NodeId]],
    ) -> Optional[NodeId]:
        """Least-loaded eligible trusted host (determinism: ties by node id)."""
        server = self.server
        best: Optional[Tuple[int, str, NodeId]] = None
        for author in server.eligible_migration_targets(segment_id):
            node = server.node_of(author)
            if (segment_id, node) in taken:
                continue
            if not self._has_room(node, size_bytes, claimed):
                continue
            key = (server.repository(node).reads_served, str(node), node)
            if best is None or key < best:
                best = key
        return best[2] if best is not None else None

    # ------------------------------------------------------------------
    # REBALANCE
    # ------------------------------------------------------------------
    def _utilization(self, node: NodeId) -> float:
        repo = self.server.repository(node)
        quota = repo.replica_used_bytes + repo.replica_free_bytes
        if quota <= 0:
            return 0.0
        return repo.replica_used_bytes / quota

    def _plan_rebalances(
        self,
        actions: List[MigrationAction],
        claimed: Dict[NodeId, int],
        taken: Set[Tuple[SegmentId, NodeId]],
        at: float,
    ) -> None:
        server = self.server
        config = self.config
        for author in sorted(server.registered_authors()):
            if author not in server.graph:
                continue  # untrusted hosts are the eviction pass's problem
            node = server.node_of(author)
            if not server.is_online(node):
                continue
            if self._utilization(node) <= config.load_watermark:
                continue
            # coldest ACTIVE replica first: moving it degrades the fewest
            # reads while the node drains
            reps = [
                r
                for r in server.catalog.replicas_on_node(node)
                if r.state is ReplicaState.ACTIVE
            ]
            reps.sort(key=lambda r: (self.demand.rate(r.segment_id), str(r.replica_id)))
            moved = False
            for rep in reps:
                if moved:
                    break
                size = server.catalog.segment(rep.segment_id).size_bytes
                target = self._rebalance_target(rep.segment_id, size, claimed, taken)
                if target is None:
                    continue
                claimed[target] = claimed.get(target, 0) + size
                taken.add((rep.segment_id, target))
                actions.append(
                    MigrationAction(
                        kind=MigrationKind.REBALANCE,
                        segment_id=rep.segment_id,
                        target_node=target,
                        source_replica_id=rep.replica_id,
                        reason=f"load-watermark:{node}",
                    )
                )
                moved = True
            if not moved:
                self._m_skipped.inc()
                self.obs.trace(
                    "migration_plan_skip",
                    ts=at,
                    move=MigrationKind.REBALANCE.value,
                    node=str(node),
                    reason="no-eligible-target",
                )

    def _rebalance_target(
        self,
        segment_id: SegmentId,
        size_bytes: int,
        claimed: Dict[NodeId, int],
        taken: Set[Tuple[SegmentId, NodeId]],
    ) -> Optional[NodeId]:
        """Least-utilized eligible host that stays under the watermark."""
        server = self.server
        best: Optional[Tuple[float, int, str, NodeId]] = None
        for author in server.eligible_migration_targets(segment_id):
            node = server.node_of(author)
            if (segment_id, node) in taken:
                continue
            if not self._has_room(node, size_bytes, claimed):
                continue
            repo = server.repository(node)
            quota = repo.replica_used_bytes + repo.replica_free_bytes
            pending = claimed.get(node, 0) + (
                self._executor.reserved_bytes(node) if self._executor else 0
            )
            util_after = (
                (repo.replica_used_bytes + pending + size_bytes) / quota
                if quota > 0
                else 1.0
            )
            if util_after > self.config.load_watermark:
                continue
            key = (util_after, repo.reads_served, str(node), node)
            if best is None or key < best:
                best = key
        return best[3] if best is not None else None

    # ------------------------------------------------------------------
    # PROMOTE
    # ------------------------------------------------------------------
    def _plan_promotions(
        self,
        actions: List[MigrationAction],
        claimed: Dict[NodeId, int],
        taken: Set[Tuple[SegmentId, NodeId]],
        at: float,
    ) -> None:
        server = self.server
        config = self.config
        for seg_id, rate in self.demand.hot_segments(config.hot_rate_per_s):
            try:
                segment = server.catalog.segment(seg_id)
            except CatalogError:
                continue  # demand outlived the dataset
            budget = server.replica_budget(segment.dataset_id)
            servable = sum(
                1
                for r in server.catalog.replicas_of_segment(seg_id, servable_only=True)
                if server.is_online(r.node_id)
            )
            if servable >= budget + config.promote_headroom:
                continue
            eligible = [
                a
                for a in server.eligible_migration_targets(seg_id)
                if (seg_id, server.node_of(a)) not in taken
                and self._has_room(server.node_of(a), segment.size_bytes, claimed)
            ]
            if not eligible:
                self._m_skipped.inc()
                self.obs.trace(
                    "migration_plan_skip",
                    ts=at,
                    move=MigrationKind.PROMOTE.value,
                    segment=str(seg_id),
                    reason="no-eligible-target",
                )
                continue
            author = self._promotion_target(seg_id, eligible)
            if author is None:
                self._m_skipped.inc()
                continue
            node = server.node_of(author)
            claimed[node] = claimed.get(node, 0) + segment.size_bytes
            taken.add((seg_id, node))
            actions.append(
                MigrationAction(
                    kind=MigrationKind.PROMOTE,
                    segment_id=seg_id,
                    target_node=node,
                    source_replica_id=None,
                    reason=f"hot-rate:{rate:.2e}",
                )
            )

    def _promotion_target(
        self, segment_id: SegmentId, eligible: List[AuthorId]
    ) -> Optional[AuthorId]:
        """Eligible host closest (demand-weighted social hops) to the
        segment's heaviest requesters; ties by node load then id. With no
        attributed demand, fall back to the server's placement algorithm
        over the eligible subgraph (seeded)."""
        server = self.server
        requesters = self.demand.top_requesters(segment_id, n=5)
        if requesters:
            # one O(V) distance map per top requester, not per candidate
            weighted = [(server.hops_from(req), weight) for req, weight in requesters]
            best: Optional[Tuple[float, int, str, AuthorId]] = None
            for author in sorted(eligible):
                score = 0.0
                for hops, weight in weighted:
                    d = hops.get(author)
                    score += weight * (d if d is not None else _UNREACHABLE_HOPS)
                load = server.repository(server.node_of(author)).reads_served
                key = (score, load, str(author), author)
                if best is None or key < best:
                    best = key
            return best[3] if best is not None else None
        sub = server.graph.subgraph_view(eligible)
        (rng,) = spawn(self._rng, 1)
        try:
            picks = server.placement.select(sub, 1, rng=rng)
        except PlacementError:
            return None
        return picks[0] if picks else None


@dataclass(slots=True)
class _InFlightMove:
    """A copy whose simulated transfer has not landed yet."""

    action: MigrationAction
    pending_replica_id: ReplicaId
    size_bytes: int
    started_at: float
    duration_s: float
    done: bool = field(default=False)


class MigrationExecutor:
    """Runs planned actions copy-first/retire-after on the live catalog.

    Every copy goes through the verified transfer client (the request
    carries the segment's content digest, so a rotted source fails the
    checksum and the executor fails over to the next verified source —
    quarantined replicas are excluded twice over: they are not servable
    and sources must verify). The new copy lands as a PENDING replica
    and activates when the simulated transfer duration elapses (with a
    bound engine; immediately otherwise); only then is the old replica
    retired — redundancy never dips below the pre-move level.
    """

    def __init__(
        self,
        server: AllocationServer,
        transfer: TransferClient,
        *,
        config: Optional[MigrationConfig] = None,
        registry: Optional[Registry] = None,
    ) -> None:
        self.server = server
        self.transfer = transfer
        self.config = config or MigrationConfig()
        self._engine: Optional[SimulationEngine] = None
        self._moves: List[_InFlightMove] = []
        self._reserved: Dict[NodeId, int] = {}
        #: lifetime totals (cycle reports only see same-cycle settlements)
        self.completed_total = 0
        self.failed_total = 0
        self.retired_untrusted_total = 0
        #: min over settle points of servable-live-replicas / budget for
        #: the moved segment — the copy-first invariant witness (>= 1.0
        #: means redundancy never dropped below budget at any move)
        self.min_mid_move_redundancy: Optional[float] = None

        self.obs = registry if registry is not None else get_registry()
        self._m_started = self.obs.counter(
            "migration.moves.started", help="copy-moves whose transfer was launched"
        )
        self._m_completed = self.obs.counter(
            "migration.moves.completed", help="moves fully settled (copy active)"
        )
        self._m_failed = self.obs.counter(
            "migration.moves.failed", help="moves abandoned (transfer/target loss)"
        )
        self._m_deferred = self.obs.counter(
            "migration.moves.deferred", help="moves postponed by the throttle"
        )
        self._m_bytes = self.obs.counter(
            "migration.bytes_moved", help="payload bytes of completed moves"
        )
        self._m_evicted = self.obs.counter(
            "migration.evict.retired", help="replicas removed from untrusted hosts"
        )
        self._m_duration = self.obs.histogram(
            "migration.move.duration_s", help="simulated copy duration per move"
        )
        self._g_in_flight = self.obs.gauge(
            "migration.in_flight", help="moves whose transfer has not landed yet"
        )

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind(self, engine: SimulationEngine) -> None:
        """Complete copies on ``engine``'s virtual clock instead of
        synchronously (so mid-move windows exist in simulated time)."""
        self._engine = engine

    @property
    def in_flight(self) -> int:
        """Moves whose transfer has not landed yet."""
        return len(self._moves)

    def reserved_bytes(self, node: NodeId) -> int:
        """Bytes promised to in-flight moves targeting ``node`` (the
        planner subtracts these from the node's free space)."""
        return self._reserved.get(node, 0)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, actions: List[MigrationAction], *, at: float = 0.0) -> Dict[str, int]:
        """Run one cycle's actions under the throttle.

        Returns settle counts for this cycle: ``started`` / ``completed``
        / ``failed`` / ``deferred`` / ``bytes_started``.
        """
        counts = {
            "started": 0,
            "completed": 0,
            "failed": 0,
            "deferred": 0,
            "bytes_started": 0,
        }
        config = self.config
        for action in actions:
            if action.target_node is None:
                self._retire_only(action, at, counts)
                continue
            size = self.server.catalog.segment(action.segment_id).size_bytes
            if (
                counts["started"] >= config.max_moves_per_cycle
                or self.in_flight >= config.max_in_flight
                or (
                    config.max_bytes_per_cycle
                    and counts["bytes_started"] + size > config.max_bytes_per_cycle
                )
            ):
                counts["deferred"] += 1
                self._m_deferred.inc()
                continue
            if self._start_move(action, size, at, counts):
                counts["started"] += 1
                counts["bytes_started"] += size
        return counts

    def quiesce(self, *, at: float = 0.0) -> int:
        """Settle every in-flight move immediately (end-of-run barrier for
        campaigns whose horizon lands mid-copy). Returns moves settled."""
        pending = list(self._moves)
        counts = {"completed": 0, "failed": 0}
        for move in pending:
            self._complete(move, at=at, counts=counts)
        return len(pending)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _fail(
        self, action: MigrationAction, reason: str, at: float, counts: Dict[str, int]
    ) -> None:
        counts["failed"] = counts.get("failed", 0) + 1
        self.failed_total += 1
        self._m_failed.inc()
        self.obs.trace(
            "migration_move_failed",
            ts=at,
            move=action.kind.value,
            segment=str(action.segment_id),
            target=str(action.target_node),
            reason=reason,
        )

    def _record_redundancy(self, segment_id: SegmentId) -> float:
        server = self.server
        live = sum(
            1
            for r in server.catalog.replicas_of_segment(segment_id, servable_only=True)
            if server.is_online(r.node_id)
        )
        budget = server.replica_budget(server.catalog.segment(segment_id).dataset_id)
        ratio = live / budget
        if (
            self.min_mid_move_redundancy is None
            or ratio < self.min_mid_move_redundancy
        ):
            self.min_mid_move_redundancy = ratio
        return ratio

    def _retire_only(
        self, action: MigrationAction, at: float, counts: Dict[str, int]
    ) -> None:
        """Remove an untrusted copy without a preceding transfer.

        Safe only when the copy is already out of service or trusted
        servable redundancy meets the budget without it — re-validated
        here, at settle time, because plan-time truth may have decayed.
        """
        server = self.server
        rep = server.catalog.replica(action.source_replica_id)
        if rep.state is ReplicaState.RETIRED:
            return  # somebody (a crash migration) beat us to it
        if rep.servable:
            budget = server.replica_budget(
                server.catalog.segment(rep.segment_id).dataset_id
            )
            others = sum(
                1
                for r in server.catalog.replicas_of_segment(
                    rep.segment_id, servable_only=True
                )
                if r.replica_id != rep.replica_id
                and server.is_online(r.node_id)
                and server.author_of(r.node_id) in server.graph
            )
            if others < budget:
                # retiring now would dip below budget: needs a copy first,
                # which the next planning cycle will schedule
                self._fail(action, "needs-copy-first", at, counts)
                return
        server.catalog.retire(rep.replica_id)
        if server.has_node(rep.node_id):
            repo = server.repository(rep.node_id)
            if repo.hosts_segment(rep.segment_id):
                repo.evict_replica(rep.segment_id)
        self.retired_untrusted_total += 1
        self._m_evicted.inc()
        counts["completed"] = counts.get("completed", 0) + 1
        self.completed_total += 1
        self._m_completed.inc()
        self._record_redundancy(rep.segment_id)
        self.obs.trace(
            "migration_evict",
            ts=at,
            segment=str(rep.segment_id),
            node=str(rep.node_id),
            replica=str(rep.replica_id),
            copied=False,
        )

    def _sources(self, action: MigrationAction) -> List:
        """Verified servable live replicas to copy from, best first.

        Quarantined copies can never appear (not servable, and sources
        must pass :meth:`AllocationServer.replica_verified`). Untrusted
        hosts sort last — a last resort for rescuing a sole surviving
        copy off a node the graph no longer admits.
        """
        server = self.server
        untrusted = set(server.untrusted_hosts())
        reps = [
            r
            for r in server.catalog.replicas_of_segment(
                action.segment_id, servable_only=True
            )
            if r.node_id != action.target_node
            and server.is_online(r.node_id)
            and server.replica_verified(r)
        ]
        reps.sort(
            key=lambda r: (
                r.node_id in untrusted,
                server.repository(r.node_id).reads_served,
                str(r.node_id),
            )
        )
        return reps

    def _start_move(
        self,
        action: MigrationAction,
        size_bytes: int,
        at: float,
        counts: Dict[str, int],
    ) -> bool:
        server = self.server
        target = action.target_node
        segment = server.catalog.segment(action.segment_id)
        if not server.has_node(target) or not server.is_online(target):
            self._fail(action, "target-unavailable", at, counts)
            return False
        if server.author_of(target) not in server.graph:
            self._fail(action, "target-untrusted", at, counts)
            return False
        repo = server.repository(target)
        if repo.hosts_segment(segment.segment_id) or not repo.can_host(
            size_bytes + self.reserved_bytes(target)
        ):
            self._fail(action, "target-capacity", at, counts)
            return False
        sources = self._sources(action)
        if not sources:
            self._fail(action, "no-verified-source", at, counts)
            return False
        result = None
        for src in sources:
            request = TransferRequest(
                segment_id=segment.segment_id,
                source=src.node_id,
                dest=target,
                size_bytes=size_bytes,
                expected_digest=segment.digest or None,
            )
            try:
                attempt = self.transfer.execute(request)
            except TransferError:
                continue
            if attempt.ok:
                result = attempt
                break
        if result is None:
            self._fail(action, "transfer-failed", at, counts)
            return False
        try:
            pending = server.catalog.create_replica(
                segment.segment_id, target, created_at=at, state=ReplicaState.PENDING
            )
        except CatalogError:
            self._fail(action, "target-conflict", at, counts)
            return False
        self._reserved[target] = self.reserved_bytes(target) + size_bytes
        move = _InFlightMove(
            action=action,
            pending_replica_id=pending.replica_id,
            size_bytes=size_bytes,
            started_at=at,
            duration_s=result.duration_s,
        )
        self._moves.append(move)
        self._m_started.inc()
        self._g_in_flight.set(self.in_flight)
        self.obs.trace(
            "migration_move",
            ts=at,
            move=action.kind.value,
            segment=str(segment.segment_id),
            source=str(result.request.source),
            target=str(target),
            duration_s=result.duration_s,
        )
        if self._engine is not None and result.duration_s > 0:
            self._engine.schedule(
                at + result.duration_s,
                lambda e, m=move: self._complete(m, at=e.now),
                label="migration-complete",
            )
        else:
            self._complete(move, at=at, counts=counts)
        return True

    def _complete(
        self,
        move: _InFlightMove,
        *,
        at: float,
        counts: Optional[Dict[str, int]] = None,
    ) -> None:
        """Land a copy: store bytes, activate, then retire the old replica.

        Idempotent (quiesce may settle a move whose completion event is
        still queued). Failure paths retire the PENDING entry so the
        catalog never accumulates ghost copies.
        """
        if move.done:
            return
        move.done = True
        self._moves.remove(move)
        server = self.server
        action = move.action
        target = action.target_node
        self._reserved[target] = max(0, self.reserved_bytes(target) - move.size_bytes)
        self._g_in_flight.set(self.in_flight)
        if counts is None:
            counts = {}
        rep = server.catalog.replica(move.pending_replica_id)
        segment = server.catalog.segment(rep.segment_id)
        if rep.state is not ReplicaState.PENDING:
            # a crash migration retired (or an offline transition staled)
            # the landing pad while the copy was in flight
            self._fail(action, "target-lost", at, counts)
            return
        if not server.is_online(target) or server.author_of(target) not in server.graph:
            server.catalog.retire(rep.replica_id)
            self._fail(action, "target-unavailable", at, counts)
            return
        repo = server.repository(target)
        if repo.hosts_segment(segment.segment_id) or not repo.can_host(
            segment.size_bytes
        ):
            server.catalog.retire(rep.replica_id)
            self._fail(action, "target-capacity", at, counts)
            return
        repo.store_replica(
            segment.segment_id, segment.size_bytes, digest=segment.digest
        )
        server.catalog.activate(rep.replica_id)
        if action.source_replica_id is not None:
            src = server.catalog.replica(action.source_replica_id)
            if src.state is not ReplicaState.RETIRED:
                server.catalog.retire(src.replica_id)
                if server.has_node(src.node_id):
                    src_repo = server.repository(src.node_id)
                    if src_repo.hosts_segment(segment.segment_id):
                        src_repo.evict_replica(segment.segment_id)
                if action.kind is MigrationKind.EVICT_UNTRUSTED:
                    self.retired_untrusted_total += 1
                    self._m_evicted.inc()
        ratio = self._record_redundancy(segment.segment_id)
        counts["completed"] = counts.get("completed", 0) + 1
        self.completed_total += 1
        self._m_completed.inc()
        self._m_bytes.inc(move.size_bytes)
        self._m_duration.observe(move.duration_s)
        self.obs.trace(
            "migration_move_done",
            ts=at,
            move=action.kind.value,
            segment=str(segment.segment_id),
            target=str(target),
            duration_s=move.duration_s,
            redundancy_ratio=ratio,
        )


class MigrationEngine:
    """The wired subsystem: demand tracker + planner + executor.

    The engine owns its :class:`~repro.cdn.demand.DemandTracker` and
    installs it on the server's allocation fabric (shared by every shard
    of a sharded router), so each successful resolve records its access
    there directly; one fabric feeds one tracker, the latest engine's.
    Drive it manually with :meth:`run_cycle` or periodically via
    :meth:`attach`. One cycle = fold the EWMA rates, plan, execute under
    the throttle.
    """

    def __init__(
        self,
        server: AllocationServer,
        transfer: TransferClient,
        *,
        config: Optional[MigrationConfig] = None,
        seed: SeedLike = None,
        registry: Optional[Registry] = None,
    ) -> None:
        self.server = server
        self.config = config or MigrationConfig()
        self.obs = registry if registry is not None else get_registry()
        self.demand = DemandTracker(registry=self.obs)
        server.fabric.demand = self.demand
        self.executor = MigrationExecutor(
            server, transfer, config=self.config, registry=self.obs
        )
        self.planner = MigrationPlanner(
            server,
            self.demand,
            config=self.config,
            seed=seed,
            executor=self.executor,
            registry=self.obs,
        )
        self.reports: List[MigrationReport] = []
        self._m_cycles = self.obs.counter(
            "migration.cycles", help="planning/execution cycles run"
        )

    def run_cycle(self, *, at: float = 0.0) -> MigrationReport:
        """One full cycle; returns its report (also kept on ``reports``)."""
        self.demand.fold(at)
        actions = self.planner.plan(at=at)
        counts = self.executor.execute(actions, at=at)
        by_kind = {kind: 0 for kind in MigrationKind}
        for action in actions:
            by_kind[action.kind] += 1
        report = MigrationReport(
            time=at,
            planned=len(actions),
            promotes=by_kind[MigrationKind.PROMOTE],
            rebalances=by_kind[MigrationKind.REBALANCE],
            evictions=by_kind[MigrationKind.EVICT_UNTRUSTED],
            started=counts["started"],
            completed=counts.get("completed", 0),
            failed=counts.get("failed", 0),
            deferred=counts["deferred"],
            bytes_started=counts["bytes_started"],
        )
        self.reports.append(report)
        self._m_cycles.inc()
        self.obs.trace(
            "migration_cycle",
            ts=at,
            planned=report.planned,
            promotes=report.promotes,
            rebalances=report.rebalances,
            evictions=report.evictions,
            started=report.started,
            deferred=report.deferred,
        )
        return report

    def attach(self, engine: SimulationEngine) -> None:
        """Run cycles every ``config.interval_s`` on ``engine`` (first
        after one interval), completing copies on its virtual clock."""
        self.executor.bind(engine)

        def tick(e: SimulationEngine) -> None:
            self.run_cycle(at=e.now)

        engine.every(self.config.interval_s, tick, label="migration")

    def quiesce(self, *, at: float = 0.0) -> int:
        """Settle in-flight moves (see :meth:`MigrationExecutor.quiesce`)."""
        return self.executor.quiesce(at=at)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    @property
    def min_mid_move_redundancy(self) -> Optional[float]:
        """Minimum servable-replicas/budget ratio observed at any move's
        settle point (``None`` until a move settles; ``>= 1.0`` means the
        copy-first invariant held everywhere)."""
        return self.executor.min_mid_move_redundancy

    @property
    def total_completed(self) -> int:
        """Moves fully settled over the engine's lifetime."""
        return self.executor.completed_total

    @property
    def total_failed(self) -> int:
        """Moves abandoned over the engine's lifetime."""
        return self.executor.failed_total
