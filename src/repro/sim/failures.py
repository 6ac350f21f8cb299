"""Failure injection for resilience experiments.

Schedules node crashes (permanent departures), transient outages, and
slow-link episodes against a running :class:`~repro.sim.engine.SimulationEngine`,
notifying registered handlers. The replication policy's repair path and the
metrics collector's stability metric are exercised through these events.

State rules (the chaos harness leans on these):

* A **crash** is terminal: it clears any in-progress outage and slow-link
  state for the node (restoring the network link — dead nodes don't hold
  throttles) and suppresses that node's later ``outage-end`` /
  ``slowlink-end`` emissions, so no phantom events fire for dead nodes.
* A **slow-link episode** only restores/emits on end if it actually began
  (a node crashed before ``start`` never degrades, so nothing is undone).
* **Overlapping slow-link episodes** on one node nest: the most recent
  factor wins while both are active, and the link is restored only when
  the last live episode ends.

:meth:`attach_server` wires all of this into an
:class:`~repro.cdn.allocation.AllocationServer` (and optionally a
:class:`~repro.cdn.replication.ReplicationPolicy`): the injector's
``is_alive`` becomes the server's liveness oracle, crashes trigger replica
migration, outages flip nodes offline/online, and every disruption
schedules a repair audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Literal,
    Optional,
    Sequence,
)

from ..errors import ConfigurationError
from ..ids import NodeId, SegmentId
from ..rng import SeedLike, make_rng
from .engine import SimulationEngine
from .network import NetworkModel

if TYPE_CHECKING:  # avoid a runtime sim -> cdn import cycle
    from ..cdn.allocation import AllocationServer
    from ..cdn.peers import PeerRegistry
    from ..cdn.replication import ReplicationPolicy

FailureKind = Literal[
    "crash",
    "outage-start",
    "outage-end",
    "slowlink-start",
    "slowlink-end",
    "corrupt",
    "partition-start",
    "partition-end",
    "peer-leave",
]


@dataclass(frozen=True, slots=True)
class FailureEvent:
    """One injected failure occurrence.

    ``segment`` is set only for ``corrupt`` events (which rot one replica,
    not a whole node).
    """

    time: float
    node: NodeId
    kind: FailureKind
    segment: Optional[SegmentId] = None


Handler = Callable[[FailureEvent], None]


class FailureInjector:
    """Schedules failures on an engine and tracks node liveness.

    Parameters
    ----------
    engine:
        The simulation engine to schedule against.
    nodes:
        The population subject to failures.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        nodes: Sequence[NodeId],
        *,
        seed: SeedLike = None,
    ) -> None:
        if not nodes:
            raise ConfigurationError("failure injector needs at least one node")
        if len(set(nodes)) != len(nodes):
            seen: set[NodeId] = set()
            dupes: set[str] = set()
            for n in nodes:
                if n in seen:
                    dupes.add(str(n))
                seen.add(n)
            raise ConfigurationError(
                "duplicate node ids skew failure-draw probabilities: "
                + ", ".join(sorted(dupes))
            )
        self.engine = engine
        self.nodes = list(nodes)
        self._rng = make_rng(seed)
        self._handlers: List[Handler] = []
        self._heal_handlers: List[Callable[[float], None]] = []
        self._crashed: set[NodeId] = set()
        self._in_outage: set[NodeId] = set()
        #: nodes with a pending ``partition-end`` (crash cancels membership)
        self._partitioned: set[NodeId] = set()
        #: groups of the active partition episode (None when healed)
        self._partition_groups: Optional[List[List[NodeId]]] = None
        #: node -> "minority" | "majority" for the active episode
        self._partition_side: Dict[NodeId, str] = {}
        #: live (begun, not yet ended) slow-link episodes per node
        self._slow_depth: Dict[NodeId, int] = {}
        #: network holding each node's active degradation (for crash cleanup)
        self._slow_net: Dict[NodeId, NetworkModel] = {}
        #: allocation server or router wired via attach_server
        self._server: Optional["AllocationServer"] = None
        self.history: List[FailureEvent] = []

    def on_failure(self, handler: Handler) -> None:
        """Register a callback invoked for every failure event."""
        self._handlers.append(handler)

    def on_heal(self, handler: Callable[[float], None]) -> None:
        """Register a callback fired (with the virtual time) after a
        partition episode heals — after the network is rejoined and all
        ``partition-end`` events have been emitted. This is the hook the
        control plane uses to run post-heal reconciliation."""
        self._heal_handlers.append(handler)

    def _emit(self, event: FailureEvent) -> None:
        self.history.append(event)
        for h in self._handlers:
            h(event)

    # ------------------------------------------------------------------
    # liveness queries
    # ------------------------------------------------------------------
    def is_alive(self, node: NodeId) -> bool:
        """Whether ``node`` is currently up (not crashed, not in outage).

        Suitable as an :meth:`AllocationServer.set_liveness_oracle`
        callable (``attach_server`` installs it automatically).
        """
        return node not in self._crashed and node not in self._in_outage

    def crashed_nodes(self) -> set[NodeId]:
        """Nodes that have permanently departed."""
        return set(self._crashed)

    def partition_side(self, node: NodeId) -> Optional[str]:
        """Which side of the active partition ``node`` is on.

        Returns ``"minority"`` for members of the smallest group (ties
        break to the first group), ``"majority"`` for every other listed
        group, and ``None`` when no partition is active or the node is
        not in any group.
        """
        if self._partition_groups is None:
            return None
        return self._partition_side.get(node)

    # ------------------------------------------------------------------
    # direct injections
    # ------------------------------------------------------------------
    def crash(self, node: NodeId, at: float) -> None:
        """Schedule a permanent crash of ``node`` at time ``at``.

        A crash terminates any in-progress outage (no ``outage-end`` will
        fire for a dead node) and any live slow-link episodes (the link is
        restored and no ``slowlink-end`` fires).
        """
        if node not in self.nodes:
            raise ConfigurationError(f"unknown node {node!r}")

        def fire(engine: SimulationEngine) -> None:
            if node in self._crashed:
                return
            self._crashed.add(node)
            # a dead node is not "in outage"; suppress the pending end event
            self._in_outage.discard(node)
            # release any held slow-link throttle: later end callbacks see
            # depth 0 and do nothing
            if self._slow_depth.pop(node, 0):
                self._slow_net.pop(node).restore(node)
            # a dead node gets no partition-end restoration either
            self._partitioned.discard(node)
            self._emit(FailureEvent(time=engine.now, node=node, kind="crash"))

        self.engine.schedule(at, fire, label=f"crash:{node}")

    def outage(self, node: NodeId, start: float, duration: float) -> None:
        """Schedule a transient outage of ``node``."""
        if node not in self.nodes:
            raise ConfigurationError(f"unknown node {node!r}")
        if duration <= 0:
            raise ConfigurationError(f"duration must be positive, got {duration}")

        def begin(engine: SimulationEngine) -> None:
            if node in self._crashed:
                return
            self._in_outage.add(node)
            self._emit(FailureEvent(time=engine.now, node=node, kind="outage-start"))

        def end(engine: SimulationEngine) -> None:
            # only end an outage that actually started and whose node did
            # not crash in the meantime (crash clears _in_outage)
            if node in self._in_outage and node not in self._crashed:
                self._in_outage.discard(node)
                self._emit(FailureEvent(time=engine.now, node=node, kind="outage-end"))

        self.engine.schedule(start, begin, label=f"outage:{node}")
        self.engine.schedule(start + duration, end, label=f"outage-end:{node}")

    def slow_link(
        self,
        node: NodeId,
        network: NetworkModel,
        *,
        start: float,
        duration: float,
        factor: float = 0.1,
    ) -> None:
        """Throttle a node's access link for ``duration`` seconds.

        Degrades ``network``'s bandwidth for the node to ``factor`` of
        nominal at ``start`` and restores it afterwards; emits
        ``slowlink-start`` / ``slowlink-end`` events. The end callback
        only restores/emits when the episode actually began (it is
        skipped when the node crashed before ``start``, or when a crash
        mid-episode already released the throttle). Overlapping episodes
        nest: the link is restored when the last one ends.
        """
        if node not in self.nodes:
            raise ConfigurationError(f"unknown node {node!r}")
        if duration <= 0:
            raise ConfigurationError(f"duration must be positive, got {duration}")
        episode = {"started": False}

        def begin(engine: SimulationEngine) -> None:
            if node in self._crashed:
                return
            episode["started"] = True
            self._slow_depth[node] = self._slow_depth.get(node, 0) + 1
            self._slow_net[node] = network
            network.degrade(node, factor)
            self._emit(FailureEvent(time=engine.now, node=node, kind="slowlink-start"))

        def end(engine: SimulationEngine) -> None:
            if not episode["started"]:
                return  # never degraded: nothing to restore, nothing to emit
            depth = self._slow_depth.get(node, 0)
            if depth <= 0:
                return  # a crash mid-episode already cleaned up
            if depth == 1:
                self._slow_depth.pop(node)
                self._slow_net.pop(node)
                network.restore(node)
            else:
                self._slow_depth[node] = depth - 1
            self._emit(FailureEvent(time=engine.now, node=node, kind="slowlink-end"))

        self.engine.schedule(start, begin, label=f"slowlink:{node}")
        self.engine.schedule(start + duration, end, label=f"slowlink-end:{node}")

    def network_partition(
        self,
        network: NetworkModel,
        groups: Sequence[Sequence[NodeId]],
        *,
        start: float,
        duration: float,
    ) -> None:
        """Split ``network`` into reachability groups for ``duration`` s.

        At ``start`` the network partitions per ``groups`` and a
        ``partition-start`` event fires for every non-crashed listed
        node; at ``start + duration`` the network heals, ``partition-end``
        fires for every listed node that neither crashed mid-episode nor
        was partitioned away by a later conflicting schedule, and the
        registered :meth:`on_heal` callbacks run. Only one episode can be
        active at a time: a begin that would overlap an active episode
        (or an externally partitioned network) is skipped entirely — no
        start events, no end events, no heal.
        """
        if duration <= 0:
            raise ConfigurationError(f"duration must be positive, got {duration}")
        groups = [list(g) for g in groups]
        for group in groups:
            for node in group:
                if node not in self.nodes:
                    raise ConfigurationError(f"unknown node {node!r}")
        if sum(len(g) for g in groups) < 2 or len(groups) < 2:
            raise ConfigurationError("a partition needs >= 2 groups of nodes")
        episode = {"started": False}

        def begin(engine: SimulationEngine) -> None:
            if self._partition_groups is not None or network.partitioned:
                return  # overlapping episode: skip entirely
            network.partition(groups)
            episode["started"] = True
            self._partition_groups = groups
            minority = min(range(len(groups)), key=lambda i: len(groups[i]))
            self._partition_side = {
                node: ("minority" if i == minority else "majority")
                for i, group in enumerate(groups)
                for node in group
            }
            for group in groups:
                for node in group:
                    if node in self._crashed:
                        continue
                    self._partitioned.add(node)
                    self._emit(
                        FailureEvent(
                            time=engine.now, node=node, kind="partition-start"
                        )
                    )

        def end(engine: SimulationEngine) -> None:
            if not episode["started"]:
                return  # never began: nothing to heal, nothing to emit
            network.heal()
            for group in groups:
                for node in group:
                    # crash mid-episode removed the node from _partitioned:
                    # dead nodes get no restoration event
                    if node in self._partitioned and node not in self._crashed:
                        self._partitioned.discard(node)
                        self._emit(
                            FailureEvent(
                                time=engine.now, node=node, kind="partition-end"
                            )
                        )
            self._partitioned.clear()
            self._partition_groups = None
            self._partition_side = {}
            for handler in self._heal_handlers:
                handler(engine.now)

        self.engine.schedule(start, begin, label="partition")
        self.engine.schedule(start + duration, end, label="partition-end")

    def corrupt(self, node: NodeId, segment: SegmentId, at: float) -> None:
        """Schedule silent bit rot of ``node``'s copy of ``segment`` at ``at``.

        Unlike crashes and outages, corruption emits **no liveness
        signal**: the node stays up, the catalog still lists the replica
        as servable, and nothing schedules a repair — that is the point.
        Only a digest check (a verified transfer or an
        :class:`~repro.cdn.integrity.IntegrityScrubber` pass) can notice.

        Requires :meth:`attach_server` to have been called (the rot lands
        in the server's repositories). The event is skipped at fire time
        when the node has crashed or no longer hosts the segment.
        """
        if self._server is None:
            raise ConfigurationError(
                "corrupt() needs attach_server() first: bit rot lands in "
                "the server's storage repositories"
            )
        if node not in self.nodes:
            raise ConfigurationError(f"unknown node {node!r}")
        server = self._server

        def fire(engine: SimulationEngine) -> None:
            if node in self._crashed or not server.has_node(node):
                return
            repo = server.repository(node)
            if not repo.hosts_segment(segment):
                return  # evicted/migrated before the rot landed
            repo.corrupt_replica(segment, at=engine.now)
            self._emit(
                FailureEvent(
                    time=engine.now, node=node, kind="corrupt", segment=segment
                )
            )

        self.engine.schedule(at, fire, label=f"corrupt:{node}:{segment}")

    # ------------------------------------------------------------------
    # server wiring
    # ------------------------------------------------------------------
    def attach_server(
        self,
        server: "AllocationServer",
        *,
        policy: Optional["ReplicationPolicy"] = None,
        repair_delay_s: float = 0.0,
    ) -> None:
        """Wire this injector's events into an allocation server (the
        sharded router is one).

        * installs :meth:`is_alive` as the server's liveness oracle, so
          ``resolve``/placement/repair never pick nodes this injector has
          taken down;
        * **crash** → :meth:`AllocationServer.migrate_node` (offline
          transition, replica retirement, migration repair);
        * **outage-start** / **outage-end** →
          :meth:`AllocationServer.node_offline` / ``node_online`` with the
          event's virtual timestamp (feeding the availability metric);
        * with ``policy`` given, every crash/outage event additionally
          schedules a one-shot repair audit ``repair_delay_s`` after the
          event (the failure-triggered repair path, on top of the
          policy's periodic cadence);
        * every partition heal runs the server's post-heal reconciliation
          (``reconcile_after_heal``: the router replays its handoff log, a
          plain server has nothing to replay) and, with ``policy`` given,
          schedules a repair audit, so replicas stranded under-replicated
          by the partition recover.

        Nodes unknown to the server (injector population wider than the
        membership) are ignored.
        """
        if repair_delay_s < 0:
            raise ConfigurationError(
                f"repair_delay_s must be >= 0, got {repair_delay_s}"
            )
        server.set_liveness_oracle(self.is_alive)
        self._server = server

        def handler(event: FailureEvent) -> None:
            if not server.has_node(event.node):
                return
            if event.kind == "crash":
                server.migrate_node(event.node, at=event.time)
            elif event.kind == "outage-start":
                server.node_offline(event.node, at=event.time)
            elif event.kind == "outage-end":
                server.node_online(event.node, at=event.time)
            else:
                # slow links degrade, corruption rots silently, partitions
                # sever links without taking nodes down, and peer-leaves
                # only drop ephemeral leases — none changes liveness nor
                # triggers a repair here (post-heal recovery runs through
                # the on_heal hook)
                return
            if policy is not None:
                policy.schedule_repair(self.engine, delay_s=repair_delay_s)

        self.on_failure(handler)

        def heal_handler(at: float) -> None:
            server.reconcile_after_heal(at=at)
            if policy is not None:
                policy.schedule_repair(self.engine, delay_s=repair_delay_s)

        self.on_heal(heal_handler)

    # ------------------------------------------------------------------
    # random campaigns
    # ------------------------------------------------------------------
    def random_crashes(self, rate_per_node_s: float, horizon_s: float) -> int:
        """Poisson-schedule permanent crashes over ``[now, now+horizon)``.

        Returns the number of crashes scheduled. Each node crashes at most
        once.
        """
        if rate_per_node_s < 0 or horizon_s <= 0:
            raise ConfigurationError("need rate >= 0 and horizon > 0")
        n = 0
        for node in self.nodes:
            t = float(self._rng.exponential(1.0 / rate_per_node_s)) if rate_per_node_s else float("inf")
            if t < horizon_s:
                self.crash(node, self.engine.now + t)
                n += 1
        return n

    def random_outages(
        self,
        rate_per_node_s: float,
        mean_duration_s: float,
        horizon_s: float,
    ) -> int:
        """Poisson-schedule transient outages; returns how many were scheduled."""
        if rate_per_node_s < 0 or mean_duration_s <= 0 or horizon_s <= 0:
            raise ConfigurationError("invalid outage campaign parameters")
        n = 0
        for node in self.nodes:
            t = self.engine.now
            while True:
                if rate_per_node_s == 0:
                    break
                gap = float(self._rng.exponential(1.0 / rate_per_node_s))
                t += gap
                if t - self.engine.now >= horizon_s:
                    break
                duration = float(self._rng.exponential(mean_duration_s))
                self.outage(node, t, max(duration, 1e-9))
                t += duration
                n += 1
        return n

    def random_slow_links(
        self,
        rate_per_node_s: float,
        mean_duration_s: float,
        horizon_s: float,
        network: NetworkModel,
        *,
        factor: float = 0.1,
    ) -> int:
        """Poisson-schedule slow-link episodes; returns how many were
        scheduled. Episodes do not overlap per node (the next draw starts
        after the previous episode ends)."""
        if rate_per_node_s < 0 or mean_duration_s <= 0 or horizon_s <= 0:
            raise ConfigurationError("invalid slow-link campaign parameters")
        n = 0
        for node in self.nodes:
            t = self.engine.now
            while True:
                if rate_per_node_s == 0:
                    break
                gap = float(self._rng.exponential(1.0 / rate_per_node_s))
                t += gap
                if t - self.engine.now >= horizon_s:
                    break
                duration = max(float(self._rng.exponential(mean_duration_s)), 1e-9)
                self.slow_link(node, network, start=t, duration=duration, factor=factor)
                t += duration
                n += 1
        return n

    def random_corruptions(self, rate_per_node_s: float, horizon_s: float) -> int:
        """Poisson-schedule silent bit-rot events over ``[now, now+horizon)``.

        Each event rots one replica on one node; the victim segment is
        drawn at fire time from the node's then-hosted segments (sorted,
        so the pick is deterministic for a given schedule), since the
        hosting set shifts as migrations and repairs run. Nodes hosting
        nothing when an event fires lose nothing. Returns the number of
        events scheduled. Requires :meth:`attach_server` first.

        With ``rate_per_node_s == 0`` this draws **nothing** from the
        injector's RNG, so corruption-free campaigns reproduce their
        pre-corruption schedules bit for bit.
        """
        if rate_per_node_s < 0 or horizon_s <= 0:
            raise ConfigurationError("need rate >= 0 and horizon > 0")
        if rate_per_node_s == 0:
            return 0
        if self._server is None:
            raise ConfigurationError(
                "random_corruptions() needs attach_server() first"
            )
        server = self._server
        n = 0
        for node in self.nodes:
            t = self.engine.now
            while True:
                gap = float(self._rng.exponential(1.0 / rate_per_node_s))
                t += gap
                if t - self.engine.now >= horizon_s:
                    break
                n += 1

                def fire(engine: SimulationEngine, node: NodeId = node) -> None:
                    if node in self._crashed or not server.has_node(node):
                        return
                    repo = server.repository(node)
                    hosted = sorted(repo.hosted_segments())
                    if not hosted:
                        return
                    segment = hosted[int(self._rng.integers(len(hosted)))]
                    repo.corrupt_replica(segment, at=engine.now)
                    self._emit(
                        FailureEvent(
                            time=engine.now,
                            node=node,
                            kind="corrupt",
                            segment=segment,
                        )
                    )

                self.engine.schedule(t, fire, label=f"corrupt:{node}")
        return n

    def random_partitions(
        self,
        rate_s: float,
        mean_duration_s: float,
        horizon_s: float,
        network: NetworkModel,
        *,
        fraction: float = 0.3,
    ) -> int:
        """Poisson-schedule network-partition episodes on one global
        timeline over ``[now, now+horizon)``.

        Each episode splits the population in two: a ``fraction`` minority
        (at least 1 node, at most all-but-one) drawn as a seeded
        permutation prefix, versus the rest. Episodes never overlap (the
        next gap is drawn after the previous episode ends). Returns the
        number of episodes scheduled.

        With ``rate_s == 0`` this draws **nothing** from the injector's
        RNG, so partition-free campaigns reproduce their pre-partition
        schedules bit for bit (call it after every other ``random_*``
        campaign so the partition draws come last in the stream).
        """
        if rate_s < 0 or mean_duration_s <= 0 or horizon_s <= 0:
            raise ConfigurationError("invalid partition campaign parameters")
        if not 0.0 < fraction < 1.0:
            raise ConfigurationError(f"fraction must be in (0, 1), got {fraction}")
        if rate_s == 0:
            return 0
        if len(self.nodes) < 2:
            raise ConfigurationError("cannot partition fewer than 2 nodes")
        n = 0
        t = self.engine.now
        while True:
            gap = float(self._rng.exponential(1.0 / rate_s))
            t += gap
            if t - self.engine.now >= horizon_s:
                break
            duration = max(float(self._rng.exponential(mean_duration_s)), 1e-9)
            perm = [self.nodes[int(i)] for i in self._rng.permutation(len(self.nodes))]
            k = max(1, min(int(round(fraction * len(self.nodes))), len(self.nodes) - 1))
            minority, majority = sorted(perm[:k]), sorted(perm[k:])
            self.network_partition(
                network, [minority, majority], start=t, duration=duration
            )
            t += duration
            n += 1
        return n

    def random_peer_leaves(
        self,
        rate_s: float,
        horizon_s: float,
        registry: "PeerRegistry",
    ) -> int:
        """Poisson-schedule abrupt peer departures on one global timeline
        over ``[now, now+horizon)``.

        Each event picks, *at fire time*, one node currently holding at
        least one serving lease in ``registry`` (insertion order — the
        order nodes first became peers — so the pick is deterministic for
        a given schedule) and drops all of that node's leases via
        :meth:`~repro.cdn.peers.PeerRegistry.leave`. Events that fire when
        no peers exist (or only crashed ones do) are no-ops. Returns the
        number of events scheduled.

        With ``rate_s == 0`` this draws **nothing** from the injector's
        RNG, so peer-free campaigns reproduce their pre-peer schedules
        bit for bit (call it after every other ``random_*`` campaign so
        the churn draws come last in the stream).
        """
        if rate_s < 0 or horizon_s <= 0:
            raise ConfigurationError("need rate >= 0 and horizon > 0")
        if rate_s == 0:
            return 0
        n = 0
        t = self.engine.now
        while True:
            gap = float(self._rng.exponential(1.0 / rate_s))
            t += gap
            if t - self.engine.now >= horizon_s:
                break
            n += 1

            def fire(engine: SimulationEngine) -> None:
                pool = [nd for nd in registry.peer_nodes() if nd not in self._crashed]
                if not pool:
                    return  # nobody is a peer right now: churn hits air
                victim = pool[int(self._rng.integers(len(pool)))]
                if registry.leave(victim, reason="churn", at=engine.now):
                    self._emit(
                        FailureEvent(time=engine.now, node=victim, kind="peer-leave")
                    )

            self.engine.schedule(t, fire, label="peer-leave")
        return n
