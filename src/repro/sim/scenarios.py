"""Canned end-to-end scenarios with deterministic, assertable outcomes,
and the acceptance gates that judge them.

Each scenario is a run plus a gate function: ``*_gates`` turns a result
into named :class:`Gate` verdicts. The test suite, the ``repro
migrate|partition|flashcrowd|scrub`` CLI commands and the
``benchmarks/test_bench_{migration,partition,peers}.py`` benches share the
runs *and* the gates, so every acceptance condition is written once and
all three judge the same run by the same rule.

The first scenario is the **demand shift**: the acceptance experiment of
the replica migration subsystem (:mod:`repro.cdn.migration`).

The second is the **community split**: the acceptance experiment of the
partition-tolerance layer (:func:`run_community_split` below).

The third is the **flash crowd**: the acceptance experiment of the
peer-assisted delivery tier (:func:`run_flash_crowd` below). A conference
deadline spikes the request rate on one dataset by 10-100x; with the peer
tier on, the crowd's own fresh fetches become serving leases that are
socially closer than the origin replicas, so the spike is absorbed at the
edge. The same topology also hosts chaos campaigns
(:func:`flash_chaos_network`, :data:`FLASH_CHAOS_OVERRIDES`).

The fourth is **bit rot** (:func:`run_bit_rot`): rot on-disk copies of a
populated deployment, scrub once, and check detection and repair.

Demand-shift shape: a two-cluster coauthorship graph — a *near* cluster
around the data owner and a *far* cluster joined by a single bridge
edge. Datasets publish while only the near cluster has repositories, so
every replica starts near the owner. Then demand shifts: the far cluster begins
round-robin reads of all datasets. Far members contribute tiny
repositories (replica partition fits two segments, user cache two), so
their caches thrash and, without migration, every post-shift access pays
a remote fetch forever. With migration on, the demand tracker sees the
shifted load and the planner promotes replicas into the far cluster —
turning a third of the accesses into local hits. Mid-run, a trust
re-evaluation swaps in a graph without one replica-holding near member:
with migration on, EVICT_UNTRUSTED moves drain that host; off, its
replicas are stranded outside the trust boundary.

Geography is deliberately uniform (all nodes co-located, equal
bandwidth): every remote fetch costs the same, so re-routing reads to a
different replica never changes their duration and the migration-on
improvement is exactly the local-hit savings — a structural, seeded,
strictly-positive delta rather than a geographic accident.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

import networkx as nx
import numpy as np

from ..errors import ConfigurationError
from ..ids import AuthorId, DatasetId, NodeId, SegmentId
from ..obs import Registry
from ..rng import make_rng
from ..social.graph import CoauthorshipGraph
from .network import GeoPoint, NetworkModel

if TYPE_CHECKING:  # avoid a runtime sim -> cdn import cycle
    from ..cdn.integrity import ScrubReport
    from ..cdn.replication import RedundancyReport
    from ..scdn import SCDN

#: Majority-side acceptance the community split must keep through the cut.
MIN_MAJORITY_ACCEPTANCE = 0.9
#: Share of the flash crowd's spike serves the peer tier must take off
#: the origin.
MIN_PEER_OFFLOAD = 0.5
#: Factor by which the peer tier must cut the spike's p99 fetch time.
MIN_P99_SPEEDUP = 2.0


class Gate(NamedTuple):
    """One named acceptance condition: whether it held, and the value it
    judged (what a failure report prints)."""

    name: str
    passed: bool
    observed: object

#: Author ids of the scenario graph. The owner and two more "near"
#: researchers form one complete cluster; three "far" researchers form
#: another; near-1 -- far-1 is the only bridge.
_NEAR = [AuthorId("near-owner"), AuthorId("near-1"), AuthorId("near-2")]
_FAR = [AuthorId("far-1"), AuthorId("far-2"), AuthorId("far-3")]


@dataclass(frozen=True)
class DemandShiftConfig:
    """Timeline and sizing of the demand-shift scenario; validates itself.

    Defaults give a two-hour run: thirty minutes of near-cluster traffic,
    then ninety minutes of far-cluster round-robin, with the trust swap at
    the ninety-minute mark.
    """

    segment_bytes: int = 1_000_000
    tick_interval_s: float = 60.0
    shift_at_s: float = 1_800.0
    swap_at_s: float = 5_400.0
    horizon_s: float = 7_200.0
    migration_interval_s: float = 300.0
    hot_rate_per_s: float = 0.003

    def __post_init__(self) -> None:
        if self.segment_bytes <= 0:
            raise ConfigurationError("segment_bytes must be positive")
        if self.tick_interval_s <= 0:
            raise ConfigurationError("tick_interval_s must be positive")
        if not 0 < self.shift_at_s < self.swap_at_s < self.horizon_s:
            raise ConfigurationError(
                "need 0 < shift_at_s < swap_at_s < horizon_s"
            )
        if self.migration_interval_s <= 0:
            raise ConfigurationError("migration_interval_s must be positive")
        if self.hot_rate_per_s < 0:
            raise ConfigurationError("hot_rate_per_s must be >= 0")


@dataclass
class PhaseStats:
    """Access accounting for one phase of the scenario."""

    accesses: int = 0
    ok: int = 0
    local_hits: int = 0
    total_duration_s: float = 0.0

    @property
    def mean_duration_s(self) -> float:
        """Mean access duration, local and cache hits included at 0.0
        (the number migration is supposed to push down)."""
        if self.accesses == 0:
            return 0.0
        return self.total_duration_s / self.accesses

    @property
    def availability(self) -> float:
        """Fraction of accesses that succeeded (1.0 with no accesses)."""
        if self.accesses == 0:
            return 1.0
        return self.ok / self.accesses


@dataclass(frozen=True)
class DemandShiftResult:
    """Outcome of one demand-shift run (one migration setting)."""

    migration_enabled: bool
    pre_shift: PhaseStats
    post_shift: PhaseStats
    moves_completed: int
    moves_failed: int
    min_mid_move_redundancy: Optional[float]
    #: non-retired replicas left on hosts outside the post-swap trust
    #: boundary at the horizon (the EVICT_UNTRUSTED acceptance number)
    untrusted_leftover: int
    evicted_author: AuthorId


def scenario_graph(*, far_clusters: int = 1) -> CoauthorshipGraph:
    """The demand-shift coauthorship graph, optionally scaled.

    With the default ``far_clusters=1`` this is exactly the scenario's
    legacy two-cluster graph: the three-member *near* clique around the
    owner, the three-member *far* clique, one ``near-1 -- far-1`` bridge.
    Larger values append additional three-member far cliques
    (``far{k}-1 .. far{k}-3`` for ``k >= 2``), each bridged to ``near-1``
    by its own weight-1 edge — same topology family, more nodes. The
    scaled variants serve the differential resolve and sharding tests and
    the benchmark's ``resolve-scale`` workload, which need a graph big
    enough to spread replicas over many holders and communities; the
    scenario itself always runs at scale 1.
    """
    if far_clusters < 1:
        raise ConfigurationError(f"far_clusters must be >= 1, got {far_clusters}")
    g = nx.Graph()
    clusters = [_NEAR, _FAR]
    for k in range(2, far_clusters + 1):
        clusters.append([AuthorId(f"far{k}-{i}") for i in range(1, 4)])
    for cluster in clusters:
        for i, a in enumerate(cluster):
            for b in cluster[i + 1 :]:
                g.add_edge(a, b, weight=3, pubs=())
    for cluster in clusters[1:]:
        g.add_edge(_NEAR[1], cluster[0], weight=1, pubs=())
    return CoauthorshipGraph(g, seed=_NEAR[0])


def _uniform_network(graph: CoauthorshipGraph) -> NetworkModel:
    net = NetworkModel()
    for author in graph.nodes():
        net.add_node(NodeId(str(author)), GeoPoint(0.0, 0.0))
    return net


def run_demand_shift(
    *,
    migration: bool,
    seed: int = 7,
    config: Optional[DemandShiftConfig] = None,
    registry: Optional[Registry] = None,
) -> DemandShiftResult:
    """Run the demand-shift scenario once, with or without migration.

    Both settings build bit-identical deployments from ``seed`` (the
    migration engine draws from its own spawned stream), so the returned
    phase stats are directly comparable across the pair.
    """
    from ..cdn.migration import MigrationConfig, MigrationEngine
    from ..scdn import SCDN, SCDNConfig

    cfg = config or DemandShiftConfig()
    registry = registry if registry is not None else Registry()
    graph = scenario_graph()
    seg = cfg.segment_bytes
    net = SCDN(
        graph,
        network=_uniform_network(graph),
        config=SCDNConfig(
            n_replicas=2,
            proximity_hops=6,
            transfer_failure_prob=0.0,
        ),
        seed=seed,
        registry=registry,
    )
    # near cluster joins with roomy repositories and publishes everything
    # *before* the far cluster contributes storage: every replica starts
    # near the owner
    for author in _NEAR:
        net.join(author, capacity_bytes=64 * seg)
    datasets = [f"hot-{i}" for i in range(3)]
    for ds in datasets:
        net.publish(_NEAR[0], ds, seg, n_segments=1)
    # far members contribute tiny repositories: the replica partition
    # fits two segments, the user cache two — reading three datasets
    # round-robin thrashes the cache forever
    for author in _FAR:
        net.join(author, capacity_bytes=4 * seg)

    # the trust swap removes a replica-holding near member (never the
    # owner, never a requester); holders are placement-determined but
    # seeded, so both runs of a pair pick the same author
    holding = {
        net.server.author_of(r.node_id)
        for ds in net.server.catalog.datasets()
        for s in ds.segments
        for r in net.server.catalog.replicas_of_segment(s.segment_id)
    }
    candidates = [a for a in _NEAR[1:] if a in holding]
    if not candidates:  # placement put everything on the owner (impossible
        raise ConfigurationError("scenario bug: no evictable replica holder")
    evicted = sorted(candidates)[-1]

    engine: Optional[MigrationEngine] = None
    if migration:
        engine = net.migration_engine(
            config=MigrationConfig(
                interval_s=cfg.migration_interval_s,
                hot_rate_per_s=cfg.hot_rate_per_s,
            ),
            seed=seed,
        )
        engine.attach(net.engine)

    pre = PhaseStats()
    post = PhaseStats()

    def _access(stats: PhaseStats, author: AuthorId, ds: str) -> None:
        for outcome in net.access(author, ds):
            stats.accesses += 1
            if outcome.ok:
                stats.ok += 1
            if outcome.source in ("replica-partition", "user-cache"):
                stats.local_hits += 1
            stats.total_duration_s += outcome.duration_s

    def tick(e) -> None:
        idx = int(round(e.now / cfg.tick_interval_s))
        if e.now < cfg.shift_at_s:
            _access(pre, _NEAR[1], datasets[idx % len(datasets)])
            _access(pre, _NEAR[2], datasets[(idx + 1) % len(datasets)])
        else:
            for i, author in enumerate(_FAR):
                _access(post, author, datasets[(idx + i) % len(datasets)])

    net.engine.every(cfg.tick_interval_s, tick, label="demand-shift")

    def swap(e) -> None:
        keep = [a for a in net.graph.nodes() if a != evicted]
        net.server.graph = net.graph.subgraph(keep)

    net.engine.schedule(cfg.swap_at_s, swap, label="trust-swap")
    net.engine.run(until=cfg.horizon_s)
    if engine is not None:
        engine.quiesce(at=cfg.horizon_s)

    leftover = sum(
        len(net.server.catalog.replicas_on_node(n))
        for n in net.server.untrusted_hosts()
    )
    return DemandShiftResult(
        migration_enabled=migration,
        pre_shift=pre,
        post_shift=post,
        moves_completed=engine.total_completed if engine else 0,
        moves_failed=engine.total_failed if engine else 0,
        min_mid_move_redundancy=(
            engine.min_mid_move_redundancy if engine else None
        ),
        untrusted_leftover=leftover,
        evicted_author=evicted,
    )


def compare_demand_shift(
    *,
    seed: int = 7,
    config: Optional[DemandShiftConfig] = None,
) -> Tuple[DemandShiftResult, DemandShiftResult]:
    """Run the scenario migration-off then migration-on (fresh registry
    each, same seed) and return ``(off, on)``."""
    off = run_demand_shift(migration=False, seed=seed, config=config)
    on = run_demand_shift(migration=True, seed=seed, config=config)
    return off, on


def demand_shift_gates(off: DemandShiftResult, on: DemandShiftResult) -> List[Gate]:
    """The migration gates over a :func:`compare_demand_shift` pair:
    migration pays, its moves land safely, and the trust swap is drained
    only when migration runs."""
    off_mean = off.post_shift.mean_duration_s
    on_mean = on.post_shift.mean_duration_s
    redundancy = on.min_mid_move_redundancy
    return [
        Gate("post_shift_mean_falls", on_mean < off_mean,
             f"off {off_mean:.6f}s, on {on_mean:.6f}s"),
        Gate("moves_complete", on.moves_completed > 0 and on.moves_failed == 0,
             f"{on.moves_completed} completed, {on.moves_failed} failed"),
        Gate("mid_move_redundancy", redundancy is not None and redundancy >= 1.0,
             redundancy),
        Gate("no_untrusted_leftover", on.untrusted_leftover == 0,
             on.untrusted_leftover),
        Gate("swap_strands_without_migration", off.untrusted_leftover > 0,
             off.untrusted_leftover),
    ]


# ----------------------------------------------------------------------
# community split (partition tolerance)
# ----------------------------------------------------------------------
#
# Shape: two coauthorship communities on a two-shard federation — an
# eight-member community A and a four-member community B, bridged by a
# single a1 -- b1 edge, so community detection assigns each clique its
# own allocation shard. b1 publishes a "b-shared" dataset whose replica
# budget exceeds B's capacity, so half the copies spill across the
# bridge into A; a1 publishes an "a-shared" dataset that stays home.
# Tight repositories (user cache fits one segment, members alternate
# between the two datasets) keep every access on the resolve path
# instead of the user cache.
#
# Then the network splits B's core {b1, b2, b3} — including b1, the
# owning shard's coordinator — away from everyone else. The majority
# side (all of A plus the late joiner b4) keeps reading "b-shared":
# its owning shard is unreachable, so those resolves degrade to the
# stale federated view restricted to the spilled replicas — served,
# flagged, and counted. The minority still serves its local copies but
# loses "a-shared" entirely (every replica is across the cut). Mid-
# partition b4 publishes "b-late": the owning site's coordinator is on
# the other side, so the publish parks in the hinted-handoff log. At
# the heal, the injector's on_heal hook runs the router's
# reconciliation sweep: the parked publish replays, the handoff log
# drains, and the run must end with zero divergence against the
# never-partitioned oracle.

#: Community A (majority side): eight researchers, complete clique.
_SPLIT_A = [AuthorId(f"a{i}") for i in range(1, 9)]
#: Community B: four researchers, complete clique; b1 bridges to a1.
_SPLIT_B = [AuthorId(f"b{i}") for i in range(1, 5)]


@dataclass(frozen=True)
class CommunitySplitConfig:
    """Timeline and sizing of the community-split scenario.

    Defaults give a fifteen-minute run: five minutes whole, five minutes
    split (B's core cut off from everyone else), five minutes healed.
    """

    segment_bytes: int = 1_000_000
    tick_interval_s: float = 30.0
    partition_at_s: float = 300.0
    heal_at_s: float = 600.0
    horizon_s: float = 900.0
    #: replica budget of the shared dataset — more than community B can
    #: hold, so copies spill into A and keep the majority servable
    shared_replicas: int = 6

    def __post_init__(self) -> None:
        if self.segment_bytes <= 0:
            raise ConfigurationError("segment_bytes must be positive")
        if self.tick_interval_s <= 0:
            raise ConfigurationError("tick_interval_s must be positive")
        if not 0 < self.partition_at_s < self.heal_at_s < self.horizon_s:
            raise ConfigurationError(
                "need 0 < partition_at_s < heal_at_s < horizon_s"
            )
        if self.shared_replicas < 4:
            raise ConfigurationError(
                "shared_replicas must be >= 4 (the spill into community A "
                "is the point of the scenario)"
            )


@dataclass(frozen=True)
class CommunitySplitResult:
    """Outcome of one community-split run (one partition setting)."""

    partitions_enabled: bool
    #: whole-network accesses before the split
    pre: PhaseStats
    #: accesses from the cut-off side ({b1, b2, b3}) while split
    minority: PhaseStats
    #: accesses from the rest (A plus b4) while split
    majority: PhaseStats
    #: whole-network accesses after the heal
    post: PhaseStats
    #: resolves served from the stale federated view (degraded=True)
    degraded_serves: int
    #: writes parked in the hinted-handoff log during the split
    handoff_queued: int
    #: parked writes replayed by the post-heal reconciliation
    handoff_replayed: int
    #: un-replayed hints plus expected datasets missing at the horizon
    divergence_after_heal: int
    #: the mid-partition publish resolved and served after the heal
    late_dataset_served: bool
    #: expected datasets present in the catalog at the horizon (of 3)
    datasets_converged: int
    #: segments with zero live replicas at the horizon
    final_lost: int


def community_split_graph() -> CoauthorshipGraph:
    """The community-split coauthorship graph: two cliques, one bridge."""
    g = nx.Graph()
    for cluster in (_SPLIT_A, _SPLIT_B):
        for i, a in enumerate(cluster):
            for b in cluster[i + 1 :]:
                g.add_edge(a, b, weight=3, pubs=())
    g.add_edge(_SPLIT_A[0], _SPLIT_B[0], weight=1, pubs=())
    return CoauthorshipGraph(g, seed=_SPLIT_A[0])


def run_community_split(
    *,
    partitions: bool,
    seed: int = 7,
    config: Optional[CommunitySplitConfig] = None,
    registry: Optional[Registry] = None,
) -> CommunitySplitResult:
    """Run the community-split scenario once, with or without the split.

    Both settings build bit-identical deployments from ``seed`` (the
    partition consumes no randomness), so the returned phase stats are
    directly comparable across the pair and the ``partitions=False`` run
    is the never-partitioned convergence oracle.
    """
    from ..errors import ReproError
    from ..ids import DatasetId
    from ..scdn import SCDN, SCDNConfig

    cfg = config or CommunitySplitConfig()
    registry = registry if registry is not None else Registry()
    graph = community_split_graph()
    seg = cfg.segment_bytes
    net = SCDN(
        graph,
        network=_uniform_network(graph),
        config=SCDNConfig(
            shards=2,
            n_replicas=2,
            proximity_hops=6,
            transfer_failure_prob=0.0,
        ),
        seed=seed,
        registry=registry,
    )
    sites = {net.server.syscat.site_of_author(a) for a in _SPLIT_B}
    if len(sites) != 1 or net.server.syscat.site_of_author(_SPLIT_A[0]) in sites:
        raise ConfigurationError(
            "scenario bug: community detection did not give each clique "
            "its own shard"
        )
    # tight repositories: the replica partition and the user cache each
    # fit exactly one segment, so alternating between two datasets
    # thrashes the cache and every access exercises the resolve path
    for author in _SPLIT_A + _SPLIT_B[:3]:
        net.join(author, capacity_bytes=2 * seg)
    datasets = ["b-shared", "a-shared"]
    # B can hold at most three copies (one per joined member), so the
    # budget of six forces the other three across the bridge into A
    net.publish(_SPLIT_B[0], "b-shared", seg, n_replicas=cfg.shared_replicas)
    net.publish(_SPLIT_A[0], "a-shared", seg, n_replicas=3)
    # b4 joins last, after placement: a cold member with no replicas
    net.join(_SPLIT_B[3], capacity_bytes=2 * seg)

    injector = net.failure_injector(seed=seed)
    minority_nodes = [NodeId(str(b)) for b in _SPLIT_B[:3]]
    majority_nodes = [NodeId(str(a)) for a in _SPLIT_A] + [
        NodeId(str(_SPLIT_B[3]))
    ]
    if partitions:
        injector.network_partition(
            net.network,
            [minority_nodes, majority_nodes],
            start=cfg.partition_at_s,
            duration=cfg.heal_at_s - cfg.partition_at_s,
        )

    pre = PhaseStats()
    minority = PhaseStats()
    majority = PhaseStats()
    post = PhaseStats()
    members = _SPLIT_A + _SPLIT_B

    def _access(stats: PhaseStats, author: AuthorId, ds: str) -> None:
        try:
            outcomes = net.access(author, ds)
        except ReproError:
            # a requester cut off from every replica fails at resolve
            # time; the side's acceptance must count the loss
            stats.accesses += 1
            return
        for outcome in outcomes:
            stats.accesses += 1
            if outcome.ok:
                stats.ok += 1
            if outcome.source in ("replica-partition", "user-cache"):
                stats.local_hits += 1
            stats.total_duration_s += outcome.duration_s

    def tick(e) -> None:
        idx = int(round(e.now / cfg.tick_interval_s))
        for i, author in enumerate(members):
            side = injector.partition_side(NodeId(str(author)))
            if side == "minority":
                stats = minority
            elif side == "majority":
                stats = majority
            elif e.now < cfg.partition_at_s:
                stats = pre
            else:
                stats = post
            _access(stats, author, datasets[(idx + i) % len(datasets)])

    net.engine.every(cfg.tick_interval_s, tick, label="community-split")

    # mid-partition, the cold member publishes: with the owning site's
    # coordinator (b1) across the cut, the write parks in the handoff log
    def late_publish(e) -> None:
        net.publish(_SPLIT_B[3], "b-late", seg, n_replicas=2)

    net.engine.schedule(
        (cfg.partition_at_s + cfg.heal_at_s) / 2.0,
        late_publish,
        label="late-publish",
    )

    late = {"served": False}

    def late_read(e) -> None:
        try:
            outcomes = net.access(_SPLIT_A[0], "b-late")
        except ReproError:
            return
        late["served"] = bool(outcomes) and all(o.ok for o in outcomes)

    net.engine.schedule(
        (cfg.heal_at_s + cfg.horizon_s) / 2.0, late_read, label="late-read"
    )

    net.engine.run(until=cfg.horizon_s)

    snap = registry.snapshot()["counters"]
    divergence = len(net.server.pending_handoff())
    expected = datasets + ["b-late"]
    present = sum(1 for d in expected if DatasetId(d) in net.server.catalog)
    divergence += len(expected) - present
    final = net.replication.snapshot(at=cfg.horizon_s)
    return CommunitySplitResult(
        partitions_enabled=partitions,
        pre=pre,
        minority=minority,
        majority=majority,
        post=post,
        degraded_serves=snap["alloc.resolve.degraded"]["value"],
        handoff_queued=snap["alloc.handoff.queued"]["value"],
        handoff_replayed=snap["alloc.handoff.replayed"]["value"],
        divergence_after_heal=divergence,
        late_dataset_served=late["served"],
        datasets_converged=present,
        final_lost=final.lost,
    )


def compare_community_split(
    *,
    seed: int = 7,
    config: Optional[CommunitySplitConfig] = None,
) -> Tuple[CommunitySplitResult, CommunitySplitResult]:
    """Run the scenario split-off then split-on (fresh registry each,
    same seed) and return ``(off, on)`` — off is the convergence oracle."""
    off = run_community_split(partitions=False, seed=seed, config=config)
    on = run_community_split(partitions=True, seed=seed, config=config)
    return off, on


def community_split_gates(
    off: CommunitySplitResult, on: CommunitySplitResult
) -> List[Gate]:
    """The partition-tolerance gates over a :func:`compare_community_split`
    pair: the split bites, the majority rides it out on degraded serves,
    every parked write replays, and both runs converge on the same three
    datasets with nothing diverged or lost."""
    minority, majority = on.minority.availability, on.majority.availability
    queued, replayed = on.handoff_queued, on.handoff_replayed
    return [
        Gate("minority_cut_off", minority < 1.0, f"{minority:.4f}"),
        Gate("majority_acceptance", majority >= MIN_MAJORITY_ACCEPTANCE,
             f"{majority:.4f}"),
        Gate("degraded_serves", on.degraded_serves > 0, on.degraded_serves),
        Gate("handoff_replayed", queued > 0 and replayed == queued,
             f"{replayed}/{queued}"),
        Gate("late_dataset_served", on.late_dataset_served, on.late_dataset_served),
        Gate("zero_divergence",
             off.divergence_after_heal == 0 and on.divergence_after_heal == 0,
             f"off {off.divergence_after_heal}, on {on.divergence_after_heal}"),
        Gate("nothing_lost", on.final_lost == 0, on.final_lost),
        Gate("datasets_converged",
             off.datasets_converged == on.datasets_converged == 3,
             f"off {off.datasets_converged}, on {on.datasets_converged}"),
    ]


# ----------------------------------------------------------------------
# flash crowd (peer-assisted delivery)
# ----------------------------------------------------------------------
#
# Shape: an origin clique of three researchers holds every replica of one
# "deadline-data" dataset; a crowd clique is bridged to it only through a
# relay author (origin-2 -- relay -- crowd-1), so every crowd member is
# >= 2 social hops from every repository replica while crowd members are
# 1 hop from each other — the strict-inequality rank rule puts a crowd
# peer ahead of the origin for every crowd requester. Geography mirrors
# the social structure: the origin sits thousands of km away behind a
# thin access link, the crowd is co-located on fat links, so an origin
# fetch costs ~20x a peer fetch.
#
# Crowd repositories are tight: the user cache holds ``cache_segments``
# of the dataset's ``n_segments`` (fewer), so round-robin reads thrash
# the cache and every access pays a remote fetch forever — the sustained
# fetch stream the spike amplifies. Members walk the segments with a
# per-member offset (member i reads segment (tick + i) mod S), so at any
# instant some *other* member's cache — and, with the tier on, its
# serving lease — holds exactly the segment a requester wants. With the
# tier off, every one of those fetches crosses the thin origin link.
#
# Timeline: a baseline phase (one crowd member per baseline tick) warms
# nothing but the accounting, then at ``spike_at_s`` the conference
# deadline hits: ticks accelerate by ``spike_factor`` and the whole
# crowd reads every tick — a ``spike_factor * crowd``-fold request-rate
# amplification on the one dataset (90x at the defaults, inside the
# 10-100x flash-crowd band).

#: The origin clique: the owner and two co-located replica holders.
_FLASH_ORIGIN = [AuthorId("origin-owner"), AuthorId("origin-1"), AuthorId("origin-2")]
#: Bridge author between the origin and the crowd; never joins (no
#: repository) — it only exists to stretch the social distance so crowd
#: peers are strictly closer to each other than to any origin replica.
_FLASH_RELAY = AuthorId("relay")
_FLASH_DATASET = "deadline-data"


@dataclass(frozen=True)
class FlashCrowdConfig:
    """Timeline and sizing of the flash-crowd scenario; validates itself.

    Defaults give a thirty-minute run: twenty minutes of baseline traffic
    (one access per minute), then a ten-minute deadline spike at 10x the
    tick rate with all nine crowd members reading — 90x the baseline
    request rate on the one dataset.
    """

    segment_bytes: int = 1_000_000
    n_segments: int = 4
    crowd: int = 9
    #: user-cache capacity of each crowd member, in segments; must be
    #: smaller than ``n_segments`` so reads thrash (sustained fetches)
    cache_segments: int = 2
    n_replicas: int = 2
    baseline_tick_interval_s: float = 60.0
    #: tick-rate multiplier of the spike (the deadline crowd also reads
    #: every tick, so the request-rate amplification is crowd x this)
    spike_factor: int = 10
    spike_at_s: float = 1_200.0
    horizon_s: float = 1_800.0
    peer_lease_ttl_s: float = 600.0
    peer_max_concurrent_serves: int = 4

    def __post_init__(self) -> None:
        if self.segment_bytes <= 0:
            raise ConfigurationError("segment_bytes must be positive")
        if self.n_segments < 3:
            raise ConfigurationError(
                "n_segments must be >= 3 (the cache must thrash)"
            )
        if self.crowd < self.n_segments:
            raise ConfigurationError(
                "crowd must be >= n_segments so every segment residue has "
                "a peer holding it during the spike"
            )
        if not 1 <= self.cache_segments < self.n_segments:
            raise ConfigurationError(
                "cache_segments must be in [1, n_segments) — a cache that "
                "fits the whole dataset never thrashes"
            )
        if self.n_replicas < 1 or self.n_replicas > len(_FLASH_ORIGIN):
            raise ConfigurationError(
                f"n_replicas must be in [1, {len(_FLASH_ORIGIN)}] — every "
                "replica must fit in the origin clique"
            )
        if self.baseline_tick_interval_s <= 0:
            raise ConfigurationError("baseline_tick_interval_s must be positive")
        if self.spike_factor < 2:
            raise ConfigurationError("spike_factor must be >= 2")
        if not 0 < self.spike_at_s < self.horizon_s:
            raise ConfigurationError("need 0 < spike_at_s < horizon_s")
        if self.peer_lease_ttl_s <= 0:
            raise ConfigurationError("peer_lease_ttl_s must be positive")
        if self.peer_max_concurrent_serves < 1:
            raise ConfigurationError("peer_max_concurrent_serves must be >= 1")


@dataclass(frozen=True)
class FlashCrowdResult:
    """Outcome of one flash-crowd run (one peer-tier setting)."""

    peer_tier_enabled: bool
    baseline: PhaseStats
    spike: PhaseStats
    #: remote fetches made during the spike window
    spike_remote_fetches: int
    #: spike remote fetches served from a peer lease
    spike_peer_fetches: int
    spike_fetch_p50_s: float
    #: p99 of spike remote-fetch durations — the gated number
    spike_fetch_p99_s: float
    #: peer serves / (peer + repository serves) over the spike window —
    #: the fraction of spike read traffic the origin never saw
    offload_ratio: float
    #: spike peer fetches / spike remote fetches (client-side view)
    peer_hit_rate: float
    peers_admitted: int
    peer_leases_expired: int


def flash_crowd_graph(*, crowd: int = 9) -> CoauthorshipGraph:
    """The flash-crowd coauthorship graph: origin clique, crowd clique,
    and a relay author stretching the bridge to two hops."""
    if crowd < 2:
        raise ConfigurationError(f"crowd must be >= 2, got {crowd}")
    g = nx.Graph()
    members = [AuthorId(f"crowd-{i}") for i in range(1, crowd + 1)]
    for cluster in (_FLASH_ORIGIN, members):
        for i, a in enumerate(cluster):
            for b in cluster[i + 1 :]:
                g.add_edge(a, b, weight=3, pubs=())
    g.add_edge(_FLASH_ORIGIN[2], _FLASH_RELAY, weight=1, pubs=())
    g.add_edge(_FLASH_RELAY, members[0], weight=1, pubs=())
    return CoauthorshipGraph(g, seed=_FLASH_ORIGIN[0])


def _flash_network(graph: CoauthorshipGraph) -> NetworkModel:
    """Geography matching the social shape: a far, thin origin; a
    co-located, fat-linked crowd."""
    net = NetworkModel()
    for author in graph.nodes():
        name = str(author)
        if name.startswith("origin"):
            net.add_node(NodeId(name), GeoPoint(40.0, 0.0), bandwidth_bps=2e7)
        else:
            net.add_node(NodeId(name), GeoPoint(0.0, 0.0), bandwidth_bps=1e9)
    return net


#: :class:`~repro.sim.chaos.ChaosConfig` overrides that fit a chaos
#: campaign to :func:`flash_chaos_network`: every author joins, and
#: replicas publish before the late joiners arrive, so they stay pinned on
#: the owners while the late joiners — strictly closer to each other than
#: to any replica — churn through tight repositories. This is the
#: deployment where the peer tier has social room to serve.
FLASH_CHAOS_OVERRIDES: Dict[str, object] = {
    "members": 13,
    "datasets": 2,
    "segments_per_dataset": 2,
    "n_replicas": 3,
    "member_capacity_bytes": 20_000_000,
    "publish_before_join": True,
}


def flash_chaos_network(*, seed: int = 1) -> "SCDN":
    """An empty deployment over :func:`flash_crowd_graph` and its
    geography (fresh registry), ready for
    :func:`~repro.sim.chaos.run_chaos_campaign` with a config carrying
    :data:`FLASH_CHAOS_OVERRIDES`."""
    from ..scdn import SCDN, SCDNConfig

    graph = flash_crowd_graph()
    return SCDN(
        graph,
        config=SCDNConfig(proximity_hops=6),
        seed=seed,
        registry=Registry(),
        network=_flash_network(graph),
    )


def run_flash_crowd(
    *,
    peer_tier: bool,
    seed: int = 7,
    config: Optional[FlashCrowdConfig] = None,
    registry: Optional[Registry] = None,
) -> FlashCrowdResult:
    """Run the flash-crowd scenario once, with or without the peer tier.

    Both settings build bit-identical deployments from ``seed`` (the peer
    registry consumes no randomness), so the returned spike stats are
    directly comparable across the pair.
    """
    from ..scdn import SCDN, SCDNConfig

    cfg = config or FlashCrowdConfig()
    registry = registry if registry is not None else Registry()
    graph = flash_crowd_graph(crowd=cfg.crowd)
    seg = cfg.segment_bytes
    crowd = [AuthorId(f"crowd-{i}") for i in range(1, cfg.crowd + 1)]
    net = SCDN(
        graph,
        network=_flash_network(graph),
        config=SCDNConfig(
            n_replicas=cfg.n_replicas,
            proximity_hops=6,
            transfer_failure_prob=0.0,
            peer_tier=peer_tier,
            peer_lease_ttl_s=cfg.peer_lease_ttl_s,
            peer_cache_segments=cfg.cache_segments,
            peer_max_concurrent_serves=cfg.peer_max_concurrent_serves,
        ),
        seed=seed,
        registry=registry,
    )
    # origin joins with roomy repositories and publishes *before* the
    # crowd contributes storage: every replica pins to the origin clique
    for author in _FLASH_ORIGIN:
        net.join(author, capacity_bytes=64 * seg)
    net.publish(
        _FLASH_ORIGIN[0],
        _FLASH_DATASET,
        seg * cfg.n_segments,
        n_segments=cfg.n_segments,
        n_replicas=cfg.n_replicas,
    )
    origin_nodes = {NodeId(str(a)) for a in _FLASH_ORIGIN}
    for r in net.server.catalog.replicas_of_segment(
        net.server.catalog.dataset(DatasetId(_FLASH_DATASET)).segments[0].segment_id
    ):
        if r.node_id not in origin_nodes:
            raise ConfigurationError("scenario bug: replica escaped the origin")
    # crowd repositories: the user cache fits cache_segments of the
    # n_segments (50/50 replica/user split), so reads thrash forever
    for author in crowd:
        net.join(author, capacity_bytes=2 * cfg.cache_segments * seg)
    segments = [
        s.segment_id
        for s in net.server.catalog.dataset(DatasetId(_FLASH_DATASET)).segments
    ]
    n_seg = len(segments)

    base = PhaseStats()
    spike = PhaseStats()
    spike_durations: List[float] = []

    def _access(stats: PhaseStats, author: AuthorId, sid, in_spike: bool) -> None:
        outcome = net.clients[author].access_segment(sid)
        stats.accesses += 1
        if outcome.ok:
            stats.ok += 1
        if outcome.source in ("replica-partition", "user-cache"):
            stats.local_hits += 1
        stats.total_duration_s += outcome.duration_s
        if in_spike and outcome.source == "remote" and outcome.ok:
            spike_durations.append(outcome.duration_s)

    fine = cfg.baseline_tick_interval_s / cfg.spike_factor

    def tick(e) -> None:
        idx = int(round(e.now / fine))
        if e.now < cfg.spike_at_s:
            if idx % cfg.spike_factor:
                return  # between baseline ticks
            bidx = idx // cfg.spike_factor
            _access(base, crowd[bidx % len(crowd)], segments[bidx % n_seg], False)
        else:
            # the deadline crowd: everyone reads every fine tick, each
            # member offset one segment from its neighbour so another
            # member's lease always covers the requested segment
            for i, author in enumerate(crowd):
                _access(spike, author, segments[(idx + i) % n_seg], True)

    net.engine.every(fine, tick, label="flash-crowd")

    # spike-window deltas: mark the serve counters just before the spike
    def _counters() -> Dict[str, int]:
        snap = registry.snapshot()["counters"]

        def val(name: str) -> int:
            entry = snap.get(name)
            return int(entry["value"]) if entry else 0

        return {
            "peer": val("peer.serves"),
            "repo": val("alloc.serves.repository"),
            "peer_fetches": sum(c.stats.peer_fetches for c in net.clients.values()),
            "remote": sum(c.stats.remote_fetches for c in net.clients.values()),
        }

    mark: Dict[str, int] = {}
    net.engine.schedule(
        cfg.spike_at_s - 1e-6, lambda e: mark.update(_counters()), label="spike-mark"
    )
    net.engine.run(until=cfg.horizon_s)

    end = _counters()
    d_peer = end["peer"] - mark.get("peer", 0)
    d_repo = end["repo"] - mark.get("repo", 0)
    d_peer_fetches = end["peer_fetches"] - mark.get("peer_fetches", 0)
    d_remote = end["remote"] - mark.get("remote", 0)
    arr = np.asarray(spike_durations, dtype=np.float64)
    snap = registry.snapshot()["counters"]

    def _final(name: str) -> int:
        entry = snap.get(name)
        return int(entry["value"]) if entry else 0

    return FlashCrowdResult(
        peer_tier_enabled=peer_tier,
        baseline=base,
        spike=spike,
        spike_remote_fetches=d_remote,
        spike_peer_fetches=d_peer_fetches,
        spike_fetch_p50_s=float(np.percentile(arr, 50)) if len(arr) else 0.0,
        spike_fetch_p99_s=float(np.percentile(arr, 99)) if len(arr) else 0.0,
        offload_ratio=(
            d_peer / (d_peer + d_repo) if (d_peer + d_repo) else 0.0
        ),
        peer_hit_rate=d_peer_fetches / d_remote if d_remote else 0.0,
        peers_admitted=_final("peer.admitted"),
        peer_leases_expired=_final("peer.lease.expired"),
    )


def compare_flash_crowd(
    *,
    seed: int = 7,
    config: Optional[FlashCrowdConfig] = None,
) -> Tuple[FlashCrowdResult, FlashCrowdResult]:
    """Run the scenario peers-off then peers-on (fresh registry each,
    same seed) and return ``(off, on)`` — identical workloads, so the
    spike-phase numbers are directly comparable."""
    off = run_flash_crowd(peer_tier=False, seed=seed, config=config)
    on = run_flash_crowd(peer_tier=True, seed=seed, config=config)
    return off, on


def p99_speedup(off: FlashCrowdResult, on: FlashCrowdResult) -> float:
    """Spike p99 fetch time with the peer tier off over on (``inf`` when
    the peers-on run made no remote fetch)."""
    if not on.spike_fetch_p99_s:
        return float("inf")
    return off.spike_fetch_p99_s / on.spike_fetch_p99_s


def flash_crowd_gates(off: FlashCrowdResult, on: FlashCrowdResult) -> List[Gate]:
    """The peer-tier gates over a :func:`compare_flash_crowd` pair: the
    tier offloads the origin and cuts the p99, both runs stay fully
    available on identical workloads, and the peers-off run never touches
    the tier."""
    speedup = p99_speedup(off, on)
    off_avail, on_avail = off.spike.availability, on.spike.availability
    return [
        Gate("peer_offload", on.offload_ratio >= MIN_PEER_OFFLOAD,
             f"{on.offload_ratio:.4f}"),
        Gate("p99_speedup", speedup >= MIN_P99_SPEEDUP, f"{speedup:.2f}x"),
        Gate("peers_admitted", on.peers_admitted > 0, on.peers_admitted),
        Gate("full_availability", off_avail == 1.0 and on_avail == 1.0,
             f"off {off_avail:.4f}, on {on_avail:.4f}"),
        Gate("same_remote_fetches",
             off.spike_remote_fetches == on.spike_remote_fetches,
             f"off {off.spike_remote_fetches}, on {on.spike_remote_fetches}"),
        Gate("peers_off_inert",
             off.spike_peer_fetches == 0 and off.offload_ratio == 0.0,
             f"{off.spike_peer_fetches} peer fetches, "
             f"offload {off.offload_ratio:.4f}"),
    ]


# ----------------------------------------------------------------------
# bit rot (integrity scrubbing)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BitRotResult:
    """Outcome of one rot -> scrub -> repair-audit pass."""

    #: ``(segment, node)`` of every rotted copy, in pick order
    rotted: Tuple[Tuple[SegmentId, NodeId], ...]
    scrub: "ScrubReport"
    #: the repair audit the scrub's quarantines triggered; ``None`` when
    #: none ran (a clean pass triggers none)
    audit: Optional["RedundancyReport"]
    #: servable replicas still failing verification after the repair
    corrupt_servable: int


def run_bit_rot(net: "SCDN", *, corrupt: int, seed: int = 7) -> BitRotResult:
    """Rot ``corrupt`` on-disk copies of a populated deployment, run one
    scrub pass, and report what it caught and repaired.

    The rotted copies are a seeded pick without replacement over every
    hosted copy (sorted by author, then segment), so a deployment and a
    ``seed`` always rot the same copies. The scrub quarantines what fails
    verification and triggers a repair audit.
    """
    if corrupt < 0:
        raise ConfigurationError(f"corrupt must be >= 0, got {corrupt}")
    copies = [
        (net.clients[author].repository, seg)
        for author in sorted(net.clients)
        for seg in sorted(net.clients[author].repository.hosted_segments())
    ]
    if not copies:
        raise ConfigurationError("no replicas on disk, nothing to scrub")
    rng = make_rng(seed)
    k = min(corrupt, len(copies))
    picks = sorted(int(i) for i in rng.choice(len(copies), size=k, replace=False))
    rotted = []
    for i in picks:
        repo, seg = copies[i]
        repo.corrupt_replica(seg, at=0.0)
        rotted.append((seg, repo.node_id))
    scrubber = net.integrity_scrubber()
    report = scrubber.scrub(at=0.0)  # quarantines + triggers repair audit
    audits = net.replication.reports
    return BitRotResult(
        rotted=tuple(rotted),
        scrub=report,
        audit=audits[-1] if audits else None,
        corrupt_servable=len(scrubber.corrupt_servable()),
    )


def bit_rot_gates(result: BitRotResult) -> List[Gate]:
    """The integrity gates over a :func:`run_bit_rot` result: every rotted
    copy is quarantined and re-replicated, and nothing corrupt stays
    servable. With nothing rotted, a clean pass (no quarantine, no audit)
    passes."""
    injected, audit = len(result.rotted), result.audit
    return [
        Gate("rot_quarantined", result.scrub.quarantined == injected,
             f"{result.scrub.quarantined}/{injected}"),
        Gate("repair_audit_ran", audit is not None or injected == 0,
             audit is not None),
        Gate("budget_restored", audit is None or audit.under_replicated == 0,
             "n/a" if audit is None else audit.under_replicated),
        Gate("no_corrupt_servable", result.corrupt_servable == 0,
             result.corrupt_servable),
    ]
